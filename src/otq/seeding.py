"""Deterministic per-image random streams.

Every sampled operation derives its generator from a (seed, key) pair via
SHA-256, so corpora reproduce bit-identically regardless of processing
order, thread count, or platform.
"""

from __future__ import annotations

import numpy as np


def derive_seed(seed: int, key: str) -> int:
    import hashlib  # loads OpenSSL, which only sampled degradations need
    digest = hashlib.sha256(f"{seed}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


def derive_rng(seed: int, key: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derive_seed(seed, key)))


def sample_without_replacement(rng: np.random.Generator, items: list, k: int) -> list:
    """Partial Fisher-Yates over a copy; returns k items in stable sorted order.

    Implemented on top of ``rng.integers`` only, to keep the stream layout
    independent of numpy's higher-level sampling helpers.
    """
    pool = list(items)
    n = len(pool)
    if k > n:
        raise ValueError(f"cannot sample {k} of {n} items")
    for i in range(k):
        j = i + int(rng.integers(0, n - i))
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:k])


def choose(rng: np.random.Generator, items: list):
    """Uniform pick via ``rng.integers``; items must be non-empty."""
    return items[int(rng.integers(0, len(items)))]
