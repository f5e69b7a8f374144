"""Label-similarity protocols producing scores in [0, 1].

A protocol is a symmetric table of label-pair similarities, e.g. produced
offline from embedding or lexical backends, plus a default for pairs the
table lacks.  Self-pairs score 1 when absent; missing cross-pairs score the
default, or reject the evaluation outright when the default is ``REJECT``.
``strict`` (exact match) is the empty table with default 0, and
``constant_one`` (the label-agnostic "LQ1" view) the empty table with
default 1.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .errors import SimilarityError
from .tree import normalize_label

log = logging.getLogger(__name__)

# Policy marker for default_for_missing: fail on pairs absent from the table.
REJECT = "reject"


@dataclass(frozen=True)
class SimilarityProtocol:
    """``table`` maps sorted normalized label pairs to similarities."""

    table: Mapping[tuple[str, str], float] = field(default_factory=dict)
    default_for_missing: float | str = REJECT

    def __post_init__(self) -> None:
        default = self.default_for_missing
        if isinstance(default, str) and default != REJECT:
            raise SimilarityError(
                f"default_for_missing must be a float or {REJECT!r}")
        if not isinstance(default, str) and not 0.0 <= default <= 1.0:
            raise SimilarityError(
                f"default_for_missing {default} outside [0, 1]")

    @classmethod
    def strict(cls) -> "SimilarityProtocol":
        return cls(default_for_missing=0.0)

    @classmethod
    def constant_one(cls) -> "SimilarityProtocol":
        return cls(default_for_missing=1.0)


def similarity(proto: SimilarityProtocol, a: str, b: str) -> float:
    """Symmetric similarity of two normalized labels under a protocol."""
    value = proto.table.get((a, b) if a <= b else (b, a))
    if value is not None:
        return value
    if a == b:
        return 1.0
    if proto.default_for_missing == REJECT:
        raise SimilarityError(
            f"label pair ({a!r}, {b!r}) missing from similarity table")
    return float(proto.default_for_missing)


def load_similarity_table(source: str | Path | Iterable[str],
                          default_for_missing: float | str = REJECT
                          ) -> SimilarityProtocol:
    """Load a JSONL table of ``{"a": str, "b": str, "sim": float}`` rows.

    Labels are normalized on load; of duplicate unordered pairs the later row
    wins, with a warning.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_similarity_table(list(fh), default_for_missing)
    table: dict[tuple[str, str], float] = {}
    for lineno, line in enumerate(source, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SimilarityError(f"line {lineno}: malformed JSON: {exc.msg}") from exc
        if (not isinstance(row, dict) or not isinstance(row.get("a"), str)
                or not isinstance(row.get("b"), str)
                or not isinstance(row.get("sim"), (int, float))
                or isinstance(row.get("sim"), bool)):
            raise SimilarityError(
                f"line {lineno}: expected {{'a': str, 'b': str, 'sim': float}}")
        sim = float(row["sim"])
        if not 0.0 <= sim <= 1.0:
            raise SimilarityError(f"line {lineno}: sim {sim} outside [0, 1]")
        a, b = normalize_label(row["a"]), normalize_label(row["b"])
        key = (a, b) if a <= b else (b, a)
        if key in table:
            log.warning("duplicate similarity pair %r at line %d, later value wins",
                        key, lineno)
        table[key] = sim
    return SimilarityProtocol(table, default_for_missing)


def protocol_from_spec(spec: str,
                       default_for_missing: float | str = REJECT) -> SimilarityProtocol:
    """Resolve a ``--label-sim`` style selector: strict | lq1 | table:<path>."""
    if spec == "strict":
        return SimilarityProtocol.strict()
    if spec == "lq1":
        return SimilarityProtocol.constant_one()
    if spec.startswith("table:"):
        path = spec[len("table:"):]
        if not path:
            raise SimilarityError("table selector needs a path: table:<path>")
        return load_similarity_table(path, default_for_missing)
    raise SimilarityError(
        f"unknown label-sim selector {spec!r}; use strict, lq1, or table:<path>")
