"""Seeded synthetic tree corpora for audits, demos, and scale tests.

Trees are built by recursive rectangle subdivision: disjoint sibling
rectangles strictly inside their parent, labeled from a small common-noun
vocabulary.  Masks are therefore unique within a tree, children overlap
their parents, and size bins span XS through L, which is what the metric
audits need.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .masks import Mask
from .seeding import derive_rng
from .tree import ROOT_ID, ImageCanvas, InstanceNode, OpenTree

DEFAULT_VOCAB = (
    "person", "car", "tree", "building", "dog", "cat", "chair", "table",
    "window", "door", "wheel", "leaf", "hand", "roof", "lamp", "cup",
    "shelf", "branch", "sign", "bag", "shoe", "plate", "screen", "handle",
)


def _grid_cells(r0: int, r1: int, c0: int, c1: int,
                n_rows: int, n_cols: int) -> Iterator[tuple[int, int, int, int]]:
    row_edges = np.linspace(r0, r1, n_rows + 1).astype(int)
    col_edges = np.linspace(c0, c1, n_cols + 1).astype(int)
    for i in range(n_rows):
        for j in range(n_cols):
            yield int(row_edges[i]), int(row_edges[i + 1]), \
                int(col_edges[j]), int(col_edges[j + 1])


def synthetic_tree(image_id: str, rng: np.random.Generator, *,
                   width: int = 160, height: int = 120,
                   grids: Sequence[tuple[int, int]] = ((3, 4), (2, 2), (2, 1)),
                   level_p: Sequence[float] = (1.0, 1.0, 0.28),
                   margin: int = 2, min_side: int = 3) -> OpenTree:
    """One random tree; ``grids``/``level_p`` control fanout per depth level."""
    canvas = ImageCanvas(image_id, width, height)
    nodes: list[InstanceNode] = []
    next_id = 1

    def subdivide(r0: int, r1: int, c0: int, c1: int,
                  parent_id: int, level: int) -> None:
        nonlocal next_id
        if level >= len(grids):
            return
        if rng.random() >= level_p[level]:
            return
        n_rows, n_cols = grids[level]
        for cr0, cr1, cc0, cc1 in _grid_cells(r0, r1, c0, c1, n_rows, n_cols):
            top = int(rng.integers(0, margin + 1))
            left = int(rng.integers(0, margin + 1))
            bottom = int(rng.integers(0, margin + 1))
            right = int(rng.integers(0, margin + 1))
            rr0, rr1 = cr0 + top, cr1 - bottom
            rc0, rc1 = cc0 + left, cc1 - right
            if rr1 - rr0 < min_side or rc1 - rc0 < min_side:
                continue
            mask = Mask.from_rect(width, height, rr0, rc0, rr1 - rr0, rc1 - rc0)
            node_id = next_id
            next_id += 1
            label = DEFAULT_VOCAB[int(rng.integers(0, len(DEFAULT_VOCAB)))]
            nodes.append(InstanceNode(node_id, label, mask, parent_id))
            # Children live strictly inside the parent rectangle.
            subdivide(rr0 + 1, rr1 - 1, rc0 + 1, rc1 - 1, node_id, level + 1)

    subdivide(0, height, 0, width, ROOT_ID, 0)
    return OpenTree(canvas, nodes)


def synthetic_corpus(n_images: int, seed: int = 0, *, prefix: str = "img",
                     **tree_kwargs) -> Iterator[OpenTree]:
    """Stream of seeded random trees with image ids ``{prefix}-0000`` etc."""
    for i in range(n_images):
        image_id = f"{prefix}-{i:04d}"
        yield synthetic_tree(image_id, derive_rng(seed, image_id), **tree_kwargs)


def chunky_corpus(n_images: int, seed: int = 0, *,
                  prefix: str = "chunk") -> Iterator[OpenTree]:
    """Corpus of large blocky masks; erosion sweeps need fine-grained area
    control, which small masks cannot give."""
    return synthetic_corpus(
        n_images, seed, prefix=prefix, width=160, height=120,
        grids=((2, 2), (2, 2)), level_p=(1.0, 1.0), margin=4, min_side=14)
