from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from otq import ImageCanvas, InstanceNode, Mask, OpenTree, ROOT_ID

# The same examples on every run, with no example database and no per-example
# deadline, so the tier-1 result does not depend on earlier runs or host speed.
settings.register_profile("otq", derandomize=True, database=None, deadline=None)
settings.load_profile("otq")


def rect(width: int, height: int, row: int, col: int,
         n_rows: int, n_cols: int) -> Mask:
    return Mask.from_rect(width, height, row, col, n_rows, n_cols)


def make_tree(spec, width=16, height=16, image_id="img"):
    """Build a tree from (id, label, parent_or_None, mask) tuples."""
    nodes = [
        InstanceNode(nid, label, mask,
                     ROOT_ID if parent is None else parent)
        for nid, label, parent, mask in spec
    ]
    return OpenTree(ImageCanvas(image_id, width, height), nodes)


@pytest.fixture
def chain_tree():
    """root -> a(1) -> b(2), nested rectangles."""
    return make_tree([
        (1, "a", None, rect(16, 16, 1, 1, 12, 12)),
        (2, "b", 1, rect(16, 16, 3, 3, 6, 6)),
    ])


@pytest.fixture
def two_branch_tree():
    """root -> a(1) -> {b(2), c(3)}, root -> d(4)."""
    return make_tree([
        (1, "a", None, rect(16, 16, 0, 0, 12, 12)),
        (2, "b", 1, rect(16, 16, 1, 1, 4, 4)),
        (3, "c", 1, rect(16, 16, 6, 6, 4, 4)),
        (4, "d", None, rect(16, 16, 13, 13, 3, 3)),
    ])


def random_rect_mask(rng: np.random.Generator, width: int, height: int) -> Mask:
    n_rows = int(rng.integers(2, max(3, height // 2)))
    n_cols = int(rng.integers(2, max(3, width // 2)))
    row = int(rng.integers(0, height - n_rows))
    col = int(rng.integers(0, width - n_cols))
    return rect(width, height, row, col, n_rows, n_cols)
