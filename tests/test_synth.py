"""The synthetic generators: grid edges, and the bytes that generated
corpora serialize to."""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from otq import (DegradeSpec, chunky_corpus, degrade_tree, serialize_tree, synthetic_corpus,
                 synthetic_tree)
from otq.seeding import derive_rng
from otq.synth import _edges, _grid_cells


def _linspace_cells(r0, r1, c0, c1, n_rows, n_cols):
    rows = np.linspace(r0, r1, n_rows + 1).astype(int).tolist()
    cols = np.linspace(c0, c1, n_cols + 1).astype(int).tolist()
    return [(rows[i], rows[i + 1], cols[j], cols[j + 1])
            for i in range(n_rows) for j in range(n_cols)]


ends = st.integers(0, 4096)


class TestGridEdges:
    @given(ends, ends, st.integers(1, 8))
    @example(0, 0, 1)  # equal ends
    @example(37, 37, 8)
    @example(6, 5, 2)  # a box that shrank to nothing: the end before the start
    @example(9, 7, 8)
    @example(7, 0, 3)
    @example(3, 53, 6)  # (b - a) * (1 / n) would put edge 3 at 27, not 28
    @example(0, 119, 3)
    @example(3, 1021, 6)
    def test_edges_equal_linspace(self, a, b, n):
        edges = _edges(a, b, n)
        assert edges == np.linspace(a, b, n + 1).astype(int).tolist()
        assert all(type(e) is int for e in edges)

    @given(ends, ends, ends, ends, st.integers(1, 8), st.integers(1, 8))
    @example(5, 5, 10, 3, 2, 8)
    def test_cells_equal_those_of_linspace_edges(self, r0, r1, c0, c1, n_rows, n_cols):
        cells = list(_grid_cells(r0, r1, c0, c1, n_rows, n_cols))
        assert cells == _linspace_cells(r0, r1, c0, c1, n_rows, n_cols)

    def test_an_empty_grid_has_no_cells(self):
        assert list(_grid_cells(0, 10, 0, 10, 0, 3)) == []
        assert list(_grid_cells(0, 10, 0, 10, 3, 0)) == []


def _sha256(trees) -> str:
    digest = hashlib.sha256()
    for tree in trees:
        digest.update((serialize_tree(tree) + "\n").encode())
    return digest.hexdigest()


def _benchmark_prediction(tree):
    for kind in ("random_node_missing", "parent_rewire"):
        tree = degrade_tree(tree, DegradeSpec(kind, 0.9, 0))
    return tree


class TestGeneratedBytes:
    """sha256 of the JSONL that generated corpora serialize to, recorded
    before masks kept their strings and rectangles their runs.  A report
    digest cannot catch a shifted edge, as a prediction that reuses its
    reference's masks still scores IoU 1."""

    def test_acceptance_corpus_prefix_and_its_predictions(self):
        refs = list(itertools.islice(synthetic_corpus(1000, seed=909), 20))
        assert _sha256(refs) == (
            "59fa7b1df59a07d66e6d36e39d41e05613bf8730080426f103fd920bae0c3db0")
        assert _sha256(_benchmark_prediction(t) for t in refs) == (
            "9e09bd13dc5dc5797fc6d409aa1edeff24019ac462fa0126962e586c332614c2")

    def test_chunky_corpus_prefix(self):
        assert _sha256(itertools.islice(chunky_corpus(50, seed=404), 4)) == (
            "066c1c9646802c7fbecead4e983355db7a95b04e962301c717f518f2a32c2f56")

    def test_large_canvas_tree(self):
        tree = synthetic_tree("large-0000", derive_rng(2048, "large-0000"),
                              width=1024, height=768, grids=((6, 8), (2, 3), (2, 2)))
        assert tree.n_nodes == 668
        assert _sha256([tree]) == (
            "87c5265559b9e7143bd6a88649c44dfda3e109a3ed1df37e9c50f932a7ca61f5")
