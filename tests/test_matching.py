from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from otq import (
    ValidationError,
    match_trees,
    max_weight_assignment,
    project_flat,
    synthetic_tree,
)

from conftest import make_tree, random_rect_mask, rect
from oracles import brute_force_max_total

SCALE = 10**12


def quantized(weights):
    return np.round(np.asarray(weights, dtype=np.float64) * SCALE).astype(np.int64)


class TestAssignment:
    def test_spec_three_by_three(self):
        weights = np.array([[0.9, 0.6, 0.0],
                            [0.7, 0.8, 0.0],
                            [0.0, 0.0, 0.4]])
        assigned = max_weight_assignment(weights)
        assert assigned == [(0, 0), (1, 1), (2, 2)]
        total = sum(int(quantized(weights)[i, j]) for i, j in assigned)
        assert total == brute_force_max_total(quantized(weights))

    def test_zero_weight_pairs_never_emitted(self):
        weights = np.array([[0.9, 0.0], [0.0, 0.0]])
        assert max_weight_assignment(weights) == [(0, 0)]

    def test_random_matrices_match_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            weights = rng.random((n, m)) * (rng.random((n, m)) < 0.7)
            assigned = max_weight_assignment(weights)
            wq = quantized(weights)
            total = sum(int(wq[i, j]) for i, j in assigned)
            assert total == brute_force_max_total(wq)

    def test_tie_canonicalization_prefers_low_indices(self):
        # Both diagonals tie; earlier row should take the earlier column.
        weights = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert max_weight_assignment(weights) == [(0, 0), (1, 1)]
        weights = np.array([[0.2, 0.2, 0.2]] * 3)
        assert max_weight_assignment(weights) == [(0, 0), (1, 1), (2, 2)]


class TestQuantization:
    """IoU is quantized to 12 decimals, so values that differ by less than
    that tie exactly and resolve the same way on every platform."""

    def test_sub_quantum_differences_tie(self):
        weights = np.array([[0.5, 0.5 + 1e-14], [0.5 + 1e-14, 0.5]])
        rows, cols = linear_sum_assignment(weights, maximize=True)
        assert list(zip(rows, cols)) == [(0, 1), (1, 0)]
        assert max_weight_assignment(weights) == [(0, 0), (1, 1)]

    def test_reported_iou_has_twelve_decimals(self):
        pred = make_tree([(1, "x", None, rect(8, 8, 0, 0, 4, 2))],
                         width=8, height=8)
        ref = make_tree([(5, "x", None, rect(8, 8, 0, 0, 2, 4))],
                        width=8, height=8)
        assert match_trees(pred, ref, 0.3).tp == [(1, 5, 0.333333333333)]


class TestMatchTrees:
    def test_identity_match(self, two_branch_tree):
        result = match_trees(two_branch_tree, two_branch_tree)
        assert [(p, r) for p, r, _ in result.tp] == [(i, i) for i in (1, 2, 3, 4)]
        assert all(v == 1.0 for _, _, v in result.tp)
        assert result.fp == [] and result.fn == []

    def test_empty_prediction(self, two_branch_tree):
        empty = make_tree([], width=16, height=16)
        result = match_trees(empty, two_branch_tree)
        assert result.tp == [] and result.fp == []
        assert result.fn == [1, 2, 3, 4]

    def test_partition_sizes(self):
        rng = np.random.default_rng(23)
        for i in range(20):
            ref = synthetic_tree(f"r{i}", rng, width=40, height=40,
                                 grids=((2, 2), (2, 1)), level_p=(1.0, 0.6))
            pred = project_flat(ref)
            res = match_trees(pred, ref)
            assert res.tp_count + res.fp_count == pred.n_nodes
            assert res.tp_count + res.fn_count == ref.n_nodes

    def test_raising_tau_never_increases_tp(self):
        rng = np.random.default_rng(29)
        ref = make_tree(
            [(i, "n", None, random_rect_mask(rng, 20, 20)) for i in range(1, 7)],
            width=20, height=20)
        pred = make_tree(
            [(i, "n", None, random_rect_mask(rng, 20, 20)) for i in range(1, 7)],
            width=20, height=20)
        last = None
        for tau in (0.1, 0.3, 0.5, 0.7, 0.9):
            count = match_trees(pred, ref, tau).tp_count
            if last is not None:
                assert count <= last
            last = count

    def test_canvas_mismatch_rejected(self, two_branch_tree):
        other = make_tree([(1, "a", None, rect(8, 8, 0, 0, 4, 4))],
                          width=8, height=8)
        with pytest.raises(ValidationError, match="canvas mismatch"):
            match_trees(two_branch_tree, other)

    def test_pairs_below_tau_counted_as_fp_and_fn(self):
        # Two masks overlapping at IoU 1/3 (below 0.5).
        pred = make_tree([(1, "x", None, rect(8, 8, 0, 0, 4, 2))],
                         width=8, height=8)
        ref = make_tree([(5, "x", None, rect(8, 8, 0, 0, 2, 4))],
                        width=8, height=8)
        res = match_trees(pred, ref, 0.5)
        assert res.pairs and res.tp == []
        assert res.fp == [1] and res.fn == [5]

    def test_total_iou_is_maximal_on_random_trees(self):
        rng = np.random.default_rng(31)
        for case in range(30):
            n_pred = int(rng.integers(1, 6))
            n_ref = int(rng.integers(1, 6))
            pred = make_tree(
                [(i, "n", None, random_rect_mask(rng, 16, 16))
                 for i in range(1, n_pred + 1)], width=16, height=16)
            ref = make_tree(
                [(i, "n", None, random_rect_mask(rng, 16, 16))
                 for i in range(1, n_ref + 1)], width=16, height=16)
            res = match_trees(pred, ref)
            pred_ids = sorted(pred.nodes)
            ref_ids = sorted(ref.nodes)
            from otq import iou
            wq = quantized([[iou(pred.nodes[p].mask, ref.nodes[r].mask)
                             for r in ref_ids] for p in pred_ids])
            total = round(sum(v for _, _, v in res.pairs) * SCALE)
            assert total == brute_force_max_total(wq)
