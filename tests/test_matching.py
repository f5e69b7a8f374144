from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.optimize import linear_sum_assignment

from otq import (
    ValidationError,
    match_trees,
    matching,
    max_weight_assignment,
    project_flat,
    synthetic_tree,
)

from conftest import make_tree, random_rect_mask, rect
from oracles import brute_force_max_total, lexmin_assignment

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


# Optima of this matrix differ by a 3-cycle, so it has ties no pair swap
# settles; its row maxima are not distinct, so the solver handles it.
THREE_CYCLE = np.array([[1, 1, 0, 0], [0, 0, 0, 0], [2, 1, 2, 1], [1, 2, 2, 1]]) / 2
# Row maxima in distinct columns: the certificate holds.
CERTIFIED = np.array([[0.9, 0.6, 0.0], [0.7, 0.8, 0.0], [0.0, 0.0, 0.4]])


@st.composite
def weight_matrices(draw, max_side=7):
    """Non-negative matrices of at most ``max_side`` x ``max_side``, with
    quarter-step entries (exact ties) or free ones, with a row and a column
    sometimes copied over another (tied lines) and a row sometimes zeroed."""
    n_rows = draw(st.integers(0, max_side))
    n_cols = draw(st.integers(0, max_side))
    entry = draw(st.sampled_from([st.integers(0, 4).map(lambda k: k / 4),
                                  st.floats(0, 1)]))
    weights = np.array(draw(st.lists(entry, min_size=n_rows * n_cols,
                                     max_size=n_rows * n_cols)),
                       dtype=np.float64).reshape(n_rows, n_cols)
    if n_rows > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(n_rows)))[:2]
        weights[dst] = weights[src]
    if n_cols > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(n_cols)))[:2]
        weights[:, dst] = weights[:, src]
    if n_rows and draw(st.booleans()):
        weights[draw(st.integers(0, n_rows - 1))] = 0
    return weights


class TestAgainstSolver:
    """The certificate and the solver both return the lexicographically
    smallest maximum-total set of positive pairs (``lexmin_assignment``)."""

    @given(weight_matrices())
    @example(np.zeros((0, 0)))
    @example(np.zeros((0, 4)))
    @example(np.zeros((3, 0)))
    @example(np.zeros((4, 3)))
    @example(THREE_CYCLE)
    @example(CERTIFIED)
    @example(np.array([[0.5, 0.5], [0.5, 0.5]]))
    @example(np.array([[0.0, 0.0], [0.5, 0.5]]))
    @example(np.array([[1.0, 0.8], [-0.2, -1.0]]))
    def test_equals_solver(self, weights):
        assert max_weight_assignment(weights) == lexmin_assignment(weights)

    @pytest.mark.parametrize("weights, expected", [
        (THREE_CYCLE, [(0, 0), (2, 2), (3, 1)]),
        # A tied row beside a zero row takes column 0.
        (np.array([[0.0, 0.0], [0.5, 0.5]]), [(1, 0)]),
        # Negative weights are never paired, so row 0 keeps its maximum.
        (np.array([[1.0, 0.8], [-0.2, -1.0]]), [(0, 0)]),
    ])
    def test_pinned_ties(self, weights, expected):
        assert max_weight_assignment(weights) == expected

    def test_tie_through_match_trees(self):
        # Pred 2 equals both references; the smaller ref id wins.
        pred = make_tree([(1, "x", None, rect(16, 16, 0, 0, 3, 3)),
                          (2, "x", None, rect(16, 16, 8, 8, 4, 4))])
        ref = make_tree([(1, "x", None, rect(16, 16, 8, 8, 4, 4)),
                         (2, "x", None, rect(16, 16, 8, 8, 4, 4))])
        assert [(p, r) for p, r, _ in match_trees(pred, ref).pairs] == [(2, 1)]

    def test_total_is_optimal_beyond_enumeration(self):
        rng = np.random.default_rng(41)
        for case in range(60):
            n_rows, n_cols = rng.integers(1, 81, size=2)
            density = rng.random()
            if case % 2:  # few distinct values: many ties
                weights = rng.integers(0, 4, size=(n_rows, n_cols)) / 4
            else:
                weights = rng.random((n_rows, n_cols))
            weights *= rng.random((n_rows, n_cols)) < density
            assigned = max_weight_assignment(weights)
            wq = quantized(weights)
            rows, cols = zip(*assigned) if assigned else ((), ())
            assert len(set(rows)) == len(set(cols)) == len(assigned)
            assert all(wq[i, j] > 0 for i, j in assigned)
            best_rows, best_cols = linear_sum_assignment(wq, maximize=True)
            assert sum(int(wq[i, j]) for i, j in assigned) == int(
                wq[best_rows, best_cols].sum())

    def test_independent_of_the_optimum_the_solver_finds(self, monkeypatch):
        # The solver sees its square with rows and columns shuffled, so it
        # reaches other optima and other duals; the answer must not move.
        solve, rng = matching._solve, np.random.default_rng(43)

        def shuffled_solve(cost):
            rows, cols = rng.permutation(len(cost)), rng.permutation(len(cost))
            col4row, u, v = solve(cost[np.ix_(rows, cols)])
            out = np.empty_like(col4row), np.empty_like(u), np.empty_like(v)
            out[0][rows], out[1][rows], out[2][cols] = cols[col4row], u, v
            return out

        matrices = [THREE_CYCLE, np.array([[0.0, 0.0], [0.5, 0.5]])]
        for _ in range(30):
            n_rows, n_cols = rng.integers(2, 31, size=2)
            matrices.append(rng.integers(0, 3, size=(n_rows, n_cols)) / 2
                            * (rng.random((n_rows, n_cols)) < rng.random()))
        expected = [max_weight_assignment(weights) for weights in matrices]
        monkeypatch.setattr(matching, "_solve", shuffled_solve)
        for _ in range(5):
            assert [max_weight_assignment(weights) for weights in matrices] == expected

    def test_examples_reach_both_paths(self):
        def certified(weights):
            return matching._certified(np.maximum(quantized(weights), 0)) is not None

        assert certified(CERTIFIED) and certified(np.zeros((4, 3)))
        assert not certified(THREE_CYCLE)
        assert not certified(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert not certified(np.array([[0.0, 0.0], [0.5, 0.5]]))
        # Negative weights count as zero and leave the bound intact.
        assert certified(np.array([[1.0, 0.8], [-0.2, -1.0]]))


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
