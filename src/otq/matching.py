"""One-to-one node assignment between predicted and reference trees.

The assignment maximizes total mask IoU over all one-to-one pairings
(labels play no role).  IoU values are quantized to 12 decimal digits
before solving so that optimality ties are exact integer ties; among
tied pairings, pairs are locally canonicalized toward (pred_id, ref_id)
lexicographic preference for reproducible output.

Most matrices need no solver.  When every row whose largest weight is
positive reaches it in exactly one column, and no two such rows share that
column, the row-to-column map is optimal: it attains the upper bound
sum(row maxima), and any assignment attaining that bound gives each such
row its maximum, which only that column holds.  So it is the unique
optimum over positive pairs, which is what the solver plus
canonicalization would return (weights must be non-negative, as IoU is).
Only matrices without this certificate import scipy's
``linear_sum_assignment`` (Crouse 2016).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .masks import iou, overlapping_pairs
from .tree import OpenTree

IOU_DECIMALS = 12
_SCALE = 10**IOU_DECIMALS


@dataclass
class MatchResult:
    """TP/FP/FN partition of a one-to-one assignment at a node threshold.

    ``pairs`` holds every assigned pair with positive IoU as
    (pred_id, ref_id, iou); ``tp`` is the subset at or above ``tau_node``.
    ``fp`` and ``fn`` are the remaining predicted and reference node ids.
    """

    pairs: list[tuple[int, int, float]]
    tp: list[tuple[int, int, float]]
    fp: list[int]
    fn: list[int]
    tau_node: float

    @property
    def tp_count(self) -> int:
        return len(self.tp)

    @property
    def fp_count(self) -> int:
        return len(self.fp)

    @property
    def fn_count(self) -> int:
        return len(self.fn)


def _canonicalize(rows: list[int], cols: list[int], wq: np.ndarray) -> list[int]:
    """Swap assigned column pairs while the total is unchanged so that
    earlier rows take smaller columns.  Weights are integers, so the
    no-total-change test is exact."""
    cols = list(cols)
    changed = True
    while changed:
        changed = False
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                ia, ib = rows[a], rows[b]
                ja, jb = cols[a], cols[b]
                if jb < ja and (wq[ia, jb] + wq[ib, ja]
                                == wq[ia, ja] + wq[ib, jb]):
                    cols[a], cols[b] = jb, ja
                    changed = True
    return cols


def _certified(wq: np.ndarray) -> list[tuple[int, int]] | None:
    """The (row, argmax column) pairs of the rows with a positive maximum
    if the row-maximum certificate holds, else None.  A negative weight voids
    it: the solver then fills every row, which can cost a positive pair."""
    best = wq.max(axis=1)
    rows = np.flatnonzero(best > 0)
    hits = wq[rows] == best[rows, None]
    cols = hits.argmax(axis=1)
    if (wq.min() < 0 or np.count_nonzero(hits) != len(rows)
            or np.unique(cols).size != len(cols)):
        return None
    return list(zip(rows.tolist(), cols.tolist()))


def max_weight_assignment(weights: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-total assignment on a dense weight matrix.

    Weights are quantized to ``IOU_DECIMALS`` digits; zero-weight pairs are
    never part of the result.  Returns (row, col) index pairs sorted by row.

    Certificate: if every row with a positive maximum reaches it in exactly
    one column, no two such rows share that column and no weight is
    negative, those pairs are returned without a solver.  Proof: their total
    is sum(row maxima), which bounds every assignment, and only they reach
    it.  Otherwise ``linear_sum_assignment`` solves the matrix and
    ``_canonicalize`` settles ties.
    """
    if weights.size == 0:
        return []
    wq = np.round(np.asarray(weights, dtype=np.float64) * _SCALE).astype(np.int64)
    certified = _certified(wq)
    if certified is not None:
        return certified
    # Imported here: at module level it would slow every ``otq`` start.
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(wq, maximize=True)
    keep = wq[rows, cols] > 0
    rows = rows[keep].tolist()
    cols = cols[keep].tolist()
    cols = _canonicalize(rows, cols, wq)
    return sorted(zip(rows, cols))


def match_trees(pred: OpenTree, ref: OpenTree, tau_node: float = 0.5) -> MatchResult:
    """Match non-root nodes of two trees on a shared canvas.

    Pairs with zero IoU are never emitted; the TP threshold is inclusive
    (IoU >= tau_node).
    """
    if not 0.0 < tau_node <= 1.0:
        raise ValidationError(f"tau_node must be in (0, 1], got {tau_node}")
    if pred.canvas != ref.canvas:
        raise ValidationError(
            f"canvas mismatch: {pred.canvas} vs {ref.canvas}")

    pred_ids = sorted(pred.nodes)
    ref_ids = sorted(ref.nodes)
    pred_masks = [pred.nodes[i].mask for i in pred_ids]
    ref_masks = [ref.nodes[j].mask for j in ref_ids]
    weights = np.zeros((len(pred_ids), len(ref_ids)), dtype=np.float64)
    # Pairs with disjoint bboxes keep IoU 0.
    for i, j in overlapping_pairs(pred_masks, ref_masks):
        weights[i, j] = iou(pred_masks[i], ref_masks[j])

    # Quantized as in the assignment: round() and np.round both round half
    # to even.
    assigned = [(i, j, round(float(weights[i, j]) * _SCALE))
                for i, j in max_weight_assignment(weights)]
    tau_q = round(tau_node * _SCALE)

    pairs = [(pred_ids[i], ref_ids[j], q / _SCALE) for i, j, q in assigned]
    tp = [pair for pair, (_, _, q) in zip(pairs, assigned) if q >= tau_q]
    fp = sorted(set(pred_ids) - {p for p, _, _ in tp})
    fn = sorted(set(ref_ids) - {r for _, r, _ in tp})
    return MatchResult(pairs=pairs, tp=tp, fp=fp, fn=fn, tau_node=tau_node)
