"""One-to-one node assignment between predicted and reference trees.

The assignment maximizes total mask IoU over all one-to-one pairings
(labels play no role).  IoU values are quantized to 12 decimal digits
before solving so that optimality ties are exact integer ties; among
tied pairings, pairs are locally canonicalized toward (pred_id, ref_id)
lexicographic preference for reproducible output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

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


def max_weight_assignment(weights: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-total assignment on a dense weight matrix.

    Weights are quantized to ``IOU_DECIMALS`` digits; zero-weight pairs are
    never part of the result.  Returns (row, col) index pairs sorted by row.
    """
    if weights.size == 0:
        return []
    wq = np.round(np.asarray(weights, dtype=np.float64) * _SCALE).astype(np.int64)
    rows, cols = linear_sum_assignment(wq, maximize=True)
    keep = wq[rows, cols] > 0
    rows = list(rows[keep])
    cols = list(cols[keep])
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

    assigned = max_weight_assignment(weights)
    wq = np.round(weights * _SCALE).astype(np.int64)
    tau_q = round(tau_node * _SCALE)

    pairs = [(pred_ids[i], ref_ids[j], float(wq[i, j]) / _SCALE) for i, j in assigned]
    tp = [pair for pair, (i, j) in zip(pairs, assigned) if wq[i, j] >= tau_q]
    fp = sorted(set(pred_ids) - {p for p, _, _ in tp})
    fn = sorted(set(ref_ids) - {r for _, r, _ in tp})
    return MatchResult(pairs=pairs, tp=tp, fp=fp, fn=fn, tau_node=tau_node)
