"""One-to-one node assignment between predicted and reference trees.

The assignment maximizes total mask IoU over one-to-one pairings (labels
play no role).  IoU values are quantized to 12 decimal digits before
solving, so optimality ties are exact integer ties.  Only positive weights
are ever paired; a negative weight counts as zero.

Tie rule: of all sets of positive pairs with the maximum total, the result
is the one whose sorted (row, col) list is lexicographically smallest.  Rows
and columns are in sorted-id order, so this is the smallest
(pred_id, ref_id) list, whatever order a solver works in.

Certificate.  Most matrices need no solver.  When every row whose largest
weight is positive reaches it in exactly one column, and no two such rows
share that column, those pairs attain the upper bound sum(row maxima), and
any set attaining it gives each such row its one maximal column.  So they
are the unique optimum.

Solver.  Otherwise rows and columns without a positive weight are dropped,
the rest is padded with zeros to a square, and shortest augmenting paths
over potentials (Jonker & Volgenant 1987; Crouse 2016) solve it after a
column and a row reduction, each Dijkstra step one numpy pass over the
columns.  The weights are integers, so it is exact.  The maximum-total sets
of positive pairs are exactly the positive parts of the maximum-total
perfect matchings of the square: a perfect matching's positive part has its
total, and any set of positive pairs extends to a perfect matching of at
least its total, as no weight is negative.  By complementary slackness,
given the solver's optimal duals ``u``, ``v`` (``u_i + v_j >= w_ij``
everywhere), the maximum-total perfect matchings are exactly the perfect
matchings that use only tight edges, ``u_i + v_j == w_ij`` (Burkard,
Dell'Amico & Martello, *Assignment Problems*, 2009).

Canonical pass.  Rows are decided in ascending order on the tight graph,
keeping a perfect matching M that agrees with every decision so far.  Row r
takes the smallest positive tight column c such that some tight perfect
matching agrees with the earlier decisions and pairs (r, c).  Such a
matching exists iff M has an alternating path, over edges the decisions
allow, from the row M gives c to the column M gives r (a symmetric
difference of perfect matchings is a union of alternating cycles); M is
switched along it.  If no column qualifies, r may use only zero-weight
edges from then on.  Take any other optimum and the first row at which the
two sorted lists differ: the pass pairs it and the other does not, or both
pair it and the pass's column is smaller.  The third case, the other
optimum pairing a row the pass left unpaired, cannot arise, as that optimum
would have qualified a column.  So the result is the lexicographic minimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
# Nothing here calls iou; the name stays importable at this attribute only
# so that the benchmark's traced run can wrap it.
from .masks import iou, overlapping_ious  # noqa: F401
from .tree import OpenTree

IOU_DECIMALS = 12
_SCALE = 10**IOU_DECIMALS
_INF = 1 << 60


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


def _certified(wq: np.ndarray) -> list[tuple[int, int]] | None:
    """The (row, argmax column) pairs of the rows with a positive maximum
    if the row-maximum certificate holds on non-negative ``wq``, else None."""
    best = wq.max(axis=1)
    rows = np.flatnonzero(best > 0)
    hits = wq[rows] == best[rows, None]
    cols = hits.argmax(axis=1).tolist()
    if np.count_nonzero(hits) != len(rows) or len(set(cols)) != len(cols):
        return None
    return list(zip(rows.tolist(), cols))


def _solve(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-cost perfect matching of a square int64 matrix by shortest
    augmenting paths.  Returns ``col4row`` and duals ``u``, ``v`` with
    ``cost - u[:, None] - v`` non-negative, and zero on the matching."""
    n = len(cost)
    # Doubled costs keep every distance even, so distance plus a 0/1 penalty
    # picks the least distance and, among those, a free column first.
    cost = 2 * cost
    # Column reduction: with v the column minima, u = 0 is feasible, and each
    # row that is the first minimum of some column starts matched to one.
    u = np.zeros(n, dtype=np.int64)
    v = cost.min(axis=0)
    row4col = np.full(n, -1, dtype=np.int64)
    col4row = np.full(n, -1, dtype=np.int64)
    rows, cols = np.unique(cost.argmin(axis=0), return_index=True)
    row4col[cols] = rows
    col4row[rows] = cols
    # Row reduction of the rows left free: u is each one's least reduced
    # cost, and it takes the first column reaching that if nobody has it.
    free = np.flatnonzero(col4row < 0)
    rest = cost[free] - v
    u[free] = rest.min(axis=1)
    best = rest.argmin(axis=1)
    unclaimed = row4col[best] < 0
    cols, first = np.unique(best[unclaimed], return_index=True)
    rows = free[unclaimed][first]
    row4col[cols] = rows
    col4row[rows] = cols
    reduced = np.empty(n, dtype=np.int64)
    for cur in np.flatnonzero(col4row < 0).tolist():
        dist = np.full(n, _INF, dtype=np.int64)
        path = np.zeros(n, dtype=np.int64)
        penalty = (row4col >= 0).astype(np.int64)  # a scanned column gets _INF
        i, min_val = cur, 0
        while True:
            np.subtract(cost[i], v, out=reduced)
            reduced += min_val - int(u[i])
            closer = reduced < dist
            np.copyto(path, i, where=closer)
            np.minimum(dist, reduced, out=dist)
            j = int(np.argmin(dist + penalty))
            min_val = int(dist[j])
            penalty[j] = _INF
            if row4col[j] < 0:
                break
            i = int(row4col[j])
        scanned = np.flatnonzero(penalty == _INF)
        slack = min_val - dist[scanned]
        owned = row4col[scanned] >= 0
        u[row4col[scanned[owned]]] += slack[owned]
        u[cur] += min_val
        v[scanned] -= slack
        while True:
            i = int(path[j])
            row4col[j] = i
            col4row[i], j = j, int(col4row[i])
            if i == cur:
                break
    return col4row, u // 2, v // 2


def _canonical(w: np.ndarray, col4row: np.ndarray, tight: np.ndarray,
               n_rows: int) -> list[tuple[int, int]]:
    """The positive pairs the canonical pass of the module docstring keeps
    over the first ``n_rows`` rows of a square matrix; ``col4row`` is a
    perfect matching on ``tight``."""
    col4row = col4row.copy()
    row4col = np.empty_like(col4row)
    row4col[col4row] = np.arange(len(col4row))
    allowed = tight.copy()
    positive = tight & (w > 0)
    # Locks only remove columns, so a row whose own column is its first
    # positive tight one keeps it, and a row with none stays unpaired.
    first = np.where(positive.any(axis=1), positive.argmax(axis=1), -1)
    via = np.zeros_like(col4row)
    for r in range(n_rows):
        t = int(col4row[r])
        if first[r] == t:
            allowed[:, t] = False
            continue
        if first[r] < 0:
            continue
        candidates = np.flatnonzero(allowed[r] & positive[r])
        if w[r, t] > 0:
            candidates = candidates[candidates < t]
        # Columns reached by a failed search lead nowhere for later ones.
        seen = np.zeros(len(w), dtype=bool)
        chosen = t if w[r, t] > 0 else -1
        for c in candidates.tolist():
            if seen[c]:
                continue
            seen[c] = True
            stack = [int(row4col[c])]
            while stack and not seen[t]:
                x = stack.pop()
                reach = np.flatnonzero(allowed[x] & ~seen)
                seen[reach] = True
                via[reach] = x
                stack.extend(row4col[reach].tolist())
            if seen[t]:
                j = t
                while j != c:
                    x = int(via[j])
                    row4col[j] = x
                    col4row[x], j = j, int(col4row[x])
                row4col[c], col4row[r] = r, c
                chosen = c
                break
        if chosen >= 0:
            allowed[:, chosen] = False
        else:
            allowed[r] &= w[r] == 0
    return [(r, int(col4row[r])) for r in range(n_rows) if w[r, col4row[r]] > 0]


def max_weight_assignment(weights: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-total assignment on a dense weight matrix.

    Weights are quantized to ``IOU_DECIMALS`` digits; only positive pairs are
    part of the result.  Returns the (row, col) index pairs of the
    lexicographically smallest maximum-total set, sorted by row: the
    certificate's pairs when it holds, else those of ``_solve`` and
    ``_canonical`` (module docstring).
    """
    if weights.size == 0:
        return []
    wq = np.round(np.asarray(weights, dtype=np.float64) * _SCALE).astype(np.int64)
    np.maximum(wq, 0, out=wq)
    certified = _certified(wq)
    if certified is not None:
        return certified
    rows = np.flatnonzero(wq.any(axis=1))
    cols = np.flatnonzero(wq.any(axis=0))
    n = max(len(rows), len(cols))
    w = np.zeros((n, n), dtype=np.int64)
    w[:len(rows), :len(cols)] = wq[np.ix_(rows, cols)]
    col4row, u, v = _solve(-w)
    tight = u[:, None] + v == -w
    return [(int(rows[r]), int(cols[c]))
            for r, c in _canonical(w, col4row, tight, len(rows))]


def match_trees(pred: OpenTree, ref: OpenTree, tau_node: float = 0.5) -> MatchResult:
    """Match non-root nodes of two trees on a shared canvas.

    The IoUs of all node pairs whose bboxes overlap come from one
    ``masks.overlapping_ious`` call on the two trees' run tables.  Pairs with zero
    IoU are never emitted; the TP threshold is inclusive (IoU >= tau_node).
    """
    if not 0.0 < tau_node <= 1.0:
        raise ValidationError(f"tau_node must be in (0, 1], got {tau_node}")
    if pred.canvas != ref.canvas:
        raise ValidationError(
            f"canvas mismatch: {pred.canvas} vs {ref.canvas}")

    pred_ids, ref_ids = pred.ids, ref.ids
    weights = np.zeros((len(pred_ids), len(ref_ids)), dtype=np.float64)
    # Pairs with disjoint bboxes keep IoU 0; the rest are scored in one call.
    rows, cols, values = overlapping_ious(pred.run_table, ref.run_table)
    weights[rows, cols] = values

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
