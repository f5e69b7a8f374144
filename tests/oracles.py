"""Independent brute-force implementations used to cross-check the library.

Everything here is deliberately naive: assignments by exhaustive
enumeration, depths by BFS over an adjacency list, LCA by ancestor-set
intersection, skeletons by a direct reading of the climbing rule on full
mask arrays, climb pairs by a walk up from each node, a whole per-image report
by a direct reading of the metric, the RLE codec and mask overlaps on
full-canvas arrays (``canvas_pixels``), morphology by one 3x3 step at a time, corpus
aggregation by one hand-written sum per field and mode, sibling merging by
scipy's connected components.  Nothing imports
the modules under test beyond data types.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import ndimage

from otq import ROOT_ID, Mask, OpenTree, RleError
from otq.metric import OtqReport


def canvas_pixels(mask: Mask) -> np.ndarray:
    """The full-canvas read-only (height, width) array of a mask, each of
    its runs set in turn over the canvas in column-major order."""
    flat = np.zeros(mask.height * mask.width, dtype=bool)
    for start, stop in zip(*(r.tolist() for r in mask._runs)):
        flat[start:stop] = True
    out = flat.reshape(mask.width, mask.height).T
    out.setflags(write=False)
    return out


def brute_force_max_total(weights: np.ndarray) -> int:
    """Maximum total weight over all one-to-one assignments (integer matrix)."""
    n_rows, n_cols = weights.shape
    best = 0
    if n_rows <= n_cols:
        for perm in itertools.permutations(range(n_cols), n_rows):
            total = sum(int(weights[i, perm[i]]) for i in range(n_rows))
            best = max(best, total)
    else:
        for perm in itertools.permutations(range(n_rows), n_cols):
            total = sum(int(weights[perm[j], j]) for j in range(n_cols))
            best = max(best, total)
    return best


_SCALE = 10**12  # IoU quantization: 12 decimal digits


def lexmin_assignment(weights: np.ndarray) -> list[tuple[int, int]]:
    """Quantize to 12 decimals, then enumerate every one-to-one map of the
    shorter side into the longer one; each set of positive pairs is the
    positive part of such a map.  Returns the sorted (row, col) list that
    has the maximum total and, of those, is lexicographically smallest.
    ``max_weight_assignment`` must equal it, certificate or not."""
    wq = np.round(np.asarray(weights, dtype=np.float64) * _SCALE).astype(np.int64)
    n_rows, n_cols = wq.shape
    if n_rows <= n_cols:
        maps = (list(enumerate(perm))
                for perm in itertools.permutations(range(n_cols), n_rows))
    else:
        maps = ([(i, j) for j, i in enumerate(perm)]
                for perm in itertools.permutations(range(n_rows), n_cols))
    positive = ([(i, j) for i, j in sorted(pairs) if wq[i, j] > 0] for pairs in maps)
    return min(positive, key=lambda pairs: (-sum(int(wq[p]) for p in pairs), pairs))


def bfs_depths(tree: OpenTree) -> dict[int, int]:
    """Depths recomputed by BFS over an adjacency list built from scratch."""
    children: dict[int, list[int]] = {ROOT_ID: []}
    for nid, node in tree.nodes.items():
        children.setdefault(nid, [])
        children.setdefault(node.parent_id, []).append(nid)
    depths = {ROOT_ID: 0}
    frontier = [ROOT_ID]
    while frontier:
        nxt = []
        for cur in frontier:
            for kid in children[cur]:
                depths[kid] = depths[cur] + 1
                nxt.append(kid)
        frontier = nxt
    del depths[ROOT_ID]
    return depths


def _label_path(tree: OpenTree, nid: int) -> tuple[str, ...]:
    labels = []
    while nid != ROOT_ID:
        labels.append(tree.nodes[nid].label)
        nid = tree.nodes[nid].parent_id
    return tuple(reversed(labels))


def _pixel_iou(a: np.ndarray, b: np.ndarray) -> float:
    inter = int(np.count_nonzero(a & b))
    union = int(np.count_nonzero(a | b))
    return inter / union if union else 0.0


def _window_iou(a: Mask, b: Mask) -> float:
    """IoU of two masks whose bboxes overlap, drawn on the union of the
    bboxes."""
    (ar0, ar1, ac0, ac1), (br0, br1, bc0, bc1) = a.bbox, b.bbox
    r0, c0 = min(ar0, br0), min(ac0, bc0)
    drawn = []
    for m, (m0, m1, n0, n1) in ((a, a.bbox), (b, b.bbox)):
        canvas = np.zeros((max(ar1, br1) - r0, max(ac1, bc1) - c0), dtype=bool)
        canvas[m0 - r0:m1 - r0, n0 - c0:n1 - c0] = canvas_pixels(m)[m0:m1, n0:n1]
        drawn.append(canvas)
    return _pixel_iou(*drawn)


def greedy_compat_inputs(candidates: list[OpenTree], references: list[OpenTree]
                         ) -> tuple[list[float], list[str]]:
    """For every reference mask, by image id and then node id: the IoU of
    the candidate mask it consumes, one pair at a time in order of falling
    IoU, then reference and candidate id (0.0 if none), and its size bin
    (XS < 10**2 <= S* < 32**2 <= M < 96**2 <= L pixels)."""
    by_id = {t.canvas.image_id: t for t in candidates}
    ious: list[float] = []
    bins: list[str] = []
    for ref in sorted(references, key=lambda t: t.canvas.image_id):
        refs = [n.mask for n in ref.nodes.values()]
        cands = [n.mask for n in by_id[ref.canvas.image_id].nodes.values()]
        a, b = (np.array([m.bbox for m in ms], dtype=np.int64).reshape(-1, 4)
                for ms in (refs, cands))
        meet = ((a[:, None, 0] < b[None, :, 1]) & (b[None, :, 0] < a[:, None, 1])
                & (a[:, None, 2] < b[None, :, 3]) & (b[None, :, 2] < a[:, None, 3]))
        scored = sorted((-value, i, j) for i, j in zip(*np.nonzero(meet))
                        if (value := _window_iou(refs[i], cands[j])) > 0)
        matched = [0.0] * len(refs)
        used_ref: set[int] = set()
        used_cand: set[int] = set()
        for value, i, j in scored:
            if i not in used_ref and j not in used_cand:
                used_ref.add(i)
                used_cand.add(j)
                matched[i] = -value
        ious.extend(matched)
        bins.extend("XS" if m.area < 10**2 else "S*" if m.area < 32**2
                    else "M" if m.area < 96**2 else "L" for m in refs)
    return ious, bins


def naive_climb_pairs(tree: OpenTree) -> list[tuple[int, int, int, float]]:
    """``(node, other, depth, iou)`` by a walk up from each node in id
    order: at each ancestor, innermost first, every node with the
    ancestor's label path whose mask meets the node's, in id order, as
    positions in id order, the path's length and the full-canvas IoU."""
    ids = sorted(tree.nodes)
    at = {nid: k for k, nid in enumerate(ids)}
    paths = {nid: _label_path(tree, nid) for nid in ids}
    out = []
    for nid in ids:
        pixels = canvas_pixels(tree.nodes[nid].mask)
        anc = tree.nodes[nid].parent_id
        while anc != ROOT_ID:
            path = paths[anc]
            for other in ids:
                if paths[other] == path:
                    score = _pixel_iou(pixels, canvas_pixels(tree.nodes[other].mask))
                    if score > 0:
                        out.append((at[nid], at[other], len(path), score))
            anc = tree.nodes[anc].parent_id
    return out


def naive_skeleton_parents(tree: OpenTree, tp_ids: set[int]) -> dict[int, int]:
    """Skeleton parents by direct rule application on full arrays."""
    parents: dict[int, int] = {}
    for nid in tp_ids:
        pixels = canvas_pixels(tree.nodes[nid].mask)
        chosen = ROOT_ID
        anc = tree.nodes[nid].parent_id
        while anc != ROOT_ID:
            anc_path = _label_path(tree, anc)
            best = None
            for cand in sorted(tp_ids):
                if _label_path(tree, cand) != anc_path:
                    continue
                cand_pixels = canvas_pixels(tree.nodes[cand].mask)
                if not np.any(pixels & cand_pixels):
                    continue
                score = _pixel_iou(pixels, cand_pixels)
                if best is None or score > best[0]:
                    best = (score, cand)
            if best is not None:
                chosen = best[1]
                break
            anc = tree.nodes[anc].parent_id
        parents[nid] = chosen
    return parents


def ancestor_set_lca(parents: dict[int, int], a: int, b: int) -> int:
    """LCA by intersecting root-paths; deepest common vertex wins."""

    def chain(x: int) -> list[int]:
        out = [x]
        while x != ROOT_ID:
            x = parents[x]
            out.append(x)
        return out

    chain_a = chain(a)
    common = set(chain_a) & set(chain(b))
    for x in chain_a:  # ordered deepest-first
        if x in common:
            return x
    return ROOT_ID


def all_pairs_bq(pred_parents: dict[int, int], ref_parents: dict[int, int],
                 tp_pairs: list[tuple[int, int]]) -> float:
    """Branch quality of two skeleton parent maps over every unordered TP
    pair, each pair's common parents found by ancestor-set LCA."""
    if len(tp_pairs) < 2:
        return 1.0
    ref_to_pred = {r: p for p, r in tp_pairs}
    ref_to_pred[ROOT_ID] = ROOT_ID
    consistent = total = 0
    for (p1, r1), (p2, r2) in itertools.combinations(tp_pairs, 2):
        lca_ref = ancestor_set_lca(ref_parents, r1, r2)
        lca_pred = ancestor_set_lca(pred_parents, p1, p2)
        consistent += ref_to_pred[lca_ref] == lca_pred
        total += 1
    return consistent / total


def naive_bq(pred: OpenTree, ref: OpenTree,
             tp_pairs: list[tuple[int, int]]) -> float:
    """Branch quality via naive skeletons and all-pairs ancestor-set LCA."""
    return all_pairs_bq(naive_skeleton_parents(pred, {p for p, _ in tp_pairs}),
                        naive_skeleton_parents(ref, {r for _, r in tp_pairs}),
                        tp_pairs)


def naive_assignments(pred: OpenTree, ref: OpenTree
                      ) -> tuple[list[list[tuple[int, int]]], dict[tuple[int, int], int]]:
    """Every maximum-total one-to-one set of positive-IoU (pred_id, ref_id)
    pairs, each sorted, found by exhaustive enumeration (keep both trees to
    about 7 nodes); and the quantized IoU of every pred x ref pair."""
    pixels = {("p", n): canvas_pixels(node.mask) for n, node in pred.nodes.items()}
    pixels.update({("r", n): canvas_pixels(node.mask) for n, node in ref.nodes.items()})
    wq = {(p, r): round(_pixel_iou(pixels["p", p], pixels["r", r]) * _SCALE)
          for p in pred.nodes for r in ref.nodes}
    pred_ids, ref_ids = sorted(pred.nodes), sorted(ref.nodes)

    def extend(i: int, used: frozenset):
        if i == len(pred_ids):
            yield []
            return
        yield from extend(i + 1, used)
        for r in ref_ids:
            if r not in used and wq[pred_ids[i], r] > 0:
                for rest in extend(i + 1, used | {r}):
                    yield [(pred_ids[i], r)] + rest

    scored = [(sum(wq[pair] for pair in pairs), pairs) for pairs in extend(0, frozenset())]
    best = max(total for total, _ in scored)
    return [pairs for total, pairs in scored if total == best], wq


def _similarity(proto, a: str, b: str) -> float:
    """Table value, else 1 for a self-pair, else the protocol's default."""
    key = (a, b) if a <= b else (b, a)
    if key in proto.table:
        return proto.table[key]
    return 1.0 if a == b else float(proto.default_for_missing)


def naive_otq(pred: OpenTree, ref: OpenTree, proto, tau: float = 0.5) -> dict:
    """The per-image report record, read straight off the metric definition.

    Matching: dense pixel IoU quantized to 12 decimals, the maximum-total
    one-to-one assignment by enumeration; of several maxima the one whose
    sorted (pred_id, ref_id) list is lexicographically smallest wins.  TP
    pairs have quantized IoU >= tau.  Skeleton ties go to the smaller node
    id (``naive_skeleton_parents``).
    """
    optima, wq = naive_assignments(pred, ref)
    tau_q = round(tau * _SCALE)
    tp = [(p, r, wq[p, r] / _SCALE) for p, r in min(optima) if wq[p, r] >= tau_q]
    n_tp = len(tp)
    fp = len(pred.nodes) - n_tp
    fn = len(ref.nodes) - n_tp
    record = {"image_id": ref.canvas.image_id, "tp": n_tp, "fp": fp, "fn": fn,
              "n_pairs": n_tp * (n_tp - 1) // 2}
    if not tp:
        return {**record, "otq": 0.0, "tq": 0.0, "bq": 0.0,
                "mean_nq": 0.0, "mq": 0.0, "lq": 0.0}
    sims = [_similarity(proto, pred.nodes[p].label, ref.nodes[r].label) for p, r, _ in tp]
    mean_nq = sum(v * s for (_, _, v), s in zip(tp, sims)) / n_tp
    bq = naive_bq(pred, ref, [(p, r) for p, r, _ in tp])
    tq = bq * n_tp / (n_tp + 0.5 * fp + 0.5 * fn)
    return {**record, "otq": tq * mean_nq, "tq": tq, "bq": bq, "mean_nq": mean_nq,
            "mq": sum(v for _, _, v in tp) / n_tp, "lq": sum(sims) / n_tp}


def tree_lca(tree: OpenTree, a: int, b: int) -> int:
    """LCA in the original tree (not a skeleton)."""
    parents = {nid: node.parent_id for nid, node in tree.nodes.items()}
    return ancestor_set_lca(parents, a, b)


def root_lca_pair_fraction(ref: OpenTree, tp_ref_ids: list[int]) -> float:
    """Fraction of unordered TP pairs whose reference-tree LCA is the root."""
    if len(tp_ref_ids) < 2:
        return 1.0
    at_root = total = 0
    for a, b in itertools.combinations(sorted(tp_ref_ids), 2):
        at_root += tree_lca(ref, a, b) == ROOT_ID
        total += 1
    return at_root / total


_SQUARE3 = np.ones((3, 3), dtype=bool)


def _closer_step(prev: np.ndarray, nxt: np.ndarray, target: float) -> np.ndarray:
    """Of two bracketing steps the closer in area wins; ties go to ``nxt``."""
    nxt_off = abs(int(np.count_nonzero(nxt)) - target)
    prev_off = abs(int(np.count_nonzero(prev)) - target)
    return nxt if nxt_off <= prev_off else prev


def iterated_erode(pixels: np.ndarray, keep_ratio: float) -> np.ndarray:
    """3x3 erosions one step at a time until the area drops to
    ``keep_ratio`` times the original or below."""
    target = keep_ratio * int(np.count_nonzero(pixels))
    prev = pixels
    while True:
        nxt = ndimage.binary_erosion(prev, structure=_SQUARE3)
        if np.count_nonzero(nxt) <= target:
            return _closer_step(prev, nxt, target)
        prev = nxt


def iterated_dilate(pixels: np.ndarray, grow_ratio: float) -> np.ndarray:
    """3x3 dilations one step at a time until the area reaches
    ``grow_ratio`` times the original, or stops growing."""
    target = grow_ratio * int(np.count_nonzero(pixels))
    prev = pixels
    while True:
        nxt = ndimage.binary_dilation(prev, structure=_SQUARE3)
        if np.count_nonzero(nxt) == np.count_nonzero(prev):
            return prev
        if np.count_nonzero(nxt) >= target:
            return _closer_step(prev, nxt, target)
        prev = nxt


def dense_rle_encode(pixels: np.ndarray) -> str:
    """Canonical uncompressed RLE of a full-canvas (height, width) array."""
    flat = np.ascontiguousarray(pixels, dtype=bool).ravel(order="F")
    flat8 = flat.view(np.int8)
    change = np.flatnonzero(flat8[1:] != flat8[:-1]) + 1
    bounds = np.concatenate(([0], change, [flat8.size]))
    runs = np.diff(bounds)
    if flat[0]:
        runs = np.concatenate(([0], runs))
    return " ".join(str(int(r)) for r in runs)


def dense_rle_decode(rle: str, width: int, height: int) -> np.ndarray:
    """Full-canvas (height, width) array of a valid canonical RLE string."""
    runs = [int(t) for t in rle.split()]
    values = (np.arange(len(runs)) % 2).astype(bool)
    return np.repeat(values, runs).reshape((height, width), order="F")


def checked_rle_decode(rle: str, width: int, height: int) -> np.ndarray:
    """``dense_rle_decode`` after validating one string on its own with
    ``int``, raising ``RleError`` with the library's messages."""
    if width < 0 or height < 0:
        raise RleError(f"canvas size must not be negative, got {width}x{height}")
    tokens = rle.split()
    if not tokens:
        raise RleError("empty RLE string")
    try:
        runs = [int(t) for t in tokens]
    except ValueError as exc:
        raise RleError(f"non-integer run length in RLE: {exc}") from exc
    if runs[0] < 0:
        raise RleError("negative leading run length")
    if any(r < 1 for r in runs[1:]):
        raise RleError("zero or negative run length after the first run")
    if sum(runs) != width * height:
        raise RleError(f"RLE covers {sum(runs)} pixels, canvas has {width * height}")
    return dense_rle_decode(rle, width, height)


def dense_bbox(pixels: np.ndarray) -> tuple[int, int, int, int] | None:
    """Tight half-open (row0, row1, col0, col1) of the set pixels, or None."""
    rows = np.flatnonzero(pixels.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(pixels.any(axis=0))
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def dense_intersection_area(a: np.ndarray, b: np.ndarray) -> int:
    return int(np.count_nonzero(a & b))


def dense_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union; two empty masks give 0."""
    return _pixel_iou(a, b)


def dense_containment(child: np.ndarray, parent: np.ndarray) -> float:
    return dense_intersection_area(child, parent) / int(np.count_nonzero(child))


SIBLING_MERGE_OVERLAP = 0.90


def overlapping_pairs(a: list[Mask], b: list[Mask]) -> list[tuple[int, int]]:
    """Index pairs (i, j), in row-major order, of nonempty masks whose tight
    bboxes overlap."""
    boxes_a = [dense_bbox(canvas_pixels(m)) for m in a]
    boxes_b = [dense_bbox(canvas_pixels(m)) for m in b]
    return [(i, j) for i, x in enumerate(boxes_a) for j, y in enumerate(boxes_b)
            if x is not None and y is not None and x[0] < y[1] and y[0] < x[1]
            and x[2] < y[3] and y[2] < x[3]]


def intersection_area(a: Mask, b: Mask) -> int:
    return dense_intersection_area(canvas_pixels(a), canvas_pixels(b))


def union_masks(masks: list[Mask]) -> Mask:
    return Mask(np.logical_or.reduce([canvas_pixels(m) for m in masks]))


def merge_siblings(siblings: list[Mask]) -> list[Mask]:
    """``pipeline.merge_siblings`` as it was when it grouped close pairs
    with scipy's ``connected_components`` on a dense n x n matrix, over the
    full-canvas helpers above."""
    from scipy.sparse.csgraph import connected_components

    masks = list(siblings)
    while True:
        close = np.zeros((len(masks), len(masks)), dtype=bool)
        for i, j in overlapping_pairs(masks, masks):
            if i < j:  # empty masks never pair, so the divisor is positive
                smaller = min(masks[i].area, masks[j].area)
                close[i, j] = (intersection_area(masks[i], masks[j]) / smaller
                               > SIBLING_MERGE_OVERLAP)
        if not close.any():
            return masks
        # Components are numbered by their smallest member, keeping order.
        n_groups, group_of = connected_components(close, directed=False)
        masks = [union_masks([m for m, g in zip(masks, group_of) if g == k])
                 for k in range(n_groups)]


def aggregate_reports(records: list[OtqReport],
                      aggregate: str = "macro") -> OtqReport:
    """Corpus record from per-image records (sorted by image_id first).

    macro: unweighted per-image means of TQ/BQ/meanNQ/MQ/LQ.
    micro: meanNQ/MQ/LQ weighted by TP counts, BQ by TP pair counts, and the
    recovery ratio computed from summed counts.
    Either way the corpus OTQ is corpus TQ times corpus meanNQ, and counts
    are summed.
    """
    records = sorted(records, key=lambda r: r.image_id or "")
    tp = sum(r.tp for r in records)
    fp = sum(r.fp for r in records)
    fn = sum(r.fn for r in records)
    n_pairs = sum(r.n_pairs for r in records)
    if not records:
        return OtqReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0, 0, 0, per_image=[])
    if aggregate == "macro":
        n = len(records)
        tq = sum(r.tq for r in records) / n
        bq = sum(r.bq for r in records) / n
        mean_nq = sum(r.mean_nq for r in records) / n
        mq = sum(r.mq for r in records) / n
        lq = sum(r.lq for r in records) / n
    elif aggregate == "micro":
        if tp > 0:
            mean_nq = sum(r.mean_nq * r.tp for r in records) / tp
            mq = sum(r.mq * r.tp for r in records) / tp
            lq = sum(r.lq * r.tp for r in records) / tp
            if n_pairs > 0:
                bq = sum(r.bq * r.n_pairs for r in records) / n_pairs
            else:
                bq = 1.0
            tq = bq * tp / (tp + 0.5 * fp + 0.5 * fn)
        else:
            mean_nq = mq = lq = bq = tq = 0.0
    else:
        raise ValueError(f"aggregate must be 'macro' or 'micro', got {aggregate!r}")
    return OtqReport(otq=tq * mean_nq, tq=tq, bq=bq, mean_nq=mean_nq,
                     mq=mq, lq=lq, tp=tp, fp=fp, fn=fn, n_pairs=n_pairs,
                     per_image=records)
