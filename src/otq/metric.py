"""Open Tree Quality scoring.

Per image, the score composes four stages:

1. one-to-one node matching by mask IoU with a TP threshold (``matching``),
2. matched-node quality: the TP-average of IoU times label similarity
   (``meanNQ``), with IoU-only (``MQ``) and label-only (``LQ``) diagnostics,
3. branch quality (``BQ``): the fraction of unordered TP pairs whose nearest
   matched common parents agree across the two TP skeletons,
4. tree quality ``TQ = BQ * |TP| / (|TP| + |FP|/2 + |FN|/2)`` and the final
   score ``OTQ = TQ * meanNQ``.

The TP skeleton of a tree keeps only TP nodes plus the artificial root.
Each TP node is re-parented by climbing its original ancestor chain one
level at a time: at the first ancestor level whose semantic identity (the
root-to-node label path) has TP member masks with positive pixel overlap,
the node attaches to the highest-IoU such mask; with no qualifying level it
attaches to the root.  Ties break toward the smaller node id.

With zero TP matches the per-image report is all zeros except the counts.
Corpus records (``aggregate_reports``) take one weighted mean per field:
weight 1 per image (macro), or its TP count for meanNQ/MQ/LQ and pair count
for BQ (micro, whose TQ comes from the summed counts); corpus OTQ is always
the product of corpus TQ and corpus meanNQ.  Corpora are paired by
``tree.pair_by_image_id``; text tables are aligned by ``align_columns``.
"""

from __future__ import annotations

import csv
import io
import json
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from math import comb
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .labels import SimilarityProtocol, similarity
# Nothing here calls intersection_area or iou; the names stay importable at
# these attributes only so that the benchmark's traced run can wrap them.
from .masks import intersection_area, iou  # noqa: F401
from .matching import MatchResult, match_trees
from .tree import (ROOT_ID, OpenTree, claim_image_id, corpus_index, located,
                   pair_by_image_id, parse_tree)

METRIC_FIELDS = ("otq", "tq", "bq", "mean_nq", "mq", "lq")
COUNT_FIELDS = ("tp", "fp", "fn", "n_pairs")
AGGREGATIONS = ("macro", "micro")


@dataclass
class OtqReport:
    """Metric bundle for one image or a whole corpus."""

    otq: float
    tq: float
    bq: float
    mean_nq: float
    mq: float
    lq: float
    tp: int
    fp: int
    fn: int
    n_pairs: int
    image_id: str | None = None
    per_image: list["OtqReport"] | None = field(default=None, repr=False)

    def to_record(self) -> dict:
        record: dict = {}
        if self.image_id is not None:
            record["image_id"] = self.image_id
        for name in METRIC_FIELDS + COUNT_FIELDS:
            record[name] = getattr(self, name)
        return record

    def to_payload(self) -> dict:
        """Full report shape: {"corpus": {...}, "images": [...]}."""
        payload = {"corpus": self.to_record()}
        if self.per_image is not None:
            payload["images"] = [r.to_record() for r in self.per_image]
        return payload


@dataclass
class Skeleton:
    """Parent map over TP nodes plus the artificial root, and each node's
    root-first path (the root's is ``(ROOT_ID,)``)."""

    parent: dict[int, int]
    path: dict[int, tuple[int, ...]]


def matched_node_quality(match: MatchResult, pred: OpenTree, ref: OpenTree,
                         proto: SimilarityProtocol) -> tuple[float, float, float]:
    """(meanNQ, MQ, LQ) over TP pairs; all zeros with no TP matches."""
    if not match.tp:
        return 0.0, 0.0, 0.0
    nq_sum = mq_sum = lq_sum = 0.0
    for pred_id, ref_id, pair_iou in match.tp:
        sim = similarity(proto, pred.nodes[pred_id].label, ref.nodes[ref_id].label)
        nq_sum += pair_iou * sim
        mq_sum += pair_iou
        lq_sum += sim
    n = len(match.tp)
    return nq_sum / n, mq_sum / n, lq_sum / n


def build_skeleton(tree: OpenTree, match: MatchResult, side: str) -> Skeleton:
    """TP skeleton of one side ("pred" or "ref") under the climbing rule."""
    if side == "pred":
        tp_ids = [p for p, _, _ in match.tp]
    elif side == "ref":
        tp_ids = [r for _, r, _ in match.tp]
    else:
        raise ValueError(f"side must be 'pred' or 'ref', got {side!r}")
    tp_ids = sorted(tp_ids)

    # Semantic identity of a node is its root-to-node label path; a TP node
    # can only attach to members of a strictly shorter path, so the result
    # is acyclic by construction.  A node's candidates at each ancestor level
    # are the TP nodes whose path is that prefix of its own; those with a
    # positive IoU are the TP pairs of ``tree.climb_pairs``, in climb order.
    node, other, depth, ious = tree.climb_pairs
    ids = list(tree.nodes)
    is_tp = np.zeros(len(ids), dtype=bool)
    is_tp[np.searchsorted(np.array(ids, dtype=np.int64), tp_ids)] = True
    kept = np.flatnonzero(is_tp[node] & is_tp[other])

    # The climb stops at the innermost level with a positive IoU and takes
    # its best; the strict ``>`` breaks ties toward the smaller id.
    parent: dict[int, int] = {ROOT_ID: ROOT_ID}
    parent.update(dict.fromkeys(tp_ids, ROOT_ID))
    best: dict[int, tuple[int, float]] = {}
    for n, c, level, score in zip(node[kept].tolist(), other[kept].tolist(),
                                  depth[kept].tolist(), ious[kept].tolist()):
        at, top = best.get(n, (level, 0.0))
        if level == at and score > top:
            best[n] = level, score
            parent[ids[n]] = ids[c]

    path: dict[int, tuple[int, ...]] = {ROOT_ID: (ROOT_ID,)}
    # Skeleton parents always have a strictly shorter label path, so original
    # depth order resolves every parent before its children.
    for nid in sorted(tp_ids, key=lambda n: tree.depths[n]):
        path[nid] = path[parent[nid]] + (nid,)
    return Skeleton(parent=parent, path=path)


def branch_quality(skel_pred: Skeleton, skel_ref: Skeleton,
                   match: MatchResult) -> float:
    """Fraction of unordered TP pairs with agreeing nearest matched common
    parents; 1.0 with fewer than two TP nodes.

    Counted per ref skeleton node x with matched pred node y (root to root),
    in time TP x depth: a pair agrees at x when both its nodes have x on
    their ref path and y on their pred path, in different branches below
    each (a node that is x itself is its own branch).  A node joining the
    s nodes already seen below x and y, r of them in its ref branch, p in
    its pred branch and b in both, adds s - r - p + b agreeing pairs.
    """
    if len(match.tp) < 2:
        return 1.0
    ref_to_pred = {r: p for p, r, _ in match.tp}
    ref_to_pred[ROOT_ID] = ROOT_ID
    seen: defaultdict[object, int] = defaultdict(int)
    agree = 0
    for p, r, _ in match.tp:
        ref_path, pred_path = skel_ref.path[r], skel_pred.path[p]
        for dx, x in enumerate(ref_path):
            y = ref_to_pred[x]
            dy = len(skel_pred.path[y]) - 1
            if dy < len(pred_path) and pred_path[dy] == y:
                rb, pb = (ref_path[dx + 1], pred_path[dy + 1]) if x != r else (r, p)
                ref_side, pred_side, both = (x, rb, None), (x, None, pb), (x, rb, pb)
                agree += seen[x] - seen[ref_side] - seen[pred_side] + seen[both]
                for key in (x, ref_side, pred_side, both):
                    seen[key] += 1
    return agree / comb(len(match.tp), 2)


def tree_quality(bq: float, match: MatchResult) -> float:
    """BQ scaled by the PQ-style recovery ratio; 0 with no TP matches."""
    return _tree_quality(bq, match.tp_count, match.fp_count, match.fn_count)


def _tree_quality(bq: float, tp: int, fp: int, fn: int) -> float:
    return bq * tp / (tp + 0.5 * fp + 0.5 * fn) if tp else 0.0


def evaluate_image(pred: OpenTree, ref: OpenTree, proto: SimilarityProtocol,
                   tau: float = 0.5) -> OtqReport:
    """Full per-image OTQ report for a prediction against its reference."""
    match = match_trees(pred, ref, tau)
    image_id = ref.canvas.image_id
    tp, fp, fn = match.tp_count, match.fp_count, match.fn_count
    n_pairs = tp * (tp - 1) // 2
    if tp == 0:
        return OtqReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                         tp=tp, fp=fp, fn=fn, n_pairs=n_pairs, image_id=image_id)
    mean_nq, mq, lq = matched_node_quality(match, pred, ref, proto)
    skel_pred = build_skeleton(pred, match, "pred")
    skel_ref = build_skeleton(ref, match, "ref")
    bq = branch_quality(skel_pred, skel_ref, match)
    tq = tree_quality(bq, match)
    return OtqReport(otq=tq * mean_nq, tq=tq, bq=bq, mean_nq=mean_nq,
                     mq=mq, lq=lq, tp=tp, fp=fp, fn=fn, n_pairs=n_pairs,
                     image_id=image_id)


def _require_aggregation(aggregate: str) -> None:
    if aggregate not in AGGREGATIONS:
        raise ValueError(f"aggregate must be {' or '.join(map(repr, AGGREGATIONS))}, "
                         f"got {aggregate!r}")


def aggregate_reports(records: list[OtqReport],
                      aggregate: str = "macro") -> OtqReport:
    """Corpus record from per-image records (sorted by image_id first).

    Each of TQ/BQ/meanNQ/MQ/LQ is ``sum(value * weight) / sum(weight)``, 0
    when the weights sum to 0: weight 1 under macro; under micro the TP
    count (meanNQ/MQ/LQ) or pair count (BQ, 1 if TP nodes exist but no pair
    does), with TQ from the summed counts.  Corpus OTQ is corpus TQ times
    corpus meanNQ; counts are summed.
    """
    _require_aggregation(aggregate)
    records = sorted(records, key=lambda r: r.image_id or "")
    tp, fp, fn, n_pairs = (sum(getattr(r, f) for r in records) for f in COUNT_FIELDS)

    def mean(name: str, weight: str | None = None) -> float:
        weights = [1 if weight is None else getattr(r, weight) for r in records]
        total = sum(weights)
        return (sum(getattr(r, name) * w for r, w in zip(records, weights)) / total
                if total else 0.0)

    if aggregate == "macro":
        tq, bq, mean_nq, mq, lq = map(mean, ("tq", "bq", "mean_nq", "mq", "lq"))
    else:
        mean_nq, mq, lq = (mean(name, "tp") for name in ("mean_nq", "mq", "lq"))
        bq = mean("bq", "n_pairs") if n_pairs else float(tp > 0)
        tq = _tree_quality(bq, tp, fp, fn)
    return OtqReport(otq=tq * mean_nq, tq=tq, bq=bq, mean_nq=mean_nq,
                     mq=mq, lq=lq, tp=tp, fp=fp, fn=fn, n_pairs=n_pairs,
                     per_image=records)


# A tree, or a corpus document (where, line) with where = "path:lineno".
TreeSource = OpenTree | tuple[str, str]


def _load(source: TreeSource) -> OpenTree:
    if isinstance(source, OpenTree):
        return source
    where, line = source
    with located(where):
        return parse_tree(line)


def _score_pair(pair: tuple[TreeSource, TreeSource], proto: SimilarityProtocol,
                tau: float) -> OtqReport:
    pred, ref = map(_load, pair)
    pred_at, ref_at = ("in memory" if isinstance(side, OpenTree) else side[0]
                       for side in pair)
    with located(f"image '{ref.canvas.image_id}' (pred {pred_at}, ref {ref_at})"):
        return evaluate_image(pred, ref, proto, tau)


def evaluate_corpus(pairs: Iterable[tuple[TreeSource, TreeSource]],
                    proto: SimilarityProtocol, tau: float = 0.5,
                    aggregate: str = "macro", jobs: int = 1) -> OtqReport:
    """Score (prediction, reference) pairs and aggregate.

    A side is an ``OpenTree`` or a ``corpus_index`` document, parsed where it
    is scored; its parse errors are prefixed with its ``path:lineno``, and
    errors scoring the pair with the image id and both sides.  With
    ``jobs <= 1`` pairs are consumed lazily; otherwise a process pool scores
    them.  Records are reduced in sorted image_id order, so the report is
    identical at any ``jobs``.  Repeated image ids raise ``CorpusError``;
    an unknown ``aggregate`` raises ``ValueError`` before any pair is scored.
    """
    _require_aggregation(aggregate)
    score = partial(_score_pair, proto=proto, tau=tau)
    if jobs > 1:
        pairs = list(pairs)
    if jobs > 1 and len(pairs) > 1:
        # Imported here: a serial run never loads the process pool.
        from concurrent.futures import ProcessPoolExecutor
        chunk = max(1, len(pairs) // (jobs * 4))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            scored = list(pool.map(score, pairs, chunksize=chunk))
    else:
        scored = map(score, pairs)
    records: dict[str, OtqReport] = {}
    for record in scored:
        claim_image_id(records, record.image_id, record)
    return aggregate_reports(list(records.values()), aggregate)


def evaluate_corpus_files(pred_path: str | Path, ref_path: str | Path,
                          proto: SimilarityProtocol, tau: float = 0.5,
                          jobs: int = 1, aggregate: str = "macro") -> OtqReport:
    """Evaluate two JSONL corpora paired by image_id with ``evaluate_corpus``.

    The image id sets of the two files must match exactly.
    """
    pairs = pair_by_image_id(corpus_index(pred_path), corpus_index(ref_path),
                             "predictions", "references")
    return evaluate_corpus(pairs, proto, tau, aggregate, jobs=jobs)


def report_to_json(report: OtqReport) -> str:
    return json.dumps(report.to_payload(), indent=2, sort_keys=True) + "\n"


def report_to_csv(report: OtqReport) -> str:
    """Per-image rows plus a final aggregate row labeled ``corpus``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("image_id",) + METRIC_FIELDS + COUNT_FIELDS)
    writer.writerows([name] + [repr(getattr(rec, f)) for f in METRIC_FIELDS]
                     + [getattr(rec, f) for f in COUNT_FIELDS]
                     for name, rec in [(r.image_id, r) for r in report.per_image or []]
                     + [("corpus", report)])
    return buf.getvalue()


def align_columns(rows: Sequence[Sequence[str]]) -> str:
    """Text table of ``rows`` (the header first): each cell left-aligned to
    its column's widest, two spaces apart, one line per row."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) + "\n"
                   for row in rows)


def report_to_table(report: OtqReport) -> str:
    """Aligned text table of the corpus record and per-image records."""
    header = ("image_id",) + tuple(f.upper() for f in METRIC_FIELDS) + COUNT_FIELDS
    return align_columns([header] + [
        ["corpus" if rec.image_id is None else rec.image_id]
        + [f"{getattr(rec, f):.4f}" for f in METRIC_FIELDS]
        + [str(getattr(rec, f)) for f in COUNT_FIELDS]
        for rec in (report.per_image or []) + [report]])
