"""Corpus structure statistics and flat-mask compatibility metrics.

``corpus_stats`` summarizes scale (images, masks, masks per image, unique
labels, max depth) and the node depth distribution per mask-size bin, with
each bin column expressed as percentages that sum to 100.

``compat_eval`` scores how well a tree corpus, flattened to its mask
multiset, recovers an external flat reference: per reference mask the best
candidate is consumed greedily by IoU (one-to-one), then mean/median IoU
over matched references and average recall over the IoU thresholds
0.50:0.05:0.95 (plus AR@50/AR@75 and per-size-bin AR) are reported.
Each side's trees are keyed by image id and the two sides paired by
``tree.pair_by_image_id``; each image's bbox-overlapping mask pairs are
scored in one ``masks.overlapping_ious`` call on the two trees' run tables,
which refuses two trees on different canvases with a ``MaskError``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from .masks import SizeBin, area_bin, overlapping_ious
from .tree import OpenTree, claim_image_id, pair_by_image_id

DEPTH_ROWS = ("1", "2", "3", "4+")
BIN_COLS = ("All", "XS", "S*", "M", "L")

_AR_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))


@dataclass
class CorpusStats:
    n_images: int
    n_masks: int
    masks_per_image: float
    n_unique_labels: int
    max_depth: int
    depth_by_bin: dict[str, dict[str, float]]

    def to_dict(self) -> dict:
        return asdict(self)

    def render(self) -> str:
        lines = [
            "Corpus scale",
            f"  images            {self.n_images}",
            f"  masks             {self.n_masks}",
            f"  masks/image       {self.masks_per_image:.1f}",
            f"  unique labels     {self.n_unique_labels}",
            f"  max depth         {self.max_depth}",
            "",
            "Node depth distribution by size bin (column percentages)",
            "  Depth  " + "".join(f"{c:>8}" for c in BIN_COLS),
        ]
        for row in DEPTH_ROWS:
            cells = "".join(f"{self.depth_by_bin[col][row]:>8.1f}" for col in BIN_COLS)
            lines.append(f"  {row:<5}  {cells}")
        return "\n".join(lines) + "\n"


@dataclass
class CompatReport:
    mean_iou: float
    median_iou: float
    ar: float
    ar50: float
    ar75: float
    ar_by_bin: dict[str, float]

    def to_dict(self) -> dict:
        return asdict(self)

    def render(self) -> str:
        bins = "".join(
            f"  AR_{b}={self.ar_by_bin[b]:.3f}" for b in ("XS", "S*", "M", "L")
            if b in self.ar_by_bin)
        return ("Flat-mask compatibility\n"
                f"  IoU  mean={self.mean_iou:.3f}  median={self.median_iou:.3f}\n"
                f"  AR={self.ar:.3f}  AR@50={self.ar50:.3f}  AR@75={self.ar75:.3f}"
                f"{bins}\n")


def corpus_stats(corpus: Iterable[OpenTree]) -> CorpusStats:
    """Streaming scan; depth is measured on instance nodes (root excluded)."""
    n_images = 0
    n_masks = 0
    labels: set[str] = set()
    max_depth = 0
    counts = {col: {row: 0 for row in DEPTH_ROWS} for col in BIN_COLS}
    for tree in corpus:
        n_images += 1
        n_masks += tree.n_nodes
        labels.update(tree.labels)
        for depth, area in zip(tree.node_depths.tolist(), tree.run_table.areas.tolist()):
            max_depth = max(max_depth, depth)
            row = str(depth) if depth < 4 else "4+"
            counts["All"][row] += 1
            counts[area_bin(area).value][row] += 1
    depth_by_bin: dict[str, dict[str, float]] = {}
    for col in BIN_COLS:
        total = sum(counts[col].values())
        depth_by_bin[col] = {
            row: (100.0 * counts[col][row] / total if total else 0.0)
            for row in DEPTH_ROWS
        }
    return CorpusStats(
        n_images=n_images,
        n_masks=n_masks,
        masks_per_image=(n_masks / n_images if n_images else 0.0),
        n_unique_labels=len(labels),
        max_depth=max_depth,
        depth_by_bin=depth_by_bin,
    )


def _greedy_match(ref: OpenTree, cand: OpenTree) -> list[float]:
    """Best-IoU one-to-one consumption of ``cand``'s masks by ``ref``'s, in
    order of falling IoU, then reference and candidate position; returns
    the matched IoU per reference node in id order (0.0 for unmatched)."""
    rows, cols, values = overlapping_ious(ref.run_table, cand.run_table)
    hit = np.flatnonzero(values > 0.0)
    rows, cols, values = rows[hit], cols[hit], values[hit]
    ranked = np.lexsort((cols, rows, -values))
    matched = [0.0] * ref.n_nodes
    used_ref: set[int] = set()
    used_cand: set[int] = set()
    for value, ri, ci in zip(values[ranked].tolist(), rows[ranked].tolist(),
                             cols[ranked].tolist()):
        if ri in used_ref or ci in used_cand:
            continue
        used_ref.add(ri)
        used_cand.add(ci)
        matched[ri] = value
    return matched


def _by_image(trees: Iterable[OpenTree]) -> dict[str, OpenTree]:
    """Each tree under its image id; a repeated id raises ``CorpusError``."""
    by_image: dict[str, OpenTree] = {}
    for tree in trees:
        claim_image_id(by_image, tree.canvas.image_id, tree)
    return by_image


def compat_eval(candidates: Iterable[OpenTree],
                references: Iterable[OpenTree]) -> CompatReport:
    """Candidate trees (flattened to all their masks) vs flat references."""
    pairs = pair_by_image_id(_by_image(candidates), _by_image(references),
                             "candidates", "references")
    matched_ious: list[float] = []
    bins: list[str] = []
    for cand, ref in pairs:
        matched_ious.extend(_greedy_match(ref, cand))
        bins.extend(area_bin(area).value for area in ref.run_table.areas.tolist())
    return _compat_report(matched_ious, bins)


def _compat_report(matched_ious: list[float], bins: list[str]) -> CompatReport:
    """The report of the matched IoU and size bin of every reference mask."""
    values = np.asarray(matched_ious, dtype=np.float64)
    positive = values[values > 0.0]
    mean_iou = float(positive.mean()) if positive.size else 0.0
    median_iou = float(np.median(positive)) if positive.size else 0.0

    def recall(mask: np.ndarray, threshold: float) -> float:
        if mask.size == 0:
            return 0.0
        return float(np.count_nonzero(mask >= threshold) / mask.size)

    def ar(mask: np.ndarray) -> float:
        if mask.size == 0:
            return 0.0
        return sum(recall(mask, t) for t in _AR_THRESHOLDS) / len(_AR_THRESHOLDS)

    bin_arr = np.asarray(bins)
    ar_by_bin = {}
    for b in SizeBin:
        subset = values[bin_arr == b.value] if values.size else values
        if subset.size:
            ar_by_bin[b.value] = ar(subset)
    return CompatReport(
        mean_iou=mean_iou,
        median_iou=median_iou,
        ar=ar(values),
        ar50=recall(values, 0.5),
        ar75=recall(values, 0.75),
        ar_by_bin=ar_by_bin,
    )


def stats_to_json(stats: CorpusStats, compat: CompatReport | None = None) -> str:
    payload: dict = {"stats": stats.to_dict()}
    if compat is not None:
        payload["compat"] = compat.to_dict()
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
