"""Seeded corpora of the three benchmark workloads.

Set-up writes JSONL corpora with otq's own generators; the measured
processes only ever read those files.  The reference corpora are fixed; the
``--seed`` of a run drives the degradation that makes each prediction (and
the audit grid's sampling), so one seed always yields the same bytes.

* ``small``: a prefix of the acceptance corpus ``synthetic_corpus(1000,
  seed=909)`` (160x120, about 86 nodes per image).  Per-image Python work
  dominates: pairwise IoU, the O(TP^2) BQ loop, pool dispatch, aggregation.
* ``large-canvas``: 1024x768 trees of 400-600 nodes.  RLE decode into
  full-canvas masks, the dense assignment and BQ over ~100k TP pairs per
  image dominate; at jobs 2 the slowest image sets the wall time.
* ``audit-grid``: a prefix of criterion 4's ``chunky_corpus(50, seed=404)``
  run through ``audit_grid`` with all six kinds x ``SWEEP_KEEP_RATIOS``.
  Morphology instead of decode, no pool, BQ trivial (about 20 nodes).
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field
from pathlib import Path

# Images per workload, at full and at smoke size.  Full sizes are set so
# that one jobs-1 sample takes a few seconds on 2 cores and a run holds
# several samples of each kind.
SIZES = {
    "small": {"full": 100, "smoke": 5},
    "large-canvas": {"full": 2, "smoke": 1},
    "audit-grid": {"full": 3, "smoke": 2},
}
WORKLOADS = tuple(SIZES)

ACCEPTANCE_SEED = 909
LARGE_SEED = 2048
CHUNKY_SEED = 404
# Last-level split probability per large image: about 430 and 590 nodes.
LARGE_LAST_LEVEL_P = (0.08, 0.22)
LARGE_GRIDS = ((6, 8), (2, 3), (2, 2))
# Smoke mode keeps the large-canvas tree shape on a toy canvas.
LARGE_CANVAS = {"full": (1024, 768), "smoke": (256, 192)}
# The prediction drops 10% of nodes (FN) and rewires 10% of parents
# (disagreeing branches).  Masks are untouched, so every surviving
# prediction node matches its reference node with IoU 1.
PRED_DEGRADATION = (("random_node_missing", 0.9), ("parent_rewire", 0.9))


@dataclass
class Corpus:
    """What set-up wrote, and the node counts the census reports."""

    ref: Path
    pred: Path | None
    ref_nodes: list[int] = field(default_factory=list)
    pred_nodes: list[int] = field(default_factory=list)

    @property
    def n_images(self) -> int:
        return len(self.ref_nodes)


def _span(tracer, name: str, image_id: str | None = None):
    return contextlib.nullcontext() if tracer is None else tracer.span(name, image_id)


def reference_trees(otq, workload: str, size: str):
    n = SIZES[workload][size]
    if workload == "small":
        return itertools.islice(otq.synthetic_corpus(1000, seed=ACCEPTANCE_SEED), n)
    if workload == "audit-grid":
        return itertools.islice(otq.chunky_corpus(50, seed=CHUNKY_SEED), n)
    return (_large_tree(otq, i, size) for i in range(n))


def _large_tree(otq, i: int, size: str):
    image_id = f"large-{i:04d}"
    width, height = LARGE_CANVAS[size]
    last_p = LARGE_LAST_LEVEL_P[i % len(LARGE_LAST_LEVEL_P)]
    return otq.synthetic_tree(
        image_id, otq.seeding.derive_rng(LARGE_SEED, image_id),
        width=width, height=height, grids=LARGE_GRIDS, level_p=(1.0, 1.0, last_p))


def setup(otq, workload: str, seed: int, size: str, workdir: Path,
          tracer=None) -> Corpus:
    """Generate and write the workload's corpora into ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    corpus = Corpus(ref=workdir / "ref.jsonl",
                    pred=None if workload == "audit-grid" else workdir / "pred.jsonl")
    with contextlib.ExitStack() as stack:
        ref_fh = stack.enter_context(open(corpus.ref, "w", encoding="utf-8"))
        pred_fh = (stack.enter_context(open(corpus.pred, "w", encoding="utf-8"))
                   if corpus.pred is not None else None)
        trees = reference_trees(otq, workload, size)
        while True:
            with _span(tracer, "synth.tree"):
                tree = next(trees, None)
            if tree is None:
                break
            image_id = tree.canvas.image_id
            with _span(tracer, "tree.serialise", image_id):
                ref_fh.write(otq.serialize_tree(tree) + "\n")
            corpus.ref_nodes.append(tree.n_nodes)
            if pred_fh is None:
                continue
            pred = tree
            for kind, keep in PRED_DEGRADATION:
                with _span(tracer, "degrade.structure", image_id):
                    pred = otq.degrade_tree(pred, otq.DegradeSpec(kind, keep, seed))
            with _span(tracer, "tree.serialise", image_id):
                pred_fh.write(otq.serialize_tree(pred) + "\n")
            corpus.pred_nodes.append(pred.n_nodes)
    return corpus
