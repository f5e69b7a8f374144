"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded around calls into otq's layers by replacing a function
at the module attribute its caller looks up (``from .masks import iou``
binds ``otq.matching.iou``, so that is the attribute wrapped).  Nothing in
``src/otq`` changes.  Each span is a list::

    [span_id, parent_id, name, start_ns, end_ns, image_id, work]

``parent_id`` is -1 for top-level spans.  ``image_id`` is set where the
call knows it (parse, evaluate_image, degrade); nested spans belong to their
ancestor's image.  ``work`` is a per-span count (pixels decoded, matrix
cells, TP pairs, or 1 for a positive IoU).  Spans stay in memory and are
written as JSONL when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[list] = []

    @contextlib.contextmanager
    def span(self, name: str, image_id: str | None = None):
        """A span around the benchmark's own call."""
        span = self._open(name)
        span[5] = image_id
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        span = [len(self.spans), parent, name, time.perf_counter_ns(), 0, None, 0]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, module, attr: str, name, image_of=None, work_of=None) -> None:
        """Replace ``module.attr`` with a traced version.

        ``name`` is a span name or a callable of the call's arguments;
        ``image_of`` and ``work_of`` map (args, result) to the span's image
        id and work count.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if image_of is not None:
                span[5] = image_of(args, result)
            if work_of is not None:
                span[6] = work_of(args, result)
            return result

        setattr(module, attr, traced)

    def dump(self, path: str | Path) -> None:
        """Write the spans as JSONL, plus a ``trace.dump`` span timing the
        encoding, so that the dump's own cost is accounted for."""
        start = time.perf_counter_ns()
        lines = [json.dumps(span, separators=(",", ":")) for span in self.spans]
        lines.append(json.dumps([len(self.spans), -1, "trace.dump", start,
                                 time.perf_counter_ns(), None, 0]))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def load_spans(path: str | Path) -> list[list]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def install_evaluate_wrappers(tracer: Tracer, otq) -> None:
    """Spans for ``otq evaluate``: every layer it calls, at the attribute
    the calling module looks up."""
    cli, metric, matching, masks = otq.cli, otq.metric, otq.matching, otq.masks
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "evaluate_corpus_files", "metric.evaluate_files")
    tracer.wrap(cli, "report_to_json", "metric.serialise")
    tracer.wrap(metric, "corpus_index", "tree.index")
    tracer.wrap(metric, "parse_tree", "tree.parse",
                image_of=lambda a, r: r.canvas.image_id)
    tracer.wrap(masks, "rle_decode", "masks.decode",
                work_of=lambda a, r: a[1] * a[2])
    _install_scoring_wrappers(tracer, metric, matching)


def install_audit_wrappers(tracer: Tracer, otq) -> None:
    """Spans for ``audit_grid``: degradation, morphology and scoring."""
    audit, degrade = otq.audit, otq.degrade
    tracer.wrap(audit, "evaluate_corpus", "audit.evaluate")
    mask_kinds = ("mask_erosion", "mask_dilation")
    tracer.wrap(audit, "degrade_tree",
                lambda a: "degrade.mask" if a[1].kind in mask_kinds
                else "degrade.structure",
                image_of=lambda a, r: a[0].canvas.image_id)
    tracer.wrap(degrade, "erode", "masks.morph")
    tracer.wrap(degrade, "dilate", "masks.morph")
    _install_scoring_wrappers(tracer, otq.metric, otq.matching)


def _install_scoring_wrappers(tracer: Tracer, metric, matching) -> None:
    tracer.wrap(metric, "evaluate_image", "metric.evaluate_image",
                image_of=lambda a, r: a[1].canvas.image_id)
    tracer.wrap(metric, "match_trees", "matching.match",
                work_of=lambda a, r: len(a[0].nodes) * len(a[1].nodes))
    tracer.wrap(matching, "max_weight_assignment", "matching.assign")
    def positive(args, result) -> int:
        return 1 if result > 0.0 else 0

    tracer.wrap(matching, "iou", "masks.iou", work_of=positive)
    tracer.wrap(metric, "iou", "masks.iou", work_of=positive)
    tracer.wrap(metric, "intersection_area", "masks.intersection")
    tracer.wrap(metric, "matched_node_quality", "metric.nq")
    tracer.wrap(metric, "similarity", "labels.similarity")
    tracer.wrap(metric, "build_skeleton", "metric.skeleton")
    tracer.wrap(metric, "branch_quality", "metric.bq",
                work_of=lambda a, r: len(a[2].tp) * (len(a[2].tp) - 1) // 2)
    tracer.wrap(metric, "aggregate_reports", "metric.aggregate")


class SpanStats:
    """Per-name totals of a span list: calls, total and self seconds, work.

    A span's self time is its duration minus the durations of its direct
    children.
    """

    def __init__(self, spans: list[list]) -> None:
        child_ns = defaultdict(int)
        for sid, parent, _name, start, end, _img, _work in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.by_id = {span[0]: span for span in spans}
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.work: dict[str, int] = defaultdict(int)
        for sid, _parent, name, start, end, _img, work in spans:
            self.calls[name] += 1
            self.total_s[name] += (end - start) / 1e9
            self.self_s[name] += (end - start - child_ns[sid]) / 1e9
            self.work[name] += work
        self.spans = spans

    def calls_under(self, name: str, parent_name: str) -> int:
        """Calls of ``name`` whose direct parent is a ``parent_name`` span."""
        return sum(1 for s in self.spans
                   if s[2] == name and s[1] >= 0
                   and self.by_id[s[1]][2] == parent_name)

    def total_under(self, name: str, ancestor_name: str) -> float:
        """Seconds in ``name`` spans nested anywhere below ``ancestor_name``."""
        total = 0
        for s in self.spans:
            if s[2] != name:
                continue
            parent = s[1]
            while parent >= 0:
                up = self.by_id[parent]
                if up[2] == ancestor_name:
                    total += s[4] - s[3]
                    break
                parent = up[1]
        return total / 1e9

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds summed per layer (the span-name prefix)."""
        out: dict[str, float] = defaultdict(float)
        for name, secs in self.self_s.items():
            out[name.split(".", 1)[0]] += secs
        return dict(sorted(out.items()))
