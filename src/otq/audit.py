"""Degradation audit grids: corrupt a reference corpus, score it against
itself, and tabulate one row per (kind, keep ratio)."""

from __future__ import annotations

import csv
import io
from typing import Iterable, Sequence

from .degrade import KINDS, SWEEP_KEEP_RATIOS, DegradeSpec, degrade_tree
from .labels import SimilarityProtocol
from .metric import METRIC_FIELDS, evaluate_corpus
from .tree import OpenTree

GRID_FIELDS = ("kind", "keep") + METRIC_FIELDS + ("tp", "fp", "fn")


def audit_grid(trees: Iterable[OpenTree], proto: SimilarityProtocol,
               keep_ratios: Sequence[float] = SWEEP_KEEP_RATIOS,
               seed: int = 0) -> list[dict]:
    """One row per degradation kind and keep ratio, plus the untouched
    baseline row; pairs are scored at the default node threshold."""
    trees = list(trees)
    rows = []
    baseline = evaluate_corpus(((t, t) for t in trees), proto)
    rows.append(_row("none", 1.0, baseline))
    for kind in KINDS:
        for keep in keep_ratios:
            spec = DegradeSpec(kind=kind, keep_ratio=keep, seed=seed)
            report = evaluate_corpus(
                ((degrade_tree(t, spec), t) for t in trees), proto)
            rows.append(_row(kind, keep, report))
    return rows


def _row(kind: str, keep: float, report) -> dict:
    row = {"kind": kind, "keep": keep}
    for name in METRIC_FIELDS:
        row[name] = getattr(report, name)
    for name in ("tp", "fp", "fn"):
        row[name] = getattr(report, name)
    return row


def grid_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=GRID_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def grid_to_table(rows: list[dict]) -> str:
    header = tuple(GRID_FIELDS)
    cells = [[str(r["kind"]), f"{r['keep']:.2f}"]
             + [f"{r[f]:.3f}" for f in METRIC_FIELDS]
             + [str(r[f]) for f in ("tp", "fp", "fn")] for r in rows]
    widths = [max(len(header[i]), *(len(c[i]) for c in cells))
              for i in range(len(header))]
    lines = ["  ".join(header[i].ljust(widths[i]) for i in range(len(header)))]
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines) + "\n"
