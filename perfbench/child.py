"""Measured subprocess for the benchmark: a traced ``otq evaluate``, or one
audit grid (traced or not).

    python3 child.py evaluate --spans S.jsonl -- <otq evaluate arguments>
    python3 child.py audit --corpus C.jsonl --seed N --out grid.csv \
        --census census.json [--spans S.jsonl]

otq is imported from ``PYTHONPATH``, which the benchmark points at the
checkout's ``src``.  With ``--spans``, layer functions are wrapped before
the run and the spans are written when it ends; the import of ``otq.cli``
is recorded as the span ``cli.import``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from tracer import Tracer, install_audit_wrappers, install_evaluate_wrappers


def _import_otq(tracer: Tracer | None):
    if tracer is None:
        import otq.cli
        return otq
    with tracer.span("cli.import"):
        import otq.cli
    return otq


def _evaluate(args: argparse.Namespace) -> int:
    tracer = Tracer()
    otq = _import_otq(tracer)
    install_evaluate_wrappers(tracer, otq)
    try:
        return otq.cli.main(args.rest)
    finally:
        tracer.dump(args.spans)


def _audit(args: argparse.Namespace) -> int:
    tracer = Tracer() if args.spans else None
    otq = _import_otq(tracer)
    trees = list(otq.iter_corpus(args.corpus))
    # The census reads the per-image counts of each scored corpus from the
    # reports audit_grid already computes; it adds no work to the grid.
    records: list[dict] = []
    evaluate_corpus = otq.audit.evaluate_corpus

    def counted(*a, **kw):
        report = evaluate_corpus(*a, **kw)
        records.extend({"tp": r.tp, "fp": r.fp, "fn": r.fn, "n_pairs": r.n_pairs}
                       for r in report.per_image)
        return report

    otq.audit.evaluate_corpus = counted
    if tracer is not None:
        install_audit_wrappers(tracer, otq)
    proto = otq.SimilarityProtocol.strict()
    start = time.perf_counter()
    if tracer is None:
        text = otq.grid_to_csv(otq.audit_grid(trees, proto, seed=args.seed))
    else:
        with tracer.span("audit.grid"):
            rows = otq.audit_grid(trees, proto, seed=args.seed)
        with tracer.span("audit.csv"):
            text = otq.grid_to_csv(rows)
    audit_s = time.perf_counter() - start
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    with open(args.census, "w", encoding="utf-8") as fh:
        json.dump({"audit_s": audit_s, "records": records}, fh)
    if tracer is not None:
        tracer.dump(args.spans)
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p_eval = sub.add_parser("evaluate")
    p_eval.add_argument("--spans", required=True)
    p_eval.add_argument("rest", nargs=argparse.REMAINDER)
    p_audit = sub.add_parser("audit")
    p_audit.add_argument("--corpus", required=True)
    p_audit.add_argument("--seed", type=int, required=True)
    p_audit.add_argument("--out", required=True)
    p_audit.add_argument("--census", required=True)
    p_audit.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    if args.mode == "evaluate":
        if args.rest[:1] == ["--"]:
            args.rest = args.rest[1:]
        return _evaluate(args)
    return _audit(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
