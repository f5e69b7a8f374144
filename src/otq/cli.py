"""Command-line entry point.

One binary with subcommands::

    otq evaluate     --pred P.jsonl --ref R.jsonl [--tau ...] [--label-sim ...]
    otq degrade      --kind K --keep R --seed S --in C.jsonl --out D.jsonl
    otq stats        --in C.jsonl [--compat-ref FLAT.jsonl]
    otq project-flat --in C.jsonl --out FLAT.jsonl
    otq validate     --in C.jsonl
    otq pipeline     --script scene.json [--out TREE.jsonl]

Machine-readable JSON is the primary output; CSV and aligned text tables
are available for evaluation reports.  Exit codes: 0 ok, 1 validation,
2 I/O or a worker process that died, 3 configuration.  OTQ_JOBS sets the
default worker count (at least 1).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

# The stats and pipeline modules are imported by their commands' handlers,
# so that no other command loads them.
from .degrade import KINDS, DegradeSpec, degrade_corpus
from .errors import (ConfigError, CorpusError, OtqError, SchemaError, SimilarityError,
                     ValidationError)
from .labels import protocol_from_spec
from .metric import (AGGREGATIONS, evaluate_corpus_files, report_to_csv, report_to_json,
                     report_to_table)
from .tree import (claim_image_id, iter_corpus, iter_lines, located, parse_tree,
                   project_flat, serialize_tree, write_atomically, write_corpus)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_CONFIG = 3


class _Parser(argparse.ArgumentParser):
    # Spec'd exit codes reserve 2 for I/O problems; flag errors are config.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        write_atomically(path, [text])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="otq", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="score a prediction corpus against references")
    p_eval.add_argument("--pred", required=True, help="prediction corpus (JSONL)")
    p_eval.add_argument("--ref", required=True, help="reference corpus (JSONL)")
    p_eval.add_argument("--tau", type=float, default=0.5,
                        help="TP node IoU threshold in (0, 1] (default 0.5)")
    p_eval.add_argument("--label-sim", default="strict",
                        help="strict | lq1 | table:<path> (default strict)")
    p_eval.add_argument("--table-default", type=float, default=None,
                        help="similarity for pairs missing from a table: "
                             "protocol (default: reject unknown pairs)")
    p_eval.add_argument("--aggregate", choices=AGGREGATIONS, default="macro")
    p_eval.add_argument("--jobs", type=int, default=None,
                        help="worker processes, >= 1 (default: $OTQ_JOBS or 1)")
    p_eval.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p_eval.add_argument("--out", default=None, help="output path (default stdout)")

    p_deg = sub.add_parser("degrade", help="apply a controlled corruption to a corpus")
    p_deg.add_argument("--kind", required=True, choices=KINDS)
    p_deg.add_argument("--keep", required=True, type=float,
                       help="keep ratio in (0, 1]")
    p_deg.add_argument("--seed", type=int, default=0)
    p_deg.add_argument("--in", dest="input", required=True)
    p_deg.add_argument("--out", required=True)

    p_stats = sub.add_parser("stats", help="corpus statistics, optionally with "
                                           "flat-mask compatibility")
    p_stats.add_argument("--in", dest="input", required=True)
    p_stats.add_argument("--compat-ref", default=None,
                         help="flat reference corpus for compatibility metrics")
    p_stats.add_argument("--format", choices=("json", "table"), default="json")
    p_stats.add_argument("--out", default=None)

    p_flat = sub.add_parser("project-flat",
                            help="rewrite a corpus with every node attached to the root")
    p_flat.add_argument("--in", dest="input", required=True)
    p_flat.add_argument("--out", required=True)

    p_val = sub.add_parser("validate", help="check a corpus against the schema "
                                            "and tree invariants")
    p_val.add_argument("--in", dest="input", required=True)

    p_pipe = sub.add_parser("pipeline", help="run the mock decomposition pipeline "
                                             "from a scene script")
    p_pipe.add_argument("--script", required=True)
    p_pipe.add_argument("--out", default=None,
                        help="write the tree as JSONL (default stdout)")
    return parser


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if not 0.0 < args.tau <= 1.0:
        raise ConfigError(f"--tau must be in (0, 1], got {args.tau}")
    if args.table_default is not None and not args.label_sim.startswith("table:"):
        raise ConfigError("--table-default needs --label-sim table:<path>")
    jobs = os.environ.get("OTQ_JOBS", "1") if args.jobs is None else args.jobs
    try:
        jobs = int(jobs)
    except ValueError:
        raise ConfigError(f"OTQ_JOBS must be an integer, got {jobs!r}") from None
    if jobs < 1:
        raise ConfigError(f"--jobs and OTQ_JOBS must be at least 1, got {jobs}")
    for path in (args.pred, args.ref):
        if not Path(path).exists():
            raise FileNotFoundError(path)
    default = args.table_default if args.table_default is not None else "reject"
    try:
        proto = protocol_from_spec(args.label_sim, default)
    except SimilarityError as exc:
        # A bad selector is a configuration problem, not bad input data.
        raise ConfigError(str(exc)) from exc
    report = evaluate_corpus_files(args.pred, args.ref, proto, tau=args.tau,
                                   jobs=jobs, aggregate=args.aggregate)
    # Looked up per call: perfbench's tracer wraps report_to_json here.
    render = {"json": report_to_json, "csv": report_to_csv, "table": report_to_table}
    _write_text(args.out, render[args.format](report))
    return EXIT_OK


def _cmd_degrade(args: argparse.Namespace) -> int:
    spec = DegradeSpec(kind=args.kind, keep_ratio=args.keep, seed=args.seed)
    write_corpus(degrade_corpus(iter_corpus(args.input), spec), args.out)
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    from .stats import compat_eval, corpus_stats, stats_to_json
    trees = iter_corpus(args.input)
    compat = None
    if args.compat_ref is not None:
        trees = list(trees)  # corpus_stats reads --in again: parse it once
        compat = compat_eval(trees, iter_corpus(args.compat_ref))
    stats = corpus_stats(trees)
    if args.format == "json":
        text = stats_to_json(stats, compat)
    else:
        text = stats.render()
        if compat is not None:
            text += "\n" + compat.render()
    _write_text(args.out, text)
    return EXIT_OK


def _cmd_project_flat(args: argparse.Namespace) -> int:
    write_corpus((project_flat(t) for t in iter_corpus(args.input)), args.out)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    problems = []
    seen: dict[str, None] = {}
    for lineno, line in iter_lines(args.input):
        where = f"{args.input}:{lineno}"
        try:
            with located(where):
                tree = parse_tree(line)
            claim_image_id(seen, tree.canvas.image_id, where=where)
        except (SchemaError, ValidationError, CorpusError) as exc:
            problems.append(str(exc))
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return EXIT_VALIDATION
    print(f"{args.input}: {len(seen)} valid documents")
    return EXIT_OK


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from .pipeline import load_scene_script, run_pipeline
    canvas, proposer, grounder, limits = load_scene_script(args.script)
    tree = run_pipeline(canvas, proposer, grounder, limits)
    _write_text(args.out, serialize_tree(tree) + "\n")
    return EXIT_OK


_COMMANDS = {
    "evaluate": _cmd_evaluate,
    "degrade": _cmd_degrade,
    "stats": _cmd_stats,
    "project-flat": _cmd_project_flat,
    "validate": _cmd_validate,
    "pipeline": _cmd_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits directly on usage errors
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"otq: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"otq: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OtqError as exc:
        print(f"otq: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RuntimeError as exc:
        # Only a process pool raises BrokenExecutor, and the pool loaded it.
        from concurrent.futures import BrokenExecutor
        if not isinstance(exc, BrokenExecutor):
            raise
        print(f"otq: a worker process died: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> int:
    """``main()`` of the ``otq`` console script and ``python -m otq.cli``.

    Freezing every live object once ``main`` returns makes the full garbage
    collection that the interpreter runs at exit skip them; ``main`` itself
    leaves the collector alone, as tests call it in-process."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
