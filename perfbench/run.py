"""otq benchmark: seeded corpora, end-to-end throughput and memory, and a
traced run that splits the time across otq's layers.

    python3 perfbench/run.py --workload small --seed 0 --seconds 35 --trace 0

Workloads (see ``workloads.py`` and ``layers.json``): ``small``,
``large-canvas`` and ``audit-grid``.  Each run sets the workload up several
times (``setup_s`` is the median), then repeats rounds of measured
subprocesses for ``--seconds``, alternating their order:

* ``small`` / ``large-canvas``: ``python3 -m otq.cli evaluate`` at
  ``--jobs 1`` and ``--jobs 2``;
* ``audit-grid``: one ``audit_grid`` + ``grid_to_csv`` process, and two
  such processes side by side (the two-core figure).

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` each round adds a traced jobs-1 process and the result holds
the per-layer metrics.  Every output is checked: exit code 0, bytes equal
to the first serial output (so jobs 1 and jobs 2 agree), workload
invariants, and at the default seed the sha256 recorded in
``digests.json``.  Human-readable lines come first; the last line of
stdout is the JSON result.  ``--smoke`` runs toy sizes in seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracer import SpanStats, Tracer, load_spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH_DIR / "digests.json"

DEFAULT_SEED = 0
# Set-up is repeated at least SETUP_REPEATS times and until SETUP_MIN_S
# have passed; setup_s is the median, so one slow repeat does not move it.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
# A run must end within 180 s; no child may outlive this point of it.
RUN_DEADLINE_S = 170.0
# Workers run one BLAS/OpenMP thread each, so jobs 2 never exceeds 2 cores.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
# Per-layer counts that must repeat exactly between traced processes.
PER_LAYER_COUNTS = ("tree.parse_calls", "masks.iou_calls", "matching.matrix_cells",
                    "labels.similarity_calls", "metric.skeleton_iou_calls",
                    "metric.bq_pairs", "masks.morph_calls")


class SetupError(Exception):
    pass


@dataclass
class Sample:
    """One measured operation: a process, or for ``j2`` on audit-grid two
    concurrent processes, each counted as an operation.  ``outputs`` and
    ``extra`` hold the bytes the processes wrote."""

    op: str
    walls: list[float]
    rss_mb: float
    exit_codes: list[int]
    outputs: list[bytes | None]
    extra: list[bytes | None] = field(default_factory=list)
    spans: list[list] | None = None
    digests: list[str | None] = field(default_factory=list)
    reasons: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.digests = [None if data is None else hashlib.sha256(data).hexdigest()
                        for data in self.outputs]

    @property
    def wall_s(self) -> float:
        return max(self.walls)

    @property
    def attempted(self) -> int:
        return len(self.exit_codes)

    @property
    def failed(self) -> int:
        return self.attempted if self.reasons else 0


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _take_spans(path: Path) -> list[list] | None:
    """Load and remove the spans a traced process wrote (None if absent)."""
    if not path.exists():
        return None
    spans = load_spans(path)
    path.unlink()
    return spans


def _take(path: Path) -> bytes | None:
    """Read and remove a file a measured process wrote (None if absent)."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    path.unlink()
    return data


class Runner:
    """Starts measured subprocesses, reaps them with ``wait4`` for their peak
    RSS (which covers their reaped pool workers too), and kills any that
    would outlive the run's deadline."""

    def __init__(self, workdir: Path, started: float) -> None:
        self.workdir = workdir
        self.deadline = started + RUN_DEADLINE_S
        self.env = _child_env()

    def run(self, argvs: list[list[str]]) -> tuple[list[float], float, list[int]]:
        """Run the commands concurrently; (wall s of each, max peak RSS MB,
        exit codes)."""
        procs: list[subprocess.Popen] = []
        timers: list[threading.Timer] = []
        start = time.perf_counter()
        try:
            for k, argv in enumerate(argvs):
                with open(self.workdir / f"child-{k}.log", "wb") as log:
                    procs.append(subprocess.Popen(
                        argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                        stdout=log, stderr=log))
            remaining = max(1.0, self.deadline - time.monotonic())
            for proc in procs:
                timers.append(threading.Timer(remaining, _kill, (proc.pid,)))
                timers[-1].start()
            walls = [0.0] * len(procs)
            codes = [0] * len(procs)
            rss_kb = 0
            index = {proc.pid: k for k, proc in enumerate(procs)}
            while index:
                # Reap whichever ends first, so each gets its own wall time.
                pid, status, usage = os.wait4(-1, 0)
                if pid not in index:
                    continue
                k = index.pop(pid)
                walls[k] = time.perf_counter() - start
                procs[k].returncode = codes[k] = os.waitstatus_to_exitcode(status)
                rss_kb = max(rss_kb, usage.ru_maxrss)
        finally:
            for timer in timers:
                timer.cancel()
            for proc in procs:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        return walls, rss_kb / 1024.0, codes


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ---------------------------------------------------------------------------
# Measured operations of each workload.
# ---------------------------------------------------------------------------

class EvaluateBench:
    """``otq evaluate`` as a subprocess, at jobs 1 and jobs 2."""

    def __init__(self, runner: Runner, corpus, workdir: Path) -> None:
        self.runner, self.corpus, self.workdir = runner, corpus, workdir
        self.images = corpus.n_images

    def _argv(self, jobs: int, out: Path) -> list[str]:
        return ["evaluate", "--pred", str(self.corpus.pred), "--ref",
                str(self.corpus.ref), "--jobs", str(jobs), "--out", str(out)]

    def serial(self) -> Sample:
        return self._cli(1)

    def parallel(self) -> Sample:
        return self._cli(2)

    def _cli(self, jobs: int) -> Sample:
        out = self.workdir / f"report-j{jobs}.json"
        walls, rss, codes = self.runner.run(
            [[sys.executable, "-m", "otq.cli"] + self._argv(jobs, out)])
        return Sample(f"j{jobs}", walls, rss, codes, [_take(out)])

    def traced(self) -> Sample:
        out = self.workdir / "report-traced.json"
        spans = self.workdir / "spans.jsonl"
        walls, rss, codes = self.runner.run(
            [[sys.executable, str(BENCH_DIR / "child.py"), "evaluate",
              "--spans", str(spans), "--"] + self._argv(1, out)])
        return Sample("traced", walls, rss, codes, [_take(out)], spans=_take_spans(spans))

    def records(self, sample: Sample) -> list[dict]:
        return json.loads(sample.outputs[0])["images"]

    def invariants(self, data: bytes) -> list[str]:
        """The prediction only loses nodes and rewires parents, so every
        surviving node must match its reference node with IoU 1."""
        images = json.loads(data)["images"]
        problems = []
        ids = [r["image_id"] for r in images]
        if ids != sorted(ids):
            problems.append("images not sorted by image_id")
        if len(images) != self.corpus.n_images:
            problems.append(f"{len(images)} images, corpus has {self.corpus.n_images}")
        for rec, n_ref, n_pred in zip(images, self.corpus.ref_nodes,
                                      self.corpus.pred_nodes):
            expected = (n_pred, 0, n_ref - n_pred, n_pred * (n_pred - 1) // 2)
            got = (rec["tp"], rec["fp"], rec["fn"], rec["n_pairs"])
            if got != expected or rec["mq"] != 1.0 or rec["lq"] != 1.0:
                problems.append(f"image {rec['image_id']}: (tp, fp, fn, pairs) "
                                f"{got}, mq {rec['mq']}, lq {rec['lq']}; "
                                f"expected {expected}, mq 1.0, lq 1.0")
                break
        return problems

    def audit_s(self, samples: list[Sample]) -> list[float]:
        return []


class AuditBench:
    """``audit_grid`` + ``grid_to_csv`` in a fresh process; the two-core
    figure runs two such processes side by side."""

    def __init__(self, runner: Runner, corpus, workdir: Path, seed: int,
                 otq) -> None:
        self.runner, self.corpus, self.workdir, self.seed = runner, corpus, workdir, seed
        self.n_rows = 1 + len(otq.KINDS) * len(otq.SWEEP_KEEP_RATIOS)
        self.images = corpus.n_images * self.n_rows

    def _run(self, op: str, tags: list[str], spans: Path | None = None) -> Sample:
        argvs = []
        for tag in tags:
            argv = [sys.executable, str(BENCH_DIR / "child.py"), "audit",
                    "--corpus", str(self.corpus.ref), "--seed", str(self.seed),
                    "--out", str(self.workdir / f"grid-{tag}.csv"),
                    "--census", str(self.workdir / f"census-{tag}.json")]
            argvs.append(argv if spans is None else argv + ["--spans", str(spans)])
        walls, rss, codes = self.runner.run(argvs)
        return Sample(op, walls, rss, codes,
                      [_take(self.workdir / f"grid-{tag}.csv") for tag in tags],
                      extra=[_take(self.workdir / f"census-{tag}.json") for tag in tags],
                      spans=None if spans is None else _take_spans(spans))

    def serial(self) -> Sample:
        return self._run("j1", ["a"])

    def parallel(self) -> Sample:
        return self._run("j2", ["b", "c"])

    def traced(self) -> Sample:
        return self._run("traced", ["t"], self.workdir / "spans.jsonl")

    def records(self, sample: Sample) -> list[dict]:
        return json.loads(sample.extra[0])["records"]

    def invariants(self, data: bytes) -> list[str]:
        lines = data.decode("utf-8").splitlines()
        if len(lines) != 1 + self.n_rows:
            return [f"grid has {len(lines) - 1} rows, expected {self.n_rows}"]
        if not lines[1].startswith("none,1.0,1.0,1.0,1.0,1.0,1.0,1.0,"):
            return [f"baseline row is not perfect: {lines[1]}"]
        return []

    def audit_s(self, samples: list[Sample]) -> list[float]:
        return [json.loads(s.extra[0])["audit_s"]
                for s in samples if s.op == "j1" and not s.reasons]


# ---------------------------------------------------------------------------
# Correctness gate and census
# ---------------------------------------------------------------------------

def gate(samples: list[Sample], invariants, recorded: str | None,
         check_digest: bool) -> Sample | None:
    """Attach failure reasons to samples; return the reference sample.

    The reference is the first serial output.  Every output must equal it
    byte for byte, and it must pass the workload invariants and, when
    ``check_digest`` is set (the default seed), match ``recorded``.
    """
    for sample in samples:
        for code, digest in zip(sample.exit_codes, sample.digests):
            if code != 0:
                sample.reasons.append(f"exit code {code}")
            elif digest is None:
                sample.reasons.append("no output written")
    reference = next((s for s in samples if s.op == "j1" and not s.reasons), None)
    if reference is None:
        for sample in samples:
            sample.reasons.append("no serial run succeeded")
        return None
    ref_digest = reference.digests[0]
    problems = invariants(reference.outputs[0])
    if check_digest and recorded is None:
        problems.append("no digest recorded for the default seed")
    elif check_digest and ref_digest != recorded:
        problems.append(f"sha256 {ref_digest} differs from recorded {recorded}")
    for sample in samples:
        if sample.reasons:
            continue
        sample.reasons.extend(problems)
        for digest in sample.digests:
            if digest != ref_digest:
                sample.reasons.append(f"{sample.op} output sha256 {digest} "
                                      f"differs from the serial output {ref_digest}")
    return reference


def census(records: list[dict]) -> dict:
    """Traffic counts from per-image (tp, fp, fn, n_pairs) records; they
    repeat exactly for a given seed."""
    def spread(values):
        return [min(values), statistics.median(values), max(values)] if values else []

    return {
        "images": len(records),
        "ref_nodes": spread([r["tp"] + r["fn"] for r in records]),
        "pred_nodes": spread([r["tp"] + r["fp"] for r in records]),
        "tp": sum(r["tp"] for r in records),
        "fp": sum(r["fp"] for r in records),
        "fn": sum(r["fn"] for r in records),
        "metric.bq_pairs": sum(r["n_pairs"] for r in records),
        "matching.matrix_cells": sum((r["tp"] + r["fp"]) * (r["tp"] + r["fn"])
                                     for r in records),
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def layer_metrics(stats, setup_stats, wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced process, plus the traced set-up."""
    t, s, calls, work = stats.total_s, stats.self_s, stats.calls, stats.work
    iou_calls = calls["masks.iou"]
    cells = work["matching.match"]
    degrade_in_evaluate = (stats.total_under("degrade.mask", "audit.evaluate")
                           + stats.total_under("degrade.structure", "audit.evaluate"))
    return {
        "cli.import_s": t["cli.import"],
        "tree.index_s": t["tree.index"],
        "tree.parse_s": s["tree.parse"],
        "tree.parse_calls": calls["tree.parse"],
        "masks.decode_s": t["masks.decode"],
        "masks.decoded_mpix": work["masks.decode"] / 1e6,
        "masks.iou_calls": iou_calls,
        "masks.iou_s": t["masks.iou"],
        "masks.iou_positive_ratio": work["masks.iou"] / iou_calls if iou_calls else 0.0,
        "matching.match_s": t["matching.match"],
        "matching.iou_matrix_s": t["matching.match"] - t["matching.assign"],
        "matching.assign_s": t["matching.assign"],
        "matching.matrix_cells": cells,
        "matching.candidate_ratio":
            stats.calls_under("masks.iou", "matching.match") / cells if cells else 0.0,
        "labels.similarity_calls": calls["labels.similarity"],
        "metric.nq_s": t["metric.nq"],
        "metric.skeleton_s": t["metric.skeleton"],
        "metric.skeleton_iou_calls": stats.calls_under("masks.iou", "metric.skeleton"),
        "metric.bq_s": t["metric.bq"],
        "metric.bq_pairs": work["metric.bq"],
        "metric.aggregate_s": t["metric.aggregate"],
        "metric.serialise_s": t["metric.serialise"],
        "masks.morph_calls": calls["masks.morph"],
        "masks.morph_s": t["masks.morph"],
        "degrade.mask_s": t["degrade.mask"] + setup_stats.total_s["degrade.mask"],
        "degrade.structure_s": (t["degrade.structure"]
                                + setup_stats.total_s["degrade.structure"]),
        "audit.evaluate_s": t["audit.evaluate"] - degrade_in_evaluate,
        "audit.degrade_s": t["degrade.mask"] + t["degrade.structure"],
        "masks.encode_s": setup_stats.total_s["masks.encode"],
        "trace.unaccounted_frac": (wall_s - sum(s.values())) / wall_s,
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _describe(name: str, values: list[float], unit: str) -> str:
    q1, q2, q3 = _quartiles(values)
    return (f"{name:<28} {statistics.median(values):12.4f} {unit:<5} "
            f"(median of {len(values)}; q1 {q1:.4f}, q3 {q3:.4f}, "
            f"min {min(values):.4f}, max {max(values):.4f})")


def spec_units(kind: str) -> dict[str, str]:
    """Metric names and units of ``end_to_end`` or ``per_layer``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def measure(ops, seconds: float) -> tuple[list[Sample], int, float]:
    """Closed loop, one operation at a time, alternating the order so that
    neither kind always runs first.  A new round starts only if a round as
    long as the last one still ends within ``seconds``."""
    samples: list[Sample] = []
    t0 = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for op in (ops if rounds % 2 == 0 else ops[::-1]):
            samples.append(op())
        rounds += 1
        now = time.perf_counter()
        if now - t0 + (now - round_start) > seconds:
            return samples, rounds, now - t0


def _throughput(sample: Sample, images: int) -> float:
    """Images per second; concurrent processes add their own rates."""
    return sum(images / wall for wall in sample.walls)


def _of(samples: list[Sample], op: str) -> list[Sample]:
    return [s for s in samples if s.op == op]


def end_to_end_metrics(samples: list[Sample], bench,
                       setup_times: list[float]) -> dict[str, float]:
    """Medians over the run's samples; printed with their spread."""
    rates = {op: [_throughput(s, bench.images) for s in _of(samples, op)]
             for op in ("j1", "j2")}
    rss = {op: [s.rss_mb for s in _of(samples, op)] for op in ("j1", "j2")}
    print(_describe("setup_s", setup_times, "s"))
    for op, suffix in (("j1", ""), ("j2", ".j2")):
        print(_describe("images_per_s" + suffix, rates[op], "1/s"))
        print(_describe("peak_rss_mb" + suffix, rss[op], "MB"))
    audit_times = bench.audit_s(samples)
    if audit_times:
        print(_describe("audit_s", audit_times, "s"))
    return {
        "setup_s": statistics.median(setup_times),
        "images_per_s": statistics.median(rates["j1"]),
        "images_per_s.j2": statistics.median(rates["j2"]),
        "peak_rss_mb": statistics.median(rss["j1"]),
        "peak_rss_mb.j2": statistics.median(rss["j2"]),
    }


def per_layer_metrics(samples: list[Sample], bench, setup_stats,
                      counts: dict | None) -> dict[str, float]:
    """Medians of each traced process's layer numbers.  Traced counts must
    equal the census and repeat exactly; a process whose counts do not is
    failed.  Prints the self time by layer of the last traced process."""
    per_process = []
    for sample in _of(samples, "traced"):
        if sample.reasons:
            continue
        if sample.spans is None:
            sample.reasons.append("no spans written")
            continue
        stats = SpanStats(sample.spans)
        values = layer_metrics(stats, setup_stats, sample.wall_s)
        if counts is not None and any(values[k] != counts[k] for k in
                                      ("metric.bq_pairs", "matching.matrix_cells")):
            sample.reasons.append("traced counts differ from the census")
        elif per_process and any(values[k] != per_process[0][k] for k in PER_LAYER_COUNTS):
            sample.reasons.append("traced counts differ between processes")
        else:
            per_process.append(values)
            last_wall, last_stats = sample.wall_s, stats
    if not per_process:
        return {}
    metrics = {k: statistics.median(v[k] for v in per_process) for k in per_process[0]}
    j1 = _of(samples, "j1")
    metrics["metric.pool_efficiency"] = statistics.median(
        _throughput(s, bench.images) for s in _of(samples, "j2")) / (
        2.0 * statistics.median(_throughput(s, bench.images) for s in j1))
    metrics["trace.overhead_frac"] = statistics.median(
        s.wall_s for s in _of(samples, "traced")) / statistics.median(
        s.wall_s for s in j1) - 1.0
    layers = last_stats.layer_self_s()
    print(f"self time by layer, last traced jobs-1 process (wall {last_wall:.4f} s):")
    for layer, secs in layers.items():
        print(f"  {layer:<10} {secs:10.4f} s  {secs / last_wall:7.2%}")
    rest = last_wall - sum(layers.values())
    print(f"  {'remainder':<10} {rest:10.4f} s  {rest / last_wall:7.2%}"
          "  (interpreter start, code outside every span)")
    return metrics


# ---------------------------------------------------------------------------
# Environment and recorded digests
# ---------------------------------------------------------------------------

def environment(otq) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "otq": otq.__version__,
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "child_thread_env": THREAD_ENV,
        "platform": platform.platform(),
    }


def load_digests() -> dict:
    try:
        return json.loads(DIGESTS.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def record_digest(size: str, workload: str, digest: str, counts: dict) -> None:
    table = load_digests()
    table["seed"] = DEFAULT_SEED
    table.setdefault(size, {})[workload] = {"sha256": digest, "census": counts}
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def _import_otq():
    if not (SRC / "otq" / "__init__.py").is_file():
        raise SetupError(f"otq sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import otq

    if Path(otq.__file__).resolve().parent != (SRC / "otq").resolve():
        raise SetupError(f"imported otq from {otq.__file__}, not from {SRC}")
    return otq


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy corpus sizes; a run takes seconds")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's output sha256 and census as the "
                             "recorded ones (default seed only)")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    try:
        otq = _import_otq()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.record_digests and args.seed != DEFAULT_SEED:
        print(f"perfbench: --record-digests needs --seed {DEFAULT_SEED}",
              file=sys.stderr)
        return 3

    size = "smoke" if args.smoke else "full"
    units = spec_units("per_layer" if args.trace else "end_to_end")
    workdir = WORK / f"{args.workload}-{size}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment(otq)
    print(f"workload {args.workload} ({size}) seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    # Set-up: timed repeatedly untraced, or once under the tracer.
    setup_times: list[float] = []
    setup_tracer = Tracer()
    if args.trace:
        setup_tracer.wrap(otq.masks, "rle_encode", "masks.encode")
        corpus = workloads.setup(otq, args.workload, args.seed, size, workdir,
                                 setup_tracer)
    else:
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            t0 = time.perf_counter()
            corpus = workloads.setup(otq, args.workload, args.seed, size, workdir)
            setup_times.append(time.perf_counter() - t0)

    runner = Runner(workdir, started)
    if args.workload == "audit-grid":
        bench = AuditBench(runner, corpus, workdir, args.seed, otq)
    else:
        bench = EvaluateBench(runner, corpus, workdir)
    ops = [bench.serial, bench.parallel] + ([bench.traced] if args.trace else [])

    samples, rounds, measured_s = measure(ops, args.seconds)

    recorded = load_digests().get(size, {}).get(args.workload, {})
    check_digest = args.seed == DEFAULT_SEED and not args.record_digests
    reference = gate(samples, bench.invariants, recorded.get("sha256"), check_digest)
    ref_digest = counts = None
    if reference is not None:
        ref_digest = reference.digests[0]
        counts = census(bench.records(reference))
        if check_digest and recorded.get("census") not in (None, counts):
            reference.reasons.append(
                f"census {counts} differs from recorded {recorded['census']}")

    if args.trace:
        metrics = per_layer_metrics(samples, bench, SpanStats(setup_tracer.spans), counts)
        for name, unit in units.items():
            if name in metrics:
                print(f"{name:<28} {metrics[name]:14.6f} {unit}")
    else:
        metrics = end_to_end_metrics(samples, bench, setup_times)

    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    print(f"{'failed_frac':<28} {failed / attempted:12.4f} ratio "
          f"({failed} of {attempted} operations, {rounds} rounds in {measured_s:.1f} s)")
    print(f"images per operation {bench.images}; serial output sha256 {ref_digest}")
    print("census " + json.dumps(counts, sort_keys=True))
    for sample in samples:
        for reason in sample.reasons:
            print(f"FAILED {sample.op}: {reason}")

    if args.record_digests:
        if failed or ref_digest is None:
            print("perfbench: not recording the digest of a failed run", file=sys.stderr)
            return 1
        record_digest(size, args.workload, ref_digest, counts)
        print(f"RECORDED sha256 {ref_digest} for {args.workload} ({size}) "
              f"in {DIGESTS.name}")

    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "workload": args.workload, "size": size, "seed": args.seed,
        "trace": args.trace, "env": env, "census": counts,
        "samples": [{"op": s.op, "walls": s.walls, "rss_mb": s.rss_mb,
                     "exit_codes": s.exit_codes, "digests": s.digests,
                     "reasons": s.reasons} for s in samples],
        "result": result,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-{size}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
