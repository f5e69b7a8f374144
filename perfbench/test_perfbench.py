"""Checks of the benchmark itself, at smoke sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _smoke(root: Path, workload: str, trace: int, seed: int = run.DEFAULT_SEED):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    proc = _smoke(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
    if not trace:
        for name in ("setup_s", "images_per_s", "images_per_s.j2", "peak_rss_mb",
                     "peak_rss_mb.j2", "failed_frac"):
            assert any(line.startswith(name + " ") for line in proc.stdout.splitlines())
    assert "census {" in proc.stdout


def _sample(op: str, data: bytes) -> run.Sample:
    return run.Sample(op, [1.0], 10.0, [0], [data])


def test_gate_accepts_identical_outputs():
    samples = [_sample("j1", b"report"), _sample("j2", b"report")]
    digest = samples[0].digests[0]
    reference = run.gate(samples, lambda data: [], digest, check_digest=True)
    assert reference is samples[0]
    assert all(not s.reasons for s in samples)


def test_gate_fires_on_a_tampered_parallel_report():
    samples = [_sample("j1", b"report"), _sample("j2", b"report ")]
    run.gate(samples, lambda data: [], None, check_digest=False)
    assert not samples[0].reasons
    assert samples[1].failed == 1
    assert "differs from the serial output" in samples[1].reasons[0]


def test_gate_fires_on_a_digest_mismatch_at_the_default_seed():
    samples = [_sample("j1", b"tampered"), _sample("j2", b"tampered")]
    run.gate(samples, lambda data: [], "0" * 64, check_digest=True)
    assert all(s.failed == 1 for s in samples)
    assert "differs from recorded" in samples[0].reasons[0]


def test_gate_fires_on_a_failed_process():
    samples = [_sample("j1", b"report"), run.Sample("j2", [1.0], 10.0, [1], [None])]
    run.gate(samples, lambda data: [], None, check_digest=False)
    assert samples[1].reasons == ["exit code 1"]


def _copy_checkout(dest: Path, with_sources: bool) -> Path:
    shutil.copytree(BENCH_DIR, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(ROOT / "src" / "otq", dest / "src" / "otq",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_run_fails_when_a_recorded_digest_does_not_match(tmp_path):
    root = _copy_checkout(tmp_path, with_sources=True)
    digests = root / "perfbench" / "digests.json"
    table = json.loads(digests.read_text(encoding="utf-8"))
    table["smoke"]["small"]["sha256"] = "0" * 64
    digests.write_text(json.dumps(table), encoding="utf-8")
    proc = _smoke(root, "small", 0)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "FAILED j1: sha256" in proc.stdout


def test_run_without_program_sources_exits_nonzero_without_a_result(tmp_path):
    root = _copy_checkout(tmp_path, with_sources=False)
    proc = _smoke(root, "small", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_layer_table_covers_every_per_layer_metric():
    table = json.loads((BENCH_DIR / "layers.json").read_text(encoding="utf-8"))
    assert [row["metric"] for row in table["layers"]] == [
        m["name"] for m in SPEC["per_layer"]]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for row in table["layers"]:
        assert set(row["moves"]) <= end_to_end, row
        assert set(row["on"]) <= set(WORKLOADS), row
    assert list(table["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    assert list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
