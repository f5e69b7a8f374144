from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import otq
from otq import (
    iter_corpus,
    project_flat,
    synthetic_corpus,
    write_corpus,
)
from otq.cli import main

from conftest import make_tree, rect


@pytest.fixture
def corpus_path(tmp_path):
    path = tmp_path / "ref.jsonl"
    write_corpus(synthetic_corpus(4, seed=41), path)
    return path


def _run_python(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this otq."""
    env = {**os.environ, "PYTHONPATH": str(Path(otq.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=60)


# The names ``otq`` exports, under the module that defines each.
EXPORTS = {
    "audit": ["audit_grid", "grid_to_csv", "grid_to_table"],
    "degrade": ["KINDS", "SWEEP_KEEP_RATIOS", "DegradeSpec", "degrade_tree"],
    "errors": ["ConfigError", "CorpusError", "MaskError", "PipelineError", "RleError",
               "SchemaError", "SimilarityError", "ValidationError"],
    "labels": ["REJECT", "SimilarityProtocol", "load_similarity_table",
               "protocol_from_spec", "similarity"],
    "masks": ["Mask", "SizeBin", "containment", "dilate", "erode", "intersection_area",
              "iou", "mask_difference", "rle_decode", "rle_encode", "size_bin",
              "union_masks"],
    "matching": ["match_trees", "max_weight_assignment"],
    "metric": ["Skeleton", "aggregate_reports", "branch_quality", "build_skeleton",
               "evaluate_corpus", "evaluate_corpus_files", "evaluate_image",
               "matched_node_quality", "report_to_csv", "report_to_json",
               "report_to_table", "tree_quality"],
    "pipeline": ["PipelineLimits", "Proposal", "ScriptedGrounder", "ScriptedProposer",
                 "SemanticNode", "SemanticTree", "confidence_threshold", "decompose",
                 "filter_proposal", "load_scene_script", "materialize_instances",
                 "merge_siblings", "run_pipeline"],
    "stats": ["compat_eval", "corpus_stats"],
    "synth": ["chunky_corpus", "synthetic_corpus", "synthetic_tree"],
    "tree": ["ROOT_ID", "ImageCanvas", "InstanceNode", "OpenTree", "iter_corpus",
             "parse_tree", "project_flat", "serialize_tree", "write_corpus"],
}


class TestLazyImports:
    def test_evaluate_loads_no_scipy_module_it_does_not_use(self, two_branch_tree,
                                                           tmp_path):
        # The tree scored against itself has distinct row maxima, so its
        # assignment needs no solver; a tied matrix goes to the solver, and
        # morphology takes its steps, both in numpy only.
        corpus, out = tmp_path / "tree.jsonl", tmp_path / "report.json"
        write_corpus([two_branch_tree], corpus)
        script = textwrap.dedent(f"""
            import sys
            import numpy as np
            from otq.cli import main
            args = ["evaluate", "--pred", {str(corpus)!r}, "--ref", {str(corpus)!r},
                    "--out", {str(out)!r}]
            assert main(args) == 0
            lazy = ("scipy.optimize", "scipy.ndimage", "scipy.sparse")
            loaded = [name for name in lazy if name in sys.modules]
            assert not loaded, loaded
            from otq import Mask, dilate, erode, matching, max_weight_assignment
            tied = np.array([[0.5, 0.5], [0.5, 0.5]])
            assert matching._certified(np.round(tied * 10**12).astype(np.int64)) is None
            assert max_weight_assignment(tied) == [(0, 0), (1, 1)]
            loaded = [name for name in lazy if name in sys.modules]
            assert not loaded, loaded
            assert erode(Mask.from_rect(8, 8, 0, 0, 6, 6), 0.5).area == 16
            assert dilate(Mask.from_rect(8, 8, 3, 3, 2, 2), 4.0).area == 16
            loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
            assert not loaded, loaded
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(otq.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert json.loads(out.read_text())["corpus"]["otq"] == 1.0

    def test_serial_evaluate_loads_only_what_it_runs(self, corpus_path, tmp_path):
        out = tmp_path / "report.json"
        result = _run_python(f"""
            import sys
            from otq.cli import main
            assert main(["evaluate", "--pred", {str(corpus_path)!r},
                         "--ref", {str(corpus_path)!r}, "--jobs", "1",
                         "--out", {str(out)!r}]) == 0
            unused = ("otq.pipeline", "otq.stats", "otq.synth", "otq.audit",
                      "concurrent.futures", "concurrent.futures.process", "numpy.ma",
                      "logging", "_hashlib")
            loaded = [name for name in sys.modules
                      if name in unused or name.split(".")[0] == "scipy"]
            assert not loaded, loaded
        """)
        assert result.returncode == 0, result.stderr
        assert json.loads(out.read_text())["corpus"]["otq"] == 1.0

    def test_degradation_and_audit_grid_load_no_scipy(self):
        result = _run_python("""
            import sys
            from otq import (DegradeSpec, SimilarityProtocol, audit_grid, chunky_corpus,
                             degrade_tree)
            trees = list(chunky_corpus(2, seed=404))
            for kind, keep in (("mask_erosion", 0.3), ("mask_dilation", 0.3)):
                for tree in trees:
                    degraded = degrade_tree(tree, DegradeSpec(kind, keep))
                    assert degraded != tree
            rows = audit_grid(trees, SimilarityProtocol.strict())
            assert len(rows) == 25
            loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
            assert not loaded, loaded
        """)
        assert result.returncode == 0, result.stderr

    def test_pipeline_runs_with_scipy_blocked(self, tmp_path):
        scene = Path(otq.__file__).parents[2] / "demos" / "fixtures" / "scene.json"
        blocked, unblocked = tmp_path / "blocked.jsonl", tmp_path / "unblocked.jsonl"
        result = _run_python(f"""
            import sys
            sys.modules["scipy"] = None  # any import of scipy now fails
            from otq import Mask, merge_siblings
            from otq.cli import main
            assert main(["pipeline", "--script", {str(scene)!r},
                         "--out", {str(blocked)!r}]) == 0
            a, b = Mask.from_rect(8, 8, 0, 0, 4, 4), Mask.from_rect(8, 8, 0, 0, 4, 5)
            assert merge_siblings([a, b]) == [b]
        """)
        assert result.returncode == 0, result.stderr
        assert main(["pipeline", "--script", str(scene), "--out", str(unblocked)]) == 0
        assert blocked.read_bytes() == unblocked.read_bytes()

    def test_exported_names_resolve_to_their_home_modules(self):
        assert sorted(otq.__all__) == sorted(n for names in EXPORTS.values() for n in names)
        for module, names in EXPORTS.items():
            home = importlib.import_module(f"otq.{module}")
            for name in names:
                namespace: dict = {}
                exec(f"from otq import {name}", namespace)
                assert namespace[name] is getattr(home, name), (module, name)
        for module in (*EXPORTS, "cli", "seeding"):
            assert getattr(otq, module) is importlib.import_module(f"otq.{module}")
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            otq.nonexistent  # noqa: B018


class TestEvaluate:
    def test_self_evaluation_is_perfect(self, corpus_path, tmp_path):
        out = tmp_path / "report.json"
        code = main(["evaluate", "--pred", str(corpus_path),
                     "--ref", str(corpus_path), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["corpus"]["otq"] == 1.0
        assert len(payload["images"]) == 4

    def test_label_sim_changes_only_label_terms(self, corpus_path, tmp_path):
        pred = tmp_path / "pred.jsonl"
        write_corpus((project_flat(t) for t in iter_corpus(corpus_path)), pred)
        reports = {}
        for sim in ("strict", "lq1"):
            out = tmp_path / f"report-{sim}.json"
            code = main(["evaluate", "--pred", str(pred),
                         "--ref", str(corpus_path), "--label-sim", sim,
                         "--out", str(out)])
            assert code == 0
            reports[sim] = json.loads(out.read_text())
        for rec_strict, rec_lq1 in zip(reports["strict"]["images"],
                                       reports["lq1"]["images"]):
            assert rec_strict["tq"] == rec_lq1["tq"]
            assert rec_strict["bq"] == rec_lq1["bq"]
            assert rec_strict["mq"] == rec_lq1["mq"]
            assert rec_strict["lq"] <= rec_lq1["lq"]

    def test_table_protocol_survives_worker_processes(self, corpus_path,
                                                      tmp_path):
        from otq.synth import DEFAULT_VOCAB as vocab
        table = tmp_path / "sims.jsonl"
        rows = [json.dumps({"a": a, "b": b, "sim": 0.5})
                for a in vocab for b in vocab if a < b]
        table.write_text("\n".join(rows) + "\n")
        out = tmp_path / "report.json"
        code = main(["evaluate", "--pred", str(corpus_path),
                     "--ref", str(corpus_path),
                     "--label-sim", f"table:{table}",
                     "--jobs", "2", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["corpus"]["lq"] == 1.0

    def test_missing_ref_exits_2_without_output(self, corpus_path, tmp_path):
        out = tmp_path / "report.json"
        code = main(["evaluate", "--pred", str(corpus_path),
                     "--ref", str(tmp_path / "nope.jsonl"), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("side", ["--pred", "--ref"])
    def test_bad_rle_names_path_and_line(self, corpus_path, tmp_path, capsys,
                                         side, jobs):
        lines = corpus_path.read_text().splitlines()
        doc = json.loads(lines[1])
        doc["nodes"][0]["rle"] = "0 6"
        lines[1] = json.dumps(doc)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        paths = {"--pred": str(corpus_path), "--ref": str(corpus_path), side: str(bad)}
        code = main(["evaluate", "--pred", paths["--pred"], "--ref", paths["--ref"],
                     "--jobs", jobs])
        assert code == 1
        node_id = doc["nodes"][0]["id"]
        assert f"{bad}:2: node {node_id}: RLE covers 6 pixels" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("fault", ["canvas", "table"])
    def test_pair_error_names_image_and_documents(self, corpus_path, tmp_path,
                                                  capsys, fault, jobs):
        lines = corpus_path.read_text().splitlines()
        doc = json.loads(lines[1])
        options = []
        if fault == "canvas":
            doc["width"], doc["height"] = doc["height"], doc["width"]
            expected = "canvas mismatch"
        else:
            from otq.synth import DEFAULT_VOCAB as vocab
            doc["nodes"][0]["label"] = "not-in-table"
            table = tmp_path / "sims.jsonl"
            table.write_text(json.dumps({"a": vocab[0], "b": vocab[1], "sim": 0.5}))
            options = ["--label-sim", f"table:{table}"]
            expected = "missing from similarity table"
        lines[1] = json.dumps(doc)
        pred = tmp_path / "pred.jsonl"
        pred.write_text("\n".join(lines) + "\n")
        code = main(["evaluate", "--pred", str(pred), "--ref", str(corpus_path),
                     "--jobs", jobs] + options)
        assert code == 1
        err = capsys.readouterr().err
        where = f"image '{doc['image_id']}' (pred {pred}:2, ref {corpus_path}:2)"
        assert err.startswith(f"otq: {where}: ")
        assert expected in err

    def test_dead_worker_exits_2(self, corpus_path, capsys, monkeypatch):
        import otq.metric
        # The pool forks, so its workers inherit the patched global.
        monkeypatch.setattr(otq.metric, "evaluate_image",
                            lambda *args: os._exit(7))
        code = main(["evaluate", "--pred", str(corpus_path),
                     "--ref", str(corpus_path), "--jobs", "2"])
        assert code == 2
        assert capsys.readouterr().err.startswith("otq: a worker process died: ")

    @pytest.mark.parametrize("default", ["1.5", "-0.1"])
    def test_table_default_outside_unit_interval_exits_3(self, corpus_path,
                                                         tmp_path, capsys,
                                                         default):
        table = tmp_path / "sims.jsonl"
        table.write_text(json.dumps({"a": "car", "b": "tree", "sim": 0.5}) + "\n")
        code = main(["evaluate", "--pred", str(corpus_path),
                     "--ref", str(corpus_path), "--label-sim", f"table:{table}",
                     f"--table-default={default}"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("otq: config error: ")
        assert "outside [0, 1]" in err

    @pytest.mark.parametrize("options, env_jobs", [
        (["--label-sim", "strict", "--table-default", "5"], None),
        (["--label-sim", "lq1", "--table-default", "0.5"], None),
        (["--jobs", "0"], None),
        (["--jobs", "-4"], None),
        ([], "abc"),
        ([], "0"),
    ], ids=["table-default-strict", "table-default-lq1", "jobs-zero",
            "jobs-negative", "env-jobs-text", "env-jobs-zero"])
    def test_ignored_setting_exits_3(self, corpus_path, capsys, monkeypatch,
                                     options, env_jobs):
        if env_jobs is not None:
            monkeypatch.setenv("OTQ_JOBS", env_jobs)
        code = main(["evaluate", "--pred", str(corpus_path),
                     "--ref", str(corpus_path)] + options)
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("otq: config error: ")
        assert captured.out == ""

    def test_env_jobs_sets_worker_count(self, corpus_path, tmp_path,
                                        monkeypatch):
        serial = tmp_path / "serial.json"
        pooled = tmp_path / "pooled.json"
        argv = ["evaluate", "--pred", str(corpus_path), "--ref", str(corpus_path)]
        assert main(argv + ["--jobs", "1", "--out", str(serial)]) == 0
        monkeypatch.setenv("OTQ_JOBS", "2")
        assert main(argv + ["--out", str(pooled)]) == 0
        assert pooled.read_bytes() == serial.read_bytes()

    def test_bad_tau_exits_3(self, corpus_path):
        code = main(["evaluate", "--pred", str(corpus_path),
                     "--ref", str(corpus_path), "--tau", "1.5"])
        assert code == 3

    def test_csv_format(self, corpus_path, tmp_path, capsys):
        code = main(["evaluate", "--pred", str(corpus_path),
                     "--ref", str(corpus_path), "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("image_id,otq")
        assert lines[-1].startswith("corpus,")

    def test_compat_parses_each_document_once(self, corpus_path, tmp_path, capsys,
                                              monkeypatch):
        flat = tmp_path / "flat.jsonl"
        assert main(["project-flat", "--in", str(corpus_path),
                     "--out", str(flat)]) == 0
        parse, lines = otq.tree.parse_tree, []
        monkeypatch.setattr(otq.tree, "parse_tree",
                            lambda line: lines.append(line) or parse(line))
        assert main(["stats", "--in", str(corpus_path),
                     "--compat-ref", str(flat)]) == 0
        n_docs = len(corpus_path.read_text().splitlines())
        assert len(lines) == 2 * n_docs

    def test_reports_do_not_depend_on_the_hash_seed(self, corpus_path, tmp_path):
        # Label groups and every other order the report depends on must not
        # follow set or dict hashing, which PYTHONHASHSEED changes.
        pred = tmp_path / "pred.jsonl"
        assert main(["degrade", "--kind", "parent_rewire", "--keep", "0.5",
                     "--in", str(corpus_path), "--out", str(pred)]) == 0
        reports = []
        for seed in ("0", "1"):
            for jobs in ("1", "2"):
                out = tmp_path / f"report-{seed}-{jobs}.json"
                env = {**os.environ, "PYTHONHASHSEED": seed,
                       "PYTHONPATH": str(Path(otq.__file__).parents[1])}
                result = subprocess.run(
                    [sys.executable, "-m", "otq.cli", "evaluate", "--pred", str(pred),
                     "--ref", str(corpus_path), "--jobs", jobs, "--out", str(out)],
                    env=env, capture_output=True, text=True, timeout=120)
                assert result.returncode == 0, result.stderr
                reports.append(out.read_bytes())
        assert json.loads(reports[0])["corpus"]["bq"] < 1.0
        assert reports == reports[:1] * 4

    def test_table_format(self, corpus_path, capsys):
        assert main(["evaluate", "--pred", str(corpus_path),
                     "--ref", str(corpus_path), "--format", "table"]) == 0
        assert "OTQ" in capsys.readouterr().out


class TestDegrade:
    def test_deterministic_output(self, corpus_path, tmp_path):
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        for out in (out1, out2):
            code = main(["degrade", "--kind", "parent_rewire", "--keep", "0.5",
                         "--seed", "9", "--in", str(corpus_path),
                         "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_keep_one_reproduces_input(self, corpus_path, tmp_path):
        out = tmp_path / "same.jsonl"
        code = main(["degrade", "--kind", "leaf_node_missing", "--keep", "1.0",
                     "--in", str(corpus_path), "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == corpus_path.read_bytes()

    def test_bad_kind_exits_3(self, corpus_path, tmp_path):
        code = main(["degrade", "--kind", "nonsense", "--keep", "0.5",
                     "--in", str(corpus_path), "--out", str(tmp_path / "x")])
        assert code == 3


class TestStats:
    def test_hand_computed_counts(self, tmp_path, capsys):
        trees = [
            make_tree([(1, "a", None, rect(16, 16, 0, 0, 8, 8)),
                       (2, "b", 1, rect(16, 16, 1, 1, 4, 4))],
                      image_id="one"),
            make_tree([(1, "a", None, rect(16, 16, 0, 0, 8, 8))],
                      image_id="two"),
        ]
        path = tmp_path / "c.jsonl"
        write_corpus(trees, path)
        assert main(["stats", "--in", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        stats = payload["stats"]
        assert stats["n_images"] == 2
        assert stats["n_masks"] == 3
        assert stats["masks_per_image"] == 1.5
        assert stats["n_unique_labels"] == 2
        assert stats["max_depth"] == 2

    def test_stats_with_compat(self, corpus_path, tmp_path, capsys):
        flat = tmp_path / "flat.jsonl"
        assert main(["project-flat", "--in", str(corpus_path),
                     "--out", str(flat)]) == 0
        assert main(["stats", "--in", str(corpus_path),
                     "--compat-ref", str(flat)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["compat"]["ar"] == 1.0

    def test_compat_parses_each_document_once(self, corpus_path, tmp_path, capsys,
                                              monkeypatch):
        flat = tmp_path / "flat.jsonl"
        assert main(["project-flat", "--in", str(corpus_path),
                     "--out", str(flat)]) == 0
        parse, lines = otq.tree.parse_tree, []
        monkeypatch.setattr(otq.tree, "parse_tree",
                            lambda line: lines.append(line) or parse(line))
        assert main(["stats", "--in", str(corpus_path),
                     "--compat-ref", str(flat)]) == 0
        n_docs = len(corpus_path.read_text().splitlines())
        assert len(lines) == 2 * n_docs

    def test_table_format(self, corpus_path, capsys):
        assert main(["stats", "--in", str(corpus_path),
                     "--format", "table"]) == 0
        assert "Depth" in capsys.readouterr().out


class TestProjectFlat:
    def test_flattens_every_parent(self, corpus_path, tmp_path):
        out = tmp_path / "flat.jsonl"
        assert main(["project-flat", "--in", str(corpus_path),
                     "--out", str(out)]) == 0
        for tree in iter_corpus(out):
            assert all(n.parent_id == -1 for n in tree.nodes.values())

    def test_empty_corpus_ok(self, tmp_path):
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        out = tmp_path / "out.jsonl"
        assert main(["project-flat", "--in", str(src), "--out", str(out)]) == 0
        assert out.read_text() == ""

    def test_node_count_preserved(self, corpus_path, tmp_path):
        out = tmp_path / "flat.jsonl"
        main(["project-flat", "--in", str(corpus_path), "--out", str(out)])
        orig = [t.n_nodes for t in iter_corpus(corpus_path)]
        flat = [t.n_nodes for t in iter_corpus(out)]
        assert orig == flat


class TestValidate:
    def test_valid_corpus_exits_0(self, corpus_path, capsys):
        assert main(["validate", "--in", str(corpus_path)]) == 0
        assert "4 valid" in capsys.readouterr().out

    def test_corrupted_lines_reported(self, tmp_path, capsys, corpus_path):
        bad = tmp_path / "bad.jsonl"
        lines = corpus_path.read_text().splitlines()
        doc = json.loads(lines[0])
        doc["nodes"][0]["parent"] = doc["nodes"][0]["id"]  # self-loop
        bad.write_text("\n".join([lines[0], "{oops", json.dumps(doc)]) + "\n")
        assert main(["validate", "--in", str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"{bad}:2: " in err and f"{bad}:3: " in err

    def test_duplicate_ids_reported(self, tmp_path, capsys, corpus_path):
        line = corpus_path.read_text().splitlines()[0]
        dup = tmp_path / "dup.jsonl"
        dup.write_text(line + "\n" + line + "\n")
        assert main(["validate", "--in", str(dup)]) == 1
        assert "duplicate image_id" in capsys.readouterr().err


class TestFailedWrite:
    """A command whose input fails part-way exits 1, leaves ``--out`` as it
    was and leaves no temp file behind."""

    @pytest.mark.parametrize("command", ["degrade", "project-flat"])
    def test_bad_third_line_leaves_out_untouched(self, corpus_path, tmp_path,
                                                 capsys, command):
        lines = corpus_path.read_text().splitlines()
        doc = json.loads(lines[2])
        doc["nodes"][0]["rle"] = "1"
        lines[2] = json.dumps(doc)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.jsonl"
        out.write_bytes(b"earlier output\n")
        argv = {
            "degrade": ["degrade", "--kind", "parent_rewire", "--keep", "0.5",
                        "--in", str(bad), "--out", str(out)],
            "project-flat": ["project-flat", "--in", str(bad), "--out", str(out)],
        }[command]
        assert main(argv) == 1
        assert f"{bad}:3: " in capsys.readouterr().err
        assert out.read_bytes() == b"earlier output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bad.jsonl", "out.jsonl", "ref.jsonl"]


class TestInvalidUtf8:
    """A byte that is not UTF-8 is reported with its file, line and offset
    in the line, with the documented exit code, not as a traceback."""

    @staticmethod
    def spoil(line: bytes) -> tuple[bytes, int]:
        """``line`` with a stray 0xff byte opening its first label, and the
        byte's offset."""
        spoiled = line.replace(b'"label":"', b'"label":"\xff', 1)
        return spoiled, spoiled.index(b"\xff")

    @pytest.mark.parametrize("command", ["evaluate", "stats", "degrade", "project-flat"])
    def test_corpus_line_exits_1(self, corpus_path, tmp_path, capsys, command):
        lines = corpus_path.read_bytes().splitlines()
        lines[1], offset = self.spoil(lines[1])
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\n".join(lines) + b"\n")
        out = str(tmp_path / "out.jsonl")
        argv = {
            "evaluate": ["evaluate", "--pred", str(bad), "--ref", str(corpus_path)],
            "stats": ["stats", "--in", str(bad)],
            "degrade": ["degrade", "--kind", "parent_rewire", "--keep", "0.5",
                        "--in", str(bad), "--out", out],
            "project-flat": ["project-flat", "--in", str(bad), "--out", out],
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"otq: {bad}:2: invalid UTF-8 at byte offset {offset}\n")

    def test_validate_lists_each_line_and_goes_on(self, corpus_path, tmp_path, capsys):
        lines = corpus_path.read_bytes().splitlines()
        lines[1], offset1 = self.spoil(lines[1])
        lines[3], offset3 = self.spoil(lines[3])
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\n".join(lines) + b"\n")
        assert main(["validate", "--in", str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"{bad}:2: invalid UTF-8 at byte offset {offset1}\n"
            f"{bad}:4: invalid UTF-8 at byte offset {offset3}\n")

    def test_similarity_table_line_exits_3(self, corpus_path, tmp_path, capsys):
        table = tmp_path / "sims.jsonl"
        table.write_bytes(b'{"a": "x", "b": "y", "sim": 0.5}\n'
                          b'{"a": "\xc3", "b": "y", "sim": 0.5}\n')
        assert main(["evaluate", "--pred", str(corpus_path), "--ref", str(corpus_path),
                     "--label-sim", f"table:{table}"]) == 3
        assert "line 2: invalid UTF-8 at byte offset 7" in capsys.readouterr().err

    def test_scene_script_exits_1(self, tmp_path, capsys):
        path = tmp_path / "scene.json"
        path.write_bytes(b'{"image_id": "\xe2\x82", "width": 4, "height": 4}')
        assert main(["pipeline", "--script", str(path)]) == 1
        assert capsys.readouterr().err == f"otq: {path}: invalid UTF-8 at byte offset 14\n"


class TestPipelineCommand:
    def test_scene_script(self, tmp_path, capsys):
        ground = rect(24, 18, 12, 0, 6, 24)
        wheel = rect(24, 18, 13, 2, 2, 2)
        script = {
            "image_id": "scene", "width": 24, "height": 18,
            "children": {"": ["ground"], "ground": ["wheel"]},
            "masks": {
                "ground": [{"rle": ground.to_rle(), "confidence": 0.9}],
                "wheel": [{"rle": wheel.to_rle(), "confidence": 0.8}],
            },
        }
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(script))
        assert main(["pipeline", "--script", str(path)]) == 0
        from otq import parse_tree
        tree = parse_tree(capsys.readouterr().out.strip())
        assert {n.label for n in tree.nodes.values()} == {"ground", "wheel"}

    @pytest.mark.parametrize("entry, problem", [
        ({"rle": "0 16"}, "needs a string 'rle' and a numeric 'confidence'"),
        ({"confidence": 0.9}, "needs a string 'rle' and a numeric 'confidence'"),
        ({"rle": "15", "confidence": 0.9}, "RLE covers 15 pixels, canvas has 16"),
        ({"rle": "5 6 5", "confidence": True},
         "needs a string 'rle' and a numeric 'confidence'"),
        ({"rle": "16", "confidence": 0.9}, "empty mask"),
        ({"rle": "5 6 5", "confidence": float("nan")}, "'confidence' must be finite"),
        ({"rle": "5 6 5", "confidence": float("inf")}, "'confidence' must be finite"),
        ({"rle": "5 6 5", "confidence": -float("inf")}, "'confidence' must be finite"),
        ({"rle": "5 6 5", "confidence": 10**400}, "'confidence' must be finite"),
    ], ids=["no-confidence", "no-rle", "bad-rle", "bool-confidence", "empty-mask",
            "nan-confidence", "infinite-confidence", "negative-infinite-confidence",
            "huge-confidence"])
    def test_bad_mask_entry_names_script_label_and_index(self, tmp_path, capsys,
                                                         entry, problem):
        script = {
            "image_id": "scene", "width": 4, "height": 4,
            "children": {"": ["blob"]},
            "masks": {"blob": [{"rle": "5 6 5", "confidence": 0.9}, entry]},
        }
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(script))
        assert main(["pipeline", "--script", str(path)]) == 1
        assert capsys.readouterr().err == f"otq: {path}: masks['blob'][1]: {problem}\n"

    @pytest.mark.parametrize("change, problem", [
        ({"masks": []}, "masks: must be an object"),
        ({"limits": {"max_depth": "x"}}, "limits['max_depth']: must be an integer"),
        ({"limits": {"max_children": True}},
         "limits['max_children']: must be an integer"),
        ({"width": "4"}, "width: must be an integer"),
        ({"width": 0}, "width: must be at least 1"),
        ({"limits": {"max_children": -1}},
         "limits['max_children']: must be at least 0"),
        ({"limits": {"max_depth": -1}}, "limits['max_depth']: must be at least 0"),
        ({"children": {"": "blob"}}, "children['']: must be a list of strings"),
        ("image_id width height", "script must be a JSON object"),
    ], ids=["masks-list", "limit-string", "limit-bool", "width-string",
            "width-zero", "children-negative", "depth-negative",
            "children-string", "not-an-object"])
    def test_bad_script_field_names_script_and_key(self, tmp_path, capsys,
                                                   change, problem):
        script = {
            "image_id": "scene", "width": 4, "height": 4,
            "children": {"": ["blob"]},
            "masks": {"blob": [{"rle": "5 6 5", "confidence": 0.9}]},
        }
        script = {**script, **change} if isinstance(change, dict) else change
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(script))
        assert main(["pipeline", "--script", str(path)]) == 1
        assert capsys.readouterr().err == f"otq: {path}: {problem}\n"

    def test_syntax_error_names_script_and_byte_offset(self, tmp_path, capsys):
        path = tmp_path / "scene.json"
        path.write_text('{"image_id": "s", "width": 4,, "height": 4}')
        assert main(["pipeline", "--script", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"otq: {path}: malformed JSON at byte offset 29: "
            "Expecting property name enclosed in double quotes\n")

    def test_missing_script_exits_2(self, tmp_path):
        assert main(["pipeline", "--script", str(tmp_path / "nope.json")]) == 2
