from __future__ import annotations

import json
import os

import pytest

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
    ], ids=["no-confidence", "no-rle", "bad-rle"])
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
        ({"children": {"": "blob"}}, "children['']: must be a list of strings"),
        ("image_id width height", "script must be a JSON object"),
    ], ids=["masks-list", "limit-string", "limit-bool", "width-string",
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

    def test_missing_script_exits_2(self, tmp_path):
        assert main(["pipeline", "--script", str(tmp_path / "nope.json")]) == 2
