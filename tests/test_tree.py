from __future__ import annotations

import gc
import json
import os
import stat
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otq import (
    CorpusError,
    DegradeSpec,
    ImageCanvas,
    OpenTree,
    ROOT_ID,
    SchemaError,
    SimilarityProtocol,
    ValidationError,
    degrade_tree,
    evaluate_corpus,
    iter_corpus,
    parse_tree,
    project_flat,
    report_to_json,
    serialize_tree,
    synthetic_tree,
    write_corpus,
)
from otq.tree import corpus_index, pair_by_image_id, write_atomically

from conftest import make_tree, rect
from oracles import bfs_depths


def doc(nodes, image_id="img", width=8, height=8):
    return json.dumps({"image_id": image_id, "width": width, "height": height,
                       "nodes": nodes})


def node_json(nid, label, parent, mask):
    return {"id": nid, "label": label, "parent": parent, "rle": mask.to_rle()}


class TestParse:
    def test_minimal_tree(self):
        tree = parse_tree(doc([node_json(1, "a", None, rect(8, 8, 0, 0, 4, 4))]))
        assert tree.n_nodes == 1
        assert tree.depth(1) == 1
        assert tree.depth(ROOT_ID) == 0

    def test_self_loop_rejected(self):
        bad = doc([node_json(1, "a", 1, rect(8, 8, 0, 0, 4, 4))])
        with pytest.raises(ValidationError, match="cycle at node"):
            parse_tree(bad)

    def test_two_node_cycle_rejected(self):
        bad = doc([
            node_json(1, "a", 2, rect(8, 8, 0, 0, 4, 4)),
            node_json(2, "b", 1, rect(8, 8, 4, 4, 4, 4)),
        ])
        with pytest.raises(ValidationError, match="cycle"):
            parse_tree(bad)

    def test_depth_map_hand_traced(self):
        # root -> A -> B, root -> C
        tree = parse_tree(doc([
            node_json(1, "a", None, rect(8, 8, 0, 0, 6, 6)),
            node_json(2, "b", 1, rect(8, 8, 1, 1, 3, 3)),
            node_json(3, "c", None, rect(8, 8, 6, 6, 2, 2)),
        ]))
        assert tree.depths == {1: 1, 2: 2, 3: 1}

    def test_malformed_json_reports_offset(self):
        with pytest.raises(SchemaError, match="byte offset"):
            parse_tree('{"image_id": "x", }')

    def test_unknown_parent_rejected(self):
        bad = doc([node_json(1, "a", 99, rect(8, 8, 0, 0, 4, 4))])
        with pytest.raises(ValidationError, match="unknown parent"):
            parse_tree(bad)

    def test_duplicate_id_rejected(self):
        bad = doc([
            node_json(1, "a", None, rect(8, 8, 0, 0, 4, 4)),
            node_json(1, "b", None, rect(8, 8, 4, 4, 4, 4)),
        ])
        with pytest.raises(ValidationError, match="duplicate node id"):
            parse_tree(bad)

    def test_reserved_root_id_rejected(self):
        bad = doc([node_json(-1, "a", None, rect(8, 8, 0, 0, 4, 4))])
        with pytest.raises(ValidationError, match="reserved"):
            parse_tree(bad)

    def test_empty_mask_rejected(self):
        bad = doc([{"id": 1, "label": "a", "parent": None, "rle": "64"}])
        with pytest.raises(ValidationError, match="empty mask at node 1"):
            parse_tree(bad)

    def test_empty_label_rejected(self):
        bad = doc([node_json(1, "  ", None, rect(8, 8, 0, 0, 4, 4))])
        # whitespace-only still nonempty after normalization; use truly empty
        parse_tree(bad)
        bad = doc([node_json(1, "", None, rect(8, 8, 0, 0, 4, 4))])
        with pytest.raises(ValidationError, match="empty label"):
            parse_tree(bad)

    def test_labels_normalized_nfc_lowercase(self):
        tree = parse_tree(doc([node_json(1, "Wheel", None, rect(8, 8, 0, 0, 4, 4))]))
        assert tree.nodes[1].label == "wheel"

    def test_rle_length_mismatch_names_node(self):
        bad = doc([{"id": 7, "label": "a", "parent": None, "rle": "0 3"}])
        with pytest.raises(ValidationError, match="node 7"):
            parse_tree(bad)

    def test_first_bad_node_in_document_order_is_reported(self):
        def nodes(bad_rle, no_label):
            out = [node_json(i, "a", None, rect(8, 8, 0, 0, 2, 2)) for i in range(1, 7)]
            out[bad_rle - 1]["rle"] = "0 3"
            del out[no_label - 1]["label"]
            return out

        with pytest.raises(ValidationError, match="^node 2: RLE covers 3 pixels"):
            parse_tree(doc(nodes(bad_rle=2, no_label=5)))
        with pytest.raises(SchemaError, match="^node 2: label must be a string"):
            parse_tree(doc(nodes(bad_rle=5, no_label=2)))

    def test_bad_field_types(self):
        with pytest.raises(SchemaError):
            parse_tree(json.dumps({"image_id": 3, "width": 8, "height": 8,
                                   "nodes": []}))
        with pytest.raises(SchemaError):
            parse_tree(doc([{"id": "x", "label": "a", "parent": None,
                             "rle": "0 64"}]))

    def test_bytes_input(self):
        raw = doc([node_json(1, "a", None, rect(8, 8, 0, 0, 4, 4))]).encode()
        assert parse_tree(raw).n_nodes == 1


class TestSerialize:
    def test_roundtrip_fixture(self, two_branch_tree):
        assert parse_tree(serialize_tree(two_branch_tree)) == two_branch_tree

    def test_roundtrip_synthetic(self):
        rng = np.random.default_rng(1)
        tree = synthetic_tree("img-x", rng)
        assert parse_tree(serialize_tree(tree)) == tree

    def test_root_only_tree(self):
        tree = OpenTree(ImageCanvas("empty", 4, 4), [])
        again = parse_tree(serialize_tree(tree))
        assert again.n_nodes == 0
        assert again == tree

    def test_shared_labels_preserved(self):
        tree = make_tree([
            (1, "wheel", None, rect(16, 16, 0, 0, 4, 4)),
            (2, "wheel", None, rect(16, 16, 8, 8, 4, 4)),
        ])
        again = parse_tree(serialize_tree(tree))
        assert [n.label for n in again.nodes.values()] == ["wheel", "wheel"]


class TestStructure:
    def test_depth_matches_bfs_oracle(self):
        rng = np.random.default_rng(5)
        for i in range(10):
            tree = synthetic_tree(f"t{i}", rng)
            assert tree.depths == bfs_depths(tree)

    def test_depth_is_parent_depth_plus_one(self):
        rng = np.random.default_rng(6)
        tree = synthetic_tree("t", rng)
        for nid, node in tree.nodes.items():
            assert tree.depth(nid) == tree.depth(node.parent_id) + 1

    def test_dropped_synthetic_tree_is_freed_without_gc(self):
        tree = synthetic_tree("t", np.random.default_rng(7))
        node = weakref.ref(tree.nodes[1])
        gc.disable()
        try:
            del tree
            assert node() is None
        finally:
            gc.enable()

    def test_edge_count_equals_node_count(self, two_branch_tree):
        edges = sum(len(kids) for kids in two_branch_tree.children.values())
        assert edges == two_branch_tree.n_nodes

    def test_unknown_node_lookup(self, chain_tree):
        with pytest.raises(ValidationError, match="unknown node"):
            chain_tree.depth(99)

    def test_ancestors_and_descendants(self, two_branch_tree):
        assert list(two_branch_tree.ancestors(2)) == [1]
        assert two_branch_tree.descendants(1) == {2, 3}
        assert two_branch_tree.leaves() == (2, 3, 4)
        assert two_branch_tree.internal_ids() == (1,)

    def test_label_paths(self, two_branch_tree):
        assert two_branch_tree.label_paths[2] == ("a", "b")
        assert two_branch_tree.label_paths[4] == ("d",)

    def test_mask_out_of_canvas_rejected(self):
        with pytest.raises(ValidationError, match="canvas"):
            make_tree([(1, "a", None, rect(32, 32, 0, 0, 4, 4))],
                      width=16, height=16)


class TestCorpusIo:
    def test_write_then_iter(self, tmp_path):
        rng = np.random.default_rng(2)
        trees = [synthetic_tree(f"img-{i}", rng) for i in range(3)]
        path = tmp_path / "corpus.jsonl"
        assert write_corpus(trees, path) == 3
        again = list(iter_corpus(path))
        assert again == trees

    def test_duplicate_image_id_rejected(self, tmp_path, chain_tree):
        path = tmp_path / "corpus.jsonl"
        line = serialize_tree(chain_tree)
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(CorpusError, match="duplicate image_id"):
            list(iter_corpus(path))

    def test_line_numbers_in_errors(self, tmp_path, chain_tree):
        path = tmp_path / "corpus.jsonl"
        path.write_text(serialize_tree(chain_tree) + "\n" + "{broken\n")
        with pytest.raises(SchemaError, match=":2:"):
            list(iter_corpus(path))

    def test_index_maps_id_to_where_and_line(self, tmp_path, chain_tree):
        path = tmp_path / "corpus.jsonl"
        line = serialize_tree(chain_tree) + "\n"
        path.write_text("\n" + line)
        assert corpus_index(path) == {
            chain_tree.canvas.image_id: (f"{path}:2", line)}

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")

        def chunks():
            yield "new\n"
            raise ValidationError("input failed")

        with pytest.raises(ValidationError, match="input failed"):
            write_atomically(path, chunks())
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_temp_file_never_touches_a_file_of_another_name(self, tmp_path):
        path, notes = tmp_path / "out.jsonl", tmp_path / "out.jsonl.tmp"
        notes.write_bytes(b"user notes\n")

        def chunks():
            yield "partial\n"
            raise ValidationError("input failed")

        with pytest.raises(ValidationError, match="input failed"):
            write_atomically(path, chunks())
        assert notes.read_bytes() == b"user notes\n" and not path.exists()
        assert write_atomically(path, ["a\n", "b\n"]) == 2
        assert path.read_text() == "a\nb\n"
        assert notes.read_bytes() == b"user notes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl", "out.jsonl.tmp"]

    def test_output_mode_follows_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_atomically(tmp_path / "out.txt", ["x"])
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "out.txt").stat().st_mode) == 0o640

    def test_pairs_in_image_id_order(self):
        assert pair_by_image_id({"b": 1, "a": 2}, {"a": "x", "b": "y"},
                                "left", "right") == [(2, "x"), (1, "y")]

    def test_unpaired_ids_named_on_both_sides(self):
        left = {f"l{i:02d}": 0 for i in range(12)} | {"both": 0}
        with pytest.raises(CorpusError) as info:
            pair_by_image_id(left, {"both": 0, "r": 0}, "candidates", "references")
        assert str(info.value) == (
            f"candidates without references: {sorted(left)[1:11]}; "
            "references without candidates: ['r']")


@st.composite
def degraded_pairs(draw):
    """(pred, ref): a generated reference, and a prediction made from it by
    node removal, parent rewiring and mask erosion."""
    seed = draw(st.integers(0, 2**16))
    ref = synthetic_tree("img", np.random.default_rng(seed),
                         width=draw(st.integers(24, 80)), height=draw(st.integers(24, 60)))
    pred = ref
    for kind in ("random_node_missing", "parent_rewire", "mask_erosion"):
        keep = draw(st.sampled_from((0.5, 0.75, 1.0)))
        pred = degrade_tree(pred, DegradeSpec(kind, keep, seed))
    return pred, ref


class TestGeneratedDocuments:
    @settings(max_examples=20)
    @given(degraded_pairs(), st.randoms(use_true_random=False))
    def test_node_order_in_documents_does_not_change_the_report(self, pair, rnd):
        docs = [serialize_tree(t) for t in pair]
        shuffled = []
        for document in docs:
            payload = json.loads(document)
            rnd.shuffle(payload["nodes"])
            shuffled.append(json.dumps(payload))

        def report(pred_doc, ref_doc):
            return report_to_json(evaluate_corpus(
                [(("pred:1", pred_doc), ("ref:1", ref_doc))],
                SimilarityProtocol.strict()))

        assert report(*shuffled) == report(*docs)

    @settings(max_examples=20)
    @given(degraded_pairs())
    def test_parse_inverts_serialize(self, pair):
        for tree in pair:
            assert parse_tree(serialize_tree(tree)) == tree


class TestProjectFlat:
    def test_everything_reattached_to_root(self, two_branch_tree):
        flat = project_flat(two_branch_tree)
        assert flat.n_nodes == two_branch_tree.n_nodes
        assert all(n.parent_id == ROOT_ID for n in flat.nodes.values())
        assert all(flat.nodes[i].mask == two_branch_tree.nodes[i].mask
                   for i in flat.nodes)

    def test_immutable_inputs_unchanged(self, two_branch_tree):
        project_flat(two_branch_tree)
        assert two_branch_tree.nodes[2].parent_id == 1
