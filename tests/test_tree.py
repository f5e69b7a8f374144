from __future__ import annotations

import gc
import json
import os
import stat
import unicodedata
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otq import (
    CorpusError,
    DegradeSpec,
    ImageCanvas,
    InstanceNode,
    OpenTree,
    ROOT_ID,
    SchemaError,
    SimilarityProtocol,
    ValidationError,
    degrade_tree,
    evaluate_corpus,
    evaluate_image,
    iter_corpus,
    parse_tree,
    project_flat,
    report_to_json,
    rle_decode,
    serialize_tree,
    synthetic_tree,
    write_corpus,
)
from otq.masks import boxes_meet, pair_ious
from otq.tree import corpus_index, pair_by_image_id, write_atomically

from conftest import make_tree, rect
from oracles import naive_climb_pairs
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

    @staticmethod
    def _six_nodes(**changes):
        """Nodes 1-6 under the root, each a valid 2x2 square, with
        ``changes[f"n{id}"]`` merged into node ``id`` (or replacing it when
        not a dict)."""
        out = [node_json(i, "a", None, rect(8, 8, i % 6, 0, 2, 2)) for i in range(1, 7)]
        for key, change in changes.items():
            i = int(key[1:]) - 1
            out[i] = {**out[i], **change} if isinstance(change, dict) else change
        return out

    @pytest.mark.parametrize("nodes,error,message", [
        # Per-node checks run over all nodes before any parent is resolved.
        (dict(n5={"label": ""}, n3={"parent": 99}), ValidationError,
         "empty label at node 5"),
        (dict(n3={"label": ""}, n5={"parent": 99}), ValidationError,
         "empty label at node 3"),
        (dict(n4={"rle": "64"}, n2={"parent": 99}), ValidationError,
         "empty mask at node 4"),
        (dict(n4={"rle": "64", "label": ""}), ValidationError, "empty label at node 4"),
        (dict(n4={"rle": "64"}, n2={"id": -1}), ValidationError,
         "node id -1 is reserved for the artificial root"),
        (dict(n1={"parent": 2}, n2={"parent": 1}, n4={"id": 2}), ValidationError,
         "duplicate node id 2"),
        (dict(n1={"id": 3}, n2={"parent": 3}, n3={"parent": 2}), ValidationError,
         "duplicate node id 3"),
        # The walk up from each node in document order meets the cycle.
        (dict(n1={"parent": 6}, n6={"parent": 1}, n4={"rle": "0 64"}), ValidationError,
         "cycle at node 1"),
        (dict(n1={"parent": 4}, n4={"parent": 5}, n5={"parent": 4}), ValidationError,
         "cycle at node 4"),
        # An RLE fault before a schema fault wins, as decoding comes first.
        (dict(n2={"rle": "0 3"}, n5={"parent": "x"}), ValidationError,
         "node 2: RLE covers 3 pixels, canvas has 64"),
        (dict(n2={"rle": "0 3"}, n5=7), ValidationError,
         "node 2: RLE covers 3 pixels, canvas has 64"),
        (dict(n2={"rle": "0 3"}, n1=7), SchemaError, "nodes[0] must be an object"),
    ])
    def test_first_of_two_faults_is_reported(self, nodes, error, message):
        with pytest.raises(error) as info:
            parse_tree(doc(self._six_nodes(**nodes)))
        assert str(info.value) == message

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

    def test_roundtrip_of_ids_given_out_of_order(self):
        # The masks' run table is gathered into id order, and each node is
        # written with its own mask.
        masks = {7: rect(16, 16, 0, 0, 16, 3), 2: rect(16, 16, 4, 5, 3, 6),
                 5: rect(16, 16, 1, 1, 2, 2), 3: rect(16, 16, 10, 12, 6, 4)}
        tree = make_tree([(7, "a", None, masks[7]), (2, "b", 7, masks[2]),
                          (5, "c", 2, masks[5]), (3, "d", None, masks[3])])
        assert tree.ids == [2, 3, 5, 7]
        again = parse_tree(serialize_tree(tree))
        assert again == tree
        assert {nid: node.mask for nid, node in again.nodes.items()} == masks
        assert [node["rle"] for node in json.loads(serialize_tree(tree))["nodes"]] == [
            masks[nid].to_rle() for nid in (2, 3, 5, 7)]

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

    def test_leaves_and_internal_ids(self, two_branch_tree):
        assert two_branch_tree.leaves() == (2, 3, 4)
        assert two_branch_tree.internal_ids() == (1,)

    def test_mask_out_of_canvas_rejected(self):
        with pytest.raises(ValidationError, match="canvas"):
            make_tree([(1, "a", None, rect(32, 32, 0, 0, 4, 4))],
                      width=16, height=16)

    def test_canvas_of_2_63_pixels_rejected(self):
        # Its pixel offsets would not fit in int64, so no tree, built or
        # parsed, may have it.
        width, height = 2**32, 2**31
        canvas = ImageCanvas("huge", width, height)
        node = InstanceNode(1, "a", rect(width, height, 0, 0, 2, 2), ROOT_ID)
        document = json.dumps({"image_id": "huge", "width": width, "height": height,
                               "nodes": []})
        for make in (lambda: OpenTree(canvas, [node]), lambda: OpenTree(canvas, []),
                     lambda: parse_tree(document)):
            with pytest.raises(ValidationError,
                               match=r"canvas 4294967296x2147483648 has 2\*\*63 pixels"):
                make()


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


def _respelled(document: str, data) -> str:
    """``document`` with its nodes shuffled, some labels respelled (case, or
    NFD, which normalization folds back) and, when drawn, one RLE string
    made non-canonical, which sends the whole document through the ``int``
    reader."""
    payload = json.loads(document)
    nodes = payload["nodes"]
    data.draw(st.randoms(use_true_random=False)).shuffle(nodes)
    for node in nodes:
        spelling = data.draw(st.sampled_from(["same", "upper", "nfd"]))
        if spelling == "upper":
            node["label"] = node["label"].upper()
        elif spelling == "nfd":
            node["label"] = unicodedata.normalize("NFD", node["label"] + "\u00e9")
            node["label"] = node["label"].title()
    if nodes and data.draw(st.booleans()):
        node = nodes[data.draw(st.integers(0, len(nodes) - 1))]
        node["rle"] = "+" + node["rle"].replace(" ", "\t ", 1)
    return json.dumps(payload)


def _in_memory(document: str) -> OpenTree:
    """The tree of ``document`` built with ``OpenTree(canvas, nodes)`` from
    its fields as written, each mask decoded on its own."""
    payload = json.loads(document)
    w, h = payload["width"], payload["height"]
    return OpenTree(ImageCanvas(payload["image_id"], w, h), [
        InstanceNode(n["id"], n["label"], rle_decode(n["rle"], w, h),
                     ROOT_ID if n["parent"] is None else n["parent"])
        for n in payload["nodes"]])


class TestParsedColumns:
    """A parsed tree holds columns and a decoded run table; built in memory
    from the same fields it holds ``InstanceNode``s.  Both must score alike."""

    @settings(max_examples=40)
    @given(degraded_pairs(), st.data())
    def test_parsed_and_in_memory_trees_score_alike(self, pair, data):
        docs = [_respelled(serialize_tree(t), data) for t in pair]
        parsed = [parse_tree(d) for d in docs]
        memory = [_in_memory(d) for d in docs]
        for p, m in zip(parsed, memory):
            assert p.ids == m.ids and p.labels == m.labels
            for x, y in zip(p.climb_pairs, m.climb_pairs):
                assert x.tolist() == y.tolist()
            i, j = np.nonzero(boxes_meet(p.run_table.boxes[:, None], m.run_table.boxes))
            assert (pair_ious(p.run_table, i, j).tolist()
                    == pair_ious(m.run_table, i, j).tolist())
        strict = SimilarityProtocol.strict()
        expected = evaluate_image(*memory, strict)
        assert evaluate_image(*parsed, strict) == expected
        assert evaluate_image(parsed[0], memory[1], strict) == expected
        for p, m in zip(parsed, memory):
            assert p == m
            assert parse_tree(serialize_tree(p)) == p == parse_tree(serialize_tree(m))

    def test_climb_pairs_of_a_skewed_tree(self):
        # A chain 40 deep of nested rectangles, and shallow nodes hung near
        # its top whose label paths repeat the chain's first levels.
        rng = np.random.default_rng(3)
        spec = [(k + 1, "a", k or None, rect(64, 64, k // 2, k // 2, 64 - k, 64 - k))
                for k in range(40)]
        for k in range(40, 70):
            row, col = rng.integers(0, 56, size=2).tolist()
            spec.append((k + 1, ["a", "b"][k % 2], int(rng.integers(0, 4)) or None,
                         rect(64, 64, row, col, 8, 8)))
        tree = make_tree(spec, 64, 64)
        expected = naive_climb_pairs(tree)
        assert len(expected) > 800
        for t in (tree, parse_tree(serialize_tree(tree))):
            assert list(zip(*(column.tolist() for column in t.climb_pairs))) == expected

    def test_scoring_builds_no_node_dict(self, two_branch_tree):
        pred, ref = (parse_tree(serialize_tree(t)) for t in (project_flat(two_branch_tree),
                                                             two_branch_tree))
        report = evaluate_image(pred, ref, SimilarityProtocol.strict())
        assert report.tp == 4
        assert "nodes" not in vars(pred) and "nodes" not in vars(ref)
        assert pred.nodes == project_flat(two_branch_tree).nodes


class TestKeylessTable:
    """A tree on a canvas so large that its masks' join keys would reach
    2**62 is reordered, degraded, scored pair by pair, serialized and parsed
    back."""

    def test_out_of_order_tree_scores_degrades_and_serializes(self):
        side = 2**31
        spec = [
            (3, "b", 1, rect(side, side, 10, 10, 4, 4)),
            (1, "a", None, rect(side, side, 0, 0, 40, 40)),
            (5, "c", None, rect(side, side, 2**30, 2**30, 5, 3)),
            (4, "d", 1, rect(side, side, 20, 20, 6, 6)),
            (2, "e", 3, rect(side, side, 11, 11, 2, 2)),
        ]
        tree = make_tree(spec, side, side)
        assert tree.ids == [1, 2, 3, 4, 5]
        assert [n.parent_id for n in tree.nodes.values()] == [ROOT_ID, 3, 1, 1, ROOT_ID]
        strict = SimilarityProtocol.strict()
        assert evaluate_image(tree, tree, strict).tp == 5
        outs = [project_flat(tree)] + [degrade_tree(tree, DegradeSpec(kind, 0.5, seed=0))
                                       for kind in ("random_node_missing", "parent_rewire")]
        assert [out.n_nodes for out in outs] == [5, 2, 5]
        rles = {nid: mask.to_rle() for nid, _, _, mask in spec}
        for out in [tree, *outs]:
            assert all(node.mask == tree.nodes[nid].mask for nid, node in out.nodes.items())
            assert evaluate_image(out, tree, strict).tp == out.n_nodes
            assert json.loads(serialize_tree(out))["nodes"] == [
                {"id": nid, "label": node.label,
                 "parent": None if node.parent_id == ROOT_ID else node.parent_id,
                 "rle": rles[nid]} for nid, node in out.nodes.items()]
            assert parse_tree(serialize_tree(out)) == out


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
