from __future__ import annotations

import numpy as np
import pytest

from otq import (
    ConfigError,
    DegradeSpec,
    SimilarityProtocol,
    degrade_tree,
    evaluate_image,
    parse_tree,
    project_flat,
    serialize_tree,
    synthetic_tree,
)
import otq.masks as mask_module
import otq.tree as tree_module
from otq.synth import chunky_corpus

from conftest import make_tree, rect
from oracles import canvas_pixels

STRICT = SimilarityProtocol.strict()


def fixture_tree(seed=0, **kw):
    rng = np.random.default_rng(seed)
    params = dict(width=96, height=72, grids=((2, 2), (2, 2)),
                  level_p=(1.0, 0.8), margin=2, min_side=6)
    params.update(kw)
    return synthetic_tree(f"fix-{seed}", rng, **params)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            DegradeSpec(kind="label_shuffle", keep_ratio=0.5)

    def test_keep_out_of_range(self):
        with pytest.raises(ConfigError):
            DegradeSpec(kind="parent_rewire", keep_ratio=0.0)
        with pytest.raises(ConfigError):
            DegradeSpec(kind="parent_rewire", keep_ratio=1.5)


class TestKeepOne:
    @pytest.mark.parametrize("kind", [
        "mask_erosion", "mask_dilation", "parent_rewire",
        "internal_node_missing", "leaf_node_missing", "random_node_missing",
    ])
    def test_unchanged(self, kind):
        tree = fixture_tree(1)
        out = degrade_tree(tree, DegradeSpec(kind=kind, keep_ratio=1.0, seed=4))
        assert out == tree


class TestParentRewire:
    def test_two_node_tree_unchanged(self):
        tree = make_tree([(1, "a", None, rect(8, 8, 0, 0, 4, 4))],
                         width=8, height=8)
        out = degrade_tree(tree, DegradeSpec("parent_rewire", 0.5, seed=1))
        assert out == tree

    def test_masks_and_labels_untouched(self):
        tree = fixture_tree(2)
        out = degrade_tree(tree, DegradeSpec("parent_rewire", 0.5, seed=2))
        assert out.n_nodes == tree.n_nodes
        for nid in tree.nodes:
            assert out.nodes[nid].label == tree.nodes[nid].label
            assert out.nodes[nid].mask == tree.nodes[nid].mask

    def test_rewired_count(self):
        tree = fixture_tree(3)
        out = degrade_tree(tree, DegradeSpec("parent_rewire", 0.5, seed=3))
        changed = sum(out.nodes[n].parent_id != tree.nodes[n].parent_id
                      for n in tree.nodes)
        # Every selected node had alternatives in this fixture.
        import math
        assert changed == math.ceil(0.5 * tree.n_nodes)

    def test_signature_nq_exact_ones(self):
        tree = fixture_tree(4)
        out = degrade_tree(tree, DegradeSpec("parent_rewire", 0.5, seed=5))
        report = evaluate_image(out, tree, STRICT)
        assert report.mean_nq == 1.0 and report.mq == 1.0 and report.lq == 1.0
        assert report.tq <= 1.0
        assert report.otq == report.tq


class TestNodeMissing:
    def test_leaf_missing_exact_count_and_reproducible(self):
        tree = make_tree([
            (1, "p", None, rect(32, 32, 0, 0, 28, 28)),
            (2, "l1", 1, rect(32, 32, 1, 1, 5, 5)),
            (3, "l2", 1, rect(32, 32, 8, 8, 5, 5)),
            (4, "l3", 1, rect(32, 32, 15, 15, 5, 5)),
            (5, "l4", 1, rect(32, 32, 22, 22, 5, 5)),
        ], width=32, height=32)
        spec = DegradeSpec("leaf_node_missing", 0.5, seed=11)
        out1 = degrade_tree(tree, spec)
        out2 = degrade_tree(tree, spec)
        assert out1.n_nodes == 3  # exactly 2 of 4 leaves removed
        assert serialize_tree(out1) == serialize_tree(out2)
        other = degrade_tree(tree, DegradeSpec("leaf_node_missing", 0.5, seed=12))
        assert other.n_nodes == 3

    def test_internal_missing_splices_children(self):
        tree = make_tree([
            (1, "p", None, rect(32, 32, 0, 0, 30, 30)),
            (2, "m", 1, rect(32, 32, 2, 2, 20, 20)),
            (3, "c", 2, rect(32, 32, 4, 4, 6, 6)),
        ], width=32, height=32)
        out = degrade_tree(tree, DegradeSpec("internal_node_missing", 0.15, seed=0))
        # Both internal nodes removed; the leaf survives attached to the root.
        assert sorted(out.nodes) == [3]
        assert out.nodes[3].parent_id == -1

    def test_no_internal_candidates_is_noop(self):
        tree = make_tree([(1, "a", None, rect(8, 8, 0, 0, 4, 4))],
                         width=8, height=8)
        out = degrade_tree(tree, DegradeSpec("internal_node_missing", 0.5, seed=0))
        assert out == tree

    def test_random_missing_signature(self):
        tree = fixture_tree(6)
        out = degrade_tree(tree, DegradeSpec("random_node_missing", 0.5, seed=6))
        report = evaluate_image(out, tree, STRICT)
        assert report.mean_nq == 1.0
        assert report.fp == 0
        assert report.fn == tree.n_nodes - out.n_nodes

    def test_leaf_missing_closed_form_tq(self):
        tree = fixture_tree(7)
        n = tree.n_nodes
        spec = DegradeSpec("leaf_node_missing", 0.5, seed=7)
        out = degrade_tree(tree, spec)
        k = n - out.n_nodes
        report = evaluate_image(out, tree, STRICT)
        assert report.bq == 1.0
        assert report.tq == pytest.approx((n - k) / (n - k + k / 2), abs=1e-12)


class TestStructuralKindsShareMasks:
    def test_prediction_serializes_with_no_encoding(self, monkeypatch):
        # The benchmark's predictions: nodes dropped, then parents rewired;
        # and the flat projection.  Each serialized tree is encoded in one
        # pass over its run table, and no mask is encoded on its own.
        tree = fixture_tree(3)
        calls: dict[str, int] = {}

        def count_calls(module, name):
            original = getattr(module, name)

            def counted(*args):
                calls[name] = calls.get(name, 0) + 1
                return original(*args)

            monkeypatch.setattr(module, name, counted)

        count_calls(mask_module, "rle_encode")
        count_calls(mask_module, "rle_encode_table")
        count_calls(tree_module, "rle_encode_table")
        pred = tree
        for kind in ("random_node_missing", "parent_rewire"):
            pred = degrade_tree(pred, DegradeSpec(kind, 0.8, seed=4))
        ref_text = serialize_tree(tree)
        assert calls == {"rle_encode_table": 1}
        pred_text, flat_text = serialize_tree(pred), serialize_tree(project_flat(tree))
        assert calls == {"rle_encode_table": 3}
        assert 0 < pred.n_nodes < tree.n_nodes
        assert pred_text != ref_text != flat_text

    def test_parsed_prediction_scores_as_its_reparse(self):
        ref = parse_tree(serialize_tree(fixture_tree(3)))
        for pred in (project_flat(ref),
                     degrade_tree(ref, DegradeSpec("parent_rewire", 0.5, seed=4)),
                     degrade_tree(ref, DegradeSpec("random_node_missing", 0.5, seed=4))):
            again = parse_tree(serialize_tree(pred))
            assert again == pred
            assert evaluate_image(pred, ref, STRICT) == evaluate_image(again, ref, STRICT)


class TestMaskKinds:
    def test_erosion_keeps_structure_drops_quality(self):
        tree = next(iter(chunky_corpus(1, seed=13)))
        out = degrade_tree(tree, DegradeSpec("mask_erosion", 0.75, seed=0))
        assert out.n_nodes == tree.n_nodes
        for nid in out.nodes:
            assert not np.any(canvas_pixels(out.nodes[nid].mask)
                              & ~canvas_pixels(tree.nodes[nid].mask))
        report = evaluate_image(out, tree, STRICT)
        assert report.mq < 1.0
        assert report.lq == 1.0  # identity matching keeps labels aligned

    def test_dilation_grows_masks(self):
        tree = next(iter(chunky_corpus(1, seed=14)))
        out = degrade_tree(tree, DegradeSpec("mask_dilation", 0.5, seed=0))
        for nid in out.nodes:
            assert not np.any(canvas_pixels(tree.nodes[nid].mask)
                              & ~canvas_pixels(out.nodes[nid].mask))

    def test_vanished_masks_dropped_with_splice(self):
        tree = make_tree([
            (1, "p", None, rect(32, 32, 0, 0, 24, 24)),
            (2, "tiny", 1, rect(32, 32, 2, 2, 1, 1)),
            (3, "c", 2, rect(32, 32, 10, 10, 8, 8)),
        ], width=32, height=32)
        out = degrade_tree(tree, DegradeSpec("mask_erosion", 0.5, seed=0))
        assert 2 not in out.nodes
        assert out.nodes[3].parent_id == 1

    def test_erosion_monotone_mq_small_sweep(self):
        trees = list(chunky_corpus(6, seed=15))
        last_mq = 1.0
        for keep in (0.75, 0.5, 0.3, 0.15):
            spec = DegradeSpec("mask_erosion", keep, seed=1)
            reports = [evaluate_image(degrade_tree(t, spec), t, STRICT)
                       for t in trees]
            mq = sum(r.mq for r in reports) / len(reports)
            assert mq <= last_mq
            last_mq = mq


class TestAuditGrid:
    def test_signature_matrix(self):
        from otq import audit_grid, grid_to_csv
        trees = list(chunky_corpus(4, seed=20))
        rows = audit_grid(trees, STRICT, keep_ratios=(0.5,), seed=2)
        by_kind = {r["kind"]: r for r in rows}
        assert by_kind["none"]["otq"] == 1.0
        # Mask kinds depress MQ and meanNQ; structural kinds keep them at 1
        # and depress only TQ.
        assert by_kind["mask_erosion"]["mq"] < 1.0
        assert by_kind["mask_dilation"]["mean_nq"] < 1.0
        for kind in ("parent_rewire", "internal_node_missing",
                     "leaf_node_missing", "random_node_missing"):
            assert by_kind[kind]["mean_nq"] == 1.0
            assert by_kind[kind]["mq"] == 1.0
            assert by_kind[kind]["lq"] == 1.0
            assert by_kind[kind]["tq"] < 1.0
        csv_text = grid_to_csv(rows)
        assert csv_text.splitlines()[0].startswith("kind,keep,otq")


class TestValidity:
    @pytest.mark.parametrize("kind", [
        "mask_erosion", "mask_dilation", "parent_rewire",
        "internal_node_missing", "leaf_node_missing", "random_node_missing",
    ])
    @pytest.mark.parametrize("keep", [0.75, 0.5, 0.15])
    def test_output_is_always_valid(self, kind, keep):
        # OpenTree construction revalidates everything; reaching here means
        # acyclicity, mask bounds, and label rules all held.
        tree = fixture_tree(8)
        out = degrade_tree(tree, DegradeSpec(kind, keep, seed=9))
        assert out.n_nodes <= tree.n_nodes
        for nid, node in out.nodes.items():
            assert out.depth(nid) == out.depth(node.parent_id) + 1
