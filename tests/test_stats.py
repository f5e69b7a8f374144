from __future__ import annotations

import pytest

from otq import (
    CorpusError,
    DegradeSpec,
    compat_eval,
    corpus_stats,
    degrade_tree,
    parse_tree,
    project_flat,
    serialize_tree,
    synthetic_corpus,
)
from otq.stats import _compat_report

from conftest import make_tree, rect
from oracles import greedy_compat_inputs


def three_level_tree(image_id):
    # Areas engineered per bin: 1600 (M) at depth 1, 400 (S*) at depth 2,
    # 9 (XS) at depth 3.
    return make_tree([
        (1, "a", None, rect(64, 64, 0, 0, 40, 40)),
        (2, "b", 1, rect(64, 64, 2, 2, 20, 20)),
        (3, "c", 2, rect(64, 64, 4, 4, 3, 3)),
    ], width=64, height=64, image_id=image_id)


class TestCorpusStats:
    def test_counts(self):
        stats = corpus_stats([three_level_tree("one"), three_level_tree("two")])
        assert stats.n_images == 2
        assert stats.n_masks == 6
        assert stats.masks_per_image == 3.0
        assert stats.n_unique_labels == 3
        assert stats.max_depth == 3

    def test_depth_by_bin_percentages(self):
        stats = corpus_stats([three_level_tree("one")])
        assert stats.depth_by_bin["XS"]["3"] == 100.0
        assert stats.depth_by_bin["S*"]["2"] == 100.0
        assert stats.depth_by_bin["M"]["1"] == 100.0
        assert stats.depth_by_bin["All"]["1"] == pytest.approx(100 / 3)

    def test_columns_sum_to_hundred(self):
        stats = corpus_stats(synthetic_corpus(6, seed=31))
        for col, rows in stats.depth_by_bin.items():
            total = sum(rows.values())
            if total:
                assert total == pytest.approx(100.0, abs=0.1)

    def test_invariant_under_relabeling_and_order(self):
        trees = list(synthetic_corpus(4, seed=33))
        base = corpus_stats(trees)
        renumbered = []
        for tree in trees:
            mapping = {nid: nid + 1000 for nid in tree.nodes}
            spec = [(mapping[n.node_id], n.label,
                     None if n.parent_id == -1 else mapping[n.parent_id], n.mask)
                    for n in tree.nodes.values()]
            renumbered.append(make_tree(
                spec, width=tree.canvas.width, height=tree.canvas.height,
                image_id=tree.canvas.image_id))
        shuffled = corpus_stats(reversed(renumbered))
        assert shuffled.to_dict() == base.to_dict()

    def test_empty_corpus(self):
        stats = corpus_stats([])
        assert stats.n_images == 0
        assert stats.masks_per_image == 0.0

    def test_render_has_table_rows(self):
        text = corpus_stats([three_level_tree("one")]).render()
        assert "Depth" in text and "4+" in text


class TestCompatEval:
    def test_identity_all_ones(self):
        trees = list(synthetic_corpus(3, seed=35))
        flat = [project_flat(t) for t in trees]
        report = compat_eval(trees, flat)
        assert report.mean_iou == 1.0
        assert report.median_iou == 1.0
        assert report.ar == 1.0
        assert report.ar50 == 1.0
        assert report.ar75 == 1.0
        assert all(v == 1.0 for v in report.ar_by_bin.values())

    def test_empty_candidates_all_zero(self):
        refs = [three_level_tree("one")]
        empty = [make_tree([], width=64, height=64, image_id="one")]
        report = compat_eval(empty, refs)
        assert report.mean_iou == 0.0
        assert report.ar == 0.0
        assert report.ar50 == 0.0

    def test_partial_overlap_hand_computed(self):
        # Two references; the single candidate covers ref 1 at IoU 0.6.
        refs = [make_tree([
            (1, "a", None, rect(32, 32, 0, 0, 2, 5)),
            (2, "b", None, rect(32, 32, 20, 20, 2, 5)),
        ], width=32, height=32, image_id="x")]
        cands = [make_tree([
            (7, "z", None, rect(32, 32, 0, 0, 2, 3)),
        ], width=32, height=32, image_id="x")]
        report = compat_eval(cands, refs)
        assert report.ar50 == 0.5
        assert report.ar75 == 0.0
        assert report.mean_iou == pytest.approx(0.6, abs=1e-12)
        assert report.median_iou == pytest.approx(0.6, abs=1e-12)
        # Thresholds 0.50/0.55/0.60 hit one of two refs, the rest none.
        assert report.ar == pytest.approx(3 * 0.5 / 10, abs=1e-12)

    def test_ar_monotone_and_ar75_below_ar50(self):
        trees = list(synthetic_corpus(4, seed=37))
        from otq import DegradeSpec, degrade_tree
        from otq.stats import _AR_THRESHOLDS, _greedy_match
        worn = [degrade_tree(t, DegradeSpec("mask_erosion", 0.75, seed=1))
                for t in trees]
        report = compat_eval(worn, trees)
        assert report.ar75 <= report.ar50
        # Recall is non-increasing across the whole threshold ladder.
        matched = []
        for cand, ref in zip(worn, trees):
            matched.extend(_greedy_match(ref, cand))
        recalls = [sum(v >= t for v in matched) / len(matched)
                   for t in _AR_THRESHOLDS]
        assert all(a >= b for a, b in zip(recalls, recalls[1:]))

    def test_unpaired_image_ids_rejected(self):
        refs = [three_level_tree("one")]
        cands = [three_level_tree("two")]
        with pytest.raises(CorpusError):
            compat_eval(cands, refs)

    def test_one_to_one_consumption(self):
        # One candidate cannot satisfy two identical references twice.
        ref_nodes = [(1, "a", None, rect(16, 16, 0, 0, 4, 4)),
                     (2, "a", None, rect(16, 16, 0, 0, 4, 4))]
        refs = [make_tree(ref_nodes, image_id="x")]
        cands = [make_tree([(9, "a", None, rect(16, 16, 0, 0, 4, 4))],
                           image_id="x")]
        report = compat_eval(cands, refs)
        assert report.ar50 == 0.5

    def test_run_table_join_equals_per_pair_path(self):
        # The small benchmark references (160x120, about 86 nodes each),
        # scored against themselves and against erosion, parsed (decoded run
        # tables) and in memory (masks holding windows).  The references
        # are parsed afresh for the oracle, whose windows would otherwise
        # send compat_eval down the pairwise path.
        docs = [serialize_tree(t) for t in synthetic_corpus(100, seed=909)]
        worn = [degrade_tree(parse_tree(d), DegradeSpec("mask_erosion", 0.5)) for d in docs]
        worn_docs = [serialize_tree(t) for t in worn]

        def parsed(lines):
            return [parse_tree(d) for d in lines]

        for cands in (lambda: parsed(docs), lambda: parsed(worn_docs), lambda: worn):
            report = compat_eval(cands(), parsed(docs))
            assert report == _compat_report(*greedy_compat_inputs(cands(), parsed(docs)))
        assert 0.0 < report.ar < 1.0
