from __future__ import annotations

import concurrent.futures
import json
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otq import (
    ROOT_ID,
    CorpusError,
    DegradeSpec,
    InstanceNode,
    Mask,
    OpenTree,
    SimilarityProtocol,
    ValidationError,
    aggregate_reports,
    branch_quality,
    build_skeleton,
    degrade_tree,
    evaluate_corpus,
    evaluate_corpus_files,
    evaluate_image,
    load_similarity_table,
    match_trees,
    matched_node_quality,
    project_flat,
    report_to_csv,
    report_to_json,
    report_to_table,
    synthetic_corpus,
    synthetic_tree,
    tree_quality,
    write_corpus,
)
from otq import metric
from otq.matching import MatchResult
from otq.metric import OtqReport, Skeleton
from otq.tree import corpus_index

from conftest import make_tree, rect
import oracles
from oracles import all_pairs_bq, naive_bq, naive_otq

STRICT = SimilarityProtocol.strict()


def drop_nodes(tree, ids):
    """Remove nodes, splicing children to the nearest kept ancestor."""
    kept = []
    for node in tree.nodes.values():
        if node.node_id in ids:
            continue
        parent = node.parent_id
        while parent != ROOT_ID and parent in ids:
            parent = tree.nodes[parent].parent_id
        kept.append((node.node_id, node.label, None if parent == ROOT_ID else parent,
                     node.mask))
    return make_tree(kept, width=tree.canvas.width, height=tree.canvas.height,
                     image_id=tree.canvas.image_id)


class TestMatchedNodeQuality:
    def test_identity_is_all_ones(self, two_branch_tree):
        match = match_trees(two_branch_tree, two_branch_tree)
        assert matched_node_quality(match, two_branch_tree, two_branch_tree,
                                    STRICT) == (1.0, 1.0, 1.0)

    def test_single_pair_decomposition(self):
        # IoU 4/5 = 0.8 from a nested pair, Sim 0.5 from a table.
        pred = make_tree([(1, "x", None, rect(8, 8, 0, 0, 1, 4))],
                         width=8, height=8)
        ref = make_tree([(1, "y", None, rect(8, 8, 0, 0, 1, 5))],
                        width=8, height=8)
        proto = load_similarity_table(
            [json.dumps({"a": "x", "b": "y", "sim": 0.5})])
        match = match_trees(pred, ref)
        mean_nq, mq, lq = matched_node_quality(match, pred, ref, proto)
        assert mq == pytest.approx(0.8, abs=1e-12)
        assert lq == 0.5
        assert mean_nq == pytest.approx(0.4, abs=1e-12)

    def test_zero_tp_gives_zeros(self, two_branch_tree):
        empty = make_tree([], width=16, height=16)
        match = match_trees(empty, two_branch_tree)
        assert matched_node_quality(match, empty, two_branch_tree,
                                    STRICT) == (0.0, 0.0, 0.0)


class TestSkeleton:
    def test_all_tp_preserves_structure(self, chain_tree):
        match = match_trees(chain_tree, chain_tree)
        skel = build_skeleton(chain_tree, match, "ref")
        assert skel.parent[1] == ROOT_ID
        assert skel.parent[2] == 1

    def test_removed_ancestor_climbs_to_root(self):
        # ref: root -> a(1) -> b(2); pred lacks node 1, so only b matches.
        ref = make_tree([
            (1, "a", None, rect(16, 16, 0, 0, 12, 12)),
            (2, "b", 1, rect(16, 16, 2, 2, 5, 5)),
        ])
        pred = make_tree([(2, "b", None, rect(16, 16, 2, 2, 5, 5))])
        match = match_trees(pred, ref)
        skel_ref = build_skeleton(ref, match, "ref")
        assert skel_ref.parent[2] == ROOT_ID

    def test_two_children_of_removed_ancestor(self):
        ref = make_tree([
            (1, "a", None, rect(16, 16, 0, 0, 14, 14)),
            (2, "b", 1, rect(16, 16, 1, 1, 4, 4)),
            (3, "c", 1, rect(16, 16, 8, 8, 4, 4)),
        ])
        pred = make_tree([
            (2, "b", None, rect(16, 16, 1, 1, 4, 4)),
            (3, "c", None, rect(16, 16, 8, 8, 4, 4)),
        ])
        match = match_trees(pred, ref)
        skel_ref = build_skeleton(ref, match, "ref")
        assert skel_ref.parent[2] == ROOT_ID
        assert skel_ref.parent[3] == ROOT_ID
        assert (skel_ref.path[2], skel_ref.path[3]) == ((ROOT_ID, 2), (ROOT_ID, 3))

    def test_attaches_to_same_label_instance_when_parent_missing(self):
        # Two "car" instances share ground; the wheel's own car is missed by
        # the prediction, so the wheel reattaches to the other TP car that
        # overlaps it.
        ref = make_tree([
            (1, "car", None, rect(16, 16, 0, 0, 10, 10)),
            (2, "car", None, rect(16, 16, 0, 6, 10, 10)),
            (3, "wheel", 1, rect(16, 16, 2, 7, 2, 2)),
        ])
        pred = make_tree([
            (2, "car", None, rect(16, 16, 0, 6, 10, 10)),
            (3, "wheel", None, rect(16, 16, 2, 7, 2, 2)),
        ])
        match = match_trees(pred, ref)
        skel_ref = build_skeleton(ref, match, "ref")
        assert skel_ref.parent[3] == 2

    def test_equal_iou_tie_breaks_to_smaller_id(self):
        ref = make_tree([
            (1, "car", None, rect(16, 16, 0, 0, 10, 12)),
            (2, "car", None, rect(16, 16, 0, 4, 10, 12)),
            (3, "wheel", 2, rect(16, 16, 2, 6, 4, 4)),
        ])
        match = match_trees(ref, ref)
        skel = build_skeleton(ref, match, "ref")
        # Both cars have area 120 and fully contain the wheel: equal IoU.
        assert skel.parent[3] == 1


@st.composite
def checker_or_rect(draw, width, height):
    """A rectangle, or one colour of a checkerboard over a rectangle: two
    masks of one box in opposite colours overlap in bbox but in no pixel."""
    row, col = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
    n_rows, n_cols = draw(st.integers(1, height - row)), draw(st.integers(1, width - col))
    colour = draw(st.sampled_from((None, 0, 1)))
    pixels = np.zeros((height, width), dtype=bool)
    rows, cols = np.ogrid[row:row + n_rows, col:col + n_cols]
    pixels[row:row + n_rows, col:col + n_cols] = (
        True if colour is None else (rows + cols) % 2 == colour)
    return Mask(pixels) if pixels.any() else rect(width, height, row, col, 1, 1)


@st.composite
def skeleton_cases(draw):
    """(tree, TP ids, side): a tree of up to ten checkerboard or rectangle
    masks with labels "a" and "b", some nodes repeating an earlier node's
    label, parent and mask (a tied candidate), and a random subset of its
    nodes as TP on one side."""
    width, height = draw(st.integers(3, 8)), draw(st.integers(3, 8))
    n = draw(st.integers(2, 10))
    ids = draw(st.lists(st.integers(1, 30), min_size=n, max_size=n, unique=True))
    spec: list = []
    for k, nid in enumerate(ids):
        if spec and draw(st.integers(0, 2)) == 0:
            spec.append((nid, *draw(st.sampled_from(spec))[1:]))
        else:
            spec.append((nid, draw(st.sampled_from("ab")),
                         draw(st.sampled_from([None, *ids[:k]])),
                         draw(checker_or_rect(width, height))))
    tp_ids = [nid for nid in ids if draw(st.integers(0, 3))]
    return (make_tree(spec, width=width, height=height), sorted(tp_ids),
            draw(st.sampled_from(("pred", "ref"))))


# Node 4 lost its parent 1 and climbs to the "a" level, where 2 and 3 tie
# on IoU (one mask).  Node 6 lost its parent 7 and climbs to the "c" level,
# where 8, of the same box in the other checkerboard colour, overlaps 6's
# bbox but no pixel of it, so 6 attaches to the root.
_CHECKS = [Mask(np.add.outer(np.arange(6), np.arange(6)) % 2 == c) for c in (0, 1)]
TIED_SKELETON = (make_tree([(1, "a", None, rect(6, 6, 0, 0, 6, 6)),
                            (2, "a", None, _CHECKS[0]), (3, "a", None, _CHECKS[0]),
                            (4, "b", 1, _CHECKS[0]), (7, "c", None, rect(6, 6, 0, 0, 6, 6)),
                            (8, "c", None, _CHECKS[0]), (6, "c", 7, _CHECKS[1])],
                           width=6, height=6),
                 [2, 3, 4, 6, 8], "ref")


def skeleton_parents(tree, tp_ids, side):
    """``build_skeleton`` parents with ``tp_ids`` matched to themselves."""
    tp = [(nid, nid, 1.0) for nid in tp_ids]
    match = MatchResult(pairs=tp, tp=tp, fp=[], fn=[], tau_node=0.5)
    return build_skeleton(tree, match, side).parent


class TestSkeletonAgainstOracle:
    @given(skeleton_cases())
    @example(TIED_SKELETON)
    def test_parents_equal_naive_rule(self, case):
        tree, tp_ids, side = case
        assert skeleton_parents(tree, tp_ids, side) == {
            ROOT_ID: ROOT_ID, **oracles.naive_skeleton_parents(tree, set(tp_ids))}

    def test_ties_go_to_the_smaller_id_and_bbox_contact_is_no_overlap(self):
        parent = skeleton_parents(*TIED_SKELETON)
        assert (parent[4], parent[6]) == (2, ROOT_ID)


class TestBranchQuality:
    def test_identity_is_one(self, two_branch_tree):
        match = match_trees(two_branch_tree, two_branch_tree)
        skel_p = build_skeleton(two_branch_tree, match, "pred")
        skel_r = build_skeleton(two_branch_tree, match, "ref")
        assert branch_quality(skel_p, skel_r, match) == 1.0

    def test_single_tp_is_one(self):
        ref = make_tree([(1, "a", None, rect(16, 16, 0, 0, 4, 4))])
        match = match_trees(ref, ref)
        skel = build_skeleton(ref, match, "ref")
        assert branch_quality(skel, skel, match) == 1.0

    def test_rewired_pair_counts_inconsistent(self):
        # ref: root -> p(1) -> {a(2), b(3)}; c(4) at root.
        # pred: b moved under c; disjoint c has no overlap with b, so b
        # climbs to root on the pred side.
        ref = make_tree([
            (1, "p", None, rect(16, 16, 0, 0, 10, 10)),
            (2, "a", 1, rect(16, 16, 1, 1, 3, 3)),
            (3, "b", 1, rect(16, 16, 5, 5, 3, 3)),
            (4, "c", None, rect(16, 16, 11, 11, 4, 4)),
        ])
        pred = make_tree([
            (1, "p", None, rect(16, 16, 0, 0, 10, 10)),
            (2, "a", 1, rect(16, 16, 1, 1, 3, 3)),
            (3, "b", 4, rect(16, 16, 5, 5, 3, 3)),
            (4, "c", None, rect(16, 16, 11, 11, 4, 4)),
        ])
        match = match_trees(pred, ref)
        skel_p = build_skeleton(pred, match, "pred")
        skel_r = build_skeleton(ref, match, "ref")
        bq = branch_quality(skel_p, skel_r, match)
        tp_pairs = [(p, r) for p, r, _ in match.tp]
        assert bq == pytest.approx(naive_bq(pred, ref, tp_pairs), abs=0)
        # Hand count: b climbs past the disjoint new parent to the root on
        # the pred side, so only the pairs joining b with its old family,
        # (1,3) and (2,3), flip; the other four stay consistent.
        assert bq == pytest.approx(4 / 6, abs=0)

    def test_against_lca_oracle_on_random_trees(self):
        rng = np.random.default_rng(101)
        for i in range(25):
            ref = synthetic_tree(f"o{i}", rng, width=48, height=36,
                                 grids=((2, 2), (2, 1)), level_p=(1.0, 0.7),
                                 margin=1)
            pred = project_flat(ref)
            match = match_trees(pred, ref)
            skel_p = build_skeleton(pred, match, "pred")
            skel_r = build_skeleton(ref, match, "ref")
            bq = branch_quality(skel_p, skel_r, match)
            tp_pairs = [(p, r) for p, r, _ in match.tp]
            assert bq == pytest.approx(naive_bq(pred, ref, tp_pairs), abs=0)


def skeleton_of(parent: dict[int, int]) -> Skeleton:
    """Skeleton of a parent map (root maps to itself), paths by walking up."""
    path = {}
    for node in parent:
        chain = [node]
        while chain[-1] != ROOT_ID:
            chain.append(parent[chain[-1]])
        path[node] = tuple(reversed(chain))
    return Skeleton(parent=parent, path=path)


@st.composite
def skeleton_matches(draw):
    """Ref and pred skeletons over up to 200 TP nodes and their match.

    Ref node k hangs below an earlier node at most ``span`` places back, or
    below the root (drawn as 0); ref ids map to pred ids by a random
    permutation of the same ids.  Each pred node either follows its ref
    parent through that map or is rewired to another earlier node or the
    root.
    """
    n = draw(st.integers(0, 200))
    span = draw(st.integers(1, max(n, 1)))
    pred_of = dict(zip(range(1, n + 1), draw(st.permutations(range(1, n + 1)))))
    pred_of[0] = pred_of[ROOT_ID] = ROOT_ID
    ref_parent, pred_parent = {ROOT_ID: ROOT_ID}, {ROOT_ID: ROOT_ID}
    for k in range(1, n + 1):
        ref_parent[k] = draw(st.integers(max(0, k - 1 - span), k - 1)) or ROOT_ID
        follows = draw(st.booleans())
        pred_parent[pred_of[k]] = pred_of[
            ref_parent[k] if follows else draw(st.integers(0, k - 1))]
    tp = [(pred_of[k], k, 1.0) for k in range(1, n + 1)]
    match = MatchResult(pairs=tp, tp=tp, fp=[], fn=[], tau_node=0.5)
    return skeleton_of(pred_parent), skeleton_of(ref_parent), match


class TestBranchQualityCounting:
    @settings(max_examples=30)
    @given(skeleton_matches())
    def test_equals_all_pairs_oracle(self, case):
        skel_pred, skel_ref, match = case
        expected = all_pairs_bq(skel_pred.parent, skel_ref.parent,
                                [(p, r) for p, r, _ in match.tp])
        assert branch_quality(skel_pred, skel_ref, match) == expected


@st.composite
def rect_specs(draw, width, height, n):
    """(row, col, n_rows, n_cols) of ``n`` rectangles, some duplicated."""
    specs = []
    for _ in range(n):
        if specs and draw(st.integers(0, 5)) == 0:
            specs.append(draw(st.sampled_from(specs)))
            continue
        row, col = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
        specs.append((row, col, draw(st.integers(1, height - row)),
                      draw(st.integers(1, width - col))))
    return specs


@st.composite
def small_trees(draw, max_nodes=6):
    """A valid tree of up to ``max_nodes`` rectangles with labels from a
    three-word vocabulary, and its generating spec."""
    width, height = draw(st.integers(4, 10)), draw(st.integers(4, 10))
    n = draw(st.integers(0, max_nodes))
    ids = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n, unique=True))
    spec = []
    for k, (nid, box) in enumerate(zip(ids, draw(rect_specs(width, height, n)))):
        parent = draw(st.sampled_from([None, *ids[:k]]))
        spec.append((nid, draw(st.sampled_from("abc")), parent, box))
    tree = make_tree([(nid, label, parent, rect(width, height, *box))
                      for nid, label, parent, box in spec],
                     width=width, height=height)
    return tree, spec


@st.composite
def tree_pairs(draw):
    """(pred, ref): the prediction drops, jitters, relabels and rewires the
    reference's nodes; then each side repeats up to two of its own masks."""
    ref, spec = draw(small_trees())
    width, height = ref.canvas.width, ref.canvas.height
    kept = [entry for entry in spec if draw(st.integers(0, 4))]
    pred_spec = []
    for k, (nid, label, _, (row, col, n_rows, n_cols)) in enumerate(kept):
        row = min(max(row + draw(st.integers(-1, 1)), 0), height - 1)
        col = min(max(col + draw(st.integers(-1, 1)), 0), width - 1)
        n_rows = max(n_rows + draw(st.integers(-1, 1)), 1)
        n_cols = max(n_cols + draw(st.integers(-1, 1)), 1)
        parent = draw(st.sampled_from([None, *(e[0] for e in pred_spec)]))
        label = draw(st.sampled_from([label, label, "a", "b", "c"]))
        pred_spec.append((nid, label, parent, rect(width, height, row, col, n_rows, n_cols)))
    # Repeated masks, a common detector failure, tie the assignment; so do
    # repeated reference masks against distinct predictions.
    ref_spec = [(nid, label, parent, ref.nodes[nid].mask) for nid, label, parent, _ in spec]
    for side in (pred_spec, ref_spec):
        copies = draw(st.lists(st.sampled_from(side), max_size=2)) if side else []
        for k, (_, label, parent, mask) in enumerate(copies):
            side.append((21 + k, label, parent, mask))
    return (make_tree(pred_spec, width=width, height=height),
            make_tree(ref_spec, width=width, height=height))


PROTOCOLS = (STRICT, SimilarityProtocol.constant_one(),
             load_similarity_table([json.dumps({"a": "a", "b": "b", "sim": 0.5})],
                                   default_for_missing=0.25))


# Tied pairs whose labels differ, so only the canonical tie rule scores them
# like the oracle.  First, prediction 2 equals both references and
# prediction 1 overlaps both by half; then prediction 2 equals both
# references and prediction 1 overlaps neither.
TIED_PAIRS = tuple(
    (make_tree([(1, "a", None, rect(side, side, *p1)), (2, label, None, rect(side, side, *box))],
               width=side, height=side),
     make_tree([(1, "a", None, rect(side, side, *box)), (2, "b", None, rect(side, side, *box))],
               width=side, height=side))
    for side, p1, box, label in ((4, (0, 0, 1, 2), (0, 0, 1, 1), "b"),
                                 (16, (0, 0, 3, 3), (8, 8, 4, 4), "a")))


class TestAgainstNaiveOtq:
    @given(tree_pairs(), st.sampled_from(PROTOCOLS), st.sampled_from((0.5, 0.3, 0.75)))
    @example(TIED_PAIRS[0], STRICT, 0.5)
    @example(TIED_PAIRS[1], STRICT, 0.5)
    def test_evaluate_image_equals_oracle(self, pair, proto, tau):
        pred, ref = pair
        assert evaluate_image(pred, ref, proto, tau).to_record() == naive_otq(
            pred, ref, proto, tau)

    @given(small_trees(max_nodes=12))
    def test_identity_scores_one(self, tree_and_spec):
        tree, _ = tree_and_spec
        report = evaluate_image(tree, tree, STRICT)
        assert report.tp == tree.n_nodes
        assert report.otq == (1.0 if tree.n_nodes else 0.0)

    @given(tree_pairs(), st.sampled_from((0.5, 0.3, 0.75)))
    def test_flat_projection_keeps_the_match_and_scores_bq_one(self, pair, tau):
        pred, ref = pair
        flat_pred, flat_ref = project_flat(pred), project_flat(ref)
        match = match_trees(flat_pred, flat_ref, tau)
        assert match == match_trees(pred, ref, tau)
        assert branch_quality(build_skeleton(flat_pred, match, "pred"),
                              build_skeleton(flat_ref, match, "ref"), match) == 1.0
        report = evaluate_image(flat_pred, flat_ref, STRICT, tau)
        assert report.bq == (1.0 if report.tp else 0.0)


class TestParallelReports:
    # Each case starts a process pool, so there are only three.  Eroded and
    # dilated masks put IoUs between the thresholds, so tau decides matches;
    # every third prediction is relabeled "a", which only the table scores.
    @pytest.mark.parametrize("seed, kind, keep, tau, aggregate", [
        (31, "mask_erosion", 0.5, 0.3, "macro"),
        (32, "mask_dilation", 0.75, 0.75, "micro"),
        (33, "random_node_missing", 0.5, 0.5, "micro"),
    ])
    def test_identical_at_one_and_two_jobs(self, seed, kind, keep, tau, aggregate):
        refs = list(synthetic_corpus(5, seed=seed))
        spec = DegradeSpec(kind, keep, seed)
        preds = []
        for tree in refs:
            nodes = degrade_tree(tree, spec).nodes.values()
            preds.append(OpenTree(tree.canvas, [
                InstanceNode(n.node_id, "a" if n.node_id % 3 == 0 else n.label, n.mask,
                             n.parent_id) for n in nodes]))
        pairs = list(zip(preds, refs))[::-1]
        serial = evaluate_corpus(pairs, PROTOCOLS[2], tau, aggregate, jobs=1)
        pooled = evaluate_corpus(pairs, PROTOCOLS[2], tau, aggregate, jobs=2)
        assert 0 < serial.tp < sum(t.n_nodes for t in refs)
        assert 0 < serial.lq < 1
        assert report_to_json(pooled) == report_to_json(serial)
        assert report_to_csv(pooled) == report_to_csv(serial)


class TestTreeQuality:
    def test_recovery_penalty(self):
        pred = make_tree([
            (1, "a", None, rect(16, 16, 0, 0, 6, 6)),
            (2, "b", None, rect(16, 16, 8, 0, 6, 6)),
            (3, "x", None, rect(16, 16, 0, 8, 2, 2)),
        ])
        ref = make_tree([
            (1, "a", None, rect(16, 16, 0, 0, 6, 6)),
            (2, "b", None, rect(16, 16, 8, 0, 6, 6)),
            (9, "y", None, rect(16, 16, 8, 8, 2, 2)),
        ])
        match = match_trees(pred, ref)
        assert (match.tp_count, match.fp_count, match.fn_count) == (2, 1, 1)
        assert tree_quality(1.0, match) == pytest.approx(2 / 3, abs=1e-12)

    def test_zero_tp_is_zero(self, two_branch_tree):
        empty = make_tree([], width=16, height=16)
        match = match_trees(empty, two_branch_tree)
        assert tree_quality(1.0, match) == 0.0


class TestEvaluateImage:
    def test_identity_all_ones(self, two_branch_tree):
        report = evaluate_image(two_branch_tree, two_branch_tree, STRICT)
        assert (report.otq, report.tq, report.bq, report.mean_nq,
                report.mq, report.lq) == (1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert (report.tp, report.fp, report.fn) == (4, 0, 0)

    def test_structure_only_error_leaves_nq_exact(self):
        rng = np.random.default_rng(55)
        ref = synthetic_tree("s", rng, width=64, height=48,
                             grids=((2, 2), (2, 2)), level_p=(1.0, 0.8))
        # Rewire a mid-level node to a different top-level parent.
        internal = [n for n in ref.nodes.values() if ref.depths[n.node_id] == 2]
        target = internal[0]
        tops = [nid for nid in ref.nodes
                if ref.depths[nid] == 1 and nid != target.parent_id]
        moved = [(n.node_id, n.label,
                  tops[0] if n.node_id == target.node_id else
                  (None if n.parent_id == ROOT_ID else n.parent_id), n.mask)
                 for n in ref.nodes.values()]
        pred = make_tree(moved, width=64, height=48, image_id="s")
        report = evaluate_image(pred, ref, STRICT)
        assert report.mean_nq == 1.0
        assert report.mq == 1.0
        assert report.lq == 1.0
        assert report.otq == report.tq
        assert report.tq < 1.0

    def test_missing_leaf_closed_form(self, two_branch_tree):
        n = two_branch_tree.n_nodes
        pred = drop_nodes(two_branch_tree, {2})  # a leaf
        report = evaluate_image(pred, two_branch_tree, STRICT)
        assert report.mean_nq == 1.0
        assert report.bq == 1.0
        assert report.tq == pytest.approx((n - 1) / (n - 1 + 0.5), abs=1e-12)

    def test_zero_tp_zeros_everything_but_counts(self, two_branch_tree):
        empty = make_tree([], width=16, height=16)
        report = evaluate_image(empty, two_branch_tree, STRICT)
        assert (report.otq, report.tq, report.bq, report.mean_nq, report.mq,
                report.lq) == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert (report.tp, report.fp, report.fn) == (0, 0, 4)

    def test_otq_is_product_of_tq_and_mean_nq(self):
        rng = np.random.default_rng(77)
        for i in range(10):
            ref = synthetic_tree(f"p{i}", rng, width=48, height=48,
                                 grids=((2, 2), (2, 1)), level_p=(1.0, 0.5))
            pred = project_flat(ref)
            report = evaluate_image(pred, ref, STRICT)
            assert report.otq == pytest.approx(report.tq * report.mean_nq,
                                               abs=1e-12)

    def test_canvas_mismatch_rejected(self, two_branch_tree):
        other = make_tree([(1, "a", None, rect(16, 16, 0, 0, 4, 4))],
                          image_id="other")
        with pytest.raises(ValidationError):
            evaluate_image(other, two_branch_tree, STRICT)


class TestEvaluateCorpus:
    def test_identity_corpus(self):
        trees = list(synthetic_corpus(5, seed=3))
        report = evaluate_corpus(((t, t) for t in trees), STRICT)
        assert report.otq == 1.0 and report.tq == 1.0 and report.mean_nq == 1.0
        assert report.tp == sum(t.n_nodes for t in trees)
        assert len(report.per_image) == 5

    def test_mean_of_one_and_zero(self):
        # Image A scores a perfect 1; image B keeps meanNQ 1 but loses all
        # structure (TQ 0 is impossible with TP > 0, so build TQ ~ 0 via a
        # flat projection), then check the corpus means directly.
        t1 = make_tree([(1, "a", None, rect(16, 16, 0, 0, 8, 8)),
                        (2, "b", 1, rect(16, 16, 1, 1, 4, 4))],
                       image_id="one")
        r1 = evaluate_image(t1, t1, STRICT)
        assert r1.otq == 1.0
        t2 = make_tree([(1, "a", None, rect(16, 16, 0, 0, 8, 8)),
                        (2, "b", 1, rect(16, 16, 1, 1, 4, 4))],
                       image_id="two")
        report = evaluate_corpus([(t1, t1), (project_flat(t2), t2)], STRICT)
        per = {r.image_id: r for r in report.per_image}
        assert per["two"].mean_nq == 1.0
        assert report.tq == pytest.approx(
            (per["one"].tq + per["two"].tq) / 2, abs=1e-15)
        assert report.otq == pytest.approx(report.tq * report.mean_nq, abs=0)

    def test_aggregate_is_mean_of_singletons(self):
        trees = list(synthetic_corpus(10, seed=9))
        pairs = [(project_flat(t), t) for t in trees]
        corpus = evaluate_corpus(pairs, STRICT)
        singles = [evaluate_image(p, r, STRICT) for p, r in pairs]
        for field in ("tq", "bq", "mean_nq", "mq", "lq"):
            mean = sum(getattr(s, field) for s in singles) / len(singles)
            assert getattr(corpus, field) == pytest.approx(mean, abs=1e-15)
        assert corpus.otq == pytest.approx(corpus.tq * corpus.mean_nq, abs=0)

    def test_micro_aggregate_weighted_by_counts(self):
        t_small = make_tree([(1, "a", None, rect(16, 16, 0, 0, 8, 8))],
                            image_id="small")
        t_big = make_tree([(i, "n", None, rect(16, 16, 2 * i, 0, 2, 2))
                           for i in range(1, 6)], image_id="big")
        pred_big = drop_nodes(t_big, {5})
        records = [evaluate_image(t_small, t_small, STRICT),
                   evaluate_image(pred_big, t_big, STRICT)]
        micro = aggregate_reports(records, "micro")
        tp, fp, fn = micro.tp, micro.fp, micro.fn
        assert (tp, fp, fn) == (5, 0, 1)
        assert micro.tq == pytest.approx(
            micro.bq * tp / (tp + 0.5 * fp + 0.5 * fn), abs=1e-12)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_duplicate_image_id_rejected(self, two_branch_tree, jobs):
        pairs = [(two_branch_tree, two_branch_tree)] * 2
        with pytest.raises(CorpusError, match="duplicate image_id 'img'"):
            evaluate_corpus(pairs, STRICT, jobs=jobs)

    def test_corpus_documents_score_like_trees(self, tmp_path):
        trees = list(synthetic_corpus(3, seed=23))
        path = tmp_path / "ref.jsonl"
        write_corpus(trees, path)
        index = corpus_index(path)
        docs = evaluate_corpus(((index[t.canvas.image_id], t) for t in trees), STRICT)
        same = evaluate_corpus(((t, t) for t in trees), STRICT)
        assert report_to_json(docs) == report_to_json(same)

    def test_corpus_files_parallel_identical(self, tmp_path):
        trees = list(synthetic_corpus(8, seed=21))
        ref_path = tmp_path / "ref.jsonl"
        pred_path = tmp_path / "pred.jsonl"
        write_corpus(trees, ref_path)
        write_corpus((project_flat(t) for t in trees), pred_path)
        seq = evaluate_corpus_files(pred_path, ref_path, STRICT, jobs=1)
        par = evaluate_corpus_files(pred_path, ref_path, STRICT, jobs=4)
        assert report_to_json(seq) == report_to_json(par)

    def test_pool_starts_no_more_workers_than_pairs(self, monkeypatch):
        # A fake pool records its size and scores serially, so no worker
        # starts at any ``jobs``.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        pairs = [(t, t) for t in synthetic_corpus(3, seed=3)]
        serial = report_to_json(evaluate_corpus(pairs, STRICT))
        for jobs in (50, 2):
            assert report_to_json(evaluate_corpus(pairs, STRICT, jobs=jobs)) == serial
        assert sizes == [3, 2]

    def test_corpus_files_unpaired_ids_rejected(self, tmp_path):
        trees = list(synthetic_corpus(3, seed=22))
        ref_path = tmp_path / "ref.jsonl"
        pred_path = tmp_path / "pred.jsonl"
        write_corpus(trees, ref_path)
        write_corpus(trees[:2], pred_path)
        with pytest.raises(CorpusError, match="img-0002"):
            evaluate_corpus_files(pred_path, ref_path, STRICT)


@st.composite
def image_records(draw):
    """0-12 per-image records with unique image ids.  A corpus-wide TP cap
    of 0 or 1 gives zero-TP and zero-pair corpora."""
    ids = draw(st.lists(st.text("abxyz", min_size=1, max_size=3),
                        max_size=12, unique=True))
    max_tp = draw(st.sampled_from((0, 1, 20)))
    records = []
    for image_id in ids:
        tp = draw(st.integers(0, max_tp))
        records.append(OtqReport(*(draw(st.floats(0.0, 1.0)) for _ in range(6)),
                                 tp=tp, fp=draw(st.integers(0, 20)),
                                 fn=draw(st.integers(0, 20)), n_pairs=comb(tp, 2),
                                 image_id=image_id))
    return records


class TestAggregation:
    @settings(max_examples=200)
    @given(image_records(), st.sampled_from(("macro", "micro")))
    def test_equals_oracle_bit_for_bit(self, records, mode):
        # Dataclass equality compares every float with ==, and per_image
        # record by record, so summation order and weights are pinned.
        assert aggregate_reports(records, mode) == oracles.aggregate_reports(
            records, mode)

    def test_unknown_mode_is_refused_before_scoring(self, two_branch_tree,
                                                    monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("an image was scored")

        monkeypatch.setattr(metric, "evaluate_image", unreachable)
        with pytest.raises(ValueError,
                           match="aggregate must be 'macro' or 'micro', got 'mean'"):
            evaluate_corpus([(two_branch_tree, two_branch_tree)], STRICT,
                            aggregate="mean")


class TestReports:
    def test_json_payload_shape(self, two_branch_tree):
        report = evaluate_corpus([(two_branch_tree, two_branch_tree)], STRICT)
        payload = json.loads(report_to_json(report))
        assert set(payload) == {"corpus", "images"}
        assert payload["corpus"]["otq"] == 1.0
        assert payload["images"][0]["image_id"] == "img"

    def test_csv_has_corpus_row(self, two_branch_tree):
        report = evaluate_corpus([(two_branch_tree, two_branch_tree)], STRICT)
        lines = report_to_csv(report).strip().splitlines()
        assert lines[0].startswith("image_id,otq,tq,bq,mean_nq,mq,lq")
        assert lines[-1].startswith("corpus,")

    def test_table_renders(self, two_branch_tree):
        report = evaluate_corpus([(two_branch_tree, two_branch_tree)], STRICT)
        text = report_to_table(report)
        assert "OTQ" in text and "corpus" in text
