from __future__ import annotations

import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from otq import (
    ImageCanvas,
    Mask,
    PipelineError,
    PipelineLimits,
    Proposal,
    ROOT_ID,
    ScriptedGrounder,
    ScriptedProposer,
    SemanticNode,
    SemanticTree,
    confidence_threshold,
    decompose,
    filter_proposal,
    load_scene_script,
    materialize_instances,
    merge_siblings,
    rle_decode,
    run_pipeline,
    serialize_tree,
)

from conftest import rect
from oracles import canvas_pixels
from oracles import merge_siblings as scipy_merge_siblings

CANVAS = ImageCanvas("scene", 24, 18)


def proposal(masks, confidences, label="part"):
    return Proposal(label=label, masks=list(masks),
                    confidences=list(confidences))


class TestConfidenceThreshold:
    def test_small_parent_relaxed(self):
        # 4% of a 20x20 canvas.
        canvas = ImageCanvas("x", 20, 20)
        parent = rect(20, 20, 0, 0, 4, 4)
        assert confidence_threshold(parent, canvas) == 0.4

    def test_large_parent_strict(self):
        canvas = ImageCanvas("x", 20, 20)
        parent = rect(20, 20, 0, 0, 10, 20)
        assert confidence_threshold(parent, canvas) == 0.5

    def test_exact_five_percent_is_strict(self):
        canvas = ImageCanvas("x", 20, 20)
        parent = rect(20, 20, 0, 0, 4, 5)  # 20 px of 400 = exactly 5%
        assert confidence_threshold(parent, canvas) == 0.5

    def test_root_counts_as_full_canvas(self):
        assert confidence_threshold(None, CANVAS) == 0.5


class TestFilterProposal:
    def test_drops_low_confidence_under_large_parent(self):
        parent = rect(24, 18, 0, 0, 12, 20)
        p = proposal([rect(24, 18, 1, 1, 3, 3)], [0.45])
        assert filter_proposal(p, parent, CANVAS).masks == []

    def test_keeps_same_confidence_under_small_parent(self):
        parent = rect(24, 18, 0, 0, 4, 5)  # 20 of 432 px < 5%
        p = proposal([rect(24, 18, 1, 1, 2, 2)], [0.45])
        assert len(filter_proposal(p, parent, CANVAS).masks) == 1

    def test_drops_mask_covering_most_of_parent(self):
        parent = rect(24, 18, 0, 0, 10, 10)
        almost_parent = rect(24, 18, 0, 0, 10, 10 - 1)  # 90/100 intersect
        p = proposal([rect(24, 18, 0, 0, 10, 10 - 0), almost_parent],
                     [0.9, 0.9])
        out = filter_proposal(p, parent, CANVAS)
        # 100% of parent dropped, 90% exactly is kept (gate is strict >).
        assert out.masks == [almost_parent]

    def test_drops_mask_covering_canvas(self):
        parent = Mask.full(24, 18)
        big = rect(24, 18, 0, 0, 18, 24 - 5)  # 342/432 = 79% of canvas
        small = rect(24, 18, 0, 0, 9, 24)  # 50%
        p = proposal([big, small], [0.9, 0.9])
        out = filter_proposal(p, parent, CANVAS)
        assert out.masks == [small]

    def test_never_increases_mask_count(self):
        rng = np.random.default_rng(3)
        parent = rect(24, 18, 2, 2, 12, 16)
        for _ in range(50):
            masks = [rect(24, 18, int(rng.integers(0, 12)),
                          int(rng.integers(0, 16)), 4, 4) for _ in range(5)]
            p = proposal(masks, list(rng.random(5)))
            assert len(filter_proposal(p, parent, CANVAS).masks) <= 5

    def test_length_mismatch_rejected(self):
        from otq import PipelineError
        with pytest.raises(PipelineError):
            Proposal("x", [rect(24, 18, 0, 0, 2, 2)], [0.5, 0.6])


class TestMergeSiblings:
    def test_identical_masks_merge(self):
        m = rect(24, 18, 1, 1, 4, 4)
        out = merge_siblings([m, Mask(canvas_pixels(m).copy())])
        assert len(out) == 1
        assert out[0] == m

    def test_disjoint_masks_stay(self):
        a = rect(24, 18, 0, 0, 4, 4)
        b = rect(24, 18, 10, 10, 4, 4)
        assert len(merge_siblings([a, b])) == 2

    def test_transitive_chain_merges(self):
        # a~b and b~c above 0.9 while a and c share little directly.
        a = rect(24, 18, 0, 0, 1, 10)
        b = rect(24, 18, 0, 1, 1, 10)
        c = rect(24, 18, 0, 2, 1, 10)
        assert (9 / 10) < 1.0  # pairwise overlap of neighbors is 9/10 = 0.9
        # 0.9 is not > 0.9; widen to force the merge
        a = rect(24, 18, 0, 0, 1, 20)
        b = rect(24, 18, 0, 1, 1, 20)
        c = rect(24, 18, 0, 2, 1, 20)
        out = merge_siblings([a, b, c])
        assert len(out) == 1
        assert out[0].area == 22

    def test_output_pairwise_bounded(self):
        rng = np.random.default_rng(5)
        from otq import intersection_area
        for _ in range(50):
            masks = [rect(24, 18, int(rng.integers(0, 10)),
                          int(rng.integers(0, 10)),
                          int(rng.integers(2, 8)), int(rng.integers(2, 8)))
                     for _ in range(int(rng.integers(2, 7)))]
            out = merge_siblings(masks)
            for i in range(len(out)):
                for j in range(i + 1, len(out)):
                    inter = intersection_area(out[i], out[j])
                    smaller = min(out[i].area, out[j].area)
                    assert inter / smaller <= 0.9 + 1e-12


@st.composite
def sibling_sets(draw):
    """Up to 8 masks on a 1x1 to 14x14 canvas: rectangles, random pixels,
    one- or two-pixel edits and one-column shifts of an earlier mask (so
    that groups merge, some pairs at exactly 90% overlap) and empty masks,
    some decoded from RLE so that they hold no window."""
    height, width = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    masks = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["rect", "pixels", "edit", "shift", "empty"]))
        pixels = np.zeros((height, width), dtype=bool)
        if kind == "rect":
            # Often ten columns wide: moved by one column (``shift``), such
            # a rectangle keeps exactly 90% of its pixels.
            n_cols = draw(st.just(min(10, width)) | st.integers(1, width))
            r0, c0 = draw(st.integers(0, height - 1)), draw(st.integers(0, width - n_cols))
            pixels[r0:draw(st.integers(r0 + 1, height)), c0:c0 + n_cols] = True
        elif kind == "pixels":
            pixels = draw(hnp.arrays(bool, (height, width)))
        elif kind == "edit" and masks:
            pixels = canvas_pixels(draw(st.sampled_from(masks))).copy()
            for _ in range(draw(st.integers(1, 2))):
                row, col = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
                pixels[row, col] = not pixels[row, col]
        elif kind == "shift" and masks:
            pixels[:, 1:] = canvas_pixels(draw(st.sampled_from(masks)))[:, :-1]
        mask = Mask(pixels)
        if draw(st.booleans()):
            mask = rle_decode(mask.to_rle(), width, height)
        masks.append(mask)
    return masks


class TestMergeSiblingsOracle:
    @settings(max_examples=400)
    @given(sibling_sets())
    def test_matches_connected_components(self, masks):
        expected = [m.to_rle() for m in scipy_merge_siblings(masks)]
        assert [m.to_rle() for m in merge_siblings(masks)] == expected


class TestMaterialize:
    def semantic(self, nodes):
        return SemanticTree(canvas=CANVAS, nodes={n.sem_id: n for n in nodes})

    def test_unique_container(self):
        parent = rect(24, 18, 0, 0, 10, 10)
        child = rect(24, 18, 2, 2, 3, 3)
        tree = self.semantic([
            SemanticNode(1, "p", ROOT_ID, [parent], 1),
            SemanticNode(2, "c", 1, [child], 2),
        ])
        out = materialize_instances(tree)
        assert out.n_nodes == 2
        assert out.nodes[2].parent_id == 1

    def test_straddling_child_goes_to_strongest_containment(self):
        p1 = rect(24, 18, 0, 0, 10, 7)    # cols 0..6
        p2 = rect(24, 18, 0, 7, 10, 7)    # cols 7..13
        child = rect(24, 18, 2, 0, 1, 10)  # 7 px in p1, 3 px in p2
        tree = self.semantic([
            SemanticNode(1, "p", ROOT_ID, [p1, p2], 1),
            SemanticNode(2, "c", 1, [child], 2),
        ])
        out = materialize_instances(tree)
        child_node = next(n for n in out.nodes.values() if n.label == "c")
        assert out.nodes[child_node.parent_id].mask == p1

    def test_disjoint_child_dropped_as_noise(self):
        p1 = rect(24, 18, 0, 0, 6, 6)
        child = rect(24, 18, 12, 12, 3, 3)
        tree = self.semantic([
            SemanticNode(1, "p", ROOT_ID, [p1], 1),
            SemanticNode(2, "c", 1, [child], 2),
        ])
        out = materialize_instances(tree)
        assert [n.label for n in out.nodes.values()] == ["p"]

    def test_member_masks_unchanged(self):
        parent = rect(24, 18, 0, 0, 12, 12)
        child = rect(24, 18, 1, 1, 4, 4)
        tree = self.semantic([
            SemanticNode(1, "p", ROOT_ID, [parent], 1),
            SemanticNode(2, "c", 1, [child], 2),
        ])
        out = materialize_instances(tree)
        masks = {n.label: n.mask for n in out.nodes.values()}
        assert masks["p"] == parent and masks["c"] == child


def scene_mocks():
    """A fixed two-object scene with one sub-part level."""
    ground = rect(24, 18, 12, 0, 6, 24)
    car1 = rect(24, 18, 2, 1, 8, 9)
    car2 = rect(24, 18, 2, 13, 8, 9)
    wheel1 = rect(24, 18, 7, 2, 3, 3)
    wheel2 = rect(24, 18, 7, 14, 3, 3)
    proposer = ScriptedProposer({
        "": ["ground", "car"],
        "car": ["wheel"],
    })
    grounder = ScriptedGrounder({
        "ground": [(ground, 0.9)],
        "car": [(car1, 0.8), (car2, 0.8)],
        "wheel": [(wheel1, 0.9), (wheel2, 0.85)],
    })
    return proposer, grounder, dict(ground=ground, car1=car1, car2=car2,
                                    wheel1=wheel1, wheel2=wheel2)


class TestRunPipeline:
    def test_empty_proposer_gives_root_only(self):
        tree = run_pipeline(CANVAS, ScriptedProposer({}), ScriptedGrounder({}))
        assert tree.n_nodes == 0

    def test_scripted_scene_materializes_exactly(self):
        proposer, grounder, m = scene_mocks()
        tree = run_pipeline(CANVAS, proposer, grounder)
        by_label = {}
        for node in tree.nodes.values():
            by_label.setdefault(node.label, []).append(node)
        assert sorted(by_label) == ["car", "ground", "wheel"]
        assert len(by_label["car"]) == 2
        assert len(by_label["wheel"]) == 2
        # Each wheel under its own car.
        for wheel in by_label["wheel"]:
            car_mask = tree.nodes[wheel.parent_id].mask
            assert np.all(~canvas_pixels(wheel.mask) | canvas_pixels(car_mask))
        assert by_label["ground"][0].parent_id == ROOT_ID

    def test_depth_limit_one_keeps_only_root_level(self):
        proposer, grounder, _ = scene_mocks()
        tree = run_pipeline(CANVAS, proposer, grounder,
                            PipelineLimits(max_depth=1))
        assert {n.label for n in tree.nodes.values()} == {"ground", "car"}
        assert all(tree.depth(n) == 1 for n in tree.nodes)

    def test_max_children_cap(self):
        proposer, grounder, _ = scene_mocks()
        tree = run_pipeline(CANVAS, proposer, grounder,
                            PipelineLimits(max_children=1))
        # Only "ground" (the first root proposal) survives the cap.
        assert {n.label for n in tree.nodes.values()} == {"ground"}

    def test_bit_reproducible(self):
        proposer, grounder, _ = scene_mocks()
        a = run_pipeline(CANVAS, proposer, grounder)
        b = run_pipeline(CANVAS, proposer, grounder)
        assert serialize_tree(a) == serialize_tree(b)

    def test_residuals_recorded(self):
        proposer, grounder, m = scene_mocks()
        sem = decompose(CANVAS, proposer, grounder)
        assert sem.root_others is not None
        covered = m["ground"].area + m["car1"].area + m["car2"].area
        assert sem.root_others.area == 24 * 18 - covered
        car_sem = next(n for n in sem.nodes.values()
                       if n.label == "car" and not n.is_residual)
        assert car_sem.others_mask is not None
        assert car_sem.others_mask.area == (
            m["car1"].area + m["car2"].area
            - m["wheel1"].area - m["wheel2"].area)

    def test_others_expanded_when_scripted(self):
        # The proposer decomposes the root residual into a named region.
        sky = rect(24, 18, 0, 0, 2, 24)
        proposer = ScriptedProposer({
            "": ["ground"],
            "others": ["sky"],
        })
        grounder = ScriptedGrounder({
            "ground": [(rect(24, 18, 12, 0, 6, 24), 0.9)],
            "sky": [(sky, 0.9)],
        })
        tree = run_pipeline(CANVAS, proposer, grounder)
        labels = {n.label for n in tree.nodes.values()}
        assert "sky" in labels and "others" in labels
        sky_node = next(n for n in tree.nodes.values() if n.label == "sky")
        assert tree.nodes[sky_node.parent_id].label == "others"

    def test_proposer_failure_carries_path(self):
        class Exploding:
            def propose(self, request):
                if request.path == ("car",):
                    raise RuntimeError("boom")
                return ["car"] if request.path == () else []

        _, grounder, _ = scene_mocks()
        with pytest.raises(PipelineError, match="car"):
            run_pipeline(CANVAS, Exploding(), grounder)

    def test_grounder_failure_names_label_and_path(self):
        class Exploding:
            def ground(self, canvas, label):
                raise RuntimeError("no model")

        proposer, _, _ = scene_mocks()
        expected = "grounder failed for 'ground' at path (): no model"
        with pytest.raises(PipelineError, match=re.escape(expected)) as info:
            run_pipeline(CANVAS, proposer, Exploding())
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_pipeline_error_from_proposer_is_not_wrapped(self):
        own = PipelineError("proposer gave up")

        class GivingUp:
            def propose(self, request):
                raise own

        _, grounder, _ = scene_mocks()
        with pytest.raises(PipelineError) as info:
            run_pipeline(CANVAS, GivingUp(), grounder)
        assert info.value is own


KITCHEN = Path(__file__).resolve().parents[1] / "demos" / "fixtures" / "scene.json"


class TestKitchenScene:
    """The demo 05 scene, pinned node by node."""

    def test_semantic_tree(self):
        semantic = decompose(*load_scene_script(KITCHEN))
        rows = [(n.sem_id, n.label, n.parent_id, n.depth, n.is_residual,
                 len(n.masks), n.union_mask.area,
                 None if n.others_mask is None else n.others_mask.area)
                for n in semantic.nodes.values()]
        assert rows == [
            (1, "counter", ROOT_ID, 1, False, 1, 480, 480),
            (2, "cabinet", ROOT_ID, 1, False, 2, 512, 272),
            (3, "others", ROOT_ID, 1, True, 1, 544, 544),
            (4, "door", 2, 2, False, 2, 240, 234),
            (5, "others", 2, 2, True, 1, 272, 272),
            (6, "handle", 4, 3, False, 2, 6, 6),
            (7, "others", 4, 3, True, 1, 234, 234),
        ]
        assert semantic.root_others.area == 544

    def test_instance_tree_line(self):
        line = serialize_tree(run_pipeline(*load_scene_script(KITCHEN)))
        assert len(line) == 1023
        assert hashlib.sha256(line.encode()).hexdigest() == (
            "e7d15f481c3fbb91baaea2b37107399c45b092887510ddbf107bae9037e3ed7a")
