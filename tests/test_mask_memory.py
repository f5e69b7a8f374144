"""Mask memory scales with object size: parsing and scoring never build a
full-canvas array."""

from __future__ import annotations

import tracemalloc

import pytest

from otq import (
    ImageCanvas,
    InstanceNode,
    Mask,
    OpenTree,
    ROOT_ID,
    SimilarityProtocol,
    dilate,
    evaluate_image,
    parse_tree,
    serialize_tree,
)


def test_parse_of_large_canvas_peaks_near_object_size():
    # 50 rectangles of at most 40x40 pixels on a 2048x2048 canvas: 4 MiB per
    # full-canvas mask, 200 MiB for the document if masks were dense.
    side = 2048
    nodes = [InstanceNode(i + 1, "thing",
                          Mask.from_rect(side, side, 37 * i, 40 * i, 10 + i % 30, 40 - i % 25),
                          ROOT_ID)
             for i in range(50)]
    line = serialize_tree(OpenTree(ImageCanvas("big", side, side), nodes))

    tracemalloc.start()
    try:
        tree = parse_tree(line)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tree.n_nodes == 50
    assert peak < 8 * 2**20, f"parse peaked at {peak / 2**20:.1f} MiB"


def test_dilation_on_large_canvas_peaks_near_object_size():
    # A 10x10 rectangle grown to 4x its area on a 2048x2048 canvas; a
    # full-canvas distance transform would take tens of MiB.
    mask = Mask.from_rect(2048, 2048, 1000, 1000, 10, 10)
    tracemalloc.start()
    try:
        grown = dilate(mask, 4.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grown.bbox == (995, 1015, 995, 1015)
    assert peak < 2**20, f"dilation peaked at {peak / 2**20:.1f} MiB"


def _no_full_canvas(self):
    raise AssertionError("Mask.pixels built a full-canvas array")


@pytest.mark.parametrize("pred_fixture,ref_fixture", [
    ("chain_tree", "chain_tree"),
    ("two_branch_tree", "two_branch_tree"),
    ("chain_tree", "two_branch_tree"),
])
def test_scoring_path_never_reads_pixels(request, monkeypatch, pred_fixture, ref_fixture):
    pred = request.getfixturevalue(pred_fixture)
    ref = request.getfixturevalue(ref_fixture)
    expected = evaluate_image(pred, ref, SimilarityProtocol.strict())
    monkeypatch.setattr(Mask, "pixels", property(_no_full_canvas))
    pred, ref = parse_tree(serialize_tree(pred)), parse_tree(serialize_tree(ref))
    assert evaluate_image(pred, ref, SimilarityProtocol.strict()) == expected
