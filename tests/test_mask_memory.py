"""Mask memory scales with object size: parsing and scoring never build a
full-canvas array, and scoring parsed trees builds no window at all."""

from __future__ import annotations

import json
import tracemalloc

import pytest

import otq.masks
from otq import (
    ImageCanvas,
    InstanceNode,
    Mask,
    OpenTree,
    ROOT_ID,
    SimilarityProtocol,
    dilate,
    erode,
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


def test_parse_of_large_windows_adds_little_to_them():
    # 60 nested rectangles on 1024x768, from the full canvas down by one
    # pixel per side each: about 39 MiB of windows.  Building them all in one
    # buffer before copying them out would double that.
    width, height = 1024, 768
    nodes = [InstanceNode(i + 1, "thing",
                          Mask.from_rect(width, height, i, i, height - 2 * i, width - 2 * i),
                          ROOT_ID if i == 0 else i)
             for i in range(60)]
    line = serialize_tree(OpenTree(ImageCanvas("nested", width, height), nodes))

    tracemalloc.start()
    try:
        tree = parse_tree(line)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    windows = sum(node.mask.window.nbytes for node in tree.nodes.values())
    assert windows > 38 * 2**20
    assert peak < windows + 8 * 2**20, (
        f"parse peaked at {peak / 2**20:.1f} MiB for {windows / 2**20:.1f} MiB of windows")


def test_climb_pairs_of_a_skewed_tree_peak_near_its_pairs():
    # A chain 300 deep and 20,000 nodes under the root, each node one pixel
    # of its own: 45,150 (node, ancestor) pairs, where a table of every
    # node's ancestor at every level would hold about 6 million entries.
    side, depth, shallow = 200, 300, 20_000
    nodes = [{"id": k + 1, "label": "a" if k < depth else "b",
              "parent": k if 0 < k < depth else None,
              "rle": f"{k} 1 {side * side - k - 1}"} for k in range(depth + shallow)]
    tree = parse_tree(json.dumps({"image_id": "skewed", "width": side, "height": side,
                                  "nodes": nodes}))

    tracemalloc.start()
    try:
        pairs = tree.climb_pairs
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pairs[0].size == 0
    assert peak < 16 * 2**20, f"climb_pairs peaked at {peak / 2**20:.1f} MiB"


def test_lazy_windows_of_a_document_add_little_to_them():
    # The same 60 nested rectangles: parsing builds no window, and the window
    # asked for is the only one built.
    width, height = 1024, 768
    nodes = [InstanceNode(i + 1, "thing",
                          Mask.from_rect(width, height, i, i, height - 2 * i, width - 2 * i),
                          ROOT_ID if i == 0 else i)
             for i in range(60)]
    tree = parse_tree(serialize_tree(OpenTree(ImageCanvas("nested", width, height), nodes)))

    tracemalloc.start()
    try:
        tree.nodes[30].mask.window
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    windows = sum(node.mask.window.nbytes for node in tree.nodes.values())
    assert windows > 38 * 2**20
    assert peak < windows + 8 * 2**20, (
        f"building the windows peaked at {peak / 2**20:.1f} MiB for "
        f"{windows / 2**20:.1f} MiB of windows")


def test_dilation_on_large_canvas_peaks_near_object_size():
    # A 10x10 rectangle grown to 4x its area on a 2048x2048 canvas; a
    # full-canvas array would take 4 MiB.
    mask = Mask.from_rect(2048, 2048, 1000, 1000, 10, 10)
    dilate(mask, 4.0)  # a first call outside the traced region
    tracemalloc.start()
    try:
        grown = dilate(mask, 4.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grown.bbox == (995, 1015, 995, 1015)
    assert peak < 2**20, f"dilation peaked at {peak / 2**20:.1f} MiB"


def test_erosion_of_large_rectangle_peaks_near_two_windows():
    # 1200x1600 pixels on a 2048x2048 canvas eroded to keep 0.15: about 420
    # steps, so holding every step's array would take hundreds of windows,
    # and holding three steps' arrays three.
    height, width = 1200, 1600
    mask = Mask.from_rect(2048, 2048, 100, 200, height, width)
    target = 0.15 * mask.area
    areas = [(height - 2 * k) * (width - 2 * k) for k in range(height // 2 + 1)]
    k = next(k for k, area in enumerate(areas) if area <= target)
    if abs(areas[k] - target) > abs(areas[k - 1] - target):
        k -= 1
    tracemalloc.start()
    try:
        eroded = erode(mask, 0.15)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert eroded.bbox == (100 + k, 100 + height - k, 200 + k, 200 + width - k)
    window = mask.window.nbytes
    assert peak < 2.25 * window, (
        f"erosion peaked at {peak / window:.2f} windows of {window / 2**20:.1f} MiB")


def _no_window(*args):
    raise AssertionError("scoring built a window of a decoded document")


@pytest.mark.parametrize("pred_fixture,ref_fixture", [
    ("chain_tree", "chain_tree"),
    ("two_branch_tree", "two_branch_tree"),
    ("chain_tree", "two_branch_tree"),
])
def test_scoring_path_never_reads_pixels(request, monkeypatch, pred_fixture, ref_fixture):
    pred = request.getfixturevalue(pred_fixture)
    ref = request.getfixturevalue(ref_fixture)
    expected = evaluate_image(pred, ref, SimilarityProtocol.strict())
    monkeypatch.setattr(otq.masks, "_runs_window", _no_window)
    pred, ref = parse_tree(serialize_tree(pred)), parse_tree(serialize_tree(ref))
    assert evaluate_image(pred, ref, SimilarityProtocol.strict()) == expected
