"""Masks kept as runs: the one-join intersection of many mask pairs, and
the window each decoded mask builds from its runs only when needed."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otq.masks as mask_module
from otq import (Mask, dilate, erode, intersection_area, iou, match_trees, parse_tree,
                 rle_decode, serialize_tree, size_bin)
from otq.masks import RunTable, boxes_meet, pair_intersections, pair_ious, rle_decode_all

from conftest import make_tree
from oracles import canvas_pixels, dense_rle_encode
from test_masks import canvases, pixels_on


@st.composite
def nonempty_pixels(draw, height, width):
    """Drawn pixels (full canvas, masks touching all four edges, ...),
    full-height columns, whose runs cross column boundaries, a checkerboard
    or a single pixel."""
    kind = draw(st.sampled_from(["drawn", "columns", "checkerboard", "pixel"]))
    if kind == "drawn":
        return draw(pixels_on(height, width, nonempty=True))
    pixels = np.zeros((height, width), dtype=bool)
    if kind == "columns":
        c0 = draw(st.integers(0, width - 1))
        pixels[:, c0:draw(st.integers(c0 + 1, width))] = True
    elif kind == "checkerboard":
        pixels = np.add.outer(np.arange(height), np.arange(width)) % 2 == draw(st.integers(0, 1))
        pixels[0, 0] |= not pixels.any()
    else:
        pixels[draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))] = True
    return pixels


@st.composite
def mixed_masks(draw):
    """Masks on one drawn canvas, each decoded (those together, as one
    document), made from pixels, eroded, dilated or a rectangle; at least
    one is decoded and holds no window, so pairs are joined on runs."""
    height, width = draw(canvases)
    n = draw(st.integers(1, 7))
    forms = [draw(st.sampled_from(["decoded", "pixels", "eroded", "dilated", "rect"]))
             for _ in range(n)]
    forms[draw(st.integers(0, n - 1))] = "decoded"
    pixels = [draw(nonempty_pixels(height, width)) for _ in range(n)]
    decoded = iter(rle_decode_all([dense_rle_encode(p) for p, form in zip(pixels, forms)
                                   if form == "decoded"], width, height))
    out = []
    for form, p in zip(forms, pixels):
        if form == "decoded":
            out.append(next(decoded))
        elif form == "pixels":
            out.append(Mask(p))
        elif form == "eroded":
            out.append(erode(Mask(p), draw(st.floats(0.05, 1.0))))
        elif form == "dilated":
            out.append(dilate(Mask(p), draw(st.floats(1.0, 4.0))))
        else:
            row, col = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
            out.append(Mask.from_rect(width, height, row, col,
                                      draw(st.integers(1, height)), draw(st.integers(1, width))))
    return out, draw(st.integers(0, n))


def _meeting_pairs(table: RunTable) -> tuple[np.ndarray, np.ndarray]:
    return np.nonzero(boxes_meet(table.boxes[:, None], table.boxes))


def _decode_last(masks: list[Mask], decode_all: bool) -> list[Mask]:
    """The masks with the last (or every) one decoded; the others keep their
    windows, so their runs are derived from them."""
    width, height = masks[0].width, masks[0].height
    decoded = rle_decode_all([m.to_rle() for m in masks], width, height)
    if decode_all:
        return decoded
    return [Mask(canvas_pixels(m)) for m in masks[:-1]] + decoded[-1:]


def _check_join(table: RunTable) -> None:
    i, j = _meeting_pairs(table)
    pairs = list(zip(i.tolist(), j.tolist()))
    assert pair_intersections(table, i, j).tolist() == [
        intersection_area(table.masks[x], table.masks[y]) for x, y in pairs]
    assert pair_ious(table, i, j).tolist() == [iou(table.masks[x], table.masks[y])
                                               for x, y in pairs]


class TestPairIntersections:
    """The join against ``intersection_area`` and ``iou``, one pair at a
    time, for every pair whose bboxes overlap."""

    @settings(max_examples=300)
    @given(mixed_masks())
    def test_join_matches_pairwise(self, drawn):
        masks, split = drawn
        first, second = RunTable(masks[:split]), RunTable(masks[split:])
        _check_join(first)
        _check_join(first.joined(second))

    @pytest.mark.parametrize("decode_all", [False, True])
    def test_lookup_before_the_tables_first_run(self, decode_all):
        # Mask 0, first in the table, starts one row down in column 1; the
        # run of mask 1's column 1 starts before it, before any run of the
        # table, and that lookup counts no pixel.
        width, height = 3, 4
        table = RunTable(_decode_last([Mask.from_rect(width, height, 1, 1, 3, 1),
                                       Mask.from_rect(width, height, 0, 1, 4, 1)], decode_all))
        assert pair_intersections(table, np.array([0, 1]), np.array([1, 0])).tolist() == [3, 3]
        _check_join(table)

    @pytest.mark.parametrize("decode_all", [False, True])
    def test_run_that_ends_at_the_canvas_end(self, decode_all):
        # Mask 0's last run ends at the canvas's last pixel: its stop is the
        # key at which the full mask 1's one run starts.
        width, height = 4, 3
        table = RunTable(_decode_last([Mask.from_rect(width, height, 1, 2, 2, 2),
                                       Mask.full(width, height),
                                       Mask.from_rect(width, height, 2, 3, 1, 1)], decode_all))
        assert pair_intersections(table, np.array([0, 1, 2, 0]),
                                  np.array([1, 0, 1, 2])).tolist() == [4, 4, 1, 1]
        assert table.stops[1] == width * height == table.starts[2]
        _check_join(table)

    def test_masks_that_all_hold_windows_are_intersected_on_them(self, monkeypatch):
        masks = [Mask.from_rect(6, 5, 0, 0, 3, 4), Mask.from_rect(6, 5, 1, 2, 4, 4)]
        monkeypatch.setattr(mask_module, "_window_runs", None)  # never called
        table = RunTable(masks)
        assert pair_intersections(table, np.array([0]), np.array([1])).tolist() == [4]
        assert table.starts is None

    def test_a_parsed_tree_whose_masks_all_hold_windows_is_intersected_on_them(self):
        tree = parse_tree(serialize_tree(make_tree(
            [(1, "a", None, Mask.from_rect(6, 5, 0, 0, 3, 4)),
             (2, "b", 1, Mask.from_rect(6, 5, 1, 2, 4, 4))], width=6, height=5)))
        table = tree.run_table
        for node in tree.nodes.values():
            node.mask.window
        assert pair_intersections(table, np.array([0, 1]), np.array([1, 1])).tolist() == [4, 16]
        assert table.before is None

    def test_lists_too_large_for_one_table_are_intersected_pair_by_pair(self):
        # Two masks decoded one at a time on a 2**31 x 2**30 canvas: their
        # table keys would reach 2**62, so the pairs are intersected on their
        # windows.
        width, height = 2**31, 2**30
        a, b = (rle_decode(Mask.from_rect(width, height, row, row, n, n).to_rle(), width, height)
                for row, n in ((5, 3), (6, 4)))
        table = RunTable([a, b])
        assert pair_intersections(table, np.array([0, 1]), np.array([1, 1])).tolist() == [4, 16]
        assert table.starts is None
        joined = RunTable([a]).joined(RunTable([b]))
        assert pair_intersections(joined, np.array([0]), np.array([1])).tolist() == [4]
        assert joined.starts is None
        tree = make_tree([(1, "a", None, a), (2, "b", 1, b)], width=width, height=height)
        assert [(p, r) for p, r, _ in match_trees(tree, tree).tp] == [(1, 1), (2, 2)]


class TestLazyWindows:
    """Decoded masks hold runs; each builds its window, the window a mask
    made from pixels holds, the first time it is needed."""

    @settings(max_examples=150)
    @given(st.data())
    def test_lazy_windows_are_the_eager_windows(self, data):
        height, width = data.draw(canvases)
        pixels = [data.draw(pixels_on(height, width))
                  for _ in range(data.draw(st.integers(1, 4)))]
        rles = [dense_rle_encode(p) for p in pixels]
        # The same document canonical, and read with ``int`` ("+" is not
        # canonical).
        for document in (rles, ["+" + rles[0], *rles[1:]]):
            for mask, p in zip(rle_decode_all(document, width, height), pixels):
                copy = pickle.loads(pickle.dumps(mask))  # before any window
                eager = Mask(p)
                window = mask.window
                assert window.dtype == eager.window.dtype == bool
                assert window.shape == eager.window.shape
                assert window.tobytes() == eager.window.tobytes()
                assert window.flags.c_contiguous and not window.flags.writeable
                rebuilt = Mask(canvas_pixels(mask))
                assert mask.to_rle() == rebuilt.to_rle() == copy.to_rle() == dense_rle_encode(p)
                assert mask == rebuilt == copy and rebuilt == mask
                if mask.area:
                    assert size_bin(mask) is size_bin(rebuilt) is size_bin(copy)
                for m in (mask, rebuilt, copy):
                    back = pickle.loads(pickle.dumps(m))
                    assert back == mask and back.area == mask.area
                    assert back.window.tobytes() == window.tobytes()
                    assert back.window.flags.c_contiguous and not back.window.flags.writeable

    def test_a_mask_builds_its_own_window_once(self, monkeypatch):
        calls = []
        build = mask_module._runs_window
        monkeypatch.setattr(mask_module, "_runs_window",
                            lambda m: calls.append(m) or build(m))
        decoded = rle_decode_all(["0 3 9", "4 2 6", "12"], 4, 3)
        assert [m.to_rle() for m in decoded] == ["0 3 9", "4 2 6", "12"]
        assert calls == []
        assert decoded[1].window.shape == (2, 1)
        assert calls == [decoded[1]]
        assert decoded[0]._window is None
        assert decoded[1].window.tobytes() == b"\x01\x01"
        assert calls == [decoded[1]]
