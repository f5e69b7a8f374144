"""Masks kept as runs: the one-join intersection of many mask pairs, the
pair-by-pair fallback, run tables in mask order, the table encoder, and
the pickle form."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otq import Mask, dilate, erode, intersection_area, iou, match_trees, rle_decode, size_bin
from otq.masks import (RunTable, _join_keys, boxes_meet, pair_intersections, pair_ious,
                       rle_decode_table, rle_encode, rle_encode_table)

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
    one is decoded."""
    height, width = draw(canvases)
    n = draw(st.integers(1, 7))
    forms = [draw(st.sampled_from(["decoded", "pixels", "eroded", "dilated", "rect"]))
             for _ in range(n)]
    forms[draw(st.integers(0, n - 1))] = "decoded"
    pixels = [draw(nonempty_pixels(height, width)) for _ in range(n)]
    decoded = iter(rle_decode_table([dense_rle_encode(p) for p, form in zip(pixels, forms)
                                     if form == "decoded"], width, height).decoded_masks())
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
    """The masks with the last (or every) one decoded; the others are made
    from their pixels."""
    width, height = masks[0].width, masks[0].height
    decoded = rle_decode_table([m.to_rle() for m in masks], width, height).decoded_masks()
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
        # join key at which the full mask 1's one run starts.
        width, height = 4, 3
        table = RunTable(_decode_last([Mask.from_rect(width, height, 1, 2, 2, 2),
                                       Mask.full(width, height),
                                       Mask.from_rect(width, height, 2, 3, 1, 1)], decode_all))
        assert pair_intersections(table, np.array([0, 1, 2, 0]),
                                  np.array([1, 0, 1, 2])).tolist() == [4, 4, 1, 1]
        starts, stops = _join_keys(table)[:2]
        assert stops[1] == width * height == starts[2]
        _check_join(table)

    def test_lists_too_large_for_one_table_are_intersected_pair_by_pair(self):
        # Two masks decoded one at a time on a 2**31 x 2**30 canvas: their
        # join keys would reach 2**62, so the pairs are intersected one at a
        # time on their runs.
        width, height = 2**31, 2**30
        a, b = (rle_decode(Mask.from_rect(width, height, row, row, n, n).to_rle(), width, height)
                for row, n in ((5, 3), (6, 4)))
        table = RunTable([a, b])
        assert pair_intersections(table, np.array([0, 1]), np.array([1, 1])).tolist() == [4, 16]
        joined = RunTable([a]).joined(RunTable([b]))
        assert pair_intersections(joined, np.array([0]), np.array([1])).tolist() == [4]
        tree = make_tree([(1, "a", None, a), (2, "b", 1, b)], width=width, height=height)
        assert [(p, r) for p, r, _ in match_trees(tree, tree).tp] == [(1, 1), (2, 2)]


class TestMasksViewTheirTable:
    """Each run is held once: every mask of a table holds its runs as views
    of the table's arrays."""

    def test_masks_share_memory_with_their_table(self):
        width, height = 6, 5
        masks = [Mask.from_rect(width, height, 1, 2, 3, 2), Mask(np.eye(height, width, dtype=bool)),
                 Mask.full(width, height)]
        rles = [m.to_rle() for m in masks]
        for table in (rle_decode_table(rles, width, height), RunTable(masks)):
            for t in (table, table.reordered([2, 0, 1]), table.reordered([1]),
                      table.joined(table)):
                views = t.decoded_masks()
                assert len(views) == t.areas.size
                for view in views:
                    assert np.shares_memory(view._runs[0], t.starts)
                    assert np.shares_memory(view._runs[1], t.stops)
        assert RunTable(masks).masks == masks
        assert [m.to_rle() for m in RunTable(masks).masks] == rles


@st.composite
def tables(draw):
    """A run table on a drawn canvas and the masks it holds, in order: the
    masks decoded as one document or built into a table, then possibly
    permuted, cut to a subset, or joined to another such table.  Masks may
    be empty, fill full-height columns (runs that cross column boundaries)
    or end at the canvas's last pixel."""
    height, width = draw(canvases)

    def mask():
        kind = draw(st.sampled_from(["empty", "pixels", "tail"]))
        if kind == "empty":
            return Mask(np.zeros((height, width), dtype=bool))
        if kind == "pixels":
            return Mask(draw(nonempty_pixels(height, width)))
        n_rows, n_cols = draw(st.integers(1, height)), draw(st.integers(1, width))
        return Mask.from_rect(width, height, height - n_rows, width - n_cols, n_rows, n_cols)

    def table():
        masks = [mask() for _ in range(draw(st.integers(0, 6)))]
        if draw(st.booleans()):
            return rle_decode_table([dense_rle_encode(canvas_pixels(m)) for m in masks],
                                    width, height), masks
        return RunTable(masks), masks

    t, masks = table()
    change = draw(st.sampled_from(["none", "permuted", "subset", "joined"]))
    if change == "permuted":
        order = draw(st.permutations(range(len(masks))))
    elif change == "subset":
        order = sorted(draw(st.sets(st.integers(0, max(len(masks) - 1, 0)),
                                    max_size=len(masks))))
    if change in ("permuted", "subset"):
        t, masks = t.reordered(order), [masks[k] for k in order]
    elif change == "joined":
        other, more = table()
        t, masks = t.joined(other), masks + more
    return t, masks


class TestTablesInMaskOrder:
    """Every table holds exactly its masks' runs, in mask order, and encodes
    them as each mask alone would be encoded."""

    @settings(max_examples=300)
    @given(tables())
    def test_masks_runs_end_to_end_are_the_tables_runs(self, drawn):
        t, masks = drawn
        views = t.decoded_masks()
        assert views == masks
        for k, column in enumerate((t.starts, t.stops)):
            runs = np.concatenate([m._runs[k] for m in views] or [np.zeros(0, np.int64)])
            assert runs.dtype == column.dtype == np.int64
            assert np.array_equal(runs, column)

    @settings(max_examples=300)
    @given(tables())
    def test_one_pass_encoding_is_each_masks_encoding(self, drawn):
        t, masks = drawn
        expected = [dense_rle_encode(canvas_pixels(m)) for m in masks]
        assert rle_encode_table(t) == [rle_encode(m) for m in t.decoded_masks()] == expected

    def test_tables_of_no_masks_encode_to_no_strings(self):
        # A %-format of no tokens, split on newlines, would give [""].
        full = RunTable([Mask.full(3, 2)])
        for t in (RunTable([]), rle_decode_table([], 3, 2), full.reordered([]),
                  RunTable([]).joined(RunTable([]))):
            assert rle_encode_table(t) == []

    def test_tables_of_many_runs_are_encoded_in_groups(self):
        # Striped masks of 1,800 runs each and empty masks: the table's
        # runs span three groups of 4096, and the last mask ends at the
        # canvas end.
        stripes = np.zeros((60, 60), dtype=bool)
        stripes[::2] = True
        empty = np.zeros_like(stripes)
        pixels = [stripes, empty, ~stripes, stripes, ~stripes, empty, stripes, ~stripes]
        table = RunTable([Mask(p) for p in pixels])
        assert table.starts.size > 2 * 4096
        expected = [dense_rle_encode(p) for p in pixels]
        assert rle_encode_table(table) == expected
        assert rle_encode_table(table.reordered(range(7, -1, -1))) == expected[::-1]

    def test_a_mask_that_ends_at_the_canvas_end(self):
        # No pixel follows the last run, so no closing 0 is written.
        masks = [Mask.from_rect(3, 2, 1, 2, 1, 1), Mask.full(3, 2),
                 Mask(np.zeros((2, 3), dtype=bool)), Mask.from_rect(3, 2, 0, 1, 2, 2)]
        assert rle_encode_table(RunTable(masks)) == ["5 1", "0 6", "6", "2 4"]


class TestLazyWindows:
    """Every mask holds runs alone; a decoded mask holds the same pixels as
    a mask made from them."""

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
            for mask, p in zip(rle_decode_table(document, width, height).decoded_masks(),
                               pixels):
                copy = pickle.loads(pickle.dumps(mask))
                eager = Mask(p)
                assert np.array_equal(canvas_pixels(mask), canvas_pixels(eager))
                assert np.array_equal(canvas_pixels(mask), p)
                rebuilt = Mask(canvas_pixels(mask))
                assert mask.to_rle() == rebuilt.to_rle() == copy.to_rle() == dense_rle_encode(p)
                assert mask == rebuilt == copy and rebuilt == mask
                if mask.area:
                    assert size_bin(mask) is size_bin(rebuilt) is size_bin(copy)
                for m in (mask, rebuilt, copy):
                    back = pickle.loads(pickle.dumps(m))
                    assert back == mask and back.area == mask.area
                    assert np.array_equal(canvas_pixels(back), p)


class TestPickledAsRuns:
    """A mask pickles as its runs, whatever made it."""

    def test_a_large_rectangle_pickles_to_its_runs(self):
        # One run in each of 1800 columns: two int64 arrays of 14.4 KB each,
        # where its 1800x1800 window would take 3.24 MB.
        mask = Mask.from_rect(2048, 2048, 100, 100, 1800, 1800)
        data = pickle.dumps(mask)
        assert len(data) < 64 * 2**10
        back = pickle.loads(data)
        assert back == mask and back.to_rle() == mask.to_rle()
        assert (back.bbox, back.area) == (mask.bbox, mask.area)

    @pytest.mark.parametrize("make", [
        lambda: rle_decode_table(["3 4 2 4 7", "20", "0 20"], 4, 5).decoded_masks(),
        lambda: [Mask.from_rect(10, 8, 2, 3, 4, 5), Mask.from_rect(10, 8, 0, 3, 8, 4)],
        lambda: [erode(Mask.from_rect(10, 8, 1, 1, 6, 7), 0.3),
                 erode(Mask.from_rect(10, 8, 1, 1, 2, 2), 0.01),
                 dilate(Mask.from_rect(10, 8, 4, 4, 1, 1), 6.0),
                 dilate(Mask.from_rect(10, 8, 0, 2, 8, 1), 2.5)],
        lambda: [Mask(np.eye(5, 6, dtype=bool)), Mask(np.zeros((3, 4), dtype=bool))],
    ], ids=["decoded", "rectangles", "morphology", "pixels"])
    def test_masks_round_trip_equal(self, make):
        for mask in make():
            back = pickle.loads(pickle.dumps(mask))
            assert back == mask and back.to_rle() == mask.to_rle()
            assert (back.height, back.width, back.bbox, back.area) == (
                mask.height, mask.width, mask.bbox, mask.area)
            assert all(not r.flags.writeable for r in back._runs)
