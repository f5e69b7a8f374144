from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from otq import (
    Mask,
    MaskError,
    RleError,
    SizeBin,
    containment,
    dilate,
    erode,
    intersection_area,
    iou,
    mask_difference,
    rle_decode,
    rle_encode,
    size_bin,
    union_masks,
)
from otq.masks import (
    RunTable,
    _most_dilation_steps,
    overlapping_ious,
    rle_decode_table,
)

from conftest import rect
from oracles import (
    canvas_pixels,
    checked_rle_decode,
    dense_bbox,
    dense_containment,
    dense_intersection_area,
    dense_iou,
    dense_rle_decode,
    dense_rle_encode,
    iterated_dilate,
    iterated_erode,
)


class TestRle:
    def test_all_zeros(self):
        arr = np.zeros((3, 4), dtype=bool)
        assert rle_encode(Mask(arr)) == "12"
        assert np.array_equal(canvas_pixels(rle_decode("12", 4, 3)), arr)

    def test_all_ones(self):
        arr = np.ones((3, 4), dtype=bool)
        assert rle_encode(Mask(arr)) == "0 12"
        assert np.array_equal(canvas_pixels(rle_decode("0 12", 4, 3)), arr)

    def test_column_major_order(self):
        # Only the top-left pixel set: first run of zeros has length 0,
        # then one 1, then the rest of the flattened column-major array.
        arr = np.zeros((3, 4), dtype=bool)
        arr[0, 0] = True
        assert rle_encode(Mask(arr)) == "0 1 11"
        arr2 = np.zeros((3, 4), dtype=bool)
        arr2[0, 1] = True  # second column -> offset height=3
        assert rle_encode(Mask(arr2)) == "3 1 8"

    def test_roundtrip_random_patterns(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            h = int(rng.integers(1, 12))
            w = int(rng.integers(1, 12))
            arr = rng.random((h, w)) < rng.random()
            out = rle_decode(rle_encode(Mask(arr)), w, h)
            assert np.array_equal(canvas_pixels(out), arr)

    def test_encode_of_decode_is_identity_on_canonical(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            arr = rng.random((7, 9)) < 0.4
            canonical = rle_encode(Mask(arr))
            assert rle_encode(rle_decode(canonical, 9, 7)) == canonical

    def test_rejects_wrong_total(self):
        with pytest.raises(RleError):
            rle_decode("5", 4, 3)

    def test_rejects_zero_interior_run(self):
        with pytest.raises(RleError):
            rle_decode("3 0 9", 4, 3)

    def test_rejects_negative_canvas(self):
        # The product of two negative sides matches the run total.
        with pytest.raises(RleError, match="must not be negative"):
            rle_decode("0 6", -2, -3)

    def test_rejects_canvas_too_large_to_index(self):
        # A canvas of 2**62 pixels decodes; one of 2**63 has offsets that
        # int64 cannot hold, although its runs are valid.
        rle = f"0 1 {2**62 - 1}"
        assert rle_decode(rle, 2**31, 2**31).to_rle() == rle
        with pytest.raises(RleError, match=r"canvas 4294967296x2147483648 has 2\*\*63 pixels"):
            rle_decode(f"0 1 {2**63 - 1}", 2**32, 2**31)

    def test_rejects_garbage(self):
        with pytest.raises(RleError):
            rle_decode("1 two 3", 4, 3)
        with pytest.raises(RleError):
            rle_decode("", 4, 3)


class TestIou:
    def test_identical_masks(self):
        m = rect(8, 8, 1, 1, 4, 4)
        assert iou(m, m) == 1.0

    def test_disjoint_masks(self):
        a = rect(8, 8, 0, 0, 3, 3)
        b = rect(8, 8, 5, 5, 3, 3)
        assert iou(a, b) == 0.0

    def test_hand_counted_overlap(self):
        # 4x4 canvas: left two columns vs top two rows, 4 shared pixels of 12.
        a = rect(4, 4, 0, 0, 4, 2)
        b = rect(4, 4, 0, 0, 2, 4)
        assert iou(a, b) == pytest.approx(4 / 12, abs=0)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = Mask(rng.random((6, 6)) < 0.5)
            b = Mask(rng.random((6, 6)) < 0.5)
            if a.area == 0 or b.area == 0:
                continue
            assert iou(a, b) == iou(b, a)
            assert 0.0 <= iou(a, b) <= 1.0

    def test_both_empty_is_zero(self):
        empty = Mask(np.zeros((4, 4), dtype=bool))
        assert iou(empty, empty) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(MaskError):
            iou(rect(4, 4, 0, 0, 2, 2), rect(5, 4, 0, 0, 2, 2))


# Every public function of two or more masks, called on a pair.
PAIR_FUNCTIONS = {
    "iou": iou,
    "intersection_area": intersection_area,
    "containment": containment,
    "mask_difference": mask_difference,
    "union_masks": lambda a, b: union_masks([a, b]),
    "overlapping_ious": lambda a, b: overlapping_ious(RunTable([a]), RunTable([b])),
}


class TestCanvasCheck:
    """A pair on two canvases is refused before any pixel is read, also
    when a mask is empty or the bboxes do not overlap."""

    @pytest.mark.parametrize("name", sorted(PAIR_FUNCTIONS))
    @pytest.mark.parametrize("other", [(9, 8), (8, 9)], ids=["width", "height"])
    @pytest.mark.parametrize("empty", ["neither", "first", "second", "both"])
    def test_mismatched_canvas_raises(self, name, other, empty):
        a, b = rect(8, 8, 0, 0, 3, 3), rect(*other, 2, 2, 4, 4)
        if empty in ("first", "both"):
            a = Mask(np.zeros((8, 8), dtype=bool))
        if empty in ("second", "both"):
            b = Mask(np.zeros(other[::-1], dtype=bool))
        for first, second in ((a, b), (b, a)):
            with pytest.raises(MaskError, match="dimension mismatch"):
                PAIR_FUNCTIONS[name](first, second)


class TestContainment:
    def test_subset_is_one(self):
        child = rect(10, 10, 2, 2, 3, 3)
        parent = rect(10, 10, 1, 1, 6, 6)
        assert containment(child, parent) == 1.0

    def test_disjoint_is_zero(self):
        child = rect(10, 10, 0, 0, 2, 2)
        parent = rect(10, 10, 5, 5, 4, 4)
        assert containment(child, parent) == 0.0

    def test_half_inside(self):
        child = rect(10, 10, 0, 0, 2, 5)  # area 10
        parent = rect(10, 10, 0, 0, 1, 10)  # overlaps first row: 5 px
        assert containment(child, parent) == 0.5

    def test_empty_child_rejected(self):
        empty = Mask(np.zeros((4, 4), dtype=bool))
        with pytest.raises(MaskError):
            containment(empty, rect(4, 4, 0, 0, 2, 2))

    def test_containment_one_iff_subset(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            child = Mask(rng.random((6, 6)) < 0.4)
            parent = Mask(rng.random((6, 6)) < 0.6)
            if child.area == 0:
                continue
            subset = bool(np.all(~canvas_pixels(child) | canvas_pixels(parent)))
            assert (containment(child, parent) == 1.0) == subset


class TestMorphology:
    def test_erode_keep_one_is_identity(self):
        m = rect(10, 10, 2, 2, 5, 5)
        assert erode(m, 1.0) is m

    def test_erode_square_brackets_half(self):
        # Successive 3x3 erosions of a solid 10x10: 100 -> 64 -> 36.
        m = Mask(np.ones((10, 10), dtype=bool))
        out = erode(m, 0.5)
        assert 36 <= out.area <= 64

    def test_erode_single_pixel_to_empty(self):
        m = rect(5, 5, 2, 2, 1, 1)
        assert erode(m, 0.5).area == 0

    def test_erode_never_adds_pixels(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = Mask(rng.random((12, 12)) < 0.6)
            if m.area == 0:
                continue
            out = erode(m, float(rng.uniform(0.1, 0.9)))
            assert not np.any(canvas_pixels(out) & ~canvas_pixels(m))

    def test_dilate_ratio_one_is_identity(self):
        m = rect(10, 10, 4, 4, 2, 2)
        assert dilate(m, 1.0) is m

    def test_dilate_full_canvas_unchanged(self):
        m = Mask(np.ones((6, 6), dtype=bool))
        assert dilate(m, 3.0) == m

    def test_dilate_square_brackets_double(self):
        # 4x4 centered on 20x20: 16 -> 36 after one step, bracketing 32.
        m = rect(20, 20, 8, 8, 4, 4)
        out = dilate(m, 2.0)
        assert 16 <= out.area <= 36

    @pytest.mark.parametrize("morph, ratio, problem", [
        (dilate, float("nan"), "grow ratio"), (dilate, 0.5, "grow ratio"),
        (erode, float("nan"), "keep ratio"), (erode, 1.5, "keep ratio"),
    ])
    def test_ratio_out_of_range_is_refused(self, morph, ratio, problem):
        with pytest.raises(MaskError, match=problem):
            morph(rect(10, 10, 4, 4, 2, 2), ratio)

    def test_dilate_never_removes_pixels(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = Mask(rng.random((12, 12)) < 0.3)
            if m.area == 0:
                continue
            out = dilate(m, float(rng.uniform(1.0, 3.0)))
            assert not np.any(canvas_pixels(m) & ~canvas_pixels(out))


# Canvases from 1x1 up, with 1xN and Nx1 drawn on purpose.
canvases = st.one_of(
    st.tuples(st.just(1), st.integers(1, 14)),
    st.tuples(st.integers(1, 14), st.just(1)),
    st.tuples(st.integers(1, 14), st.integers(1, 14)),
)


@st.composite
def pixels_on(draw, height, width, nonempty=False):
    """Random pixels, a full canvas, a single pixel, a mask touching all
    four canvas edges, a rectangle or (unless ``nonempty``) an empty mask."""
    kinds = ["random", "full", "pixel", "edges", "rect"] + ([] if nonempty else ["empty"])
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        pixels = draw(hnp.arrays(bool, (height, width)))
        assume(pixels.any() or not nonempty)
        return pixels
    pixels = np.full((height, width), kind == "full")
    if kind in ("full", "pixel"):
        pixels[draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))] = True
    elif kind == "edges":
        pixels[0, draw(st.integers(0, width - 1))] = True
        pixels[-1, draw(st.integers(0, width - 1))] = True
        pixels[draw(st.integers(0, height - 1)), 0] = True
        pixels[draw(st.integers(0, height - 1)), -1] = True
    elif kind == "rect":
        r0, c0 = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
        pixels[r0:draw(st.integers(r0 + 1, height)), c0:draw(st.integers(c0 + 1, width))] = True
    return pixels


@st.composite
def mask_pixels(draw):
    """One nonempty mask on a drawn canvas."""
    height, width = draw(canvases)
    return draw(pixels_on(height, width, nonempty=True))


@st.composite
def mask_pixel_sets(draw, n):
    """``n`` masks, empty ones included, on one drawn canvas."""
    height, width = draw(canvases)
    return [draw(pixels_on(height, width)) for _ in range(n)]


class TestMorphologyMatchesIteratedSteps:
    @given(mask_pixels(), st.floats(0.001, 1.0))
    def test_erode(self, pixels, ratio):
        out = canvas_pixels(erode(Mask(pixels), ratio))
        assert np.array_equal(out, iterated_erode(pixels, ratio))

    @given(mask_pixels(), st.floats(1.0, 50.0))
    def test_dilate(self, pixels, ratio):
        out = canvas_pixels(dilate(Mask(pixels), ratio))
        assert np.array_equal(out, iterated_dilate(pixels, ratio))

    @given(mask_pixels(), st.integers(0, 3), st.booleans())
    def test_bracket_tie_goes_to_later_step(self, pixels, step, grow):
        # A target exactly midway between the areas after `step` and
        # `step + 1` steps.
        op = ndimage.binary_dilation if grow else ndimage.binary_erosion
        square = np.ones((3, 3), dtype=bool)
        cur = pixels
        for _ in range(step):
            cur = op(cur, structure=square)
        before = int(np.count_nonzero(cur))
        after = int(np.count_nonzero(op(cur, structure=square)))
        assume(before != after)
        area = int(np.count_nonzero(pixels))
        ratio = (before + after) / 2 / area
        assume(ratio * area == (before + after) / 2)
        if grow:
            out, expected = dilate(Mask(pixels), ratio), iterated_dilate(pixels, ratio)
        else:
            out, expected = erode(Mask(pixels), ratio), iterated_erode(pixels, ratio)
        assert out.area == after
        assert np.array_equal(canvas_pixels(out), expected)

    # Fixed edge cases of the packed steps: each column is packed into whole
    # bytes followed by zero guard bits, a step count is reached by jumps of
    # several steps, and a dilation works on its bbox grown by the most
    # steps it can take, clipped to the canvas.

    @staticmethod
    def _check(pixels, ratios):
        mask = Mask(pixels)
        for ratio in ratios:
            if ratio < 1.0:
                out, expected = erode(mask, ratio), iterated_erode(pixels, ratio)
            else:
                out, expected = dilate(mask, ratio), iterated_dilate(pixels, ratio)
            assert np.array_equal(canvas_pixels(out), expected), ratio
            assert out.area == int(np.count_nonzero(expected)), ratio
            assert out == Mask(expected), ratio

    RATIOS = (0.05, 0.3, 0.5, 0.9, 1.3, 2.0, 5.0, 40.0)

    @pytest.mark.parametrize("height,width", [(1, 1), (1, 23), (23, 1), (2, 31), (31, 2)])
    def test_one_and_two_pixel_wide_canvases(self, height, width):
        rng = np.random.default_rng(height * 100 + width)
        for _ in range(5):
            pixels = rng.random((height, width)) < 0.6
            pixels.flat[rng.integers(0, pixels.size)] = True
            self._check(pixels, self.RATIOS)

    @pytest.mark.parametrize("side", ["top", "bottom", "left", "right", "corner", "all"])
    def test_masks_touching_canvas_edges(self, side):
        height, width = 21, 26
        pixels = np.zeros((height, width), dtype=bool)
        rows = {"top": slice(0, 6), "bottom": slice(15, 21), "corner": slice(15, 21),
                "all": slice(0, 21)}.get(side, slice(7, 14))
        cols = {"left": slice(0, 7), "right": slice(19, 26), "corner": slice(19, 26),
                "all": slice(0, 26)}.get(side, slice(9, 17))
        pixels[rows, cols] = True
        pixels[rows.start + 2, cols.start + 3] = False
        self._check(pixels, self.RATIOS)

    @pytest.mark.parametrize("width", [6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65])
    def test_row_widths_around_byte_and_word_boundaries(self, width):
        rng = np.random.default_rng(width)
        for height in (1, 3, 13):
            pixels = rng.random((height, width)) < 0.85
            pixels[:, 0] = pixels[:, -1] = True
            # The same mask with room to grow on a wider, taller canvas.
            canvas = np.zeros((height + 9, width + 11), dtype=bool)
            canvas[4:4 + height, 5:5 + width] = pixels
            # Transposed, the widths are the heights of the packed columns.
            for p in (pixels, canvas, pixels.T, canvas.T):
                self._check(p, self.RATIOS)

    @pytest.mark.parametrize("height", [7, 8, 15, 16, 23, 24])
    def test_short_lines_on_canvas_edges_grown_by_long_jumps(self, height):
        # A line of one to three pixels on an edge of a canvas whose height
        # is at or just below a whole number of bytes: the bisection jumps
        # two steps at once from one step, and a guard one bit narrower than
        # that jump would carry the canvas's bottom row into the top of the
        # next column.
        width = 6
        for rows in (slice(0, 3), slice(height - 2, height), slice(height - 3, height)):
            for col in (0, 2, width - 1):
                pixels = np.zeros((height, width), dtype=bool)
                pixels[rows, col] = True
                self._check(pixels, np.arange(2.0, 14.0, 0.25))

    def test_dilation_that_covers_the_canvas_short_of_its_target(self):
        pixels = np.zeros((10, 12), dtype=bool)
        pixels[4:7, 5:8] = True
        for ratio in (13.4, 14.0, 50.0):  # the canvas has 120 = 13.3 x 9 pixels
            assert dilate(Mask(pixels), ratio) == Mask.full(12, 10)
        self._check(pixels, (13.2, 13.4, 50.0))

    def test_erosion_down_to_nothing(self):
        pixels = np.zeros((12, 15), dtype=bool)
        pixels[2:10, 3] = pixels[5, 1:14] = True  # a one-pixel-wide cross
        for ratio in (0.001, 0.01):
            out = erode(Mask(pixels), ratio)
            assert out.bbox is None and out.area == 0 and not canvas_pixels(out).any()
        solid = np.zeros((12, 15), dtype=bool)
        solid[1:11, 2:14] = True
        self._check(solid, (0.001, 0.01, 0.05))

    @pytest.mark.parametrize("height,width", [(3, 60), (60, 3), (5, 40)])
    def test_canvas_narrower_than_the_step_bound_square(self, height, width):
        # A target larger than the square of the short side: the bound on the
        # steps comes from the long side.
        pixels = np.zeros((height, width), dtype=bool)
        pixels[height // 2, width // 2] = pixels[0, 0] = True
        self._check(pixels, (2.0, 9.5, 30.0, 70.0, 500.0))

    def test_jump_past_steps_the_canvas_clipped(self):
        # A mask on the left canvas edge with a gap between its rows: jumping
        # many steps at once from a canvas-clipped dilation loses the pixels
        # left of the edge that the later steps grow from.
        pixels = np.zeros((38, 18), dtype=bool)
        pixels[21, 0] = True
        pixels[22:24, 0:2] = True
        pixels[25, 0:2] = True
        self._check(pixels, (51.54214201374159, 20.0, 80.0))


@st.composite
def many_step_mask(draw):
    """A rectangle of up to 48x48 on a canvas up to 6 pixels taller and
    wider, with up to six pixels flipped, so that erosion and dilation take
    many steps."""
    h, w = draw(st.integers(1, 48)), draw(st.integers(1, 48))
    height, width = h + draw(st.integers(0, 6)), w + draw(st.integers(0, 6))
    row, col = draw(st.integers(0, height - h)), draw(st.integers(0, width - w))
    pixels = np.zeros((height, width), dtype=bool)
    pixels[row:row + h, col:col + w] = True
    spots = st.tuples(st.integers(0, height - 1), st.integers(0, width - 1))
    for r, c in draw(st.lists(spots, max_size=6)):
        pixels[r, c] = not pixels[r, c]
    assume(pixels.any())
    return pixels


class TestManyStepMorphology:
    @given(many_step_mask(), st.floats(0.001, 1.0))
    def test_erode(self, pixels, ratio):
        out = canvas_pixels(erode(Mask(pixels), ratio))
        assert np.array_equal(out, iterated_erode(pixels, ratio))

    @given(many_step_mask(), st.floats(1.0, 20.0))
    def test_dilate(self, pixels, ratio):
        out = canvas_pixels(dilate(Mask(pixels), ratio))
        assert np.array_equal(out, iterated_dilate(pixels, ratio))

    @given(st.integers(1, 70), st.integers(1, 70), st.floats(1.0, 6000.0))
    def test_dilation_step_bound_is_the_least_sufficient(self, height, width, target):
        # After k steps a single pixel in a canvas corner covers
        # min(k + 1, height) x min(k + 1, width) pixels, the least any mask
        # can cover.
        need = min(target, height * width)
        corner = Mask.from_rect(width, height, 0, 0, 1, 1)
        least = next(k for k in range(max(height, width))
                     if min(k + 1, height) * min(k + 1, width) >= need)
        assert _most_dilation_steps(corner, target) == least


@st.composite
def small_mask_on_large_canvas(draw):
    """A nonempty mask of at most 4x4 pixels placed anywhere on a canvas of
    up to 40x40, so that dilation pads are clipped on some sides only."""
    height, width = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    h, w = min(height, draw(st.integers(1, 4))), min(width, draw(st.integers(1, 4)))
    row, col = draw(st.integers(0, height - h)), draw(st.integers(0, width - w))
    pixels = np.zeros((height, width), dtype=bool)
    pixels[row:row + h, col:col + w] = draw(pixels_on(h, w, nonempty=True))
    return pixels


class TestDilationWindow:
    @given(small_mask_on_large_canvas(), st.floats(1.0, 60.0))
    def test_matches_iterated_steps(self, pixels, ratio):
        out = canvas_pixels(dilate(Mask(pixels), ratio))
        assert np.array_equal(out, iterated_dilate(pixels, ratio))


def overlapping_pairs(a, b):
    """The (i, j) pairs that ``overlapping_ious`` scores for two mask lists."""
    i, j, _ = overlapping_ious(RunTable(a), RunTable(b))
    return list(zip(i.tolist(), j.tolist()))


class TestOverlappingPairs:
    @given(canvases, st.data())
    def test_matches_dense_all_pairs(self, canvas, data):
        height, width = canvas
        a = [data.draw(pixels_on(height, width)) for _ in range(data.draw(st.integers(0, 4)))]
        b = [data.draw(pixels_on(height, width)) for _ in range(data.draw(st.integers(0, 4)))]

        def boxes_meet(x, y):
            bx, by = dense_bbox(x), dense_bbox(y)
            return (bx is not None and by is not None and bx[0] < by[1] and by[0] < bx[1]
                    and bx[2] < by[3] and by[2] < bx[3])

        i, j, ious = overlapping_ious(RunTable([Mask(x) for x in a]),
                                      RunTable([Mask(y) for y in b]))
        pairs = list(zip(i.tolist(), j.tolist()))
        assert pairs == [(i, j) for i, x in enumerate(a) for j, y in enumerate(b)
                         if boxes_meet(x, y)]
        assert ious.tolist() == [dense_iou(a[i], b[j]) for i, j in pairs]
        # Every pair sharing a pixel is among them.
        assert {(i, j) for i, x in enumerate(a) for j, y in enumerate(b)
                if dense_intersection_area(x, y)} <= set(pairs)

    @pytest.mark.parametrize("row,col,meets", [
        (5, 2, False), (0, 2, False), (2, 5, False), (2, 0, False),  # edge to edge
        (4, 4, True), (1, 1, True), (4, 1, True), (1, 4, True),  # one shared corner pixel
    ])
    def test_boxes_that_only_touch_do_not_pair(self, row, col, meets):
        a, b = rect(8, 8, 2, 2, 3, 3), rect(8, 8, row, col, 2, 2)
        expected = [(0, 0)] if meets else []
        assert overlapping_pairs([a], [b]) == overlapping_pairs([b], [a]) == expected

    def test_rejects_masks_of_another_canvas(self):
        with pytest.raises(MaskError, match="dimension mismatch"):
            overlapping_pairs([rect(8, 8, 0, 0, 2, 2)], [rect(8, 9, 6, 6, 2, 2)])


class TestWindowsMatchDenseArrays:
    """Every windowed operation against the full-canvas arrays it replaces."""

    @given(mask_pixel_sets(1))
    def test_window_holds_the_pixels(self, arrays):
        (arr,) = arrays
        m = Mask(arr)
        assert np.array_equal(canvas_pixels(m), arr)
        assert m.bbox == dense_bbox(arr)
        assert m.area == int(np.count_nonzero(arr))

    @given(mask_pixel_sets(1))
    def test_codec(self, arrays):
        (arr,) = arrays
        height, width = arr.shape
        rle = dense_rle_encode(arr)
        assert rle_encode(Mask(arr)) == rle
        decoded = rle_decode(rle, width, height)
        assert np.array_equal(canvas_pixels(decoded), dense_rle_decode(rle, width, height))
        assert decoded == Mask(arr)
        assert decoded.area == int(np.count_nonzero(arr))

    @given(mask_pixel_sets(2))
    def test_overlaps(self, arrays):
        a, b = arrays
        ma, mb = Mask(a), Mask(b)
        assert intersection_area(ma, mb) == dense_intersection_area(a, b)
        assert iou(ma, mb) == dense_iou(a, b)
        if a.any():
            assert containment(ma, mb) == dense_containment(a, b)

    @given(mask_pixel_sets(3))
    def test_union_and_difference(self, arrays):
        a, b, c = arrays
        union = union_masks([Mask(a), Mask(b), Mask(c)])
        assert np.array_equal(canvas_pixels(union), a | b | c)
        assert union == Mask(a | b | c)
        difference = mask_difference(Mask(a), Mask(b))
        assert np.array_equal(canvas_pixels(difference), a & ~b)
        assert difference == Mask(a & ~b)


class TestFromRect:
    def test_clips_at_far_edges(self):
        m = Mask.from_rect(4, 3, 1, 2, 5, 5)
        expected = np.zeros((3, 4), dtype=bool)
        expected[1:, 2:] = True
        assert np.array_equal(canvas_pixels(m), expected)
        assert m.bbox == (1, 3, 2, 4)

    def test_past_the_canvas_is_empty(self):
        assert Mask.from_rect(4, 3, 3, 0, 2, 2).area == 0

    @pytest.mark.parametrize("row,col,n_rows,n_cols", [
        (-2, 0, 5, 1),  # numpy slicing would have filled rows 1-2
        (0, -1, 1, 3),  # ... and an empty mask here
        (0, 0, 0, 2),
        (0, 0, 2, -1),
    ])
    def test_rejects_negative_offset_or_non_positive_size(self, row, col, n_rows, n_cols):
        with pytest.raises(MaskError):
            Mask.from_rect(4, 3, row, col, n_rows, n_cols)

    @staticmethod
    def _assert_runs_match_pixels(width: int, height: int, row: int, col: int,
                                  n_rows: int, n_cols: int) -> None:
        m = Mask.from_rect(width, height, row, col, n_rows, n_cols)
        pixels = np.zeros((height, width), dtype=bool)
        pixels[row:row + n_rows, col:col + n_cols] = True
        starts, stops = m._runs
        assert starts.dtype == stops.dtype == np.int64
        assert not starts.flags.writeable and not stops.flags.writeable
        assert m.to_rle() == dense_rle_encode(pixels)
        assert m == Mask(pixels) and m.bbox == dense_bbox(pixels)
        assert m.area == int(np.count_nonzero(pixels)) == int((stops - starts).sum())

    @pytest.mark.parametrize("width,height,row,col,n_rows,n_cols", [
        (10, 8, 2, 3, 4, 5),  # inside the canvas
        (10, 8, 5, 7, 9, 9),  # clipped at both far edges
        (10, 8, 0, 3, 8, 4),  # full height: one run over its columns
        (10, 8, 0, 0, 20, 20),  # the whole canvas, clipped
        (10, 8, 4, 6, 1, 1),  # one pixel
        (10, 8, 0, 9, 8, 1),  # one full-height column at the far edge
        (7, 1, 0, 2, 1, 3),  # a height-1 canvas
        (7, 1, 0, 6, 5, 5),  # ... clipped to its last pixel
        (1, 1, 0, 0, 1, 1),
    ])
    def test_runs_equal_those_of_its_pixels(self, width, height, row, col, n_rows, n_cols):
        self._assert_runs_match_pixels(width, height, row, col, n_rows, n_cols)

    @given(st.data())
    def test_runs_equal_those_of_its_pixels_drawn(self, data):
        height, width = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
        row, col = data.draw(st.integers(0, height - 1)), data.draw(st.integers(0, width - 1))
        n_rows = data.draw(st.integers(1, height + 2))
        n_cols = data.draw(st.integers(1, width + 2))
        self._assert_runs_match_pixels(width, height, row, col, n_rows, n_cols)


class TestToRleKeepsItsString:
    @pytest.mark.parametrize("make", [
        lambda: Mask.from_rect(10, 8, 2, 3, 4, 5),
        lambda: Mask.from_rect(10, 8, 0, 3, 8, 4),
        lambda: Mask(np.eye(5, 6, dtype=bool)),
        lambda: Mask(np.zeros((3, 4), dtype=bool)),
        lambda: rle_decode("3 4 2 4 7", 4, 5),
    ], ids=["rect", "full-height rect", "pixels", "empty", "decoded"])
    def test_second_call_returns_the_same_string(self, make):
        m = make()
        first = m.to_rle()
        assert first == rle_encode(m) == rle_encode(make())


class TestSizeBin:
    @pytest.mark.parametrize("area,expected", [
        (1, SizeBin.XS),
        (99, SizeBin.XS),
        (100, SizeBin.S_STAR),
        (1023, SizeBin.S_STAR),
        (1024, SizeBin.M),
        (9215, SizeBin.M),
        (9216, SizeBin.L),
        (20000, SizeBin.L),
    ])
    def test_boundaries(self, area, expected):
        pixels = np.zeros((200, 200), dtype=bool)
        pixels.ravel()[:area] = True
        assert size_bin(Mask(pixels)) is expected

    def test_empty_rejected(self):
        with pytest.raises(MaskError):
            size_bin(Mask(np.zeros((4, 4), dtype=bool)))


def test_intersection_area_matches_dense_and():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a = Mask(rng.random((9, 7)) < 0.5)
        b = Mask(rng.random((9, 7)) < 0.5)
        assert intersection_area(a, b) == int(
            np.count_nonzero(canvas_pixels(a) & canvas_pixels(b)))


# Ways to spoil a canonical RLE string.  Some keep it valid for ``int`` but
# not canonical (tabs, odd spacing, signs, leading zeros, non-ASCII digits,
# long tokens), so the document is read one string at a time; others make
# it invalid.
_SPOILERS = {
    "tab": lambda rle: rle.replace(" ", "\t", 1) if " " in rle else "\t" + rle,
    "double space": lambda rle: rle.replace(" ", "  ", 1),
    "leading space": lambda rle: " " + rle,
    "trailing space": lambda rle: rle + " ",
    "plus": lambda rle: "+" + rle,
    "leading zeros": lambda rle: "007" + rle,
    "arabic digit": lambda rle: rle[:-1] + chr(0x660 + int(rle[-1])),
    "long token": lambda rle: "0" * 20 + rle,
    "empty": lambda rle: "",
    "wrong total": lambda rle: rle + " 1",
    "zero interior run": lambda rle: rle.replace(" ", " 0 ", 1) if " " in rle else rle + " 0",
    "word": lambda rle: rle + " two",
    # Twenty-digit tokens exceed int64; two of them, read as the int64
    # maximum, wrap a 64-bit total back by 2.
    "int64 wrap": lambda rle: f"{'9' * 20} {'9' * 20} {sum(map(int, rle.split())) + 2}",
}


@st.composite
def rle_documents(draw):
    """(rles, width, height): one to five strings on a drawn canvas, most
    of them canonical encodings of drawn masks, some spoiled."""
    if draw(st.integers(0, 9)) == 0:
        height, width = draw(st.sampled_from([(-3, -2), (2, -3), (-1, 0)]))
        base = [draw(st.sampled_from(["0 6", "6", "1 2 3"]))]
    else:
        height, width = draw(canvases)
        base = [dense_rle_encode(draw(pixels_on(height, width)))
                for _ in range(draw(st.integers(1, 5)))]
    spoilers = st.sampled_from([None] * 8 + sorted(_SPOILERS))
    rles = []
    for rle in base:
        spoiler = draw(spoilers)
        rles.append(rle if spoiler is None else _SPOILERS[spoiler](rle))
    return rles, width, height


class TestDocumentDecode:
    """``rle_decode_table`` against ``oracles.checked_rle_decode``, which
    validates one string at a time."""

    @settings(max_examples=400)
    @given(rle_documents())
    def test_matches_string_at_a_time(self, document):
        rles, width, height = document
        expected = []
        for i, rle in enumerate(rles):
            try:
                expected.append(checked_rle_decode(rle, width, height))
            except RleError as exc:
                with pytest.raises(RleError) as raised:
                    rle_decode_table(rles, width, height)
                assert (raised.value.index, str(raised.value)) == (i, str(exc))
                with pytest.raises(RleError) as raised:
                    rle_decode(rle, width, height)
                assert str(raised.value) == str(exc)
                return
        masks = rle_decode_table(rles, width, height).decoded_masks()
        assert len(masks) == len(rles)
        for rle, mask, pixels in zip(rles, masks, expected):
            assert mask == Mask(pixels) == rle_decode(rle, width, height)
            assert mask.area == int(np.count_nonzero(pixels))

    def test_empty_document(self):
        assert rle_decode_table([], 4, 3).decoded_masks() == []

    def test_runs_are_read_only(self):
        # The masks of a document share its run table, so writing into one
        # mask's runs would change the table that scoring joins on.
        table = rle_decode_table(["1 2 3 4 2", "0 4 8"], 4, 3)
        masks = [*table.decoded_masks(), *table.reordered([1, 0]).decoded_masks()]
        for runs in (table.starts, table.stops, *(r for m in masks for r in m._runs)):
            assert runs.size and not runs.flags.writeable

