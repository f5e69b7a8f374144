"""Binary instance masks: RLE codec, overlap geometry, morphology, size bins.

A mask stores its canvas shape, its tight bounding box, its area and its
pixels in one form, its foreground runs as column-major canvas offsets, so
its memory scales with the object, not with the canvas.  A canvas has
fewer than 2**63 pixels, so that every offset fits in int64.  The wire
format is uncompressed COCO-style RLE: pixels are read in column-major
order and encoded as space-separated run lengths, with the first run
counting zeros (possibly 0).  A ``RunTable`` is one list of masks as
columns (bboxes, areas and all their runs end to end, in mask order), and
every mask of a table holds its runs sliced from the table's arrays.  The
codec works on tables: ``rle_decode_table`` decodes the strings of one
document together into a table without making a ``Mask`` (when all strings
are canonical text, ASCII digits separated by single spaces, it reads and
checks their runs in one vectorized pass, and every other document is read
one string at a time with ``int``, accepting whatever ``int`` accepts), and
``rle_encode_table`` encodes the masks of a table in vectorized passes over
groups of a bounded number of runs.  ``rle_decode`` and ``rle_encode`` are
their one-mask cases.

Every overlap is counted on runs, the RLE-domain intersection of the COCO
mask API's ``rleIou``: the pixels of a set of runs below any offset follow
from their cumulative lengths after one ``np.searchsorted`` (``_below``).
``pair_intersections`` counts many pairs of a ``RunTable`` in one
vectorized pass, on join keys that only it builds: each run shifted by
its mask's position times the canvas size (``overlapping_ious`` scores the
bbox-meeting pairs of two tables), and ``intersection_area``, ``iou`` and
``containment`` count one pair.  Union and difference combine runs into runs.  Erosion and dilation
pack a region's columns straight from the runs into one Python int and
keep the 3x3 step count whose area is closest to a target; k steps are an
erosion or dilation by a (2k + 1)-square, the pixels within chessboard
distance k (Rosenfeld and Pfaltz, 1966, 1968), and the count is found by
bisection, each jump an AND or OR of the int shifted by bits and by
columns.  The kept step's bits go straight back to runs.
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import Sequence

import numpy as np

from .errors import MaskError, RleError

# Area thresholds (pixels) of the four mask-size bins.
_XS_UPPER = 10**2
_S_UPPER = 32**2
_M_UPPER = 96**2

Box = tuple[int, int, int, int]
# The (starts, stops) of a mask's foreground runs.
Runs = tuple[np.ndarray, np.ndarray]

# The runs of every empty mask.
_NO_RUNS = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
for _empty in _NO_RUNS:
    _empty.setflags(write=False)


class SizeBin(enum.Enum):
    XS = "XS"
    S_STAR = "S*"
    M = "M"
    L = "L"


class Mask:
    """A binary mask on a fixed ``height`` x ``width`` canvas.

    ``bbox`` is the tight bounding box ``(row0, row1, col0, col1)``,
    half-open, or None for an empty mask, and ``area`` its pixel count.  Its
    pixels are held as runs alone: the half-open ``(start, stop)``
    column-major canvas offsets of its foreground runs, as two read-only
    int64 arrays.  The runs are maximal, so a run that ends at the canvas's
    bottom row and resumes at the top of the next column is one run, and
    equal pixels are equal runs.  A mask holds no other form of its pixels:
    ``to_rle`` encodes it on each call.  A mask pickles as its runs.  Do
    not mutate a mask after construction.
    """

    __slots__ = ("height", "width", "bbox", "area", "_runs")

    def __init__(self, pixels: np.ndarray) -> None:
        """Mask of a full-canvas (height, width) boolean array."""
        arr = np.asarray(pixels, dtype=bool)
        if arr.ndim != 2:
            raise MaskError(f"mask must be 2-D, got shape {arr.shape}")
        # The pixels in column-major order between two False ones, so that
        # every run starts and stops at a change.
        scan = np.zeros(arr.size + 2, dtype=bool)
        scan[1:-1] = arr.ravel(order="F")
        bounds = np.flatnonzero(scan[1:] != scan[:-1])
        made = _from_runs(*arr.shape, bounds[0::2], bounds[1::2])
        for name in Mask.__slots__:
            setattr(self, name, getattr(made, name))

    @classmethod
    def _of(cls, height: int, width: int, bbox: Box | None, area: int, runs: Runs) -> "Mask":
        """Mask of read-only maximal runs whose bbox and area are known."""
        mask = cls.__new__(cls)
        mask.height, mask.width, mask.bbox, mask.area = height, width, bbox, area
        mask._runs = runs
        return mask

    def __reduce__(self):
        return _from_runs, (self.height, self.width, *self._runs)

    def to_rle(self) -> str:
        """The mask's ``rle_encode`` string."""
        return rle_encode(self)

    @classmethod
    def from_rect(cls, width: int, height: int, row: int, col: int,
                  n_rows: int, n_cols: int) -> "Mask":
        """Solid axis-aligned rectangle, clipped at the canvas's far edges:
        one run per column, or one run in all when it spans the canvas
        height."""
        if row < 0 or col < 0:
            raise MaskError(f"rectangle offset must be non-negative, got ({row}, {col})")
        if n_rows < 1 or n_cols < 1:
            raise MaskError(f"rectangle size must be positive, got {n_rows}x{n_cols}")
        r1, c1 = min(row + n_rows, height), min(col + n_cols, width)
        if row >= r1 or col >= c1:
            return cls._of(height, width, None, 0, _NO_RUNS)
        if r1 - row == height:
            starts = np.array([col * height], dtype=np.int64)
            stops = np.array([c1 * height], dtype=np.int64)
        else:
            starts = np.arange(col * height + row, c1 * height, height, dtype=np.int64)
            stops = starts + (r1 - row)
        starts.setflags(write=False)
        stops.setflags(write=False)
        return cls._of(height, width, (row, r1, col, c1), (r1 - row) * (c1 - col),
                       (starts, stops))

    @classmethod
    def full(cls, width: int, height: int) -> "Mask":
        return cls.from_rect(width, height, 0, 0, height, width)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mask):
            return NotImplemented
        return (self.height, self.width, self.bbox) == (
            other.height, other.width, other.bbox) and all(
            np.array_equal(x, y) for x, y in zip(self._runs, other._runs))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Mask({self.width}x{self.height}, area={self.area})"


def _runs_window(m: Mask) -> np.ndarray:
    """The pixels of a nonempty mask inside its bbox, transposed (row j of
    the C-contiguous boolean array is column j of the bbox), filled from its
    runs by a +1/-1 difference array over its bbox in column-major order and
    a cumulative sum.  A run crosses a column only when the bbox spans the
    canvas height, so a run's bbox offsets are its canvas offsets less one
    shift taken at its start."""
    starts, stops = m._runs
    r0, r1, c0, c1 = m.bbox
    h = r1 - r0
    shift = starts // m.height * (m.height - h) + (c0 * h + r0)
    cells = np.zeros((c1 - c0) * h + 1, dtype=np.int8)
    cells[starts - shift] = 1
    cells[stops - shift] -= 1
    np.add.accumulate(cells, out=cells)
    return cells[:-1].view(bool).reshape(c1 - c0, h)


def rle_encode(mask: Mask) -> str:
    """Encode a mask as canonical uncompressed RLE over its canvas: the
    one-mask case of ``rle_encode_table``."""
    return rle_encode_table(RunTable([mask]))[0]


def rle_encode_table(t: RunTable) -> list[str]:
    """The canonical uncompressed RLE string of every mask of a table, in
    order.  The masks are encoded in groups, each in one vectorized pass
    (``_encoded``): a group is the masks whose first runs lie in one block
    of 4096 of the table's runs, which bounds the pass's temporaries."""
    first = np.cumsum(t.counts) - t.counts
    cut = np.flatnonzero(np.diff(first // 4096, prepend=-1)).tolist() + [t.counts.size]
    edge = first.tolist() + [t.starts.size]
    return [rle for a, b in zip(cut, cut[1:]) for rle in _encoded(
        t.size, t.starts[edge[a]:edge[b]], t.stops[edge[a]:edge[b]], t.counts[a:b])]


def _encoded(size: int, starts: np.ndarray, stops: np.ndarray, counts: np.ndarray) -> list[str]:
    """The RLE strings of one or more masks on a canvas of ``size`` pixels,
    whose runs, ``counts[i]`` of them for mask i, lie end to end in
    ``starts`` and ``stops``.

    Mask i's tokens are the gap before each of its runs and the run's
    length, then the pixels after its last run, which are left out when
    they are 0 unless they are its only token.  All tokens are written by
    one ``%``-format whose template ends each mask's tokens with a
    newline."""
    ends = np.cumsum(counts)
    ran = np.flatnonzero(counts)
    first = (ends - counts)[ran]
    # Each run's gap from the stop before it, from 0 for a mask's first run,
    # and its length.
    tokens = np.diff(np.column_stack((starts, stops)).ravel(), prepend=0)
    tokens[2 * first] = starts[first]
    tail = np.full(counts.size, size, dtype=np.int64)
    tail[ran] -= stops[ends[ran] - 1]
    kept = (tail > 0) | (counts == 0)
    tokens = np.insert(tokens, 2 * ends[kept], tail[kept])
    template = "\n".join(["%d" + " %d" * (2 * c - (not k))
                          for c, k in zip(counts.tolist(), kept.tolist())])
    return (template % tuple(tokens.tolist())).split("\n")


def rle_decode(rle: str, width: int, height: int) -> Mask:
    """Decode one uncompressed RLE string into a mask on a (height, width)
    canvas: the one-string case of ``rle_decode_table``.  A canonical string
    (ASCII digits separated by single spaces) takes the vectorized pass;
    any other, e.g. with tabs, ``+3`` or non-ASCII digits, is read with
    ``int`` and accepted if ``int`` accepts its tokens."""
    return rle_decode_table([rle], width, height).decoded_masks()[0]


def rle_decode_table(rles: Sequence[str], width: int, height: int) -> RunTable:
    """Decode the RLE strings of one document, all on a (height, width)
    canvas, into the ``RunTable`` of their masks in the same order, without
    making a ``Mask``.

    When every string is canonical text (ASCII digits separated by single
    spaces) and the canvas has fewer than 2**31 pixels, the runs of all
    strings are read and checked in one vectorized pass.  Every other
    document (tabs, ``+3``, non-ASCII digits, a bad run) is read one string
    at a time with ``int``, which accepts what Python's ``int`` accepts.
    Either way the checks are the same: canvas sides are non-negative, every
    run after the first is at least 1, and a string's runs sum to
    width * height.  The ``RleError`` raised is that of the first bad
    string, and its ``index`` attribute is that string's position.  A
    canvas of 2**63 pixels or more, whose offsets int64 cannot hold, fails
    every string.
    """
    if not rles:
        return _decoded(height, width, *_NO_RUNS, np.zeros(0, dtype=np.int64))
    counts = [s.count(" ") + 1 for s in rles]
    runs = _canonical_runs(rles, counts, width, height)
    if runs is None:
        parsed = []
        for i, rle in enumerate(rles):
            try:
                parsed.append(_parse_runs(rle, width, height))
            except RleError as exc:
                exc.index = i
                raise
        counts = [len(r) for r in parsed]
        ends = np.array([e for rs in parsed for e in itertools.accumulate(rs)], dtype=np.int64)
    else:
        ends = np.cumsum(runs)
    # A string's runs alternate background and foreground: its foreground
    # runs are its odd-numbered ones.
    lengths = np.array(counts)
    owner, k = _spread(lengths // 2)
    fg = (np.cumsum(lengths) - lengths)[owner] + 2 * k + 1
    # Canonical strings are summed as one: string i covers pixels
    # [i * size, (i + 1) * size) of their concatenation.
    shift = 0 if runs is None else owner * (width * height)
    return _decoded(height, width, ends[fg - 1] - shift, ends[fg] - shift, lengths // 2)


def _canonical_runs(rles: Sequence[str], counts: list[int], width: int,
                    height: int) -> np.ndarray | None:
    """The runs of all strings, concatenated, if the strings are canonical
    text holding valid runs on a canvas of fewer than 2**31 pixels (so no
    sum overflows); None otherwise.  ``counts[i]`` is one more than the
    number of spaces in string i: its run count if it is canonical."""
    size = width * height
    if width < 0 or height < 0 or size >= 2**31:
        return None
    text = " ".join(rles)
    if not (text.isascii() and text[:1].isdigit() and text[-1:].isdigit()
            and "  " not in text
            and not text.encode().translate(None, _CANONICAL_BYTES)):
        return None
    runs = np.fromstring(text, dtype=np.int64, sep=" ")
    del text
    firsts = np.cumsum(counts) - counts
    # Runs are not negative, as the text has no sign.  A token past int64
    # reads as its maximum (``fromstring`` saturates like C's strtoll),
    # which exceeds ``size``.
    if (runs.max() > size
            or np.count_nonzero(runs == 0) > np.count_nonzero(runs[firsts] == 0)
            or np.any(np.add.reduceat(runs, firsts) != size)):
        return None
    return runs


# Bytes a canonical RLE document consists of.
_CANONICAL_BYTES = b"0123456789 "


def _parse_runs(rle: str, width: int, height: int) -> list[int]:
    """Run lengths of one RLE string, read with ``int``; raises the
    ``RleError`` of its first fault."""
    if width < 0 or height < 0:
        raise RleError(f"canvas size must not be negative, got {width}x{height}")
    if width * height >= 2**63:
        raise RleError(f"canvas {width}x{height} has 2**63 pixels or more")
    tokens = rle.split()
    if not tokens:
        raise RleError("empty RLE string")
    try:
        runs = [int(t) for t in tokens]
    except ValueError as exc:
        raise RleError(f"non-integer run length in RLE: {exc}") from exc
    if runs[0] < 0:
        raise RleError("negative leading run length")
    if min(runs[1:], default=1) < 1:
        raise RleError("zero or negative run length after the first run")
    total = sum(runs)
    if total != width * height:
        raise RleError(
            f"RLE covers {total} pixels, canvas has {width * height}")
    return runs


def _spread(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For groups of the given lengths laid end to end: each element's group
    and its index within the group."""
    group = np.repeat(np.arange(lengths.size), lengths)
    return group, np.arange(group.size) - (np.cumsum(lengths) - lengths)[group]


def _from_runs(height: int, width: int, starts: np.ndarray, stops: np.ndarray) -> Mask:
    """The mask of maximal runs on a (height, width) canvas, with its bbox
    and area reduced over them."""
    if not starts.size:
        return Mask._of(height, width, None, 0, _NO_RUNS)
    starts.setflags(write=False)
    stops.setflags(write=False)
    top, bottom = _rows(height, starts, stops)
    return Mask._of(height, width, (int(top.min()), int(bottom.max()), int(starts[0]) // height,
                                    (int(stops[-1]) - 1) // height + 1),
                    int((stops - starts).sum()), (starts, stops))


def _rows(height: int, starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows each run covers, half-open: all of them if it crosses a
    column boundary."""
    top = starts % height
    bottom = top + (stops - starts)
    return np.where(bottom > height, 0, top), np.minimum(bottom, height)


def _decoded(height: int, width: int, starts: np.ndarray, stops: np.ndarray,
             counts: np.ndarray) -> RunTable:
    """The table of masks whose foreground runs, ``counts[i]`` of them for
    mask i, are concatenated in ``starts`` and ``stops``, each mask's bbox
    (``_rows``) and area reduced over its runs."""
    boxes = np.zeros((counts.size, 4), dtype=np.int64)
    areas = np.zeros(counts.size, dtype=np.int64)
    if starts.size:
        top, bottom = _rows(height, starts, stops)
        runs_of = np.flatnonzero(counts)
        first = (np.cumsum(counts) - counts)[runs_of]
        boxes[runs_of, 0] = np.minimum.reduceat(top, first)
        boxes[runs_of, 1] = np.maximum.reduceat(bottom, first)
        boxes[runs_of, 2] = starts[first] // height
        boxes[runs_of, 3] = (stops[first + counts[runs_of] - 1] - 1) // height + 1
        areas[runs_of] = np.add.reduceat(stops - starts, first)
    return RunTable._columns(height, width, boxes, areas, starts, stops, counts)


def _require_same_canvas(a: Mask | RunTable, b: Mask | RunTable) -> None:
    if (a.height, a.width) != (b.height, b.width):
        raise MaskError(
            f"mask dimension mismatch: {a.width}x{a.height} vs {b.width}x{b.height}")


def _require_one_canvas(masks: Sequence[Mask]) -> None:
    if len({(m.height, m.width) for m in masks}) > 1:
        for m in masks[1:]:
            _require_same_canvas(masks[0], m)


def _overlap(a: Box | None, b: Box | None) -> Box | None:
    if a is None or b is None:
        return None
    r0, r1 = max(a[0], b[0]), min(a[1], b[1])
    c0, c1 = max(a[2], b[2]), min(a[3], b[3])
    return (r0, r1, c0, c1) if r0 < r1 and c0 < c1 else None


def _boxes(masks: Sequence[Mask]) -> np.ndarray:
    """The masks' bboxes as an (n, 4) array; an empty mask's box (0, 0, 0, 0)
    overlaps no box."""
    return np.array([m.bbox or (0, 0, 0, 0) for m in masks], dtype=np.int64).reshape(-1, 4)


def boxes_meet(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Whether boxes ``ra`` and ``rb`` overlap, broadcast over their leading
    axes; a box is ``(row0, row1, col0, col1)``, half-open, on the last
    axis.  ``boxes_meet(ra[:, None], rb)`` is the matrix of all pairs."""
    return ((ra[..., 0] < rb[..., 1]) & (rb[..., 0] < ra[..., 1])
            & (ra[..., 2] < rb[..., 3]) & (rb[..., 2] < ra[..., 3]))


# Join keys stay below this, so that no int64 sum of two of them overflows.
_KEY_LIMIT = 2**62


def _prefix(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``lead`` and ``before`` of sorted disjoint runs, as ``_below`` reads
    them: ``before[k]`` counts the pixels of runs 0 to k - 1, and
    ``lead[k]`` is ``before[k - 1]`` less the start of run k - 1 (both 0 for
    k = 0)."""
    before = np.zeros(starts.size + 1, dtype=np.int64)
    np.cumsum(stops - starts, out=before[1:])
    lead = np.zeros_like(before)
    lead[1:] = before[:-1] - starts
    return lead, before


def _below(starts: np.ndarray, lead: np.ndarray, before: np.ndarray,
           y: np.ndarray) -> np.ndarray:
    """The pixels of sorted disjoint runs (``_prefix``) below each offset of
    ``y``: ``min(y + lead[k], before[k])``, with k the number of runs
    starting at or before it."""
    k = np.searchsorted(starts, y, side="right")
    return np.minimum(y + lead[k], before[k])


class RunTable:
    """The masks of one list on one canvas as columns, kept for scoring many
    pairs of them at once (``pair_intersections``) and for encoding them
    (``rle_encode_table``).

    ``boxes`` and ``areas`` are the masks' bboxes (as ``_boxes``) and areas.
    ``starts`` and ``stops`` hold the masks' runs as canvas offsets in mask
    order: mask m's ``counts[m]`` runs follow those of masks 0 to m - 1, and
    the table holds no other run.  Every table makes its masks when they
    are first read (``decoded_masks``), each holding its runs sliced from
    those arrays: ``RunTable(masks)`` copies the given masks' runs end to
    end, a reordered table gathers its masks' runs, and a joined table
    copies both sources' runs.  Only ``pair_intersections`` shifts runs by
    multiples of the canvas size, into join keys.
    """

    __slots__ = ("_masks", "height", "width", "size", "boxes", "areas", "starts", "stops",
                 "counts")

    def __init__(self, masks: Sequence[Mask]) -> None:
        _require_one_canvas(masks)
        height, width = (masks[0].height, masks[0].width) if masks else (0, 0)
        starts, stops = (np.concatenate([m._runs[k] for m in masks] or [_NO_RUNS[k]])
                         for k in (0, 1))
        self._set(height, width, _boxes(masks), np.array([m.area for m in masks], dtype=np.int64),
                  starts, stops, np.array([m._runs[0].size for m in masks], dtype=np.int64))

    def _set(self, height: int, width: int, boxes: np.ndarray, areas: np.ndarray,
             starts: np.ndarray, stops: np.ndarray, counts: np.ndarray) -> "RunTable":
        starts.setflags(write=False)
        stops.setflags(write=False)
        self.height, self.width, self.size = height, width, height * width
        self.boxes, self.areas, self.starts, self.stops, self.counts = (
            boxes, areas, starts, stops, counts)
        self._masks = None
        return self

    @classmethod
    def _columns(cls, *columns) -> "RunTable":
        """The table of the given columns, as ``_set`` takes them, with no
        masks made yet."""
        return cls.__new__(cls)._set(*columns)

    @property
    def masks(self) -> list[Mask]:
        """The table's masks, as ``decoded_masks`` makes them."""
        return self.decoded_masks()

    def joined(self, other: "RunTable") -> "RunTable":
        """The table of this list's masks followed by ``other``'s, both
        tables' runs copied end to end."""
        canvas = self if self.size else other
        return RunTable._columns(canvas.height, canvas.width, *(
            np.concatenate((getattr(self, name), getattr(other, name)))
            for name in ("boxes", "areas", "starts", "stops", "counts")))

    def reordered(self, order: Sequence[int]) -> "RunTable":
        """The table of masks ``order[0]``, ``order[1]``, ... of this table,
        their runs gathered in that order."""
        order = np.asarray(order, dtype=np.int64)
        counts = self.counts[order]
        owner, k = _spread(counts)
        run = (np.cumsum(self.counts) - self.counts)[order][owner] + k
        return RunTable._columns(self.height, self.width, self.boxes[order], self.areas[order],
                                 self.starts[run], self.stops[run], counts)

    def decoded_masks(self) -> list[Mask]:
        """The table's masks, made on the first call and kept: each holds
        its bbox, area and runs, slices of the table's arrays."""
        if self._masks is None:
            h, w, starts, stops = self.height, self.width, self.starts, self.stops
            # Masks are immutable, so the empty ones can be one object.
            empty = Mask._of(h, w, None, 0, _NO_RUNS)
            self._masks = [
                Mask._of(h, w, box, area, (starts[e - c:e], stops[e - c:e])) if area else empty
                for box, area, e, c in zip(zip(*self.boxes.T.tolist()), self.areas.tolist(),
                                           np.cumsum(self.counts).tolist(),
                                           self.counts.tolist())]
        return self._masks


def _join_keys(t: RunTable) -> tuple[np.ndarray, ...]:
    """``starts`` and ``stops`` of the table's runs, mask m's shifted by m
    canvas sizes so that they form one sorted list, with their ``lead`` and
    ``before`` (``_prefix``) and the position of each mask's first run
    among them."""
    shift = np.repeat(np.arange(t.counts.size) * t.size, t.counts)
    starts, stops = t.starts + shift, t.stops + shift
    return starts, stops, *_prefix(starts, stops), np.cumsum(t.counts) - t.counts


def pair_intersections(t: RunTable, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Pixel counts of masks ``i[k]`` AND ``j[k]`` of ``t`` for every k, as
    exact int64; the paired masks must be nonempty.

    The pairs are joined on the table's keys (``_join_keys``), built for
    each call: for each pair, the runs of the mask with fewer runs that meet
    the other mask's span are moved into the other mask's canvas of the
    keys; each adds the pixels below its stop less those below its start
    (``_below``), and ``np.add.reduceat`` sums them per pair.
    This is the run-length intersection of the COCO mask API's ``rleIou``,
    done for all pairs of an image at once.  Keys of n masks reach n canvas
    sizes, so when that is 2**62 or more, which an int64 sum of two keys
    could not hold, the pairs are intersected one at a time
    (``intersection_area``).
    """
    if i.size == 0:
        return np.zeros(0, dtype=np.int64)
    if t.areas.size * t.size >= _KEY_LIMIT:
        masks = t.decoded_masks()
        return np.array([_intersection(masks[x], masks[y])
                         for x, y in zip(i.tolist(), j.tolist())], dtype=np.int64)
    starts, stops, lead, before, first = _join_keys(t)
    counts = t.counts
    # q is each pair's mask with fewer runs and o the other; d moves q's
    # runs into o's canvas of the keys.  Of q's runs, those that meet o's
    # span, from its first start to its last stop, are looked up.
    q = np.where(counts[i] > counts[j], j, i)
    o = i + j - q
    d = (o - q) * t.size
    first_o = first[o]
    lo = np.searchsorted(stops, starts[first_o] - d, side="right")
    n = np.searchsorted(starts, stops[first_o + counts[o] - 1] - d) - lo
    offset = np.cumsum(n) - n
    run = np.arange(offset[-1] + n[-1]) + np.repeat(lo - offset, n)
    shift = np.repeat(d, n)
    covered = _below(starts, lead, before,
                     np.concatenate((starts[run] + shift, stops[run] + shift)))
    out = np.zeros(i.size, dtype=np.int64)
    met = np.flatnonzero(n)
    if met.size:
        out[met] = np.add.reduceat(covered[run.size:] - covered[:run.size], offset[met])
    return out


def pair_ious(t: RunTable, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """IoU of masks ``i[k]`` and ``j[k]`` of ``t`` for every k, as ``iou``
    gives it: the exact intersection over the union, correctly rounded."""
    inter = pair_intersections(t, i, j)
    union = t.areas[i] + t.areas[j] - inter
    if t.size >= 2**53:  # float64 holds every union exactly only below this
        return np.array([x / u for x, u in zip(inter.tolist(), union.tolist())])
    return inter / union


def overlapping_ious(a: RunTable, b: RunTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs (i, j), in row-major order, of masks ``i`` of ``a`` and
    ``j`` of ``b`` whose bboxes overlap (the only pairs that can share a
    pixel), with their IoUs as ``pair_ious`` gives them, all scored in one
    call on the joined table.  Empty masks never pair.  Two tables that
    both hold masks must be on one canvas."""
    if a.areas.size and b.areas.size:
        _require_same_canvas(a, b)
    i, j = np.nonzero(boxes_meet(a.boxes[:, None], b.boxes))
    return i, j, pair_ious(a.joined(b), i, j + a.areas.size)


def _intersection(a: Mask, b: Mask) -> int:
    """Pixel count of a AND b, the caller having checked that the canvases
    match: each run of a adds b's pixels below its stop less those below
    its start (``_below``)."""
    if _overlap(a.bbox, b.bbox) is None:
        return 0
    starts, stops = b._runs
    covered = _below(starts, *_prefix(starts, stops), np.concatenate(a._runs))
    n = a._runs[0].size
    return int((covered[n:] - covered[:n]).sum())


def intersection_area(a: Mask, b: Mask) -> int:
    """Pixel count of a AND b."""
    _require_same_canvas(a, b)
    return _intersection(a, b)


def iou(a: Mask, b: Mask) -> float:
    """Intersection over union in [0, 1].

    Two empty masks give 0 by convention (avoids 0/0; valid tree nodes never
    carry empty masks anyway).
    """
    if a.height != b.height or a.width != b.width:
        _require_same_canvas(a, b)
    inter = _intersection(a, b)
    if inter == 0:
        return 0.0
    return inter / (a.area + b.area - inter)


def containment(child: Mask, parent: Mask) -> float:
    """Fraction of the child mask covered by the parent mask."""
    _require_same_canvas(child, parent)
    if child.area == 0:
        raise MaskError("containment undefined for an empty child mask")
    return _intersection(child, parent) / child.area


def _holding(starts: np.ndarray, stops: np.ndarray, x: np.ndarray) -> np.ndarray:
    """How many of the runs, their starts and their stops each sorted, hold
    each offset of ``x``."""
    return np.searchsorted(starts, x, side="right") - np.searchsorted(stops, x, side="right")


def _kept(m: Mask, bounds: np.ndarray, kept: np.ndarray) -> Mask:
    """The mask on ``m``'s canvas of the pixels from ``bounds[k]`` to
    ``bounds[k + 1]`` for each k with ``kept[k]``; the last k is never kept.
    Its runs start and stop where ``kept`` changes, so they are maximal."""
    change = bounds[np.flatnonzero(np.diff(kept, prepend=False))]
    return _from_runs(m.height, m.width, change[0::2], change[1::2])


def union_masks(masks: Sequence[Mask]) -> Mask:
    """Pixel-wise union of one or more masks on a shared canvas, merged from
    their runs."""
    if not masks:
        raise MaskError("union of an empty mask list")
    _require_one_canvas(masks)
    starts, stops = (np.sort(np.concatenate([m._runs[k] for m in masks])) for k in (0, 1))
    bounds = np.union1d(starts, stops)
    return _kept(masks[0], bounds, _holding(starts, stops, bounds) > 0)


def mask_difference(a: Mask, b: Mask) -> Mask:
    """Pixels of a not covered by b: b's runs subtracted from a's."""
    _require_same_canvas(a, b)
    if _overlap(a.bbox, b.bbox) is None:
        return a
    bounds = np.union1d(np.concatenate(a._runs), np.concatenate(b._runs))
    return _kept(a, bounds, (_holding(*a._runs, bounds) > 0) & (_holding(*b._runs, bounds) == 0))


def _grown(m: Mask, k: int) -> Box:
    """``m``'s bbox grown by ``k`` pixels per side, clipped to the canvas:
    the tight bbox of ``m`` after k dilation steps."""
    r0, r1, c0, c1 = m.bbox
    return max(r0 - k, 0), min(r1 + k, m.height), max(c0 - k, 0), min(c1 + k, m.width)


def _most_dilation_steps(m: Mask, target: float) -> int:
    """The most steps a dilation of ``m`` toward ``target`` can take.  After
    k steps a nonempty mask covers at least a (k + 1)-square clipped to the
    canvas, so it is the smallest k with
    min(k + 1, height) * min(k + 1, width) >= min(target, height * width)."""
    need = math.ceil(min(target, m.height * m.width))
    short = min(m.height, m.width)
    side = math.isqrt(need)
    side += side * side < need
    if side > short:
        side = -(-need // short)
    return side - 1


def _steps_toward(m: Mask, target: float, grow: bool) -> Mask:
    """Erode or dilate ``m`` by the fewest 3x3 steps after which its area
    has passed ``target``, or by one step fewer if that is closer (ties to
    the later step).  A dilation that reaches full-canvas coverage stops
    there.

    A 3x3 square is symmetric, so the steps work on the region's transpose:
    the region is packed into one int column by column from bit 0, straight
    from the runs, each column in whole bytes and followed by at least
    ``guard`` zero bits.  The region is the bbox for an erosion, as
    off-window pixels are off-mask, and for a dilation the bbox grown by the
    most steps it can take, clipped to the canvas.  The result of a + r
    steps for r <= a + 1 is the AND (erosion) or OR (dilation) of the result
    of a steps shifted by -r, 0 and r bits, then by -r, 0 and r columns.  So
    the step count is found by bisection between 0 and the most steps, with
    each jump r at most a + 1.  An erosion needs one guard bit, as any run
    of bits that crosses columns holds a zero; a dilation's guard is as wide
    as its longest jump, and it clears what it spilled into the guard or
    past the region.  Only the kept step is turned back into runs: its bits
    XOR themselves shifted by one bit mark where its runs start and stop,
    and its bbox is read from those edges.  A run that stops at the bottom
    of a full-height column and one that starts at the top of the next are
    one run."""
    cap = min(target, m.height * m.width)
    if grow and m.area >= cap:
        return m
    r0, r1, c0, c1 = m.bbox
    if grow:
        most = _most_dilation_steps(m, target)
        box, guard = _grown(m, most), (most + 1) // 2
    else:
        most = (min(r1 - r0, c1 - c0) + 1) // 2  # erodes the bbox away
        box, guard = m.bbox, 1
    rows, cols = box[1] - box[0], box[3] - box[2]
    col_bytes = (rows + guard + 7) // 8
    stride = 8 * col_bytes
    packed = np.zeros((c1 - c0, col_bytes), dtype=np.uint8)
    packed[:, :(r1 - r0 + 7) // 8] = np.packbits(_runs_window(m), axis=1, bitorder="little")
    bits = int.from_bytes(packed, "little") << (c0 - box[2]) * stride + r0 - box[0]
    clip = int.from_bytes(((1 << rows) - 1).to_bytes(col_bytes, "little") * cols,
                          "little") if grow else 0
    # Steps lo leave the area short of the target; steps hi pass it.
    lo, lo_bits, lo_area = 0, bits, m.area
    hi, hi_bits, hi_area = most, None, 0
    while hi_bits is None or hi - lo > 1:
        r = min((hi - lo + 1) // 2, lo + 1)
        if grow:
            bits = lo_bits | lo_bits << r | lo_bits >> r
            bits = (bits | bits << r * stride | bits >> r * stride) & clip
        else:
            bits = lo_bits & lo_bits << r & lo_bits >> r
            bits &= bits << r * stride & bits >> r * stride
        area = bits.bit_count()
        if area >= cap if grow else area <= target:
            hi, hi_bits, hi_area = lo + r, bits, area
        else:
            lo, lo_bits, lo_area = lo + r, bits, area
    k, bits, area = hi, hi_bits, hi_area
    if abs(area - target) > abs(lo_area - target):
        k, bits, area = lo, lo_bits, lo_area
        if not k:
            return m
    if not bits:
        return Mask._of(m.height, m.width, None, 0, _NO_RUNS)
    changed = np.frombuffer((bits ^ bits << 1).to_bytes(cols * col_bytes, "little"),
                            dtype=np.uint8)
    edges = np.unpackbits(changed, bitorder="little").view(bool).nonzero()[0]
    col, row = np.divmod(edges, stride)
    bbox = (box[0] + int(row[0::2].min()), box[0] + int(row[1::2].max()),
            box[2] + int(col[0]), box[2] + int(col[-1]) + 1)
    bounds = edges + col * (m.height - stride) + (box[2] * m.height + box[0])
    starts, stops = bounds[0::2], bounds[1::2]
    if rows == m.height:  # a run that stops at a column's bottom may go on
        apart = starts[1:] != stops[:-1]
        starts, stops = starts[np.append(True, apart)], stops[np.append(apart, True)]
    starts.setflags(write=False)
    stops.setflags(write=False)
    return Mask._of(m.height, m.width, bbox, area, (starts, stops))


def erode(m: Mask, target_keep_ratio: float) -> Mask:
    """Iterated 3x3 erosion until the kept-area fraction brackets the target.

    Of the two bracketing iteration counts, the closer one wins; exact ties go
    to the more eroded side.  The result may be empty for small inputs.
    """
    if not 0.0 < target_keep_ratio <= 1.0:
        raise MaskError(f"keep ratio must be in (0, 1], got {target_keep_ratio}")
    if m.area == 0:
        raise MaskError("cannot erode an empty mask")
    if target_keep_ratio == 1.0:
        return m
    return _steps_toward(m, target_keep_ratio * m.area, grow=False)


def dilate(m: Mask, target_grow_to_ratio: float) -> Mask:
    """Iterated 3x3 dilation (clipped to the canvas) toward an area ratio >= 1.

    Stops at the step bracketing the target area; ties go to the grown side.
    A mask that cannot grow further (already canvas-maximal) is returned as is,
    and one that reaches full coverage short of the target stops there.  The
    steps work on the bbox grown by the most steps the target allows,
    clipped to the canvas, never on the whole canvas unless that box covers
    it.
    """
    if not target_grow_to_ratio >= 1.0:
        raise MaskError(
            f"grow ratio must be >= 1, got {target_grow_to_ratio}")
    if m.area == 0:
        raise MaskError("cannot dilate an empty mask")
    if target_grow_to_ratio == 1.0:
        return m
    return _steps_toward(m, target_grow_to_ratio * m.area, grow=True)


def size_bin(m: Mask) -> SizeBin:
    """Classify a nonempty mask by pixel area into XS / S* / M / L."""
    return area_bin(m.area)


def area_bin(a: int) -> SizeBin:
    """The size bin of a nonempty mask of ``a`` pixels."""
    if a == 0:
        raise MaskError("size bin undefined for an empty mask")
    if a < _XS_UPPER:
        return SizeBin.XS
    if a < _S_UPPER:
        return SizeBin.S_STAR
    if a < _M_UPPER:
        return SizeBin.M
    return SizeBin.L
