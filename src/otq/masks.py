"""Binary instance masks: RLE codec, overlap geometry, morphology, size bins.

A mask stores its canvas shape, its tight bounding box and its pixels in
one or both of two forms, so its memory scales with the object, not with
the canvas: its foreground runs, and a read-only boolean window of the
bounding box's size.  The wire format is uncompressed COCO-style RLE:
pixels are read in column-major order and encoded as space-separated run
lengths, with the first run counting zeros (possibly 0).
``rle_decode_table`` decodes the strings of one document together into a
``RunTable``, the document's masks as columns (bboxes, areas and all their
runs end to end), without making a ``Mask``: when all strings are
canonical text (ASCII digits separated by single spaces) it reads and
checks their runs in one vectorized pass, and every other document is read
one string at a time with ``int``, accepting whatever ``int`` accepts.
``RunTable.decoded_masks`` (and ``rle_decode_all``) makes the masks, each
holding its bbox, area and runs; a decoded mask that needs a window
(morphology, union, difference, ``intersection_area``, ``iou``,
``containment``) fills its own from its runs the first time.  A mask made
from pixels holds its window and derives its runs the first time they are
needed (encoding, equality, scoring next to decoded masks); a rectangle
(``from_rect``) holds both forms from the start, one run per column, or one
run in all when it spans the canvas height.  ``Mask.to_rle`` keeps the
string it encodes, as masks are immutable: a tree that shares another's
masks, such as a structural degradation of it, serializes with no encoding,
and ``rle_encode`` stays the only encoder.  Scoring reads
many mask pairs of a tree at once through a ``RunTable``:
``overlapping_ious`` scores the bbox-meeting pairs of two tables, and
``pair_intersections`` joins their runs in one vectorized pass, the
RLE-domain intersection of the COCO mask API's ``rleIou``, so scoring
decoded masks builds no window; pairs of masks that all hold windows are
intersected on them.  Erosion and dilation pack a region's rows into one
Python int and keep the 3x3 step count whose area is closest to a target;
k steps are an erosion or dilation by a (2k + 1)-square, the pixels within
chessboard distance k (Rosenfeld and Pfaltz, 1966, 1968), and the count is
found by bisection, each jump an AND or OR of the int shifted by bits and
by rows.
"""

from __future__ import annotations

import enum
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

# The window and the runs of every empty mask.
_NO_PIXELS = np.zeros((0, 0), dtype=bool)
_NO_PIXELS.setflags(write=False)
_NO_RUNS = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


class SizeBin(enum.Enum):
    XS = "XS"
    S_STAR = "S*"
    M = "M"
    L = "L"


class Mask:
    """A binary mask on a fixed ``height`` x ``width`` canvas.

    ``bbox`` is the tight bounding box ``(row0, row1, col0, col1)``,
    half-open, or None for an empty mask.  A mask holds one or both of two
    forms of its pixels.  Its runs are the half-open ``(start, stop)``
    column-major canvas offsets of its foreground runs, as two int64 arrays.
    Its ``window`` holds the pixels inside ``bbox`` as a C-contiguous
    read-only array (shape (0, 0) when empty), also after a pickle round
    trip.  A decoded mask holds its bbox, area and runs, and fills its
    window from its runs the first time it needs one.  A mask made from
    pixels (``Mask(pixels)``, morphology, union, difference) holds its
    window and derives its runs the first time they are needed; a rectangle
    (``from_rect``) holds both from the start.  ``to_rle`` encodes a mask
    once and keeps the string.  A mask without a window is pickled as its
    runs.  Do not mutate a mask after construction.
    """

    __slots__ = ("height", "width", "bbox", "_window", "_area", "_runs", "_rle")

    def __init__(self, pixels: np.ndarray) -> None:
        """Mask of a full-canvas (height, width) boolean array."""
        arr = np.asarray(pixels, dtype=bool)
        if arr.ndim != 2:
            raise MaskError(f"mask must be 2-D, got shape {arr.shape}")
        self.height, self.width = arr.shape
        self.bbox, self._window = _tight(arr, 0, 0)
        self._window.setflags(write=False)
        self._area = self._runs = self._rle = None

    @classmethod
    def _of(cls, height: int, width: int, bbox: Box | None,
            window: np.ndarray | None, area: int | None = None,
            runs: Runs | None = None) -> "Mask":
        """Mask of a window already cropped to the tight ``bbox``, of the
        runs of a decoded mask, or of both."""
        mask = cls.__new__(cls)
        if window is not None:
            window.setflags(write=False)
        mask.height, mask.width, mask.bbox, mask._window = height, width, bbox, window
        mask._area, mask._runs, mask._rle = area, runs, None
        return mask

    def __reduce__(self):
        if self._window is None:
            return _from_runs, (self.height, self.width, *_runs(self))
        return Mask._of, (self.height, self.width, self.bbox, self._window, self._area)

    @classmethod
    def _placed(cls, height: int, width: int, row0: int, col0: int,
                arr: np.ndarray) -> "Mask":
        """Mask whose pixels are ``arr`` with its corner at (row0, col0) and
        False elsewhere; the window is trimmed to the tight bbox."""
        return cls._of(height, width, *_tight(arr, row0, col0))

    @property
    def window(self) -> np.ndarray:
        """The pixels inside ``bbox``; a decoded mask fills them from its runs
        on first use."""
        if self._window is None:
            self._window = _runs_window(self)
            self._window.setflags(write=False)
        return self._window

    @property
    def area(self) -> int:
        if self._area is None:
            self._area = int(np.count_nonzero(self.window))
        return self._area

    def to_rle(self) -> str:
        """The mask's ``rle_encode`` string, encoded on the first call."""
        if self._rle is None:
            self._rle = rle_encode(self)
        return self._rle

    @classmethod
    def from_rect(cls, width: int, height: int, row: int, col: int,
                  n_rows: int, n_cols: int) -> "Mask":
        """Solid axis-aligned rectangle, clipped at the canvas's far edges,
        holding its window, area and runs: one run per column, or one run
        in all when it spans the canvas height."""
        if row < 0 or col < 0:
            raise MaskError(f"rectangle offset must be non-negative, got ({row}, {col})")
        if n_rows < 1 or n_cols < 1:
            raise MaskError(f"rectangle size must be positive, got {n_rows}x{n_cols}")
        r1, c1 = min(row + n_rows, height), min(col + n_cols, width)
        if row >= r1 or col >= c1:
            return cls._of(height, width, None, _NO_PIXELS, 0, _NO_RUNS)
        if r1 - row == height:
            starts = np.array([col * height], dtype=np.int64)
            stops = np.array([c1 * height], dtype=np.int64)
        else:
            starts = np.arange(col * height + row, c1 * height, height, dtype=np.int64)
            stops = starts + (r1 - row)
        return cls._of(height, width, (row, r1, col, c1),
                       np.ones((r1 - row, c1 - col), dtype=bool),
                       (r1 - row) * (c1 - col), (starts, stops))

    @classmethod
    def full(cls, width: int, height: int) -> "Mask":
        return cls.from_rect(width, height, 0, 0, height, width)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mask):
            return NotImplemented
        # Runs are maximal, so equal pixels are equal runs.
        return (self.height, self.width, self.bbox) == (
            other.height, other.width, other.bbox) and all(
            np.array_equal(x, y) for x, y in zip(_runs(self), _runs(other)))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Mask({self.width}x{self.height}, area={self.area})"


def _tight(arr: np.ndarray, row0: int, col0: int) -> tuple[Box | None, np.ndarray]:
    """Canvas bbox of the True pixels of ``arr`` (placed at row0, col0) and a
    copy of ``arr`` cropped to it."""
    rows = np.flatnonzero(arr.any(axis=1))
    if rows.size == 0:
        return None, _NO_PIXELS
    cols = np.flatnonzero(arr.any(axis=0))
    r0, r1, c0, c1 = int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1
    return ((row0 + r0, row0 + r1, col0 + c0, col0 + c1),
            np.array(arr[r0:r1, c0:c1], dtype=bool, order="C"))


def _runs(m: Mask) -> Runs:
    """The (starts, stops) of ``m``'s foreground runs: maximal, so a run that
    ends at the canvas's bottom row and resumes at the top of the next column
    is one run.  A decoded mask holds them; a mask made from pixels derives
    them from its window once."""
    if m._runs is None:
        m._runs = _window_runs(m) if m.bbox is not None else _NO_RUNS
    return m._runs


def _window_runs(m: Mask) -> Runs:
    r0, _, c0, _ = m.bbox
    n_rows, n_cols = m.window.shape
    # The window's columns in scan order, each between two False pixels, so
    # that every run boundary is an edge inside one column.
    scan = np.zeros((n_cols, n_rows + 2), dtype=np.int8)
    scan[:, 1:-1] = m.window.T
    flat = scan.ravel()
    col, row = np.divmod(np.flatnonzero(flat[1:] != flat[:-1]) + 1, n_rows + 2)
    bounds = (col + c0) * m.height + row + (r0 - 1)
    starts, stops = bounds[0::2], bounds[1::2]
    if n_rows == m.height:  # runs can continue into the next column
        apart = starts[1:] != stops[:-1]
        starts, stops = starts[np.append(True, apart)], stops[np.append(apart, True)]
    return starts, stops


def _runs_window(m: Mask) -> np.ndarray:
    """The window of a decoded mask, filled from its runs by a +1/-1
    difference array over its bbox in column-major order and a cumulative
    sum.  A run crosses a column only when the bbox spans the canvas height,
    so a run's bbox offsets are its canvas offsets less one shift taken at
    its start."""
    starts, stops = m._runs
    r0, r1, c0, c1 = m.bbox
    h = r1 - r0
    shift = starts // m.height * (m.height - h) + (c0 * h + r0)
    cells = np.zeros((c1 - c0) * h + 1, dtype=np.int8)
    cells[starts - shift] = 1
    cells[stops - shift] -= 1
    np.add.accumulate(cells, out=cells)
    return cells[:-1].view(bool).reshape(c1 - c0, h).T.copy()


def rle_encode(mask: Mask) -> str:
    """Encode a mask as canonical uncompressed RLE over its canvas."""
    size = mask.height * mask.width
    starts, stops = _runs(mask)
    bounds = np.empty(2 * starts.size + 2, dtype=np.int64)
    bounds[0], bounds[1:-1:2], bounds[2:-1:2], bounds[-1] = 0, starts, stops, size
    runs = (bounds[1:] - bounds[:-1]).tolist()
    if runs[-1] == 0 and len(runs) > 1:
        runs.pop()
    return " ".join(map(str, runs))


def rle_decode(rle: str, width: int, height: int) -> Mask:
    """Decode one uncompressed RLE string into a mask on a (height, width)
    canvas: the one-string case of ``rle_decode_all``.  A canonical string
    (ASCII digits separated by single spaces) takes the vectorized pass;
    any other, e.g. with tabs, ``+3`` or non-ASCII digits, is read with
    ``int`` and accepted if ``int`` accepts its tokens."""
    return rle_decode_all([rle], width, height)[0]


def rle_decode_all(rles: Sequence[str], width: int, height: int) -> list[Mask]:
    """Decode the RLE strings of one document, all on a (height, width)
    canvas, into masks in the same order: the masks of
    ``rle_decode_table``."""
    return rle_decode_table(rles, width, height).decoded_masks()


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
    document whose strings together cover 2**62 pixels or more is refused
    at index 0, as its pixel offsets would not fit in 64 bits.
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
        if len(rles) * width * height >= 2**62:
            exc = RleError(f"canvas {width}x{height} is too large to decode")
            exc.index = 0
            raise exc
        counts = [len(r) for r in parsed]
        runs = np.array([r for rs in parsed for r in rs], dtype=np.int64)
    # String i covers pixels [i * size, (i + 1) * size) of the concatenation
    # of all strings, which are the table keys of mask i, and its runs
    # alternate background and foreground: its foreground runs are its
    # odd-numbered ones.
    lengths = np.array(counts)
    owner, k = _spread(lengths // 2)
    fg = (np.cumsum(lengths) - lengths)[owner] + 2 * k + 1
    ends = np.cumsum(runs)
    return _decoded(height, width, ends[fg - 1], ends[fg], lengths // 2)


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
    """The mask of one set of maximal runs, as a table of its own."""
    return _decoded(height, width, starts, stops, np.array([starts.size])).decoded_masks()[0]


def _decoded(height: int, width: int, starts: np.ndarray, stops: np.ndarray,
             counts: np.ndarray) -> RunTable:
    """The table of masks whose foreground runs, ``counts[i]`` of them for
    mask i, are concatenated in ``starts`` and ``stops`` as table keys (mask
    i's canvas offsets plus i canvas sizes).

    A run's rows are those it covers in its first and last column, and all
    of them if it crosses a column boundary; each mask's bbox and area are
    reduced over its runs.  Mask i's columns in key order are its canvas
    columns plus i * width."""
    boxes = np.zeros((counts.size, 4), dtype=np.int64)
    areas = np.zeros(counts.size, dtype=np.int64)
    if starts.size:
        first_col, last_col = starts // height, (stops - 1) // height
        crosses = first_col != last_col
        top = np.where(crosses, 0, starts - first_col * height)
        bottom = np.where(crosses, height, stops - last_col * height)
        edge = np.cumsum(counts) - counts
        runs_of = np.flatnonzero(counts)
        first, last = edge[runs_of], edge[runs_of] + counts[runs_of] - 1
        shift = runs_of * width
        boxes[runs_of, 0] = np.minimum.reduceat(top, first)
        boxes[runs_of, 1] = np.maximum.reduceat(bottom, first)
        boxes[runs_of, 2] = first_col[first] - shift
        boxes[runs_of, 3] = last_col[last] + 1 - shift
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


def _within(m: Mask, box: Box) -> np.ndarray:
    """The part of ``m``'s window inside the canvas box ``box``."""
    r0, _, c0, _ = m.bbox
    return m.window[box[0] - r0:box[1] - r0, box[2] - c0:box[3] - c0]


def _region(m: Mask, box: Box) -> np.ndarray:
    """The pixels of ``m`` inside the canvas box ``box``, as a new writable
    array of the box's size."""
    out = np.zeros((box[1] - box[0], box[3] - box[2]), dtype=bool)
    inner = _overlap(m.bbox, box)
    if inner is not None:
        out[inner[0] - box[0]:inner[1] - box[0],
            inner[2] - box[2]:inner[3] - box[2]] = _within(m, inner)
    return out


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


# Table keys stay below this, so that no int64 sum of two of them overflows.
_KEY_LIMIT = 2**62


class RunTable:
    """The masks of one list on one canvas as columns, kept for scoring many
    pairs of them at once (``pair_intersections``).

    ``boxes`` and ``areas`` are the masks' bboxes (as ``_boxes``) and areas.
    The run table holds the runs of all masks end to end, sorted by
    ``starts``, mask m's shifted by m canvas sizes; its runs are
    ``first[m]`` on, ``counts[m]`` of them.  The table pixels below a key y
    are ``min(y + lead[k], before[k])``, with k the number of runs starting
    at or before y: ``before[k]`` counts the pixels of runs 0 to k - 1, and
    ``lead[k]`` is ``before[k - 1]`` less the start of run k - 1 (both 0 for
    k = 0).

    A table made from a list of masks (``RunTable(masks)``) keeps them as
    ``masks`` and lays its runs out on first use.  A decoded table
    (``rle_decode_table``) has its runs from the start and ``masks`` None
    until ``decoded_masks`` makes them, each holding its own runs.
    """

    __slots__ = ("masks", "height", "width", "size", "boxes", "areas", "starts", "stops",
                 "lead", "before", "counts", "first", "_parts")

    def __init__(self, masks: Sequence[Mask]) -> None:
        _require_one_canvas(masks)
        self.masks = list(masks)
        self.height, self.width = (masks[0].height, masks[0].width) if masks else (0, 0)
        self.size = self.height * self.width
        self.boxes = _boxes(masks)
        self.areas = np.array([m.area for m in masks], dtype=np.int64)
        self.starts = self.before = self._parts = None

    @classmethod
    def _columns(cls, height: int, width: int, boxes: np.ndarray, areas: np.ndarray,
                 starts: np.ndarray, stops: np.ndarray, counts: np.ndarray) -> "RunTable":
        """The decoded table of the given columns."""
        t = cls.__new__(cls)
        t.masks, t.height, t.width, t.size = None, height, width, height * width
        starts.setflags(write=False)
        stops.setflags(write=False)
        t.boxes, t.areas, t.starts, t.stops, t.counts = boxes, areas, starts, stops, counts
        t.first = np.cumsum(counts) - counts
        t.before = t._parts = None
        return t

    def joined(self, other: "RunTable") -> "RunTable":
        """The table of this list's masks followed by ``other``'s."""
        out = RunTable.__new__(RunTable)
        out.masks = (None if self.masks is None or other.masks is None
                     else self.masks + other.masks)
        canvas = self if self.size else other
        out.height, out.width, out.size = canvas.height, canvas.width, canvas.size
        out.boxes = np.concatenate((self.boxes, other.boxes))
        out.areas = np.concatenate((self.areas, other.areas))
        out.starts = out.before = None
        out._parts = (self, other)
        return out

    def reordered(self, order: Sequence[int]) -> "RunTable":
        """The decoded table of masks ``order[0]``, ``order[1]``, ... of this
        decoded table."""
        order = np.asarray(order, dtype=np.int64)
        counts = self.counts[order]
        owner, k = _spread(counts)
        run = self.first[order][owner] + k
        shift = (owner - order[owner]) * self.size
        return RunTable._columns(self.height, self.width, self.boxes[order], self.areas[order],
                                 self.starts[run] + shift, self.stops[run] + shift, counts)

    def decoded_masks(self) -> list[Mask]:
        """The masks of a decoded table, made on the first call and kept as
        ``masks``: each holds its bbox, area and runs, views into one array
        of the table's runs less their shifts."""
        if self.masks is None:
            h, w = self.height, self.width
            shift = np.repeat(np.arange(self.counts.size) * self.size, self.counts)
            starts, stops = self.starts - shift, self.stops - shift
            starts.setflags(write=False)
            stops.setflags(write=False)
            # Masks are immutable, so the empty ones can be one object.
            empty = Mask._of(h, w, None, _NO_PIXELS, 0, _NO_RUNS)
            self.masks = [
                Mask._of(h, w, box, None, area, (starts[a:b], stops[a:b])) if area else empty
                for box, area, a, b in zip(zip(*self.boxes.T.tolist()), self.areas.tolist(),
                                           self.first.tolist(),
                                           (self.first + self.counts).tolist())]
        return self.masks

    def _laid_out(self) -> bool:
        """Lay the run table out, unless done; False if its keys would reach
        2**62, which int64 sums of two keys could not hold."""
        if self.before is not None:
            return True
        if self.areas.size * self.size >= _KEY_LIMIT:
            return False
        if self._parts is not None:
            a, b = self._parts
            a._laid_out()
            b._laid_out()
            shift, total = a.areas.size * self.size, a.before[-1]
            self.stops = np.concatenate((a.stops, b.stops + shift))
            self.lead = np.concatenate((a.lead, b.lead[1:] + (total - shift)))
            self.counts = np.concatenate((a.counts, b.counts))
            self.first = np.concatenate((a.first, b.first + a.starts.size))
            self.starts = np.concatenate((a.starts, b.starts + shift))
            self.before = np.concatenate((a.before, b.before[1:] + total))
            return True
        if self.starts is None:
            runs = [_runs(m) for m in self.masks]
            counts = np.array([s.size for s, _ in runs], dtype=np.int64)
            shift = np.repeat(np.arange(counts.size) * self.size, counts)
            self.stops = np.concatenate([r for _, r in runs] or [_NO_RUNS[1]]) + shift
            self.counts, self.first = counts, np.cumsum(counts) - counts
            self.starts = np.concatenate([r for r, _ in runs] or [_NO_RUNS[0]]) + shift
        before = np.zeros(self.starts.size + 1, dtype=np.int64)
        np.cumsum(self.stops - self.starts, out=before[1:])
        self.lead = np.zeros_like(before)
        self.lead[1:] = before[:-1] - self.starts
        self.before = before
        return True


def _all_windows(t: RunTable, build: bool) -> list[np.ndarray] | None:
    """The windows of ``t``'s masks in order, if each holds one or
    ``build`` is set (which builds them, and a decoded table's masks); None
    otherwise."""
    if t._parts is not None:
        a, b = (_all_windows(part, build) for part in t._parts)
        return None if a is None or b is None else a + b
    masks = t.decoded_masks() if build else t.masks
    if masks is not None and (build or all(m._window is not None for m in masks)):
        return [m.window for m in masks]
    return None


def pair_intersections(t: RunTable, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Pixel counts of masks ``i[k]`` AND ``j[k]`` of ``t`` for every k, as
    exact int64; the paired masks must be nonempty.

    When every mask of the list holds its window, or the run table's keys
    would reach 2**62, the pairs are intersected on their windows, one at a
    time.  Otherwise they are joined on the run table: for each pair, the
    runs of the mask with fewer runs that meet the other mask's span are
    moved into the other mask's canvas of the table; each adds the table
    pixels below its stop less those below its start, found with one
    ``np.searchsorted``, and ``np.add.reduceat`` sums them per pair.  This
    is the run-length intersection of the COCO mask API's ``rleIou``, done
    for all pairs of an image at once.
    """
    windows = _all_windows(t, build=False)
    if windows is None and not t._laid_out():
        windows = _all_windows(t, build=True)
    if windows is not None:
        boxes = t.boxes.tolist()
        return np.array([_windows_and(boxes[x], windows[x], boxes[y], windows[y])
                         for x, y in zip(i.tolist(), j.tolist())], dtype=np.int64)
    if i.size == 0:
        return np.zeros(0, dtype=np.int64)
    starts, stops, counts, first = t.starts, t.stops, t.counts, t.first
    # q is each pair's mask with fewer runs and o the other; d moves q's
    # runs into o's canvas of the table.  Of q's runs, those that meet o's
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
    y = np.concatenate((starts[run] + shift, stops[run] + shift))
    k = np.searchsorted(starts, y, side="right")
    covered = np.minimum(y + t.lead[k], t.before[k])
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
    """Pixel count of a AND b over their bbox overlap window; the caller has
    checked that the canvases match."""
    if _overlap(a.bbox, b.bbox) is None:
        return 0
    return _windows_and(a.bbox, a.window, b.bbox, b.window)


def _windows_and(ab: Sequence[int], aw: np.ndarray, bb: Sequence[int],
                 bw: np.ndarray) -> int:
    """Pixel count of windows ``aw`` AND ``bw``, placed at the canvas boxes
    ``ab`` and ``bb``, over the boxes' overlap."""
    ar0, ar1, ac0, ac1 = ab
    br0, br1, bc0, bc1 = bb
    r0, r1 = ar0 if ar0 > br0 else br0, ar1 if ar1 < br1 else br1
    c0, c1 = ac0 if ac0 > bc0 else bc0, ac1 if ac1 < bc1 else bc1
    if r0 >= r1 or c0 >= c1:
        return 0
    return int(np.count_nonzero(aw[r0 - ar0:r1 - ar0, c0 - ac0:c1 - ac0]
                                & bw[r0 - br0:r1 - br0, c0 - bc0:c1 - bc0]))


def intersection_area(a: Mask, b: Mask) -> int:
    """Pixel count of a AND b, computed on the bbox overlap window only."""
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


def union_masks(masks: Sequence[Mask]) -> Mask:
    """Pixel-wise union of one or more masks on a shared canvas, built over
    the union of their bboxes."""
    if not masks:
        raise MaskError("union of an empty mask list")
    _require_one_canvas(masks)
    boxes = [m.bbox for m in masks if m.bbox is not None]
    if not boxes:
        return masks[0]
    box = tuple(pick(b[k] for b in boxes) for k, pick in enumerate((min, max, min, max)))
    return Mask._placed(masks[0].height, masks[0].width, box[0], box[2],
                        np.logical_or.reduce([_region(m, box) for m in masks]))


def mask_difference(a: Mask, b: Mask) -> Mask:
    """Pixels of a not covered by b, computed over a's bbox."""
    _require_same_canvas(a, b)
    if _overlap(a.bbox, b.bbox) is None:
        return a
    return Mask._placed(a.height, a.width, a.bbox[0], a.bbox[2],
                        a.window & ~_region(b, a.bbox))


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

    A region is packed into one int, row-major from bit 0, each row in
    whole bytes and followed by at least ``guard`` zero bits: the bbox for
    an erosion, as off-window pixels are off-mask, and for a dilation the
    bbox grown by the most steps it can take, clipped to the canvas.  The
    result of a + r steps for r <= a + 1 is the AND (erosion) or OR
    (dilation) of the result of a steps shifted by -r, 0 and r bits, then
    by -r, 0 and r rows.  So the step count is found by bisection between
    0 and the most steps, with each jump r at most a + 1.  An erosion needs
    one guard bit, as any run of bits that crosses rows holds a zero; a
    dilation's guard is as wide as its longest jump, and it clears what it
    spilled into the guard or past the region.  Only the kept step is
    unpacked."""
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
    row_bytes = (cols + guard + 7) // 8
    stride = 8 * row_bytes
    packed = np.zeros((r1 - r0, row_bytes), dtype=np.uint8)
    packed[:, :(c1 - c0 + 7) // 8] = np.packbits(m.window, axis=1, bitorder="little")
    bits = int.from_bytes(packed.tobytes(), "little") << (r0 - box[0]) * stride + c0 - box[2]
    clip = int.from_bytes(((1 << cols) - 1).to_bytes(row_bytes, "little") * rows,
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
    packed = np.frombuffer(bits.to_bytes(rows * row_bytes, "little"), dtype=np.uint8)
    arr = np.unpackbits(packed.reshape(rows, row_bytes), axis=1, count=cols,
                        bitorder="little").view(bool)
    if not grow:
        return Mask._placed(m.height, m.width, box[0], box[2], arr)
    r0, r1, c0, c1 = tight = _grown(m, k)
    return Mask._of(m.height, m.width, tight,
                    np.array(arr[r0 - box[0]:r1 - box[0], c0 - box[2]:c1 - box[2]]), area)


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
