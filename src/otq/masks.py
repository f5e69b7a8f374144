"""Binary instance masks: RLE codec, overlap geometry, morphology, size bins.

A mask stores its canvas shape, its tight bounding box and a read-only
boolean window of the bounding box's size, so its memory scales with the
object, not with the canvas.  Decoding, encoding, area, overlap, union and
difference work on windows and never build a full-canvas array; the same
technique underlies the RLE-domain geometry of the COCO mask API.  The wire
format is uncompressed COCO-style RLE: pixels are read in column-major order
and encoded as space-separated run lengths, with the first run counting
zeros (possibly 0).  ``rle_decode_all`` decodes the strings of one document
together: when all of them are canonical text (ASCII digits separated by
single spaces) it reads and checks their runs in one vectorized pass, and
every other document is read one string at a time with ``int``, accepting
whatever ``int`` accepts.  Either way one builder makes the windows.
Erosion and dilation pack a region's rows into one Python int and keep
the 3x3 step count whose area is closest to a target; k steps are an
erosion or dilation by a (2k + 1)-square, the pixels within chessboard
distance k (Rosenfeld and Pfaltz, 1966, 1968), and the count is found by
bisection, each jump an AND or OR of the int shifted by bits and by rows.
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

# The window of every empty mask.
_NO_PIXELS = np.zeros((0, 0), dtype=bool)
_NO_PIXELS.setflags(write=False)


class SizeBin(enum.Enum):
    XS = "XS"
    S_STAR = "S*"
    M = "M"
    L = "L"


class Mask:
    """A binary mask on a fixed ``height`` x ``width`` canvas.

    ``bbox`` is the tight bounding box ``(row0, row1, col0, col1)``,
    half-open, or None for an empty mask.  ``window`` holds the pixels inside
    ``bbox`` as a C-contiguous read-only array (shape (0, 0) when empty), also
    after a pickle round trip.  ``pixels`` builds the full-canvas array on
    demand for tests and oracles; nothing in the package reads it.  Do not
    mutate a mask after construction.
    """

    __slots__ = ("height", "width", "bbox", "window", "_area")

    def __init__(self, pixels: np.ndarray) -> None:
        """Mask of a full-canvas (height, width) boolean array."""
        arr = np.asarray(pixels, dtype=bool)
        if arr.ndim != 2:
            raise MaskError(f"mask must be 2-D, got shape {arr.shape}")
        self._set(*arr.shape, *_tight(arr, 0, 0))

    def _set(self, height: int, width: int, bbox: Box | None,
             window: np.ndarray, area: int | None = None) -> None:
        window.setflags(write=False)
        self.height, self.width = height, width
        self.bbox, self.window, self._area = bbox, window, area

    @classmethod
    def _of(cls, height: int, width: int, bbox: Box | None,
            window: np.ndarray, area: int | None = None) -> "Mask":
        """Mask of a window already cropped to the tight ``bbox``."""
        mask = cls.__new__(cls)
        mask._set(height, width, bbox, window, area)
        return mask

    def __reduce__(self):
        return Mask._of, (self.height, self.width, self.bbox, self.window, self._area)

    @classmethod
    def _placed(cls, height: int, width: int, row0: int, col0: int,
                arr: np.ndarray) -> "Mask":
        """Mask whose pixels are ``arr`` with its corner at (row0, col0) and
        False elsewhere; the window is trimmed to the tight bbox."""
        return cls._of(height, width, *_tight(arr, row0, col0))

    @property
    def area(self) -> int:
        if self._area is None:
            self._area = int(np.count_nonzero(self.window))
        return self._area

    @property
    def pixels(self) -> np.ndarray:
        """Full-canvas read-only (height, width) array, built on each call."""
        out = _region(self, (0, self.height, 0, self.width))
        out.setflags(write=False)
        return out

    @classmethod
    def from_rle(cls, rle: str, width: int, height: int) -> "Mask":
        return rle_decode(rle, width, height)

    def to_rle(self) -> str:
        return rle_encode(self)

    @classmethod
    def from_rect(cls, width: int, height: int, row: int, col: int,
                  n_rows: int, n_cols: int) -> "Mask":
        """Solid axis-aligned rectangle, clipped at the canvas's far edges;
        handy for fixtures and demos."""
        if row < 0 or col < 0:
            raise MaskError(f"rectangle offset must be non-negative, got ({row}, {col})")
        if n_rows < 1 or n_cols < 1:
            raise MaskError(f"rectangle size must be positive, got {n_rows}x{n_cols}")
        r1, c1 = min(row + n_rows, height), min(col + n_cols, width)
        if row >= r1 or col >= c1:
            return cls._of(height, width, None, _NO_PIXELS, 0)
        return cls._of(height, width, (row, r1, col, c1),
                       np.ones((r1 - row, c1 - col), dtype=bool))

    @classmethod
    def full(cls, width: int, height: int) -> "Mask":
        return cls.from_rect(width, height, 0, 0, height, width)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mask):
            return NotImplemented
        return (self.height, self.width, self.bbox) == (
            other.height, other.width, other.bbox) and bool(
            np.array_equal(self.window, other.window))

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


def rle_encode(mask: Mask) -> str:
    """Encode a mask as canonical uncompressed RLE over its canvas."""
    size = mask.height * mask.width
    if mask.bbox is None:
        return str(size)
    r0, _, c0, _ = mask.bbox
    n_rows, n_cols = mask.window.shape
    # The window's columns in scan order, each between two False pixels, so
    # that every run boundary is an edge inside one column.
    scan = np.zeros((n_cols, n_rows + 2), dtype=np.int8)
    scan[:, 1:-1] = mask.window.T
    flat = scan.ravel()
    edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    col, row = np.divmod(edges, n_rows + 2)
    bounds: list[int] = []
    for b in ((col + c0) * mask.height + row + (r0 - 1)).tolist():
        # A run that ends at the canvas's bottom row and resumes at the top
        # of the next column is one run.
        if bounds and bounds[-1] == b:
            bounds.pop()
        else:
            bounds.append(b)
    runs = [b - a for a, b in zip([0, *bounds], [*bounds, size])]
    if runs[-1] == 0:
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
    canvas, into masks in the same order.

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
        return []
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
    return _build_masks(runs, counts, width, height)


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
# Window cells ``_build_masks`` fills per batch: the one buffer its batches
# share holds at most this many plus one window.
_PIXEL_BUDGET = 2**18


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


def _build_masks(runs: np.ndarray, counts: list[int], width: int,
                 height: int) -> list[Mask]:
    """Masks of valid RLE strings whose runs, ``counts[i]`` of them for
    string i, are concatenated in ``runs``.

    String i covers pixels [i * size, (i + 1) * size) of the concatenation,
    which is a canvas of all strings side by side.  Foreground runs are
    split at its column boundaries into segments; each mask's tight bbox and
    area are reduced over its segments, and its window is filled by a +1/-1
    difference array and a cumulative sum, a budget of pixels at a time.
    """
    lengths = np.array(counts)
    # Runs alternate background and foreground: string i's foreground runs
    # are its odd-numbered ones.
    owner, k = _spread(lengths // 2)
    fg = (np.cumsum(lengths) - lengths)[owner] + 2 * k + 1
    # Masks are immutable, so the empty ones can be one object.
    masks = [Mask._of(height, width, None, _NO_PIXELS, 0)] * len(counts)
    if fg.size == 0:
        return masks
    ends = np.cumsum(runs)
    start, stop = ends[fg - 1], ends[fg]
    del ends, fg, k
    col0 = start // height
    run, k = _spread((stop - 1) // height + 1 - col0)
    col = col0[run] + k
    top = np.maximum(start[run] - col * height, 0)
    bottom = np.minimum(stop[run] - col * height, height)
    owner = owner[run]
    col -= owner * width
    del start, stop, col0, run, k
    # Segments come grouped by mask, and ordered by column within a mask.
    first = np.flatnonzero(np.diff(owner, prepend=-1))
    r0 = np.minimum.reduceat(top, first)
    r1 = np.maximum.reduceat(bottom, first)
    c0 = col[first]
    c1 = col[np.append(first[1:], col.size) - 1] + 1
    area = np.add.reduceat(bottom - top, first)
    # Window j is laid out column by column in ``slots[j]`` cells, one
    # past each column's last row, so that a column's +1s and -1s cancel
    # and one cumulative sum fills many windows.
    rows = r1 - r0
    slots = (rows + 1) * (c1 - c0)
    offset = np.cumsum(slots) - slots
    win = np.repeat(np.arange(first.size), np.diff(first, append=col.size))
    base = offset[win] + (col - c0[win]) * (rows[win] + 1) - r0[win]
    del col, win
    lo, hi = top + base, bottom + base
    del top, bottom, base
    edge = [*first.tolist(), lo.size]
    # Windows that start within one budget of each other are built together,
    # all in one buffer, so that no freed buffer leaves a hole among them.
    j0 = np.flatnonzero(np.diff(offset // _PIXEL_BUDGET, prepend=-1))
    j1 = np.append(j0[1:], first.size)
    batches = list(zip(j0.tolist(), j1.tolist(), offset[j0].tolist(),
                       (offset + slots)[j1 - 1].tolist()))
    scratch = np.empty(max(end - at for _, _, at, end in batches), dtype=np.int8)
    info = list(zip(owner[first].tolist(), r0.tolist(), r1.tolist(), c0.tolist(),
                    c1.tolist(), area.tolist(), offset.tolist()))
    for j0, j1, at, end in batches:
        buf = scratch[:end - at]
        buf[:] = 0
        buf[lo[edge[j0]:edge[j1]] - at] = 1
        buf[hi[edge[j0]:edge[j1]] - at] = -1
        np.add.accumulate(buf, out=buf)
        pixels = buf.view(bool)
        for i, a, b, c, d, px, off in info[j0:j1]:
            h = b - a
            column_major = pixels[off - at:off - at + (h + 1) * (d - c)].reshape(d - c, h + 1)
            masks[i] = Mask._of(height, width, (a, b, c, d),
                                np.array(column_major[:, :h].T, order="C"), px)
    return masks


def _require_same_canvas(a: Mask, b: Mask) -> None:
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


def overlapping_pairs(a: Sequence[Mask], b: Sequence[Mask]) -> list[tuple[int, int]]:
    """Index pairs (i, j), in row-major order, of ``a[i]`` and ``b[j]`` whose
    bboxes overlap: the only pairs that can share a pixel.  Empty masks never
    pair.  All masks must share one canvas."""
    _require_one_canvas([*a, *b])
    # An empty mask's box (0, 0, 0, 0) overlaps no box.
    ra, rb = (np.array([m.bbox or (0, 0, 0, 0) for m in ms], dtype=np.int64).reshape(-1, 4)
              for ms in (a, b))
    hit = ((ra[:, None, 0] < rb[:, 1]) & (rb[:, 0] < ra[:, None, 1])
           & (ra[:, None, 2] < rb[:, 3]) & (rb[:, 2] < ra[:, None, 3]))
    rows, cols = np.nonzero(hit)
    return list(zip(rows.tolist(), cols.tolist()))


def _intersection(a: Mask, b: Mask) -> int:
    """Pixel count of a AND b over their bbox overlap window; the caller has
    checked that the canvases match."""
    if a.bbox is None or b.bbox is None:
        return 0
    ar0, ar1, ac0, ac1 = a.bbox
    br0, br1, bc0, bc1 = b.bbox
    r0, r1 = ar0 if ar0 > br0 else br0, ar1 if ar1 < br1 else br1
    c0, c1 = ac0 if ac0 > bc0 else bc0, ac1 if ac1 < bc1 else bc1
    if r0 >= r1 or c0 >= c1:
        return 0
    return int(np.count_nonzero(a.window[r0 - ar0:r1 - ar0, c0 - ac0:c1 - ac0]
                                & b.window[r0 - br0:r1 - br0, c0 - bc0:c1 - bc0]))


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
    if target_grow_to_ratio < 1.0:
        raise MaskError(
            f"grow ratio must be >= 1, got {target_grow_to_ratio}")
    if m.area == 0:
        raise MaskError("cannot dilate an empty mask")
    if target_grow_to_ratio == 1.0:
        return m
    return _steps_toward(m, target_grow_to_ratio * m.area, grow=True)


def size_bin(m: Mask) -> SizeBin:
    """Classify a nonempty mask by pixel area into XS / S* / M / L."""
    a = m.area
    if a == 0:
        raise MaskError("size bin undefined for an empty mask")
    if a < _XS_UPPER:
        return SizeBin.XS
    if a < _S_UPPER:
        return SizeBin.S_STAR
    if a < _M_UPPER:
        return SizeBin.M
    return SizeBin.L
