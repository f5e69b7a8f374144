"""Binary instance masks: RLE codec, overlap geometry, morphology, size bins.

Masks are dense boolean arrays of shape (height, width) wrapped in a small
immutable-by-convention class that caches area and bounding box.  The wire
format is uncompressed COCO-style RLE: pixels are read in column-major order
and encoded as space-separated run lengths, with the first run counting
zeros (possibly 0).  Erosion and dilation give the result of iterated 3x3
steps, computed from one distance transform.
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np
from scipy import ndimage

from .errors import MaskError, RleError

# Area thresholds (pixels) of the four mask-size bins.
_XS_UPPER = 10**2
_S_UPPER = 32**2
_M_UPPER = 96**2


class SizeBin(enum.Enum):
    XS = "XS"
    S_STAR = "S*"
    M = "M"
    L = "L"


class Mask:
    """A binary mask on a fixed canvas.

    Do not mutate ``pixels`` after construction; the array is marked
    read-only and derived quantities (area, bbox) are cached.
    """

    __slots__ = ("pixels", "_area", "_bbox")

    def __init__(self, pixels: np.ndarray) -> None:
        arr = np.ascontiguousarray(pixels, dtype=bool)
        if arr.ndim != 2:
            raise MaskError(f"mask must be 2-D, got shape {arr.shape}")
        arr.setflags(write=False)
        self.pixels = arr
        self._area: int | None = None
        self._bbox: tuple[int, int, int, int] | None | bool = False

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def area(self) -> int:
        if self._area is None:
            self._area = int(np.count_nonzero(self.pixels))
        return self._area

    @property
    def bbox(self) -> tuple[int, int, int, int] | None:
        """Tight bounding box (row0, row1, col0, col1), half-open; None if empty."""
        if self._bbox is False:
            rows = np.flatnonzero(self.pixels.any(axis=1))
            if rows.size == 0:
                self._bbox = None
            else:
                cols = np.flatnonzero(self.pixels.any(axis=0))
                self._bbox = (int(rows[0]), int(rows[-1]) + 1,
                              int(cols[0]), int(cols[-1]) + 1)
        return self._bbox

    @classmethod
    def from_rle(cls, rle: str, width: int, height: int) -> "Mask":
        return cls(rle_decode(rle, width, height))

    def to_rle(self) -> str:
        return rle_encode(self.pixels)

    @classmethod
    def from_rect(cls, width: int, height: int, row: int, col: int,
                  n_rows: int, n_cols: int) -> "Mask":
        """Solid axis-aligned rectangle; handy for fixtures and demos."""
        pixels = np.zeros((height, width), dtype=bool)
        pixels[row:row + n_rows, col:col + n_cols] = True
        return cls(pixels)

    @classmethod
    def full(cls, width: int, height: int) -> "Mask":
        return cls(np.ones((height, width), dtype=bool))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mask):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Mask({self.width}x{self.height}, area={self.area})"


def rle_encode(pixels: np.ndarray) -> str:
    """Encode a boolean (height, width) array as canonical uncompressed RLE."""
    flat = np.ascontiguousarray(pixels, dtype=bool).ravel(order="F")
    flat8 = flat.view(np.int8)
    change = np.flatnonzero(flat8[1:] != flat8[:-1]) + 1
    bounds = np.concatenate(([0], change, [flat8.size]))
    runs = np.diff(bounds)
    if flat[0]:
        runs = np.concatenate(([0], runs))
    return " ".join(str(int(r)) for r in runs)


def rle_decode(rle: str, width: int, height: int) -> np.ndarray:
    """Decode canonical uncompressed RLE into a boolean (height, width) array."""
    tokens = rle.split()
    if not tokens:
        raise RleError("empty RLE string")
    try:
        runs = [int(t) for t in tokens]
    except ValueError as exc:
        raise RleError(f"non-integer run length in RLE: {exc}") from exc
    if runs[0] < 0:
        raise RleError("negative leading run length")
    if any(r < 1 for r in runs[1:]):
        raise RleError("zero or negative run length after the first run")
    total = sum(runs)
    if total != width * height:
        raise RleError(
            f"RLE covers {total} pixels, canvas has {width * height}")
    values = (np.arange(len(runs)) % 2).astype(bool)
    flat = np.repeat(values, runs)
    return flat.reshape((height, width), order="F")


def _require_same_canvas(a: Mask, b: Mask) -> None:
    if a.pixels.shape != b.pixels.shape:
        raise MaskError(
            f"mask dimension mismatch: {a.width}x{a.height} vs {b.width}x{b.height}")


def intersection_area(a: Mask, b: Mask) -> int:
    """Pixel count of a AND b, computed on the bbox overlap window only."""
    _require_same_canvas(a, b)
    ba, bb = a.bbox, b.bbox
    if ba is None or bb is None:
        return 0
    r0, r1 = max(ba[0], bb[0]), min(ba[1], bb[1])
    c0, c1 = max(ba[2], bb[2]), min(ba[3], bb[3])
    if r0 >= r1 or c0 >= c1:
        return 0
    return int(np.count_nonzero(a.pixels[r0:r1, c0:c1]
                                & b.pixels[r0:r1, c0:c1]))


def iou(a: Mask, b: Mask) -> float:
    """Intersection over union in [0, 1].

    Two empty masks give 0 by convention (avoids 0/0; valid tree nodes never
    carry empty masks anyway).
    """
    _require_same_canvas(a, b)
    if a.area == 0 and b.area == 0:
        return 0.0
    inter = intersection_area(a, b)
    if inter == 0:
        return 0.0
    return inter / (a.area + b.area - inter)


def containment(child: Mask, parent: Mask) -> float:
    """Fraction of the child mask covered by the parent mask."""
    _require_same_canvas(child, parent)
    if child.area == 0:
        raise MaskError("containment undefined for an empty child mask")
    return intersection_area(child, parent) / child.area


def union_masks(masks: Sequence[Mask]) -> Mask:
    """Pixel-wise union of one or more masks on a shared canvas."""
    if not masks:
        raise MaskError("union of an empty mask list")
    acc = masks[0].pixels.copy()
    for m in masks[1:]:
        _require_same_canvas(masks[0], m)
        acc |= m.pixels
    return Mask(acc)


def mask_difference(a: Mask, b: Mask) -> Mask:
    """Pixels of a not covered by b."""
    _require_same_canvas(a, b)
    return Mask(a.pixels & ~b.pixels)


def _steps_toward(m: Mask, target: float, grow: bool) -> Mask:
    """Erode or dilate ``m`` by the 3x3 step count k whose area is the closer
    of the two bracketing ``target`` (ties to the larger k), reading the area
    after every k off one chessboard distance transform."""
    if grow:  # k dilations cover the pixels within k of the mask
        dist = ndimage.distance_transform_cdt(~m.pixels, metric="chessboard")
    else:  # k erosions keep the pixels farther than k from off-mask or off-canvas
        padded = np.pad(m.pixels, 1)
        dist = ndimage.distance_transform_cdt(padded, metric="chessboard")[1:-1, 1:-1]
    within = np.cumsum(np.bincount(dist.ravel()))
    areas = within if grow else dist.size - within
    # Areas are monotone in k, so the counts short of the target are a prefix;
    # a dilation that cannot reach it stops at full-canvas coverage.
    short = areas < target if grow else areas > target
    k = min(int(np.count_nonzero(short)), areas.size - 1)
    if k and abs(areas[k] - target) > abs(areas[k - 1] - target):
        k -= 1
    return Mask(dist <= k if grow else dist > k) if k else m


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
    A mask that cannot grow further (already canvas-maximal) is returned as is.
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
