"""Open-tree data model: validation, JSON (de)serialization, corpora.

A tree is a set of instance nodes (mask + open-vocabulary label + parent
reference) over one image canvas, rooted at an artificial root vertex that
carries no mask or label.  The root is represented by the reserved id
``ROOT_ID`` so that depth and ancestor computations have a concrete vertex.

Wire format, one JSON document per image::

    {"image_id": str, "width": int, "height": int,
     "nodes": [{"id": int, "label": str, "parent": int|null, "rle": str}]}

``parent: null`` means child-of-root.  A corpus is a JSONL file of such
documents with unique image ids.
Every JSON document otq reads is decoded by ``_payload``, every JSONL
source split by ``iter_lines``, corpora are paired by ``pair_by_image_id``,
and every file is written by ``write_atomically``; every reader of several
documents checks their image ids with ``claim_image_id``.
"""

from __future__ import annotations

import json
import os
import tempfile
import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, TypeVar

from .errors import CorpusError, OtqError, RleError, SchemaError, ValidationError
from .masks import Mask, rle_decode_all

ROOT_ID = -1

_T = TypeVar("_T")


def normalize_label(label: str) -> str:
    """Canonical label form: Unicode NFC, lowercased."""
    return unicodedata.normalize("NFC", label).lower()


@dataclass(frozen=True)
class ImageCanvas:
    image_id: str
    width: int
    height: int


@dataclass(frozen=True, eq=False)
class InstanceNode:
    node_id: int
    label: str
    mask: Mask
    parent_id: int

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InstanceNode):
            return NotImplemented
        return (self.node_id == other.node_id and self.label == other.label
                and self.parent_id == other.parent_id and self.mask == other.mask)


class OpenTree:
    """Validated, effectively immutable rooted tree of instance nodes.

    Construction normalizes labels and checks every structural invariant:
    unique ids, nonempty labels and masks, parents resolvable, acyclicity.
    Children lists, depths and root-to-node label paths are precomputed.
    """

    __slots__ = ("canvas", "nodes", "children", "depths", "label_paths")

    def __init__(self, canvas: ImageCanvas, nodes: Iterable[InstanceNode]) -> None:
        if canvas.width < 1 or canvas.height < 1:
            raise ValidationError(
                f"canvas must be at least 1x1, got {canvas.width}x{canvas.height}")
        by_id: dict[int, InstanceNode] = {}
        for node in nodes:
            if node.node_id == ROOT_ID:
                raise ValidationError(
                    f"node id {ROOT_ID} is reserved for the artificial root")
            if node.node_id in by_id:
                raise ValidationError(f"duplicate node id {node.node_id}")
            label = normalize_label(node.label)
            if not label:
                raise ValidationError(f"empty label at node {node.node_id}")
            if node.mask.width != canvas.width or node.mask.height != canvas.height:
                raise ValidationError(
                    f"mask of node {node.node_id} is {node.mask.width}x"
                    f"{node.mask.height}, canvas is {canvas.width}x{canvas.height}")
            if node.mask.area == 0:
                raise ValidationError(f"empty mask at node {node.node_id}")
            if label != node.label:
                node = InstanceNode(node.node_id, label, node.mask, node.parent_id)
            by_id[node.node_id] = node

        for node in by_id.values():
            if node.parent_id != ROOT_ID and node.parent_id not in by_id:
                raise ValidationError(
                    f"node {node.node_id} references unknown parent {node.parent_id}")

        depths: dict[int, int] = {ROOT_ID: 0}
        for start in by_id:
            chain = []
            cur = start
            while cur not in depths:
                if cur in chain:
                    raise ValidationError(f"cycle at node {cur}")
                chain.append(cur)
                cur = by_id[cur].parent_id
            base = depths[cur]
            for offset, nid in enumerate(reversed(chain), start=1):
                depths[nid] = base + offset
        del depths[ROOT_ID]

        children: dict[int, list[int]] = {ROOT_ID: []}
        for nid in by_id:
            children[nid] = []
        for nid in sorted(by_id):
            children[by_id[nid].parent_id].append(nid)

        label_paths: dict[int, tuple[str, ...]] = {ROOT_ID: ()}
        stack = list(reversed(children[ROOT_ID]))
        while stack:
            nid = stack.pop()
            node = by_id[nid]
            label_paths[nid] = label_paths[node.parent_id] + (node.label,)
            stack.extend(reversed(children[nid]))

        self.canvas = canvas
        self.nodes = {nid: by_id[nid] for nid in sorted(by_id)}
        self.children = {nid: tuple(kids) for nid, kids in children.items()}
        self.depths = depths
        self.label_paths = label_paths

    @property
    def n_nodes(self) -> int:
        """Number of instance nodes (the artificial root is not counted)."""
        return len(self.nodes)

    def depth(self, node_id: int) -> int:
        """Edge distance from the artificial root; the root itself has depth 0."""
        if node_id == ROOT_ID:
            return 0
        try:
            return self.depths[node_id]
        except KeyError:
            raise ValidationError(f"unknown node id {node_id}") from None

    def ancestors(self, node_id: int) -> Iterator[int]:
        """Proper ancestors, innermost first, excluding the artificial root."""
        cur = self.nodes[node_id].parent_id
        while cur != ROOT_ID:
            yield cur
            cur = self.nodes[cur].parent_id

    def descendants(self, node_id: int) -> set[int]:
        out: set[int] = set()
        stack = list(self.children[node_id])
        while stack:
            nid = stack.pop()
            out.add(nid)
            stack.extend(self.children[nid])
        return out

    def leaves(self) -> tuple[int, ...]:
        return tuple(nid for nid in self.nodes if not self.children[nid])

    def internal_ids(self) -> tuple[int, ...]:
        return tuple(nid for nid in self.nodes if self.children[nid])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OpenTree):
            return NotImplemented
        return self.canvas == other.canvas and self.nodes == other.nodes

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"OpenTree({self.canvas.image_id!r}, "
                f"{self.canvas.width}x{self.canvas.height}, {self.n_nodes} nodes)")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _payload(document: str | bytes) -> object:
    """The JSON value of a document, which may be UTF-8 bytes."""
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(
                f"invalid UTF-8 at byte offset {exc.start}") from exc
    try:
        return json.loads(document)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"malformed JSON at byte offset {exc.pos}: {exc.msg}") from exc


def _node_fields(i: int, raw: object) -> tuple[int, str, int | None, str]:
    """(id, label, parent, rle) of the i-th raw node; messages are built only
    for a node that fails."""
    if not isinstance(raw, dict):
        raise SchemaError(f"nodes[{i}] must be an object")
    nid, label, parent, rle = raw.get("id"), raw.get("label"), raw.get("parent"), raw.get("rle")
    if not _is_int(nid):
        raise SchemaError(f"nodes[{i}].id must be an integer")
    if not isinstance(label, str):
        raise SchemaError(f"node {nid}: label must be a string")
    if not (parent is None or _is_int(parent)):
        raise SchemaError(f"node {nid}: parent must be an integer or null")
    if not isinstance(rle, str):
        raise SchemaError(f"node {nid}: rle must be a string")
    return nid, label, parent, rle


def parse_tree(document: str | bytes) -> OpenTree:
    """Parse and fully validate one per-image JSON document.

    All masks are decoded together by ``masks.rle_decode_all``; the error
    reported is still that of the first bad node in document order, whether
    its schema or its RLE is at fault.
    """
    payload = _payload(document)
    _require(isinstance(payload, dict), "document must be a JSON object")
    _require(isinstance(payload.get("image_id"), str), "image_id must be a string")
    _require(_is_int(payload.get("width")), "width must be an integer")
    _require(_is_int(payload.get("height")), "height must be an integer")
    _require(isinstance(payload.get("nodes"), list), "nodes must be a list")

    canvas = ImageCanvas(payload["image_id"], payload["width"], payload["height"])
    fields = []
    schema_error = None
    for i, raw in enumerate(payload["nodes"]):
        try:
            fields.append(_node_fields(i, raw))
        except SchemaError as exc:
            schema_error = exc
            break
    try:
        masks = rle_decode_all([f[3] for f in fields], canvas.width, canvas.height)
    except RleError as exc:
        raise ValidationError(f"node {fields[exc.index][0]}: {exc}") from exc
    if schema_error is not None:
        raise schema_error
    return OpenTree(canvas, [
        InstanceNode(nid, label, mask, ROOT_ID if parent is None else parent)
        for (nid, label, parent, _), mask in zip(fields, masks)])


def serialize_tree(tree: OpenTree) -> str:
    """One-line JSON document; parse_tree(serialize_tree(t)) == t."""
    payload = {
        "image_id": tree.canvas.image_id,
        "width": tree.canvas.width,
        "height": tree.canvas.height,
        "nodes": [
            {
                "id": node.node_id,
                "label": node.label,
                "parent": None if node.parent_id == ROOT_ID else node.parent_id,
                "rle": node.mask.to_rle(),
            }
            for node in tree.nodes.values()
        ],
    }
    return json.dumps(payload, separators=(",", ":"))


@contextmanager
def located(where: str) -> Iterator[None]:
    """Re-raise an ``OtqError`` from the block, such as a parse's
    ``SchemaError``/``ValidationError``, with a ``where: `` prefix."""
    try:
        yield
    except OtqError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def iter_lines(source: str | Path | Iterable[str | bytes]
               ) -> Iterator[tuple[int, str | bytes]]:
    """Yield (lineno, line) for each non-blank line of a JSONL file or of
    ``str``/``bytes`` lines.  Each line is decoded on its own, before the
    blank test; one that is not UTF-8 is yielded as its bytes, which
    ``_payload`` rejects, so one bad line does not hide the lines after it."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield from iter_lines(fh)
        return
    for lineno, line in enumerate(source, start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                yield lineno, line
                continue
        if line.strip():
            yield lineno, line


def claim_image_id(ids: dict[str, _T], image_id: str, value: _T = None,
                   where: str | None = None) -> None:
    """Set ``ids[image_id] = value`` for an id not in ``ids``; a repeated id
    raises ``CorpusError``, ``<where>: duplicate image_id '<id>'``, without
    the prefix where no location is known."""
    if image_id in ids:
        prefix = "" if where is None else f"{where}: "
        raise CorpusError(f"{prefix}duplicate image_id '{image_id}'")
    ids[image_id] = value


def iter_corpus(path: str | Path) -> Iterator[OpenTree]:
    """Stream trees from a JSONL corpus file, enforcing unique image ids."""
    seen: dict[str, None] = {}
    for lineno, line in iter_lines(path):
        where = f"{path}:{lineno}"
        with located(where):
            tree = parse_tree(line)
        claim_image_id(seen, tree.canvas.image_id, where=where)
        yield tree


def write_atomically(path: str | Path, chunks: Iterable[str]) -> int:
    """Write UTF-8 text chunks to a new uniquely named file beside ``path``
    (``tempfile.mkstemp``), then rename it over ``path``; returns the chunk
    count.  No other file is touched and concurrent writers never share a
    temp file.  The output gets the mode ``open`` would give it (0666 less
    the umask), not mkstemp's 0600.  On any failure, including one raised by
    ``chunks``, the temp file is removed and the error re-raised, so
    ``path`` is either the whole new text or untouched."""
    path = Path(path)
    umask = os.umask(0)
    os.umask(umask)
    fd, name = tempfile.mkstemp(dir=path.parent, prefix=f"{path.name}.", suffix=".tmp")
    tmp = Path(name)
    n = 0
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            os.chmod(tmp, 0o666 & ~umask)
            for n, chunk in enumerate(chunks, start=1):
                fh.write(chunk)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return n


def write_corpus(trees: Iterable[OpenTree], path: str | Path) -> int:
    """Write a JSONL corpus with ``write_atomically``. Returns the count."""
    return write_atomically(path, (serialize_tree(t) + "\n" for t in trees))


def corpus_index(path: str | Path) -> dict[str, tuple[str, str]]:
    """Map image_id to its document ``(where, line)`` without decoding masks;
    ``where`` is ``"path:lineno"``.

    Used to pair corpora cheaply; ``metric.evaluate_corpus`` parses the lines
    and prefixes their errors with ``where``.
    """
    index: dict[str, tuple[str, str]] = {}
    for lineno, line in iter_lines(path):
        where = f"{path}:{lineno}"
        with located(where):
            payload = _payload(line)
        image_id = payload.get("image_id") if isinstance(payload, dict) else None
        if not isinstance(image_id, str):
            raise SchemaError(f"{where}: image_id must be a string")
        claim_image_id(index, image_id, (where, line), where)
    return index


def pair_by_image_id(left: Mapping[str, object], right: Mapping[str, object],
                     left_name: str, right_name: str) -> list[tuple]:
    """``(left[id], right[id])`` for every image id, in id order.  The id
    sets must match; ``CorpusError`` names up to ten ids missing on each
    side, e.g. ``predictions without references: [...]``."""
    unpaired = [f"{a} without {b}: {sorted(ids)[:10]}"
                for a, b, ids in ((left_name, right_name, left.keys() - right.keys()),
                                  (right_name, left_name, right.keys() - left.keys()))
                if ids]
    if unpaired:
        raise CorpusError("; ".join(unpaired))
    return [(left[image_id], right[image_id]) for image_id in sorted(left)]


def project_flat(tree: OpenTree) -> OpenTree:
    """Reattach every node directly under the artificial root.

    Masks and labels are untouched; this is how conventional flat
    segmentation references are compared against deep trees.
    """
    nodes = [InstanceNode(n.node_id, n.label, n.mask, ROOT_ID)
             for n in tree.nodes.values()]
    return OpenTree(tree.canvas, nodes)
