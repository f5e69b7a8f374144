"""Open-tree data model: validation, JSON (de)serialization, corpora.

A tree is a set of instance nodes (mask + open-vocabulary label + parent
reference) over one image canvas, rooted at an artificial root vertex that
carries no mask or label.  The root is represented by the reserved id
``ROOT_ID`` so that depth and ancestor computations have a concrete vertex.
Every ``OpenTree`` is its nodes as columns in id order (ids, normalized
labels, parent positions, depths) and their masks as one ``RunTable``, set
by one validating constructor.  ``OpenTree(canvas, nodes)`` lays its
``InstanceNode``s out as those columns; ``parse_tree`` reads a document's
fields into them and decodes its masks into the table without making an
``InstanceNode`` or ``Mask``; and ``project_flat``, ``degrade`` and
``serialize_tree`` read and write columns, never nodes.  Only code that
reads ``OpenTree.nodes`` builds ``InstanceNode``s.

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
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, TypeVar

import numpy as np

from .errors import CorpusError, OtqError, RleError, SchemaError, ValidationError
from .masks import (Mask, RunTable, _spread, boxes_meet, pair_ious, rle_decode_table,
                    rle_encode_table)

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

    Every tree is columns over its nodes in id order: ``ids``, the
    normalized ``labels``, ``parent_index`` (the position of each node's
    parent, -1 for the root) and ``node_depths`` (edges from the root), plus
    ``run_table``, the node masks as a ``masks.RunTable``.  All are set at
    construction, which checks every structural invariant: unique ids,
    nonempty labels and masks, parents resolvable, acyclicity.  A tree
    holds no ``InstanceNode``: ``nodes``, the ``InstanceNode`` dict in id
    order, is built from the columns and ``run_table``'s masks the first
    time it is read, and so are ``children`` and ``depths``.
    ``climb_pairs``, which scoring reads with ``run_table``, is built on
    first use and kept.
    """

    def __init__(self, canvas: ImageCanvas, nodes: Iterable[InstanceNode]) -> None:
        nodes = list(nodes)
        masks = [node.mask for node in nodes]
        fault = next(((i, 3, f"mask of node {node.node_id} is {m.width}x{m.height}, "
                       f"canvas is {canvas.width}x{canvas.height}")
                      for i, (node, m) in enumerate(zip(nodes, masks))
                      if m.width != canvas.width or m.height != canvas.height), None)
        # Only a node before the first mask off the canvas can fail ahead of
        # it, so the table holds the masks before it.
        self._set_columns(canvas, [node.node_id for node in nodes],
                          [node.label for node in nodes], [node.parent_id for node in nodes],
                          RunTable(masks if fault is None else masks[:fault[0]]), fault)

    @classmethod
    def _of_columns(cls, canvas: ImageCanvas, ids: list[int], labels: list[str],
                    parents: list[int], table: RunTable) -> "OpenTree":
        """The tree of the nodes' id, label and parent-id columns, in one
        order, and the table of their masks in the same order."""
        tree = cls.__new__(cls)
        tree._set_columns(canvas, ids, labels, parents, table)
        return tree

    def _set_columns(self, canvas: ImageCanvas, ids: list[int], labels: list[str],
                     parents: list[int], table: RunTable,
                     fault: tuple[int, int, str] | None = None) -> None:
        """Validate the nodes' fields and mask table, given in one order, and
        set the columns and ``run_table`` in id order.

        The checks and their messages are those of a loop over the nodes in
        the given order that raises at the first node that fails one, with
        the reserved id first, then a repeated id, an empty label, a mask
        off the canvas (``fault``, found by the caller) and an empty mask;
        then the first node whose parent is unknown; then the first cycle a
        walk up from each node in turn meets."""
        if canvas.width < 1 or canvas.height < 1:
            raise ValidationError(
                f"canvas must be at least 1x1, got {canvas.width}x{canvas.height}")
        if canvas.width * canvas.height >= 2**63:  # pixel offsets are int64
            raise ValidationError(
                f"canvas {canvas.width}x{canvas.height} has 2**63 pixels or more")
        normal = {label: normalize_label(label) for label in set(labels)}
        labels = [normal[label] for label in labels]
        known = set(ids)
        faults = [] if fault is None else [fault]
        if ROOT_ID in known:
            faults.append((ids.index(ROOT_ID), 0,
                           f"node id {ROOT_ID} is reserved for the artificial root"))
        if len(known) < len(ids):
            seen: set[int] = set()
            i = next(i for i, nid in enumerate(ids) if nid in seen or seen.add(nid))
            faults.append((i, 1, f"duplicate node id {ids[i]}"))
        if "" in normal.values():
            i = labels.index("")
            faults.append((i, 2, f"empty label at node {ids[i]}"))
        empty = np.flatnonzero(table.areas == 0)
        if empty.size:
            i = int(empty[0])
            faults.append((i, 4, f"empty mask at node {ids[i]}"))
        if faults:
            raise ValidationError(min(faults)[2])
        if not set(parents) <= known | {ROOT_ID}:
            nid, parent = next((nid, p) for nid, p in zip(ids, parents)
                               if p != ROOT_ID and p not in known)
            raise ValidationError(f"node {nid} references unknown parent {parent}")

        n = len(ids)
        order = sorted(range(n), key=ids.__getitem__)
        in_order = order == list(range(n))
        sorted_ids = ids if in_order else [ids[k] for k in order]
        at = dict(zip(sorted_ids, range(n)))
        at[ROOT_ID] = -1
        parent_index = np.array([at[parents[k]] for k in order], dtype=np.int64)
        # Pointer jumping: after r rounds ``up`` is 2**r steps above each
        # node, or the root, and ``depth`` counts the edges up to it; every
        # chain reaches the root within n.bit_length() rounds unless it
        # ends in a cycle.
        depth = np.ones(n, dtype=np.int64)
        up = parent_index.copy()
        for _ in range(n.bit_length() + 1):
            live = np.flatnonzero(up >= 0)
            if not live.size:
                break
            above = up[live]
            depth[live] += depth[above]
            up[live] = up[above]
        else:
            raise ValidationError(f"cycle at node {_first_cycle(ids, parents)}")
        self.canvas, self.ids = canvas, sorted_ids
        self.labels = labels if in_order else [labels[k] for k in order]
        self.parent_index, self.node_depths = parent_index, depth
        self.run_table = table if in_order else table.reordered(order)

    def _parent_ids(self) -> list[int]:
        """Each node's parent id, ``ROOT_ID`` for the root, in id order."""
        return [ROOT_ID if p < 0 else self.ids[p] for p in self.parent_index.tolist()]

    @cached_property
    def nodes(self) -> dict[int, InstanceNode]:
        """The ``InstanceNode`` of each id, in id order, made from the
        columns the first time this is read."""
        return {nid: InstanceNode(nid, label, mask, parent) for nid, label, mask, parent
                in zip(self.ids, self.labels, self.run_table.decoded_masks(),
                       self._parent_ids())}

    @cached_property
    def depths(self) -> dict[int, int]:
        """Each node's edge distance from the artificial root."""
        return dict(zip(self.ids, self.node_depths.tolist()))

    @cached_property
    def children(self) -> dict[int, tuple[int, ...]]:
        """Each node's children, and the root's under ``ROOT_ID``, in id
        order."""
        kids: dict[int, list[int]] = {nid: [] for nid in [ROOT_ID, *self.ids]}
        for nid, parent in zip(self.ids, self._parent_ids()):
            kids[parent].append(nid)
        return {nid: tuple(c) for nid, c in kids.items()}

    def _label_groups(self) -> np.ndarray:
        """Each node's label-path group: nodes share one exactly when their
        label paths are equal.  Groups are numbered in order of first
        appearance by depth, then position."""
        # Parents come before children in depth order; the root's position
        # -1 reads the sentinel group -1 at the end.
        group = [0] * len(self.ids) + [-1]
        number: dict[tuple[int, str], int] = {}
        parent, labels = self.parent_index.tolist(), self.labels
        for k in np.argsort(self.node_depths, kind="stable").tolist():
            group[k] = number.setdefault((group[parent[k]], labels[k]), len(number))
        return np.array(group[:-1], dtype=np.int64)

    @cached_property
    def climb_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(node, other, depth, iou)`` over the pairs of nodes with a
        positive mask IoU in which the other node's label path is a proper
        prefix of the node's: positions in id order, the prefix's length and
        the IoU.  These are the pairs the skeleton climb
        (``metric.build_skeleton``) chooses from, listed by node, longest
        prefix first, then by position.  Pairs whose bboxes overlap are
        scored in one call of ``masks.pair_ious``."""
        # Walk up one level at a time over the nodes still below the root,
        # so that the pairs number the sum of the depths; a stable sort by
        # node then lists every (node, ancestor) pair by node, innermost
        # ancestor first.
        node, above = np.arange(len(self.ids)), self.parent_index
        nodes, aboves = [], []
        while node.size:
            live = np.flatnonzero(above >= 0)
            node, above = node[live], above[live]
            nodes.append(node)
            aboves.append(above)
            above = self.parent_index[above]
        node, above = np.concatenate(nodes or [node]), np.concatenate(aboves or [above])
        by_node = np.argsort(node, kind="stable")
        node, above = node[by_node], above[by_node]
        # An ancestor stands for the nodes sharing its label path, in
        # position order: the members of its group.
        group = self._label_groups()
        members = np.argsort(group, kind="stable")
        size = np.bincount(group)
        g = group[above]
        owner, j = _spread(size[g])
        other = members[(np.cumsum(size) - size)[g][owner] + j]
        node, depth = node[owner], self.node_depths[above][owner]
        table = self.run_table
        meet = np.flatnonzero(boxes_meet(table.boxes[node], table.boxes[other]))
        node, other, depth = node[meet], other[meet], depth[meet]
        ious = pair_ious(table, node, other)
        hit = np.flatnonzero(ious > 0)
        return node[hit], other[hit], depth[hit], ious[hit]

    @property
    def n_nodes(self) -> int:
        """Number of instance nodes (the artificial root is not counted)."""
        return len(self.ids)

    def depth(self, node_id: int) -> int:
        """Edge distance from the artificial root; the root itself has depth 0."""
        if node_id == ROOT_ID:
            return 0
        try:
            return self.depths[node_id]
        except KeyError:
            raise ValidationError(f"unknown node id {node_id}") from None

    def leaves(self) -> tuple[int, ...]:
        return tuple(nid for nid in self.ids if not self.children[nid])

    def internal_ids(self) -> tuple[int, ...]:
        return tuple(nid for nid in self.ids if self.children[nid])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OpenTree):
            return NotImplemented
        return self.canvas == other.canvas and self.nodes == other.nodes

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"OpenTree({self.canvas.image_id!r}, "
                f"{self.canvas.width}x{self.canvas.height}, {self.n_nodes} nodes)")


def _first_cycle(ids: list[int], parents: list[int]) -> int:
    """The node at which a walk up from each node in turn, in the given
    order, first meets a node already on its own path."""
    parent_of = dict(zip(ids, parents))
    done = {ROOT_ID}
    for start in ids:
        chain: list[int] = []
        cur = start
        while cur not in done:
            if cur in chain:
                return cur
            chain.append(cur)
            cur = parent_of[cur]
        done.update(chain)
    raise AssertionError("no cycle")


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


def _node_columns(raw_nodes: list) -> tuple[list, list, list, list, SchemaError | None]:
    """The id, label, parent and rle columns of the raw nodes before the
    first one that fails ``_node_fields``, and its ``SchemaError`` (None if
    none fails)."""
    fields, error = [], None
    for i, raw in enumerate(raw_nodes):
        try:
            fields.append(_node_fields(i, raw))
        except SchemaError as exc:
            error = exc
            break
    return (*([f[k] for f in fields] for k in range(4)), error)


def parse_tree(document: str | bytes) -> OpenTree:
    """Parse and fully validate one per-image JSON document.

    All masks are decoded together into one run table by
    ``masks.rle_decode_table``, and the tree is built from the fields as
    columns, with no ``InstanceNode`` or ``Mask``; the error reported is
    still that of the first bad node in document order, whether its schema
    or its RLE is at fault.
    """
    payload = _payload(document)
    _require(isinstance(payload, dict), "document must be a JSON object")
    _require(isinstance(payload.get("image_id"), str), "image_id must be a string")
    _require(_is_int(payload.get("width")), "width must be an integer")
    _require(_is_int(payload.get("height")), "height must be an integer")
    _require(isinstance(payload.get("nodes"), list), "nodes must be a list")

    canvas = ImageCanvas(payload["image_id"], payload["width"], payload["height"])
    ids, labels, parents, rles, schema_error = _node_columns(payload["nodes"])
    try:
        table = rle_decode_table(rles, canvas.width, canvas.height)
    except RleError as exc:
        raise ValidationError(f"node {ids[exc.index]}: {exc}") from exc
    if schema_error is not None:
        raise schema_error
    return OpenTree._of_columns(canvas, ids, labels,
                                [ROOT_ID if p is None else p for p in parents], table)


def serialize_tree(tree: OpenTree) -> str:
    """One-line JSON document; parse_tree(serialize_tree(t)) == t."""
    payload = {
        "image_id": tree.canvas.image_id,
        "width": tree.canvas.width,
        "height": tree.canvas.height,
        "nodes": [
            {
                "id": nid,
                "label": label,
                "parent": None if parent == ROOT_ID else parent,
                "rle": rle,
            }
            for nid, label, parent, rle in zip(tree.ids, tree.labels, tree._parent_ids(),
                                               rle_encode_table(tree.run_table))
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
    return OpenTree._of_columns(tree.canvas, tree.ids, tree.labels,
                                [ROOT_ID] * tree.n_nodes, tree.run_table)
