"""Model-free geometric core of the recursive annotation pipeline.

The driver expands a tree of semantic nodes breadth-first.  For each parent
it asks a proposer for child labels, grounds each label into candidate
instance masks, then applies the evidence gates:

* confidence: candidates below the scale-adaptive threshold are dropped
  (0.4 when the parent covers less than 5% of the image, else 0.5),
* coverage: masks covering more than 70% of the canvas or more than 90% of
  the parent mask are dropped,
* duplicates: sibling masks whose overlap (intersection over the smaller
  area) exceeds 90% are merged by pixel union, iterated to a fixpoint.

Surviving masks form a semantic node (one label, many instances).  Pixels
of a parent not covered by accepted children are recorded as its ``others``
residual and enqueued like any node; the residual only materializes when a
proposer actually decomposes it.  After expansion the semantic tree is
materialized into an instance-level tree: every member mask becomes a node
attached to the parent instance with the strongest containment evidence,
and children with no containment against any candidate parent are dropped.

Proposer and grounder are interfaces; scripted mocks driven by a JSON scene
description ship with the package (real models are out of scope here).
"""

from __future__ import annotations

import sys
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Protocol, Sequence

import numpy as np

from .errors import PipelineError, RleError, SchemaError, ValidationError
from .masks import (Mask, RunTable, boxes_meet, containment, intersection_area, iou,
                    mask_difference, pair_intersections, rle_decode, union_masks)
from .tree import ROOT_ID, ImageCanvas, InstanceNode, OpenTree, _is_int, _payload, located

OTHERS_LABEL = "others"

# Evidence-gate constants.
SMALL_PARENT_AREA_FRACTION = 0.05
RELAXED_CONFIDENCE = 0.4
STRICT_CONFIDENCE = 0.5
MAX_CANVAS_COVERAGE = 0.70
MAX_PARENT_COVERAGE = 0.90
SIBLING_MERGE_OVERLAP = 0.90


@dataclass(frozen=True)
class PipelineLimits:
    max_depth: int = 8
    max_children: int = 24


@dataclass(frozen=True)
class PipelineRequest:
    """Context handed to a proposer: the node being decomposed.

    ``path`` is the label chain from the root (empty at the root).  The
    parent mask is the union of the node's grouped instance masks; it is
    None at the root, where the whole canvas is the context.
    """

    canvas: ImageCanvas
    path: tuple[str, ...]
    label: str | None
    parent_mask: Mask | None
    bbox: tuple[int, int, int, int] | None


class Proposer(Protocol):
    def propose(self, request: PipelineRequest) -> Sequence[str]:
        """Child labels for the requested node; empty means stop."""


class Grounder(Protocol):
    def ground(self, canvas: ImageCanvas, label: str) -> "Proposal":
        """Candidate instance masks with confidences for one label."""


@dataclass
class Proposal:
    label: str
    masks: list[Mask]
    confidences: list[float]

    def __post_init__(self) -> None:
        if len(self.masks) != len(self.confidences):
            raise PipelineError(
                f"proposal {self.label!r}: {len(self.masks)} masks vs "
                f"{len(self.confidences)} confidences")


@dataclass
class SemanticNode:
    """A label grouping one or more instance masks under one parent."""

    sem_id: int
    label: str
    parent_id: int
    masks: list[Mask]
    depth: int
    is_residual: bool = False
    others_mask: Mask | None = None

    @property
    def union_mask(self) -> Mask:
        return union_masks(self.masks)


@dataclass
class SemanticTree:
    canvas: ImageCanvas
    nodes: dict[int, SemanticNode]
    root_others: Mask | None = None

    def children(self, sem_id: int) -> list[int]:
        return [nid for nid, node in self.nodes.items()
                if node.parent_id == sem_id]


def confidence_threshold(parent_mask: Mask | None, canvas: ImageCanvas) -> float:
    """Scale-adaptive grounding threshold; the root counts as the full canvas."""
    if parent_mask is None:
        return STRICT_CONFIDENCE
    fraction = parent_mask.area / (canvas.width * canvas.height)
    return RELAXED_CONFIDENCE if fraction < SMALL_PARENT_AREA_FRACTION else STRICT_CONFIDENCE


def filter_proposal(p: Proposal, parent_mask: Mask | None,
                    canvas: ImageCanvas) -> Proposal:
    """Apply the confidence and coverage gates; may return an empty proposal."""
    threshold = confidence_threshold(parent_mask, canvas)
    canvas_area = canvas.width * canvas.height
    masks: list[Mask] = []
    confidences: list[float] = []
    for mask, conf in zip(p.masks, p.confidences):
        if conf < threshold:
            continue
        if mask.area / canvas_area > MAX_CANVAS_COVERAGE:
            continue
        if parent_mask is not None and parent_mask.area > 0:
            covered = intersection_area(mask, parent_mask) / parent_mask.area
            if covered > MAX_PARENT_COVERAGE:
                continue
        masks.append(mask)
        confidences.append(conf)
    return Proposal(p.label, masks, confidences)


def merge_siblings(siblings: Sequence[Mask]) -> list[Mask]:
    """Union groups of near-duplicate masks until all pairs overlap <= 90%.

    Overlap is intersection over the smaller area.  The pairs i < j whose
    bboxes meet are scored in one ``masks.pair_intersections`` call; the
    close ones link their masks, and each connected group becomes the union
    of its members, the groups in order of their smallest member.  This is
    re-run on the unions until no pair exceeds the bound, so the output is
    guaranteed pairwise below it.
    """
    masks = list(siblings)
    while True:
        table = RunTable(masks)
        i, j = np.nonzero(boxes_meet(table.boxes[:, None], table.boxes))
        upper = i < j  # empty masks never pair, so the divisor is positive
        i, j = i[upper], j[upper]
        smaller = np.minimum(table.areas[i], table.areas[j])
        close = pair_intersections(table, i, j) / smaller > SIBLING_MERGE_OVERLAP
        if not close.any():
            return masks
        i, j = i[close], j[close]
        # Each mask's lead falls to the smallest member of its group: a
        # pair takes the smaller of its two leads, then each lead takes its
        # own lead's, until every linked pair agrees.
        lead = np.arange(len(masks))
        while True:
            low = np.minimum(lead[i], lead[j])
            np.minimum.at(lead, i, low)
            np.minimum.at(lead, j, low)
            lead = lead[lead]
            if np.array_equal(lead[i], lead[j]):
                break
        leads = lead.tolist()
        masks = [union_masks([m for m, k in zip(masks, leads) if k == first])
                 for first in sorted(set(leads))]


@contextmanager
def _blamed(what: str) -> Iterator[None]:
    """Re-raise a proposer or grounder failure as a PipelineError."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"{what}: {exc}") from exc


def decompose(canvas: ImageCanvas, proposer: Proposer, grounder: Grounder,
              limits: PipelineLimits = PipelineLimits()) -> SemanticTree:
    """Breadth-first semantic expansion from the root until exhaustion."""
    tree = SemanticTree(canvas=canvas, nodes={})
    paths: dict[int, tuple[str, ...]] = {ROOT_ID: ()}
    queue: deque[int] = deque([ROOT_ID])
    while queue:
        sem_id = queue.popleft()
        node = tree.nodes.get(sem_id)  # None at the root
        if node is not None and node.depth >= limits.max_depth:
            continue
        path = paths[sem_id]
        parent_mask = None if node is None else node.union_mask
        request = PipelineRequest(canvas=canvas, path=path,
                                  label=path[-1] if path else None,
                                  parent_mask=parent_mask,
                                  bbox=parent_mask.bbox if parent_mask else None)
        with _blamed(f"proposer failed at path {path!r}"):
            labels = list(proposer.propose(request))[:limits.max_children]
        depth = len(path) + 1
        children: list[SemanticNode] = []
        for label in labels:
            with _blamed(f"grounder failed for {label!r} at path {path!r}"):
                proposal = grounder.ground(canvas, label)
            proposal = filter_proposal(proposal, parent_mask, canvas)
            if proposal.masks:
                child = SemanticNode(len(tree.nodes) + 1, label, sem_id,
                                     merge_siblings(proposal.masks), depth)
                tree.nodes[child.sem_id] = child
                children.append(child)
        residual = parent_mask or Mask.full(canvas.width, canvas.height)
        for child in children:
            residual = mask_difference(residual, child.union_mask)
        if residual.area == 0:
            residual = None
        # A residual only earns a queue slot when the parent actually kept
        # children (otherwise it just restates the parent mask), and residuals
        # of residuals would recurse forever.
        elif (children and (node is None or not node.is_residual)
              and depth <= limits.max_depth):
            others = SemanticNode(len(tree.nodes) + 1, OTHERS_LABEL, sem_id,
                                  [residual], depth, is_residual=True)
            tree.nodes[others.sem_id] = others
            children.append(others)
        for child in children:
            paths[child.sem_id] = path + (child.label,)
            queue.append(child.sem_id)
        if node is None:
            tree.root_others = residual
        else:
            node.others_mask = residual
    return tree


def materialize_instances(semantic_tree: SemanticTree) -> OpenTree:
    """Flatten grouped semantic masks into an instance-level tree.

    Residual ``others`` nodes materialize only when they were actually
    decomposed (they exist for bookkeeping otherwise).  Each instance
    attaches to the candidate parent instance with maximal containment,
    ties broken by higher parent IoU then smaller id; instances with zero
    containment against every candidate are dropped as noise, together with
    the subtree hanging off them.
    """
    nodes: list[InstanceNode] = []
    # Instances (id, mask) of each materialized semantic node.
    members_of: dict[int, list[tuple[int, Mask]]] = {}
    has_children = {node.parent_id for node in semantic_tree.nodes.values()}
    for sem_id in sorted(semantic_tree.nodes):
        sem = semantic_tree.nodes[sem_id]
        if sem.is_residual and sem_id not in has_children:
            continue
        # None for the root's children.  Parents precede children in id
        # order; a parent left out or without instances drops the subtree.
        candidates = members_of.get(sem.parent_id)
        if sem.parent_id != ROOT_ID and not candidates:
            continue
        members = members_of[sem_id] = []
        for mask in sem.masks:
            parent_instance = ROOT_ID
            if candidates is not None:
                cont, _, neg_id = max((containment(mask, pmask), iou(pmask, mask), -mid)
                                      for mid, pmask in candidates)
                if cont <= 0.0:
                    continue  # no containment evidence anywhere: noise
                parent_instance = -neg_id
            nodes.append(InstanceNode(len(nodes) + 1, sem.label, mask, parent_instance))
            members.append((len(nodes), mask))
    return OpenTree(semantic_tree.canvas, nodes)


def run_pipeline(canvas: ImageCanvas, proposer: Proposer, grounder: Grounder,
                 limits: PipelineLimits = PipelineLimits()) -> OpenTree:
    """Decompose then materialize; deterministic given deterministic mocks."""
    return materialize_instances(decompose(canvas, proposer, grounder, limits))


class ScriptedProposer:
    """Mock proposer: maps a '/'-joined label path to child labels."""

    def __init__(self, children: Mapping[str, Sequence[str]]) -> None:
        self._children = {path: list(labels) for path, labels in children.items()}

    def propose(self, request: PipelineRequest) -> Sequence[str]:
        return self._children.get("/".join(request.path), [])


class ScriptedGrounder:
    """Mock grounder: maps a label to fixed masks with confidences."""

    def __init__(self, groundings: Mapping[str, Sequence[tuple[Mask, float]]]) -> None:
        self._groundings = {label: list(entries)
                            for label, entries in groundings.items()}

    def ground(self, canvas: ImageCanvas, label: str) -> Proposal:
        entries = self._groundings.get(label, [])
        return Proposal(label=label,
                        masks=[m for m, _ in entries],
                        confidences=[c for _, c in entries])


def load_scene_script(path: str | Path) -> tuple[ImageCanvas, ScriptedProposer,
                                                 ScriptedGrounder, PipelineLimits]:
    """Read a scene script driving the mock pipeline.

    Schema::

        {"image_id": str, "width": int, "height": int,
         "children": {"<path>": ["label", ...], ...},
         "masks": {"label": [{"rle": str, "confidence": float}, ...], ...},
         "limits": {"max_depth": int, "max_children": int}}   # optional

    where ``<path>`` is the '/'-joined label chain from the root ("" for the
    root itself).  Sides are at least 1, limits at least 0, every mask is
    non-empty, and every confidence is a finite number.
    """
    with located(str(path)):
        payload = _payload(Path(path).read_bytes())

    def require(cond: bool, key: str, what: str) -> None:
        if not cond:
            raise SchemaError(f"{path}: {key}: must be {what}")

    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: script must be a JSON object")
    for key in ("image_id", "width", "height"):
        if key not in payload:
            raise SchemaError(f"{path}: missing {key!r}")
    require(isinstance(payload["image_id"], str), "image_id", "a string")
    for key in ("width", "height"):
        require(_is_int(payload[key]), key, "an integer")
        require(payload[key] >= 1, key, "at least 1")
    canvas = ImageCanvas(payload["image_id"], payload["width"], payload["height"])
    children = payload.get("children", {})
    require(isinstance(children, dict), "children", "an object")
    for parent, labels in children.items():
        require(isinstance(labels, list)
                and all(isinstance(label, str) for label in labels),
                f"children[{parent!r}]", "a list of strings")
    masks = payload.get("masks", {})
    require(isinstance(masks, dict), "masks", "an object")
    groundings: dict[str, list[tuple[Mask, float]]] = {}
    for label, entries in masks.items():
        require(isinstance(entries, list), f"masks[{label!r}]", "a list")
        groundings[label] = []
        for i, entry in enumerate(entries):
            where = f"{path}: masks[{label!r}][{i}]"
            if not (isinstance(entry, dict) and isinstance(entry.get("rle"), str)
                    and isinstance(entry.get("confidence"), (int, float))
                    and not isinstance(entry["confidence"], bool)):
                raise SchemaError(
                    f"{where}: needs a string 'rle' and a numeric 'confidence'")
            # False for NaN, the infinities and ints past the float range.
            if not abs(entry["confidence"]) <= sys.float_info.max:
                raise SchemaError(f"{where}: 'confidence' must be finite")
            try:
                mask = rle_decode(entry["rle"], canvas.width, canvas.height)
            except RleError as exc:
                raise ValidationError(f"{where}: {exc}") from exc
            if mask.area == 0:
                raise SchemaError(f"{where}: empty mask")
            groundings[label].append((mask, float(entry["confidence"])))
    limits_raw = payload.get("limits", {})
    require(isinstance(limits_raw, dict), "limits", "an object")
    limits = PipelineLimits(
        max_depth=limits_raw.get("max_depth", PipelineLimits.max_depth),
        max_children=limits_raw.get("max_children", PipelineLimits.max_children),
    )
    for key in ("max_depth", "max_children"):
        require(_is_int(getattr(limits, key)), f"limits[{key!r}]", "an integer")
        require(getattr(limits, key) >= 0, f"limits[{key!r}]", "at least 0")
    return canvas, ScriptedProposer(children), ScriptedGrounder(groundings), limits
