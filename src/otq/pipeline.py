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

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Protocol, Sequence

from .errors import PipelineError, RleError, SchemaError, ValidationError
from .masks import Mask, containment, intersection_area, iou, mask_difference, union_masks
from .tree import ROOT_ID, ImageCanvas, InstanceNode, OpenTree

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

    Overlap is intersection over the smaller area.  The transitive closure
    is re-run on the merged unions until no pair exceeds the bound, so the
    output is guaranteed pairwise below it.
    """
    masks = list(siblings)
    while True:
        n = len(masks)
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        merged_any = False
        for i in range(n):
            for j in range(i + 1, n):
                inter = intersection_area(masks[i], masks[j])
                if inter == 0:
                    continue
                smaller = min(masks[i].area, masks[j].area)
                if inter / smaller > SIBLING_MERGE_OVERLAP:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[max(ri, rj)] = min(ri, rj)
                        merged_any = True
        if not merged_any:
            return masks
        groups: dict[int, list[Mask]] = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(masks[i])
        masks = [union_masks(groups[root]) for root in sorted(groups)]


def decompose(canvas: ImageCanvas, proposer: Proposer, grounder: Grounder,
              limits: PipelineLimits = PipelineLimits()) -> SemanticTree:
    """Breadth-first semantic expansion from the root until exhaustion."""
    tree = SemanticTree(canvas=canvas, nodes={})
    next_id = 1
    queue: deque[int] = deque()

    def expand(parent_sem_id: int, parent_mask: Mask | None,
               path: tuple[str, ...], depth: int) -> list[int]:
        nonlocal next_id
        label = path[-1] if path else None
        request = PipelineRequest(canvas=canvas, path=path, label=label,
                                  parent_mask=parent_mask,
                                  bbox=parent_mask.bbox if parent_mask else None)
        try:
            labels = list(proposer.propose(request))[:limits.max_children]
        except PipelineError:
            raise
        except Exception as exc:
            raise PipelineError(f"proposer failed at path {path!r}: {exc}") from exc
        created: list[int] = []
        for child_label in labels:
            try:
                proposal = grounder.ground(canvas, child_label)
            except PipelineError:
                raise
            except Exception as exc:
                raise PipelineError(
                    f"grounder failed for {child_label!r} at path {path!r}: "
                    f"{exc}") from exc
            proposal = filter_proposal(proposal, parent_mask, canvas)
            if not proposal.masks:
                continue
            masks = merge_siblings(proposal.masks)
            node = SemanticNode(sem_id=next_id, label=child_label,
                                parent_id=parent_sem_id, masks=masks,
                                depth=depth)
            tree.nodes[next_id] = node
            created.append(next_id)
            next_id += 1
        return created

    def enqueue_residual(parent_sem_id: int, parent_mask: Mask,
                         child_ids: list[int], depth: int) -> Mask | None:
        nonlocal next_id
        residual = parent_mask
        for cid in child_ids:
            residual = mask_difference(residual, tree.nodes[cid].union_mask)
        if residual.area == 0:
            return None
        # A residual only earns a queue slot when the parent actually kept
        # children (otherwise it just restates the parent mask), and residuals
        # of residuals would recurse forever.
        parent_is_residual = (parent_sem_id != ROOT_ID
                              and tree.nodes[parent_sem_id].is_residual)
        if child_ids and not parent_is_residual and depth <= limits.max_depth:
            node = SemanticNode(sem_id=next_id, label=OTHERS_LABEL,
                                parent_id=parent_sem_id, masks=[residual],
                                depth=depth, is_residual=True)
            tree.nodes[next_id] = node
            queue.append(next_id)
            next_id += 1
        return residual

    root_children = expand(ROOT_ID, None, (), depth=1)
    for cid in root_children:
        queue.append(cid)
    tree.root_others = enqueue_residual(
        ROOT_ID, Mask.full(canvas.width, canvas.height), root_children, depth=1)

    while queue:
        sem_id = queue.popleft()
        node = tree.nodes[sem_id]
        if node.depth >= limits.max_depth:
            continue
        path = _semantic_path(tree, sem_id)
        union = node.union_mask
        child_ids = expand(sem_id, union, path, depth=node.depth + 1)
        for cid in child_ids:
            queue.append(cid)
        node.others_mask = enqueue_residual(sem_id, union, child_ids,
                                            depth=node.depth + 1)
    return tree


def _semantic_path(tree: SemanticTree, sem_id: int) -> tuple[str, ...]:
    labels: list[str] = []
    while sem_id != ROOT_ID:
        node = tree.nodes[sem_id]
        labels.append(node.label)
        sem_id = node.parent_id
    return tuple(reversed(labels))


def materialize_instances(semantic_tree: SemanticTree,
                          canvas: ImageCanvas | None = None) -> OpenTree:
    """Flatten grouped semantic masks into an instance-level tree.

    Residual ``others`` nodes materialize only when they were actually
    decomposed (they exist for bookkeeping otherwise).  Each instance
    attaches to the candidate parent instance with maximal containment,
    ties broken by higher parent IoU then smaller id; instances with zero
    containment against every candidate are dropped as noise, together with
    the subtree hanging off them.
    """
    canvas = canvas or semantic_tree.canvas
    nodes: list[InstanceNode] = []
    # Instances (id, mask) of each materialized semantic node.
    members_of: dict[int, list[tuple[int, Mask]]] = {}
    next_instance = 1
    has_children = {node.parent_id for node in semantic_tree.nodes.values()}
    for sem_id in sorted(semantic_tree.nodes):
        sem = semantic_tree.nodes[sem_id]
        if sem.is_residual and sem_id not in has_children:
            continue
        if sem.parent_id == ROOT_ID:
            candidates = None
        else:
            # Parents precede children in id order; a parent left out or
            # without instances drops the whole subtree.
            candidates = members_of.get(sem.parent_id)
            if not candidates:
                continue
        members = members_of[sem_id] = []
        for mask in sem.masks:
            if candidates is None:
                parent_instance = ROOT_ID
            else:
                best: tuple[float, float, int] | None = None
                parent_instance = None
                for mid, pmask in candidates:
                    cont = containment(mask, pmask)
                    if cont <= 0.0:
                        continue
                    key = (cont, iou(pmask, mask), -mid)
                    if best is None or key > best:
                        best = key
                        parent_instance = mid
                if parent_instance is None:
                    continue  # no containment evidence anywhere: noise
            nodes.append(InstanceNode(next_instance, sem.label, mask,
                                      parent_instance))
            members.append((next_instance, mask))
            next_instance += 1
    return OpenTree(canvas, nodes)


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
    root itself).
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: malformed JSON: {exc.msg}") from exc
    for key in ("image_id", "width", "height"):
        if key not in payload:
            raise SchemaError(f"{path}: missing {key!r}")
    canvas = ImageCanvas(payload["image_id"], payload["width"], payload["height"])
    children = payload.get("children", {})
    groundings: dict[str, list[tuple[Mask, float]]] = {}
    for label, entries in payload.get("masks", {}).items():
        groundings[label] = []
        for i, entry in enumerate(entries):
            where = f"{path}: masks[{label!r}][{i}]"
            if not (isinstance(entry, dict) and isinstance(entry.get("rle"), str)
                    and isinstance(entry.get("confidence"), (int, float))):
                raise SchemaError(
                    f"{where}: needs a string 'rle' and a numeric 'confidence'")
            try:
                mask = Mask.from_rle(entry["rle"], canvas.width, canvas.height)
            except RleError as exc:
                raise ValidationError(f"{where}: {exc}") from exc
            groundings[label].append((mask, float(entry["confidence"])))
    limits_raw = payload.get("limits", {})
    limits = PipelineLimits(
        max_depth=int(limits_raw.get("max_depth", PipelineLimits.max_depth)),
        max_children=int(limits_raw.get("max_children", PipelineLimits.max_children)),
    )
    return canvas, ScriptedProposer(children), ScriptedGrounder(groundings), limits
