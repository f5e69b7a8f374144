"""Deterministic reference-corruption generators for metric audits.

Each kind corrupts one aspect of a tree while preserving the rest:

* ``mask_erosion`` / ``mask_dilation`` transform every mask toward an area
  target; nodes whose masks vanish are dropped with children spliced to the
  nearest surviving ancestor.
* ``parent_rewire`` reassigns sampled nodes to new parents drawn uniformly
  from valid alternatives (not itself, not a descendant, not the current
  parent); masks and labels are untouched.
* ``internal_node_missing`` / ``leaf_node_missing`` / ``random_node_missing``
  remove sampled nodes from the respective candidate set, splicing children
  to the removed node's parent.

``keep_ratio`` is the fraction of evidence preserved: the mask-area keep for
erosion (dilation grows toward ``1/keep_ratio``), or the fraction of
candidate nodes left uncorrupted for the structural kinds.  All sampling is
driven by a per-image stream derived from (seed, image_id).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ConfigError
from .masks import Mask, RunTable, dilate, erode
from .seeding import choose, derive_rng, sample_without_replacement
from .tree import ROOT_ID, OpenTree

KINDS = (
    "mask_erosion",
    "mask_dilation",
    "parent_rewire",
    "internal_node_missing",
    "leaf_node_missing",
    "random_node_missing",
)

# Keep ratios of the standard audit sweep; arbitrary values are accepted.
SWEEP_KEEP_RATIOS = (0.75, 0.50, 0.30, 0.15)


@dataclass(frozen=True)
class DegradeSpec:
    kind: str
    keep_ratio: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown degradation kind {self.kind!r}")
        if not 0.0 < self.keep_ratio <= 1.0:
            raise ConfigError(
                f"keep_ratio must be in (0, 1], got {self.keep_ratio}")


def _corrupt_count(keep_ratio: float, n_candidates: int) -> int:
    # ceil((1 - keep) * n), at most n as keep > 0, with an epsilon guard
    # against float noise like (1 - 0.7) * 10 -> 3.0000000000000004.
    return max(0, math.ceil((1.0 - keep_ratio) * n_candidates - 1e-9))


def _rebuild_without(tree: OpenTree, removed: set[int],
                     masks: list[Mask] | None = None) -> OpenTree:
    """Drop `removed` nodes, splicing survivors to their nearest surviving
    ancestor (possibly the root); `masks`, if given, replaces the
    survivors' masks, in id order."""
    ids, parent = tree.ids, tree.parent_index.tolist()
    keep = [k for k, nid in enumerate(ids) if nid not in removed]
    parents = []
    for k in keep:
        p = parent[k]
        while p >= 0 and ids[p] in removed:
            p = parent[p]
        parents.append(ROOT_ID if p < 0 else ids[p])
    table = tree.run_table.reordered(keep) if masks is None else RunTable(masks)
    return OpenTree._of_columns(tree.canvas, [ids[k] for k in keep],
                                [tree.labels[k] for k in keep], parents, table)


def _degrade_masks(tree: OpenTree, spec: DegradeSpec) -> OpenTree:
    removed: set[int] = set()
    new_masks: list[Mask] = []
    for nid, mask in zip(tree.ids, tree.run_table.decoded_masks()):
        if spec.kind == "mask_erosion":
            mask = erode(mask, spec.keep_ratio)
        else:
            mask = dilate(mask, 1.0 / spec.keep_ratio)
        if mask.area == 0:
            removed.add(nid)
        else:
            new_masks.append(mask)
    return _rebuild_without(tree, removed, new_masks)


def _rewire_parents(tree: OpenTree, spec: DegradeSpec) -> OpenTree:
    rng = derive_rng(spec.seed, tree.canvas.image_id)
    all_ids = tree.ids
    k = _corrupt_count(spec.keep_ratio, len(all_ids))
    selected = sample_without_replacement(rng, all_ids, k)

    parent_of = dict(zip(all_ids, tree._parent_ids()))
    children_of: dict[int, set[int]] = {nid: set() for nid in [ROOT_ID, *all_ids]}
    for nid, parent in parent_of.items():
        children_of[parent].add(nid)

    # Reads the rewired tree (children_of changes with parent_of): the
    # original tree's descendants allow cycles.
    def descendants(root: int) -> set[int]:
        out: set[int] = set()
        frontier = [root]
        while frontier:
            kids = children_of[frontier.pop()] - out
            out |= kids
            frontier.extend(kids)
        return out

    for nid in selected:
        blocked = descendants(nid)
        blocked.add(nid)
        blocked.add(parent_of[nid])
        candidates = [ROOT_ID] + [other for other in all_ids if other not in blocked]
        if parent_of[nid] == ROOT_ID:
            candidates.remove(ROOT_ID)
        if not candidates:
            continue  # no alternative parent exists
        new_parent = choose(rng, candidates)
        children_of[parent_of[nid]].remove(nid)
        children_of[new_parent].add(nid)
        parent_of[nid] = new_parent

    return OpenTree._of_columns(tree.canvas, all_ids, tree.labels,
                                [parent_of[nid] for nid in all_ids], tree.run_table)


def _remove_nodes(tree: OpenTree, spec: DegradeSpec) -> OpenTree:
    if spec.kind == "internal_node_missing":
        candidates = sorted(tree.internal_ids())
    elif spec.kind == "leaf_node_missing":
        candidates = sorted(tree.leaves())
    else:
        candidates = tree.ids
    k = _corrupt_count(spec.keep_ratio, len(candidates))
    if k == 0:
        return tree
    rng = derive_rng(spec.seed, tree.canvas.image_id)
    removed = set(sample_without_replacement(rng, candidates, k))
    return _rebuild_without(tree, removed)


def degrade_tree(tree: OpenTree, spec: DegradeSpec) -> OpenTree:
    """Apply one corruption kind; the result is always a valid tree."""
    if spec.keep_ratio == 1.0:
        return tree
    if spec.kind in ("mask_erosion", "mask_dilation"):
        return _degrade_masks(tree, spec)
    if spec.kind == "parent_rewire":
        return _rewire_parents(tree, spec)
    return _remove_nodes(tree, spec)


def degrade_corpus(trees: Iterable[OpenTree],
                   spec: DegradeSpec) -> Iterator[OpenTree]:
    for tree in trees:
        yield degrade_tree(tree, spec)
