"""Open Tree Quality: evaluation toolkit for hierarchical instance-mask
trees with open-vocabulary labels.

Exported names and submodules are imported on first use (PEP 562), so
``python -m otq.cli`` loads only the modules its command runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# The module that defines each exported name.
_EXPORTS = {
    "audit": ("audit_grid", "grid_to_csv", "grid_to_table"),
    "degrade": ("KINDS", "SWEEP_KEEP_RATIOS", "DegradeSpec", "degrade_tree"),
    "errors": ("ConfigError", "CorpusError", "MaskError", "PipelineError", "RleError",
               "SchemaError", "SimilarityError", "ValidationError"),
    "labels": ("REJECT", "SimilarityProtocol", "load_similarity_table",
               "protocol_from_spec", "similarity"),
    "masks": ("Mask", "SizeBin", "containment", "dilate", "erode", "intersection_area",
              "iou", "mask_difference", "rle_decode", "rle_encode", "size_bin",
              "union_masks"),
    "matching": ("match_trees", "max_weight_assignment"),
    "metric": ("Skeleton", "aggregate_reports", "branch_quality", "build_skeleton",
               "evaluate_corpus", "evaluate_corpus_files", "evaluate_image",
               "matched_node_quality", "report_to_csv", "report_to_json",
               "report_to_table", "tree_quality"),
    "pipeline": ("PipelineLimits", "Proposal", "ScriptedGrounder", "ScriptedProposer",
                 "SemanticNode", "SemanticTree", "confidence_threshold", "decompose",
                 "filter_proposal", "load_scene_script", "materialize_instances",
                 "merge_siblings", "run_pipeline"),
    "stats": ("compat_eval", "corpus_stats"),
    "synth": ("chunky_corpus", "synthetic_corpus", "synthetic_tree"),
    "tree": ("ROOT_ID", "ImageCanvas", "InstanceNode", "OpenTree", "iter_corpus",
             "parse_tree", "project_flat", "serialize_tree", "write_corpus"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "seeding"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
