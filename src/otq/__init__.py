"""Open Tree Quality: evaluation toolkit for hierarchical instance-mask
trees with open-vocabulary labels."""

from .audit import audit_grid, grid_to_csv, grid_to_table
from .degrade import KINDS, SWEEP_KEEP_RATIOS, DegradeSpec, degrade_tree
from .errors import (
    ConfigError,
    CorpusError,
    MaskError,
    PipelineError,
    RleError,
    SchemaError,
    SimilarityError,
    ValidationError,
)
from .labels import (
    REJECT,
    SimilarityProtocol,
    load_similarity_table,
    protocol_from_spec,
    similarity,
)
from .masks import (
    Mask,
    SizeBin,
    containment,
    dilate,
    erode,
    intersection_area,
    iou,
    mask_difference,
    rle_decode,
    rle_encode,
    size_bin,
    union_masks,
)
from .matching import match_trees, max_weight_assignment
from .metric import (
    Skeleton,
    aggregate_reports,
    branch_quality,
    build_skeleton,
    evaluate_corpus,
    evaluate_corpus_files,
    evaluate_image,
    matched_node_quality,
    report_to_csv,
    report_to_json,
    report_to_table,
    tree_quality,
)
from .pipeline import (
    PipelineLimits,
    Proposal,
    ScriptedGrounder,
    ScriptedProposer,
    SemanticNode,
    SemanticTree,
    confidence_threshold,
    decompose,
    filter_proposal,
    load_scene_script,
    materialize_instances,
    merge_siblings,
    run_pipeline,
)
from .stats import compat_eval, corpus_stats
from .synth import chunky_corpus, synthetic_corpus, synthetic_tree
from .tree import (
    ROOT_ID,
    ImageCanvas,
    InstanceNode,
    OpenTree,
    iter_corpus,
    parse_tree,
    project_flat,
    serialize_tree,
    write_corpus,
)

__version__ = "0.1.0"
