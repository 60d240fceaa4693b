"""Training-free statistical screening for segmentation probability maps.

The pipeline localizes a lesion site from anchor-organ masks, fuses
multi-view / multi-scale predictions of a frozen text-conditioned
segmentor, extracts connected-component candidates, screens each against
the organ control region with a permutation two-sample test under FDR
control, and applies a three-level false-positive gate before emitting
the final mask.
"""

from .bench import BenchResult, BenchSpec, make_case, run_bench
from .candidates import (
    CandidateRegion,
    candidates_to_mask,
    connected_components,
    describe,
    filter_min_area,
)
from .fusion import apply_view, fuse_supports, fuse_views, run_tta
from .gating import (
    GateCheck,
    GateConfig,
    GateVerdict,
    GeometricParams,
    ScoringParams,
    StatisticalParams,
    gate_candidate,
    gate_case,
    gate_existence,
)
from .geometry import (
    AnatomyPlan,
    BoundingBox,
    bbox_of_mask,
    boxes_to_mask,
    build_rois,
    load_plan,
    pad_bbox,
    plan_from_dict,
    scale_bbox,
    square_bbox,
)
from .grid import BinaryMask, ScalarGrid, binarize, positive_ratio
from .metrics import (
    MetricsReport,
    SliceOutcome,
    accuracy,
    class_average_accuracy,
    dice,
    slice_sensitivity_specificity,
    soft_dice,
)
from .pipeline import CaseResult, ManifestEntry, load_manifest, process_case, run_manifest
from .segmentor import (
    Blob,
    ClutterSpec,
    FileBackend,
    SegmentorRequest,
    SyntheticBackend,
    SyntheticSceneSpec,
    render_synthetic,
)
from .sgrid import read_mask, read_sgrid, write_mask, write_sgrid
from .stats import (
    TestOutcome,
    bh_fdr,
    derive_seed,
    energy_distance,
    ks_statistic,
    ks_two_sample,
    median_heuristic,
    mmd2_unbiased,
    subsample,
    two_sample_test,
)

__version__ = "0.1.0"
