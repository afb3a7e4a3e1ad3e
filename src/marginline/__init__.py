"""Automated margin line extraction for dental die scans.

Pipeline: canonical-pose registration, decimation, label transfer from
crown bottoms, cell featurization, graph-constrained mesh segmentation with
k-fold ensembling, a banded graph cut on the full-resolution scan, and
periodic smoothing-spline margin extraction on that scan.
"""

from .errors import (
    AlignmentError,
    BoundaryExtractionError,
    EmptyMeshError,
    EmptyRegionError,
    IncompleteMarginError,
    ManifestError,
    MarginlineError,
    MeshParseError,
    MetricError,
    NormalizationError,
    RegistrationError,
    SplineFitError,
    TopologyError,
)
from .mesh import (
    FaceAdjacency,
    TriangleMesh,
    connected_components,
    extract_boundary_loops,
)
from .meshio import (
    load_mesh,
    save_ply,
    save_stl_binary,
)
from .preprocess import RigidTransform, augment, normalize, obb_register
from .decimate import decimate
from .features import (
    AdjacencyPair,
    assemble_features,
    build_adjacency,
    compute_mean_curvature,
)
from .labeling import label_die
from .ensemble import combine
from .refine import GraphCutConfig, cleanup_components, cut_energy, graph_cut_refine
from .spline import SmoothingSpline, fit_smoothing_spline, smoothness_bound
from .margin import extract_margin_line
from .metrics import (
    aggregate,
    evaluate_case,
    margin_distance_stats,
    segmentation_metrics,
    spearman,
)
from .manifest import DatasetManifest, load_manifest
from .pipeline import PipelineConfig, run_pipeline
from .synthetic import generate_benchmark

__version__ = "1.0.0"

__all__ = [
    "AdjacencyPair", "AlignmentError", "BoundaryExtractionError",
    "DatasetManifest", "EmptyMeshError", "EmptyRegionError",
    "FaceAdjacency", "GraphCutConfig", "IncompleteMarginError",
    "ManifestError", "MarginlineError", "MeshParseError", "MetricError",
    "NormalizationError", "PipelineConfig", "RegistrationError",
    "RigidTransform", "SmoothingSpline", "SplineFitError", "TopologyError",
    "TriangleMesh", "aggregate", "assemble_features", "augment",
    "build_adjacency", "cleanup_components", "combine",
    "compute_mean_curvature", "connected_components", "cut_energy",
    "decimate", "evaluate_case", "extract_boundary_loops",
    "extract_margin_line", "fit_smoothing_spline", "generate_benchmark",
    "graph_cut_refine", "label_die", "load_manifest",
    "load_mesh", "margin_distance_stats", "normalize", "obb_register",
    "run_pipeline", "save_ply", "save_stl_binary",
    "segmentation_metrics", "smoothness_bound", "spearman",
]
