"""End-to-end orchestration over a run directory.

Stages (each a plain function taking the manifest, config and run dir):

    preprocess -> labels -> features -> train -> predict -> refine
               -> extract -> evaluate

Every stage writes its artifacts under its own subdirectory of the run
directory and reads only from earlier stages, so a run can be resumed or
re-entered at any point.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .decimate import decimate
from .ensemble import combined_field, strategy_fold
from .errors import ManifestError
from .features import (
    AdjacencyPair,
    CellFeatures,
    assemble_features,
    build_adjacency,
    compute_mean_curvature,
    load_feature_cache,
    save_feature_cache,
)
from .labeling import LabeledMesh, extract_margin_points, label_die
from .manifest import DatasetManifest
from .margin import extract_margin_line, load_margin_json
from .mesh import TriangleMesh
from .meshio import load_mesh, save_ply, save_stl_binary
from .preprocess import (
    AugmentationSpec,
    RigidTransform,
    augment,
    normalize,
    obb_register,
)
from .refine import GraphCutConfig, cleanup_components, graph_cut_refine
from .segnet import (
    COMPUTE_DTYPE,
    NetworkParams,
    TrainConfig,
    forward,
    kfold_split,
    thread_map,
    train_kfold,
    write_history_csv,
)


@dataclass
class PipelineConfig:
    target_faces: int = 10000
    augment_per_die: int = 0
    folds: int = 5
    epochs: int = 200
    width_scale: float = 1.0
    learning_rate: float = 1e-3
    batch_size: int = 10
    ensemble: str = "max_probability"
    smoothness: float = 2.0
    dihedral_sigma: float = 0.5
    n_samples: int = 5000
    threshold_um: float = 200.0
    seed: int = 0

    def train_config(self):
        # every TrainConfig field is a field of this config, by the same name
        names = TrainConfig.__dataclass_fields__
        return TrainConfig(**{name: getattr(self, name) for name in names})

    def graph_cut_config(self):
        return GraphCutConfig(
            smoothness=self.smoothness, dihedral_sigma=self.dihedral_sigma
        )

    def validate(self):
        """Refuses every field value that a later stage would fail on, so
        a bad config stops before any stage runs."""
        for ok, message in (
            (self.target_faces >= 4, "target_faces must be at least 4"),
            (self.augment_per_die >= 0, "augment_per_die must be >= 0"),
            (self.folds >= 2, "need at least 2 folds"),
            (self.n_samples >= 8, "n_samples must be at least 8"),
            (self.threshold_um > 0, "threshold_um must be positive"),
            (self.seed >= 0, "seed must be >= 0"),
        ):
            if not ok:
                raise ValueError(message)
        strategy_fold(self.ensemble, self.folds)
        self.train_config().validate()
        self.graph_cut_config().validate()

    @staticmethod
    def from_json(path):
        raw = json.loads(Path(path).read_text())
        known = {f for f in PipelineConfig.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return PipelineConfig(**raw)

    def save(self, path):
        Path(path).write_text(json.dumps(asdict(self), indent=1))


def _stage_dir(run_dir, name):
    d = Path(run_dir) / name
    d.mkdir(parents=True, exist_ok=True)
    return d


def _save_transform(path, transform: RigidTransform, meta=None):
    payload = {
        "rotation": transform.rotation.tolist(),
        "translation": transform.translation.tolist(),
    }
    payload.update(meta or {})
    Path(path).write_text(json.dumps(payload, indent=1))


def _load_transform(path):
    raw = json.loads(Path(path).read_text())
    return RigidTransform(
        np.asarray(raw["rotation"], dtype=float),
        np.asarray(raw["translation"], dtype=float),
    )


def stage_preprocess(manifest: DatasetManifest, config: PipelineConfig, run_dir):
    """Register every die to the canonical pose and decimate it."""
    out = _stage_dir(run_dir, "preprocess")
    for case in manifest:
        die = load_mesh(case.die_path)
        registered, transform = obb_register(die, arch=case.arch)
        decimated = decimate(registered, config.target_faces)
        save_stl_binary(registered, out / f"{case.case_id}_registered.stl")
        save_stl_binary(decimated, out / f"{case.case_id}_decimated.stl")
        _save_transform(
            out / f"{case.case_id}_transform.json",
            transform,
            {"arch": case.arch, "target_faces": config.target_faces},
        )
    return out


def stage_labels(manifest: DatasetManifest, config: PipelineConfig, run_dir):
    """Transfer each crown-bottom boundary onto its decimated die."""
    pre = Path(run_dir) / "preprocess"
    out = _stage_dir(run_dir, "labels")
    for case in manifest:
        if case.crown_bottom_path is None:
            continue
        transform = _load_transform(pre / f"{case.case_id}_transform.json")
        crown = load_mesh(case.crown_bottom_path)
        crown = TriangleMesh(transform.apply(crown.vertices), crown.faces)
        decimated = load_mesh(pre / f"{case.case_id}_decimated.stl")
        labeled = label_die(decimated, crown)
        np.save(out / f"{case.case_id}_labels.npy", labeled.labels)
        truth = extract_margin_points(crown)
        (out / f"{case.case_id}_truth_margin.json").write_text(
            json.dumps(
                {"case_id": case.case_id, "points": truth.tolist()}, indent=1
            )
        )
    return out


def _featurize(mesh: TriangleMesh):
    """Feature matrix plus adjacency for one decimated die (mm frame in,
    normalized coordinates out), cast once to the network's compute
    dtype, so neither training nor prediction has to."""
    curvature = compute_mean_curvature(mesh)
    normalized, _ = normalize(mesh)
    feats = assemble_features(normalized, curvature)
    adj = build_adjacency(normalized.barycenters)
    return (
        CellFeatures(feats.matrix.astype(COMPUTE_DTYPE)),
        AdjacencyPair(*(a.astype(COMPUTE_DTYPE) for a in adj)),
    )


def stage_features(manifest: DatasetManifest, config: PipelineConfig, run_dir):
    """Cache features/adjacency (and labels where known) per case, plus
    augmented variants of training cases when configured."""
    pre = Path(run_dir) / "preprocess"
    labels_dir = Path(run_dir) / "labels"
    out = _stage_dir(run_dir, "features")
    spec = AugmentationSpec(samples_per_die=config.augment_per_die, seed=config.seed)
    for index, case in enumerate(manifest):
        mesh = load_mesh(pre / f"{case.case_id}_decimated.stl")
        labels_path = labels_dir / f"{case.case_id}_labels.npy"
        # an inference-only case (no crown bottom) has no labels
        samples = [(mesh, None)]
        if labels_path.exists():
            variants = [LabeledMesh(mesh, np.load(labels_path))]
            if config.augment_per_die > 0 and case.split == "train":
                variants = augment(variants[0], spec, sample_index=index)
            samples = [(v.mesh, v.labels) for v in variants]
        for k, (mesh, labels) in enumerate(samples):
            feats, adj = _featurize(mesh)
            name = case.case_id if k == 0 else f"{case.case_id}#aug{k}"
            save_feature_cache(out / f"{name}.mlfc", feats, adj, labels=labels)
    return out


def base_case_id(sample_id):
    """Strip the '#augN' suffix from augmented variant ids."""
    return sample_id.split("#", 1)[0]


def stage_train(manifest: DatasetManifest, config: PipelineConfig, run_dir):
    """k-fold ensemble training over all labeled training samples."""
    feat_dir = Path(run_dir) / "features"
    out = _stage_dir(run_dir, "models")
    train_ids = {c.case_id for c in manifest.split("train")}
    dataset = {}
    for path in sorted(feat_dir.glob("*.mlfc")):
        sample_id = path.stem
        if base_case_id(sample_id) not in train_ids:
            continue
        feats, adj, labels = load_feature_cache(path)
        if labels is not None:
            dataset[sample_id] = (feats.matrix, adj, labels)
    base_ids = sorted({base_case_id(s) for s in dataset})
    # folds split cases, not samples: #augK variants do not fill a fold
    if len(base_ids) < config.folds:
        raise ManifestError(
            f"{len(base_ids)} labeled training cases cannot fill "
            f"{config.folds} folds"
        )
    folds = kfold_split(base_ids, k=config.folds, seed=config.seed)
    # every #augK variant trains and validates in its base case's fold
    fold_of = {s: folds[base_case_id(s)] for s in dataset}
    models, history = train_kfold(dataset, fold_of, config.train_config())
    for fold, params in models.items():
        params.save(out / f"fold{fold}.bin")
    (out / "folds.json").write_text(json.dumps(folds, indent=1))
    write_history_csv(out / "history.csv", history)

    # per-fold validation dice of the snapshot actually kept
    def fold_dice(fold):
        scores = [
            metrics_mod.segmentation_metrics(
                np.argmax(forward(models[fold], x, adj), axis=1), labels
            )[1]
            for sid, (x, adj, labels) in dataset.items()
            if fold_of[sid] == fold
        ]
        return float(np.mean(scores)) if scores else None

    val_dice = dict(zip(map(str, models), thread_map(fold_dice, models)))
    (out / "validation_dice.json").write_text(json.dumps(val_dice, indent=1))
    return out


def _prediction_cases(manifest):
    test = manifest.split("test")
    return test if test else list(manifest)


def stage_predict(manifest: DatasetManifest, config: PipelineConfig, run_dir):
    """Run every fold model and combine the probability fields."""
    feat_dir = Path(run_dir) / "features"
    model_dir = Path(run_dir) / "models"
    out = _stage_dir(run_dir, "predict")
    folds = range(1, config.folds + 1)
    models = [NetworkParams.load(model_dir / f"fold{k}.bin") for k in folds]
    for case in _prediction_cases(manifest):
        feats, adj, _ = load_feature_cache(feat_dir / f"{case.case_id}.mlfc")
        fields = thread_map(lambda params: forward(params, feats.matrix, adj), models)
        # refine cuts this field, whose argmax is the ensemble's label
        field = combined_field(fields, config.ensemble)
        np.save(out / f"{case.case_id}_probs.npy", field)
    return out


def stage_refine(manifest: DatasetManifest, config: PipelineConfig, run_dir):
    """Graph-cut smoothing of the ensembled fields plus island removal."""
    pre = Path(run_dir) / "preprocess"
    pred = Path(run_dir) / "predict"
    out = _stage_dir(run_dir, "refine")
    gc = config.graph_cut_config()
    for case in _prediction_cases(manifest):
        mesh = load_mesh(pre / f"{case.case_id}_decimated.stl")
        probs = np.load(pred / f"{case.case_id}_probs.npy")
        labels = graph_cut_refine(mesh, probs, gc)
        labels = cleanup_components(labels, mesh.adjacency())
        np.save(out / f"{case.case_id}_labels.npy", labels)
        save_ply(mesh, out / f"{case.case_id}_refined.ply", labels)
    return out


def stage_extract(manifest: DatasetManifest, config: PipelineConfig, run_dir):
    """Margin line per case, projected onto the full-resolution die."""
    pre = Path(run_dir) / "preprocess"
    ref = Path(run_dir) / "refine"
    out = _stage_dir(run_dir, "margins")
    for case in _prediction_cases(manifest):
        decimated = load_mesh(pre / f"{case.case_id}_decimated.stl")
        labels = np.load(ref / f"{case.case_id}_labels.npy")
        original = load_mesh(pre / f"{case.case_id}_registered.stl")
        line = extract_margin_line(
            LabeledMesh(decimated, labels),
            original,
            n_samples=config.n_samples,
            case_id=case.case_id,
        )
        line.save_json(out / f"{case.case_id}_margin.json")
        line.save_obj(out / f"{case.case_id}_margin.obj")
    return out


def stage_evaluate(manifest: DatasetManifest, config: PipelineConfig, run_dir):
    """Scores every predicted case against the transferred ground truth."""
    labels_dir = Path(run_dir) / "labels"
    out = _stage_dir(run_dir, "evaluation")
    evaluations = []
    for case in _prediction_cases(manifest):
        truth_labels = pred_labels = None
        truth_path = labels_dir / f"{case.case_id}_labels.npy"
        if truth_path.exists():
            truth_labels = np.load(truth_path)
        refined = Path(run_dir) / "refine" / f"{case.case_id}_labels.npy"
        if truth_labels is not None and refined.exists():
            pred_labels = np.load(refined)
        truth_margin = pred_margin = None
        truth_path = labels_dir / f"{case.case_id}_truth_margin.json"
        margin_path = Path(run_dir) / "margins" / f"{case.case_id}_margin.json"
        if truth_path.exists() and margin_path.exists():
            truth_margin = np.asarray(
                json.loads(truth_path.read_text())["points"], dtype=float
            )
            pred_margin, _ = load_margin_json(margin_path)
        evaluations.append(
            metrics_mod.evaluate_case(
                pred_labels=pred_labels,
                truth_labels=truth_labels,
                pred_margin_points=pred_margin,
                truth_margin_points=truth_margin,
                threshold_um=config.threshold_um,
                case_id=case.case_id,
                rating=case.rating,
            )
        )
    summary = metrics_mod.aggregate(evaluations)
    rated = [
        e for e in evaluations if e.rating is not None and e.distances is not None
    ]
    if len(rated) >= 3:
        try:
            r, p = metrics_mod.spearman(
                [e.rating for e in rated],
                [e.distances.mean_um for e in rated],
            )
            summary["spearman_r"] = r
            summary["spearman_p"] = p
        except metrics_mod.MetricError:
            pass
    rows = [e.row() for e in evaluations]
    (out / "report.json").write_text(
        json.dumps({"cases": rows, "summary": summary}, indent=1)
    )
    _write_report_csv(out / "report.csv", rows)
    return out


def _write_report_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=metrics_mod.REPORT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


STAGES = (
    ("preprocess", stage_preprocess),
    ("labels", stage_labels),
    ("features", stage_features),
    ("train", stage_train),
    ("predict", stage_predict),
    ("refine", stage_refine),
    ("extract", stage_extract),
    ("evaluate", stage_evaluate),
)


def run_pipeline(manifest: DatasetManifest, config: PipelineConfig, run_dir):
    """All stages in order; returns the evaluation directory."""
    config.validate()
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    config.save(run_dir / "config.json")
    out = None
    for _, fn in STAGES:
        out = fn(manifest, config, run_dir)
    return out
