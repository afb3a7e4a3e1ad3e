"""End-to-end orchestration over a run directory.

Stages (each a plain function taking the manifest, config and run dir):

    preprocess -> labels -> features -> train -> predict -> refine
               -> extract -> evaluate

Every stage writes its artifacts under its own subdirectory of the run
directory and reads only from earlier stages, so a run can be resumed or
re-entered at any point. `artifact_path` names every per-case file, and
`sample_ids` the training samples of each case.

Every stage but train is one function of a single case, mapped over the
stage's cases by `_each_case`, which holds the batch policy: a case
that raises one of `errors.DATA_ERRORS` (a `MarginlineError`, or the
`ValueError`, `FileNotFoundError`, `IsADirectoryError` or
`NotADirectoryError` of an unreadable or missing file, or of a path of
the wrong kind) does not stop the others, and once the last case is
done the stage raises one `MarginlineError` naming every failed case id
with its error class and message, chained from the first failure. Any
other exception, such as an `IndexError`, propagates at once.
`run_stages` is the one entry point of the library and the command
line: it validates the config, creates the run directory, writes
`config.json` and runs the stages in order.
"""

from __future__ import annotations

import csv
import json
import numbers
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .decimate import decimate
from .ensemble import combine, strategy_fold
from .errors import DATA_ERRORS, ManifestError, MarginlineError, make_dir, read_json
from .features import (
    AdjacencyPair,
    assemble_features,
    build_adjacency,
    compute_mean_curvature,
    load_feature_cache,
    save_feature_cache,
)
from .labeling import extract_margin_points, label_die
from .manifest import DatasetManifest
from .margin import (
    band_problem,
    extract_margin_line,
    load_margin_json,
    save_margin_json,
    save_margin_obj,
)
from .mesh import TriangleMesh, nearest_face_labels
from .meshio import load_mesh, save_stl_binary
from .preprocess import RigidTransform, augment, normalize, obb_register
from .refine import cleanup_components, graph_cut_refine
from .segnet.network import NetworkParams, forward
from .segnet.train import (
    COMPUTE_DTYPE,
    kfold_split,
    thread_map,
    train_kfold,
    write_history_csv,
)


# a config field's annotation -> the type its values must have, and that
# type's name in an error; bool is an Integral but is refused
_FIELD_KINDS = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a real number"),
    "str": (str, "a string"),
}


@dataclass
class PipelineConfig:
    target_faces: int = 10000
    augment_per_die: int = 0
    folds: int = 5
    epochs: int = 200
    width_scale: float = 1.0
    batch_size: int = 10
    ensemble: str = "max_probability"
    n_samples: int = 5000
    seed: int = 0

    def validate(self):
        """Refuses every field value that a later stage would fail on, so
        a bad config stops before any stage runs."""
        for name, field in self.__dataclass_fields__.items():
            value = getattr(self, name)
            kind, kind_name = _FIELD_KINDS[field.type]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {kind_name}, not {value!r}")
        for ok, message in (
            (self.target_faces >= 4, "target_faces must be at least 4"),
            (self.augment_per_die >= 0, "augment_per_die must be >= 0"),
            (self.folds >= 2, "need at least 2 folds"),
            (self.epochs > 0, "epochs must be positive"),
            (self.batch_size > 0, "batch_size must be positive"),
            # NaN and inf fail too
            (0 < self.width_scale < np.inf, "width_scale must be positive and finite"),
            (self.n_samples >= 8, "n_samples must be at least 8"),
            (self.seed >= 0, "seed must be >= 0"),
        ):
            if not ok:
                raise ValueError(message)
        strategy_fold(self.ensemble, self.folds)

    @staticmethod
    def from_json(path):
        if Path(path).is_dir():
            raise MarginlineError(f"{path}: a config must be a file, not a directory")
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: a config must be a JSON object, not {raw!r}")
        known = {f for f in PipelineConfig.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return PipelineConfig(**raw)

    def save(self, path):
        Path(path).write_text(json.dumps(asdict(self), indent=1))


# per-case artifact kind -> (stage directory, file name after the case id)
ARTIFACTS = {
    "decimated": ("preprocess", "_decimated.stl"),
    "transform": ("preprocess", "_transform.json"),
    "labels": ("labels", "_labels.npy"),
    "truth_margin": ("labels", "_truth_margin.json"),
    "features": ("features", ".mlfc"),
    "vote": ("predict", "_vote.npy"),
    "refined": ("refine", "_labels.npy"),
    "margin": ("margins", "_margin.json"),
    "margin_obj": ("margins", "_margin.obj"),
}


def artifact_path(run_dir, kind, case_id):
    """Path of the `kind` artifact of one case (or augmented sample)."""
    stage, suffix = ARTIFACTS[kind]
    return Path(run_dir) / stage / f"{case_id}{suffix}"


def sample_ids(case_id, n_augmented):
    """`case_id` and the ids of its augmented copies, `<case>#aug1` on."""
    return [case_id] + [f"{case_id}#aug{k}" for k in range(1, n_augmented + 1)]


def _each_case(stage, cases, run_dir, per_case):
    """Creates the `stage` directory of the run and calls
    `per_case(case, path)` for every case in order, `path(kind)` being
    the case's `artifact_path`; returns the directory. Failures follow
    the batch policy in the module docstring."""
    out = make_dir(Path(run_dir) / stage, "stage")
    failures = []
    for case in cases:
        try:
            per_case(case, partial(artifact_path, run_dir, case_id=case.case_id))
        except DATA_ERRORS as exc:
            failures.append((case.case_id, exc))
    if failures:
        raise MarginlineError(
            f"{stage}: {len(failures)} of {len(cases)} cases failed: "
            + "; ".join(f"{cid}: {type(e).__name__}: {e}" for cid, e in failures)
        ) from failures[0][1]
    return out


def _save_transform(path, transform: RigidTransform, meta=None):
    payload = {
        "rotation": transform.rotation.tolist(),
        "translation": transform.translation.tolist(),
    }
    payload.update(meta or {})
    Path(path).write_text(json.dumps(payload, indent=1))


def _load_transform(path):
    raw = read_json(path, "rotation", "translation")
    return RigidTransform(
        np.asarray(raw["rotation"], dtype=float),
        np.asarray(raw["translation"], dtype=float),
    )


def _load_per_face(path, n_faces):
    """The per-face array an earlier stage saved at `path`, refused with
    a MarginlineError unless it has `n_faces` rows."""
    values = np.load(path)
    if len(values) != n_faces:
        raise MarginlineError(f"{path} has {len(values)} rows for {n_faces} faces")
    return values


def _registered(mesh: TriangleMesh, transform_path):
    """`mesh` moved by the registration that preprocess saved at
    `transform_path`. The JSON round trip is exact, so a die comes out
    bit for bit as `obb_register` returned it."""
    transform = _load_transform(transform_path)
    return TriangleMesh(transform.apply(mesh.vertices), mesh.faces)


def stage_preprocess(manifest: DatasetManifest, config: PipelineConfig, run_dir):
    """Register every die to the canonical pose and decimate it."""

    def one(case, path):
        die = load_mesh(case.die_path)
        registered, transform = obb_register(die)
        decimated = decimate(registered, config.target_faces)
        save_stl_binary(decimated, path("decimated"))
        _save_transform(
            path("transform"), transform, {"target_faces": config.target_faces}
        )

    return _each_case("preprocess", manifest, run_dir, one)


def stage_labels(manifest: DatasetManifest, config: PipelineConfig, run_dir):
    """Transfer each crown-bottom boundary onto its registered
    full-resolution scan, in float64 (`label_die`; a boundary point on a
    scan edge goes to the higher face, by the tie rule in `bvh`), and
    carry the labels to the decimated die: each decimated face takes the
    label of the scan face whose barycenter is nearest its own."""

    def one(case, path):
        scan = _registered(load_mesh(case.die_path), path("transform"))
        crown = _registered(load_mesh(case.crown_bottom_path), path("transform"))
        truth = extract_margin_points(crown)
        decimated = load_mesh(path("decimated"))
        labels = nearest_face_labels(
            scan, label_die(scan, truth), decimated.barycenters
        )
        np.save(path("labels"), labels)
        save_margin_json(path("truth_margin"), truth, case.case_id)

    labeled = [c for c in manifest if c.crown_bottom_path is not None]
    return _each_case("labels", labeled, run_dir, one)


def _featurize(mesh: TriangleMesh):
    """Feature matrix plus adjacency for one decimated die (mm frame in,
    normalized coordinates out), cast once to the network's compute
    dtype, so neither training nor prediction has to."""
    curvature = compute_mean_curvature(mesh)
    normalized = normalize(mesh)
    feats = assemble_features(normalized, curvature)
    adj = build_adjacency(normalized.barycenters)
    return (
        feats.astype(COMPUTE_DTYPE),
        AdjacencyPair(*(a.astype(COMPUTE_DTYPE) for a in adj)),
    )


def stage_features(manifest: DatasetManifest, config: PipelineConfig, run_dir):
    """Cache features/adjacency (and labels where known) per case, plus
    augmented variants of training cases when configured."""
    def one(case, path):
        mesh = load_mesh(path("decimated"))
        # an inference-only case (no crown bottom) has no labels
        meshes, labels = [mesh], None
        if path("labels").exists():
            labels = _load_per_face(path("labels"), mesh.n_faces)
            if config.augment_per_die > 0 and case.split == "train":
                # a case's place in the manifest seeds its augmented copies
                index = manifest.cases.index(case)
                meshes = augment(mesh, config.augment_per_die, config.seed, index)
        names = sample_ids(case.case_id, len(meshes) - 1)
        # copies keep the face order, so the one label array serves each
        for name, sample in zip(names, meshes):
            feats, adj = _featurize(sample)
            cache = artifact_path(run_dir, "features", name)
            save_feature_cache(cache, feats, adj, labels=labels)

    return _each_case("features", manifest, run_dir, one)


def stage_train(manifest: DatasetManifest, config: PipelineConfig, run_dir):
    """k-fold ensemble training over the labeled training cases: each
    case's samples are exactly those `stage_features` wrote for it."""
    out = make_dir(Path(run_dir) / "models", "stage")
    case_ids = [c.case_id for c in manifest.split("train") if c.crown_bottom_path]
    # folds split cases, not samples: #augK variants do not fill a fold
    if len(case_ids) < config.folds:
        raise ManifestError(
            f"{len(case_ids)} labeled training cases cannot fill "
            f"{config.folds} folds"
        )
    folds = kfold_split(case_ids, k=config.folds, seed=config.seed)
    dataset, fold_of = {}, {}
    for case_id in case_ids:
        for sample_id in sample_ids(case_id, config.augment_per_die):
            path = artifact_path(run_dir, "features", sample_id)
            if not path.exists():
                raise MarginlineError(f"train: sample {sample_id} has no feature cache")
            feats, adj, labels = load_feature_cache(path)
            if labels is None:
                raise MarginlineError(f"train: sample {sample_id} has no labels")
            dataset[sample_id] = (feats.matrix, adj, labels)
            # every #augK variant trains and validates in its case's fold
            fold_of[sample_id] = folds[case_id]
    models, history, val_dice = train_kfold(dataset, fold_of, config)
    for fold, params in models.items():
        params.save(out / f"fold{fold}.bin")
    (out / "folds.json").write_text(json.dumps(folds, indent=1))
    write_history_csv(out / "history.csv", history)
    # JSON writes the fold numbers as string keys
    (out / "validation_dice.json").write_text(json.dumps(val_dice, indent=1))
    return out


def _prediction_cases(manifest):
    test = manifest.split("test")
    return test if test else list(manifest)


def stage_predict(manifest: DatasetManifest, config: PipelineConfig, run_dir):
    """Run every fold model that train listed in folds.json and save the
    ensemble's vote (`ensemble.combine`): one int64 label per face of
    the decimated die."""
    model_dir = Path(run_dir) / "models"
    folds = sorted(set(json.loads((model_dir / "folds.json").read_text()).values()))
    models = [NetworkParams.load(model_dir / f"fold{k}.bin") for k in folds]

    def one(case, path):
        feats, adj, _ = load_feature_cache(path("features"))
        fields = thread_map(lambda params: forward(params, feats.matrix, adj), models)
        np.save(path("vote"), combine(fields, config.ensemble))

    return _each_case("predict", _prediction_cases(manifest), run_dir, one)


def stage_refine(manifest: DatasetManifest, config: PipelineConfig, run_dir):
    """The ensemble's vote on each decimated die, with label-1 islands
    removed: the labels that evaluate scores and extract cuts again."""

    def one(case, path):
        mesh = load_mesh(path("decimated"))
        vote = _load_per_face(path("vote"), mesh.n_faces)
        np.save(path("refined"), cleanup_components(vote, mesh.adjacency()))

    return _each_case("refine", _prediction_cases(manifest), run_dir, one)


def _scan_labels(decimated: TriangleMesh, labels, scan: TriangleMesh):
    """Labels of `scan`'s faces: the label boundary of `decimated` (its
    decimation, in the same frame) cut again on `scan` within a band
    (`margin.band_problem`) by `graph_cut_refine` at `GraphCutConfig`'s
    λ and σ, with label-1 islands of the band removed."""
    out, band, sub, unary = band_problem(decimated, labels, scan)
    out[band] = cleanup_components(graph_cut_refine(sub, unary), sub.adjacency())
    return out


def stage_extract(manifest: DatasetManifest, config: PipelineConfig, run_dir):
    """Margin line per case: the decimated die's labels cut again on the
    registered full-resolution scan (the pipeline's one graph cut), then
    walked, fitted and sampled there."""

    def one(case, path):
        decimated = load_mesh(path("decimated"))
        labels = _load_per_face(path("refined"), decimated.n_faces)
        scan = _registered(load_mesh(case.die_path), path("transform"))
        points = extract_margin_line(
            scan,
            _scan_labels(decimated, labels, scan),
            n_samples=config.n_samples,
            case_id=case.case_id,
        )
        save_margin_json(path("margin"), points, case.case_id)
        save_margin_obj(path("margin_obj"), points)

    return _each_case("margins", _prediction_cases(manifest), run_dir, one)


def stage_evaluate(manifest: DatasetManifest, config: PipelineConfig, run_dir):
    """Scores every predicted case against the transferred ground truth."""
    rows = []

    def one(case, path):
        truth_labels = pred_labels = None
        if path("labels").exists():
            truth_labels = np.load(path("labels"))
        if truth_labels is not None and path("refined").exists():
            pred_labels = _load_per_face(path("refined"), len(truth_labels))
        truth_margin = pred_margin = None
        if path("truth_margin").exists() and path("margin").exists():
            truth_margin, _ = load_margin_json(path("truth_margin"))
            pred_margin, _ = load_margin_json(path("margin"))
        rows.append(
            metrics_mod.evaluate_case(
                pred_labels=pred_labels,
                truth_labels=truth_labels,
                pred_margin_points=pred_margin,
                truth_margin_points=truth_margin,
                case_id=case.case_id,
                rating=case.rating,
            )
        )

    out = _each_case("evaluation", _prediction_cases(manifest), run_dir, one)
    summary = metrics_mod.aggregate(rows)
    rated = [
        row for row in rows if row["rating"] is not None and row["mean_um"] is not None
    ]
    if len(rated) >= 3:
        try:
            r, p = metrics_mod.spearman(
                [row["rating"] for row in rated],
                [row["mean_um"] for row in rated],
            )
            summary["spearman_r"] = r
            summary["spearman_p"] = p
        except metrics_mod.MetricError:
            pass
    (out / "report.json").write_text(
        json.dumps({"cases": rows, "summary": summary}, indent=1)
    )
    with open(out / "report.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=metrics_mod.REPORT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return out


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


def run_stages(stages, manifest: DatasetManifest, config: PipelineConfig, run_dir):
    """Validates `config`, creates `run_dir`, writes its config.json and
    runs `stages` in order; returns the last stage's directory."""
    config.validate()
    run_dir = make_dir(run_dir, "run")
    config.save(run_dir / "config.json")
    out = None
    for fn in stages:
        out = fn(manifest, config, run_dir)
    return out


def run_pipeline(manifest: DatasetManifest, config: PipelineConfig, run_dir):
    """All stages in order; returns the evaluation directory."""
    return run_stages([fn for _, fn in STAGES], manifest, config, run_dir)
