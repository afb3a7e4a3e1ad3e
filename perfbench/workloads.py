"""The benchmark's two workloads, their input generators and their
outside-the-package quality checks.

Each workload is driven only through `marginline`'s public stage
functions. Inputs are generated from the workload seed into a work
directory; the program sees only the generated files.
"""

from __future__ import annotations

import json
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from marginline import pipeline, shapes, synthetic
from marginline.features import load_feature_cache
from marginline.manifest import DatasetManifest, load_manifest, save_manifest
from marginline.mesh import TriangleMesh
from marginline.meshio import load_mesh, save_stl_binary
from marginline.segnet import NetworkParams, forward

SUCCESS_UM = 200.0
# infer-hires segments every run's scans with an ensemble trained on the
# criterion 09 dataset, as a lab applies one trained model to new scans
REFERENCE_TRAINING_SEED = 7
CREASE_POINTS = 8192  # dense analytic polyline: ~3 um segments


@dataclass
class Config:
    """Workload sizes. `FULL` is what the benchmark measures; `SMOKE` only
    checks that every metric is emitted."""

    cases: int = 20
    folds: int = 5
    epochs: int = 5
    dies: int = 5


FULL = Config()
SMOKE = Config(cases=4, folds=2, epochs=1, dies=1)


def train_config(config: Config):
    """Criterion 09's configuration with epochs cut to a few."""
    return pipeline.PipelineConfig(
        target_faces=2000,
        folds=config.folds,
        width_scale=0.125,
        batch_size=4,
        epochs=config.epochs,
    )


def infer_config(config: Config):
    """Same network, applied at PAPER.md's 10k-face working budget."""
    return replace(train_config(config), target_faces=10000)


TRAIN_STAGES = ("preprocess", "labels", "features", "train")
DIE_STAGES = ("preprocess", "labels", "features", "predict", "refine", "extract")


def _stage(name):
    # looked up at call time so the tracer's wrappers are seen
    return getattr(pipeline, "stage_" + name)


# -- input generation ------------------------------------------------------


def _rotate_z(points, angle):
    c, s = np.cos(angle), np.sin(angle)
    return points @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]).T


# `synthetic.generate_case`'s shape parameter ranges.
SHAPE_RANGES = {
    "base_radius": (5.8, 6.5),
    "margin_radius": (3.8, 4.4),
    "margin_height": (3.2, 4.0),
    "crown_height": (2.2, 3.0),
    "squash": (0.82, 0.9),
    "segments": (48, 72),
}


def shape_panel(n):
    """A fixed panel of `n` die shapes spanning `SHAPE_RANGES`: each
    parameter takes the centres of `n` equal strata of its range, paired
    across parameters by a fixed shuffle (a Latin hypercube).

    Why fixed: the margin error of one die depends mostly on its shape
    (with one trained ensemble it ranged 34-554 um over 14 random dies,
    the tall-margin ones being worst), so a fresh random sample of a few
    dies per seed would swing the quality metrics far beyond any bound.
    The panel keeps the hard, tall-margin shapes in every run; the seed
    draws each die's orientation and placement.
    """
    order = np.random.default_rng(20250722)
    panel = [{} for _ in range(n)]
    for name, (lo, hi) in SHAPE_RANGES.items():
        centres = lo + (np.arange(n) + 0.5) * (hi - lo) / n
        for shape, value in zip(panel, order.permutation(centres)):
            shape[name] = int(round(value)) if name == "segments" else float(value)
    return panel


def hires_die(rng, shape):
    """One full-resolution die: `shapes.frustum_die` at 4x the angular and
    row resolution of `synthetic.generate_case` (37k-55k faces over the
    segment range), spun and shifted as `generate_case` does. Returns
    (die, crown bottom, analytic crease polyline), all in the scan frame.

    The die carries a crown bottom although inference does not need one:
    without it `stage_features` builds `LabeledMesh(mesh, np.zeros(0))`,
    which `LabeledMesh.__post_init__` rejects (label count 0 != face
    count), so an inference-only case crashes. That bug is left for its
    own fix; the crown bottom also gives `stage_evaluate` its Dice.
    """
    spin = rng.uniform(0.0, 2.0 * np.pi)
    shift = rng.uniform(-3.0, 3.0, size=3)
    die, crease = shapes.frustum_die(
        base_radius=shape["base_radius"],
        margin_radius=shape["margin_radius"],
        margin_height=shape["margin_height"],
        crown_height=shape["crown_height"],
        scale_xy=(1.0, shape["squash"]),
        segments=4 * shape["segments"],
        rows_below=4 * 14,
        rows_above=4 * 10,
    )
    above = die.barycenters[:, 2] > crease["z"] + 1e-9
    used, faces = np.unique(die.faces[above], return_inverse=True)
    crown = TriangleMesh(die.vertices[used], faces.reshape(-1, 3))
    crease_line = shapes.crease_circle(crease, CREASE_POINTS)

    def place(points):
        return _rotate_z(points, spin) + shift

    return (
        TriangleMesh(place(die.vertices), die.faces),
        TriangleMesh(place(crown.vertices), crown.faces),
        place(crease_line),
    )


def write_hires_dies(out_dir, seed, n_dies):
    """Write `n_dies` dies, crown bottoms, analytic creases and a manifest
    under `out_dir`; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0x1D1E])
    entries = []
    for i, shape in enumerate(shape_panel(n_dies)):
        case_id = f"die{i:02d}"
        die, crown, crease = hires_die(rng, shape)
        save_stl_binary(die, out_dir / f"{case_id}_die.stl")
        save_stl_binary(crown, out_dir / f"{case_id}_crown_bottom.stl")
        np.save(out_dir / f"{case_id}_crease.npy", crease)
        entries.append(
            {
                "case_id": case_id,
                "die_path": f"{case_id}_die.stl",
                "crown_bottom_path": f"{case_id}_crown_bottom.stl",
                "arch": "lower",
                "tooth_position": 31,
                "rating": None,
                "split": "test",
            }
        )
    save_manifest(out_dir / "manifest.json", entries)
    return out_dir / "manifest.json"


# -- quality, measured from outside the package -----------------------------


def polyline_distance(points, polyline):
    """Distance from each point to the closed polyline's segments. The
    nearest segment is one of the two at the nearest vertex, which holds
    for a dense polyline and points near it."""
    points = np.asarray(points, dtype=np.float64)
    n = len(polyline)
    _, nearest = cKDTree(polyline).query(points)
    best = np.full(len(points), np.inf)
    for a_idx, b_idx in ((nearest - 1) % n, nearest), (nearest, (nearest + 1) % n):
        a, b = polyline[a_idx], polyline[b_idx]
        ab = b - a
        t = np.einsum("ij,ij->i", points - a, ab) / np.einsum("ij,ij->i", ab, ab)
        foot = a + np.clip(t, 0.0, 1.0)[:, None] * ab
        best = np.minimum(best, np.linalg.norm(points - foot, axis=1))
    return best


def registered_crease(run_dir, data_dir, case_id):
    """The analytic crease mapped into the registered frame with the
    transform `stage_preprocess` wrote."""
    raw = json.loads(
        (Path(run_dir) / "preprocess" / f"{case_id}_transform.json").read_text()
    )
    rotation = np.asarray(raw["rotation"], dtype=np.float64)
    translation = np.asarray(raw["translation"], dtype=np.float64)
    crease = np.load(Path(data_dir) / f"{case_id}_crease.npy")
    return crease @ rotation.T + translation


def read_margin_loop(path, n_samples):
    """The margin file's points, or None unless it is a closed loop of
    `n_samples` finite points."""
    data = json.loads(Path(path).read_text())
    points = np.asarray(data.get("points", []), dtype=np.float64)
    if (
        data.get("closed") is not True
        or data.get("n") != n_samples
        or points.shape != (n_samples, 3)
        or not np.all(np.isfinite(points))
    ):
        return None
    return points


def dice(pred, truth):
    tp = float(np.sum((pred == 1) & (truth == 1)))
    den = float(np.sum(pred == 1) + np.sum(truth == 1))
    return 1.0 if den == 0 else 2.0 * tp / den


# -- workloads ---------------------------------------------------------------


class _NoSpan:
    """Stands in for the tracer in untraced passes."""

    def span(self, name, **attrs):
        return nullcontext()


def train_stages(manifest_path, run_dir, config: Config, tracer=_NoSpan()):
    """The training job: the four stages that end in a k-fold ensemble."""
    manifest = load_manifest(manifest_path)
    pc = train_config(config)
    for name in TRAIN_STAGES:
        with tracer.span("bench.stage", stage=name):
            _stage(name)(manifest, pc, run_dir)


class Workload:
    """setup() writes a fresh copy of the inputs (timed as set-up, `setups`
    times per untraced run); prepare() clears the run directory and run()
    is one timed pass over the inputs; score() checks the last pass and
    returns its quality metrics. attempted/failed count cases over every
    pass."""

    setups = 3

    def __init__(self, work_dir, seed, config: Config):
        self.work = Path(work_dir)
        self.seed = seed
        self.config = config
        self.attempted = 0
        self.failed = 0
        self.details = {}

    def fresh(self, name):
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


class TrainSynth20(Workload):
    """`generate_benchmark(seed)`'s cases at their native ~2.8k faces through
    preprocess -> labels -> features -> train. Segnet forward plus
    backward dominate; refine and extract never run, and bvh and
    decimate see only small meshes, so inference-side changes should
    leave this workload unchanged.

    Its margin metrics score the training labels `stage_labels`
    transferred (the margin this job learns from); Dice scores the
    trained folds on their held-out cases."""

    name = "train-synth20"

    def setup(self):
        self.data = self.fresh("data")
        synthetic.generate_benchmark(
            self.data, n_cases=self.config.cases, seed=self.seed
        )
        for path in (self.data / "truth").glob("*_margin.json"):
            case_id = path.name[: -len("_margin.json")]
            points = json.loads(path.read_text())["points"]
            np.save(self.data / f"{case_id}_crease.npy", np.asarray(points))

    def prepare(self):
        self.run_dir = self.fresh("run")

    def run(self, tracer=_NoSpan()):
        self.attempted += self.config.cases
        try:
            train_stages(self.data / "manifest.json", self.run_dir, self.config, tracer)
        except Exception as exc:  # a stage failure fails the whole batch
            self.failed += self.config.cases
            self.details["error"] = repr(exc)

    def score(self):
        if "error" in self.details:
            return False, {}
        written, recomputed, per_case, label_um = heldout_quality(
            self.data, self.run_dir, self.config
        )
        agree = set(written) == set(recomputed) and all(
            abs(written[k] - recomputed[k]) <= 1e-9 for k in recomputed
        )
        self.details["validation_dice"] = written
        if not agree:
            self.details["validation_dice_recomputed"] = recomputed
        return agree, {
            "val_dice_min": min(written.values()),
            "dsc_mean": float(np.mean(per_case)),
            **margin_metrics(label_um),
        }


class InferHires(Workload):
    """A lab's per-die inference on full-resolution scans: 38k-54k-face
    dies decimated to the 10k-face working budget, one die at a time,
    then one evaluation. bvh projects 2x5000 spline samples onto the full
    die, decimate removes ~75% of the faces, refine cuts a 10k-face graph
    and segnet runs forward only; training happens in set-up.

    Set-up trains the ensemble on the fixed criterion 09 dataset, like a
    lab's one trained model, and writes the seed's scans of the shape
    panel. With a per-seed training set the margin error of one panel die
    moved by up to 3x between seeds."""

    name = "infer-hires"
    setups = 2  # each trains an ensemble; 3 would not fit the run budget

    def setup(self):
        data = self.fresh("setup/data")
        self.train_run = self.fresh("setup/run")
        synthetic.generate_benchmark(
            data, n_cases=self.config.cases, seed=REFERENCE_TRAINING_SEED
        )
        train_stages(data / "manifest.json", self.train_run, self.config)
        self.dies = self.fresh("dies")
        write_hires_dies(self.dies, self.seed, self.config.dies)
        self.manifest = load_manifest(self.dies / "manifest.json")
        self._warm_up(data)

    def _warm_up(self, data):
        """One small training case through the inference stages, so lazy
        imports and first-call costs land in set-up, not in the first
        timed pass."""
        one = DatasetManifest(load_manifest(data / "manifest.json").cases[:1])
        pc = train_config(self.config)
        pc.n_samples = 64
        try:
            for name in ("predict", "refine", "extract", "evaluate"):
                _stage(name)(one, pc, self.train_run)
        except Exception as exc:  # only the code paths matter here
            self.details["warm_up_error"] = repr(exc)

    def prepare(self):
        self.run_dir = self.fresh("run")
        shutil.copytree(self.train_run / "models", self.run_dir / "models")

    def run(self, tracer=_NoSpan()):
        pc = infer_config(self.config)
        self.die_errors = {}
        for case in self.manifest:
            self.attempted += 1
            try:
                with tracer.span("bench.die", case_id=case.case_id):
                    for name in DIE_STAGES:
                        _stage(name)(DatasetManifest([case]), pc, self.run_dir)
            except Exception as exc:  # one bad die must not stop the others
                self.failed += 1
                self.die_errors[case.case_id] = repr(exc)
        try:
            _stage("evaluate")(self.manifest, pc, self.run_dir)
        except Exception as exc:
            self.details["evaluate_error"] = repr(exc)

    def score(self):
        pc = infer_config(self.config)
        report_path = self.run_dir / "evaluation" / "report.json"
        report = json.loads(report_path.read_text()) if report_path.exists() else {}
        per_die = {}
        distances = []
        for case in self.manifest:
            if case.case_id in self.die_errors:
                continue
            loop = read_margin_loop(
                self.run_dir / "margins" / f"{case.case_id}_margin.json",
                pc.n_samples,
            )
            if loop is None:
                self.failed += 1
                self.die_errors[case.case_id] = "margin is not a closed loop"
                continue
            d = 1000.0 * polyline_distance(
                loop, registered_crease(self.run_dir, self.dies, case.case_id)
            )
            distances.append(d)
            per_die[case.case_id] = {
                "mean_um": float(d.mean()),
                "max_um": float(d.max()),
                "success": bool(d.max() <= SUCCESS_UM),
            }
        self.details["dies"] = per_die
        self.details["die_errors"] = self.die_errors
        rows = report.get("cases", [])
        dsc = [r.get("dsc") for r in rows]
        ok = (
            len(rows) == len(self.manifest.cases)
            and all(isinstance(v, float) and 0.0 <= v <= 1.0 for v in dsc)
            and bool(distances)
        )
        val_dice = json.loads(
            (self.train_run / "models" / "validation_dice.json").read_text()
        )
        metrics = {"val_dice_min": min(val_dice.values())}
        if ok:
            metrics["dsc_mean"] = report["summary"]["dsc_mean"]
            metrics.update(margin_metrics(distances))
        return ok, metrics


def margin_metrics(distances_um):
    """Per-case mean and max distance to the crease, averaged over cases,
    and the share of all margin points within the success threshold."""
    pooled = np.concatenate(distances_um)
    return {
        "margin_mean_um": float(np.mean([d.mean() for d in distances_um])),
        "margin_max_um": float(np.mean([d.max() for d in distances_um])),
        "success_frac": float(np.mean(pooled <= SUCCESS_UM)),
    }


def heldout_quality(data_dir, run_dir, config: Config):
    """Per-fold validation Dice as `stage_train` wrote it and as recomputed
    from the saved fold models on their held-out cases, the per-case
    held-out Dice, and the distance (um) from each case's training-label
    boundary to the analytic crease."""
    run_dir, data_dir = Path(run_dir), Path(data_dir)
    written = json.loads((run_dir / "models" / "validation_dice.json").read_text())
    folds = json.loads((run_dir / "models" / "folds.json").read_text())
    recomputed, per_case, label_um = {}, [], []
    for fold in range(1, config.folds + 1):
        params = NetworkParams.load(run_dir / "models" / f"fold{fold}.bin")
        scores = []
        for case_id in sorted(c for c, f in folds.items() if f == fold):
            feats, adj, labels = load_feature_cache(
                run_dir / "features" / f"{case_id}.mlfc"
            )
            pred = np.argmax(forward(params, feats.matrix, adj), axis=1)
            scores.append(dice(pred, labels))
            mesh = load_mesh(run_dir / "preprocess" / f"{case_id}_decimated.stl")
            crease = registered_crease(run_dir, data_dir, case_id)
            label_um.append(
                1000.0 * polyline_distance(label_boundary_vertices(mesh, labels), crease)
            )
        recomputed[str(fold)] = float(np.mean(scores))
        per_case.extend(scores)
    return written, recomputed, per_case, label_um


def label_boundary_vertices(mesh, labels):
    """Vertices of the edges whose two faces carry different labels."""
    edges = np.sort(mesh.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    face_of = np.repeat(np.arange(len(mesh.faces)), 3)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    edges, face_of = edges[order], face_of[order]
    same = np.all(edges[1:] == edges[:-1], axis=1)
    cut = same & (labels[face_of[1:]] != labels[face_of[:-1]])
    return mesh.vertices[np.unique(edges[1:][cut])]


WORKLOADS = {w.name: w for w in (TrainSynth20, InferHires)}
