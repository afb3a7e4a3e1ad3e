"""Stage-level pipeline behaviour not covered by the acceptance criteria."""

import csv
import json
import shutil
import threading

import numpy as np
import pytest

from marginline import metrics, pipeline
from marginline.errors import ManifestError
from marginline.features import (
    assemble_features,
    build_adjacency,
    load_feature_cache,
    save_feature_cache,
)
from marginline.manifest import (
    CaseEntry,
    DatasetManifest,
    load_manifest,
    save_manifest,
)
from marginline.meshio import load_mesh, save_stl_binary
from marginline.pipeline import (
    PipelineConfig,
    base_case_id,
    run_pipeline,
    stage_evaluate,
    stage_features,
    stage_labels,
    stage_predict,
    stage_preprocess,
    stage_refine,
    stage_train,
)
from marginline.segnet import NetworkParams, forward
from marginline.segnet import train as train_mod
from marginline.shapes import icosphere
from marginline.synthetic import generate_benchmark


def test_inference_only_case(tmp_path):
    """A test case without a crown bottom is featurized without labels
    and still yields a closed margin and a report row."""
    data = tmp_path / "data"
    manifest_path = generate_benchmark(data, n_cases=4, seed=5)
    entries = json.loads(manifest_path.read_text())["cases"]
    entries[3].update(crown_bottom_path=None, split="test")
    save_manifest(manifest_path, entries)
    manifest = load_manifest(manifest_path)
    config = PipelineConfig(
        target_faces=2000, folds=2, epochs=12, width_scale=0.125,
        batch_size=4, augment_per_die=1, seed=1,
    )
    run = tmp_path / "run"
    run_pipeline(manifest, config, run)

    case_id = entries[3]["case_id"]
    assert not (run / "labels" / f"{case_id}_labels.npy").exists()
    margin = json.loads((run / "margins" / f"{case_id}_margin.json").read_text())
    assert margin["closed"] is True
    assert margin["n"] == len(margin["points"]) == config.n_samples
    with open(run / "evaluation" / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["case_id"] for r in rows] == [case_id]
    assert rows[0]["dsc"] == "" and rows[0]["mean_um"] == ""


def test_crown_bottom_leaves_features_unchanged(tmp_path):
    """A die is featurized from its decimated mesh as preprocess wrote
    it, whether or not a crown bottom gives it labels."""
    data = tmp_path / "data"
    manifest_path = generate_benchmark(data, n_cases=1, seed=5)
    entry = json.loads(manifest_path.read_text())["cases"][0]
    bare = dict(entry, case_id="bare", crown_bottom_path=None)
    save_manifest(manifest_path, [entry, bare])
    manifest = load_manifest(manifest_path)
    config = PipelineConfig(target_faces=2000)
    run = tmp_path / "run"
    for stage in (stage_preprocess, stage_labels, stage_features):
        stage(manifest, config, run)

    feats, adj, labels = load_feature_cache(run / "features" / f"{entry['case_id']}.mlfc")
    bare_feats, bare_adj, no_labels = load_feature_cache(run / "features" / "bare.mlfc")
    written = np.load(run / "labels" / f"{entry['case_id']}_labels.npy")
    assert written.dtype == np.int64 and np.array_equal(labels, written)
    assert no_labels is None
    assert feats.matrix.tobytes() == bare_feats.matrix.tobytes()
    assert (adj.a_large != bare_adj.a_large).nnz == 0


def test_augmented_variants_train_and_validate_in_their_base_fold(
    tmp_path, monkeypatch
):
    """Each #augK sample is held out, and scored for validation Dice, in
    exactly the fold of the case it was made from; folds.json lists the
    base cases only."""
    data = tmp_path / "data"
    manifest = load_manifest(generate_benchmark(data, n_cases=4, seed=5))
    config = PipelineConfig(
        target_faces=2000, folds=2, epochs=1, width_scale=0.125,
        batch_size=4, augment_per_die=2, seed=1,
    )
    run = tmp_path / "run"
    for stage in (stage_preprocess, stage_labels, stage_features):
        stage(manifest, config, run)

    def key(x):  # a sample's features, in the training dtype or not
        return np.asarray(x, dtype=np.float32).tobytes()

    sample_of = {
        key(load_feature_cache(path)[0].matrix): path.stem
        for path in (run / "features").glob("*.mlfc")
    }
    assert len(sample_of) == 12

    trained, validated, fold_of_model = {}, {}, {}

    def recording_train_fold(train_samples, val_samples, config, fold=1, seed=None):
        trained[fold] = (
            {sample_of[key(x)] for x, _, _ in train_samples},
            {sample_of[key(x)] for x, _, _ in val_samples},
        )
        params, history = real_train_fold(
            train_samples, val_samples, config, fold=fold, seed=seed
        )
        fold_of_model[id(params)] = fold
        return params, history

    def recording_forward(params, x, adj, want_cache=False):
        validated.setdefault(fold_of_model[id(params)], set()).add(
            sample_of[key(x)]
        )
        return real_forward(params, x, adj, want_cache)

    real_train_fold, real_forward = train_mod.train_fold, pipeline.forward
    monkeypatch.setattr(train_mod, "train_fold", recording_train_fold)
    monkeypatch.setattr(pipeline, "forward", recording_forward)
    stage_train(manifest, config, run)

    folds = json.loads((run / "models" / "folds.json").read_text())
    assert sorted(folds) == sorted(c.case_id for c in manifest)
    assert sorted(set(folds.values())) == [1, 2]
    samples = set(sample_of.values())
    for fold in (1, 2):
        held_out = {s for s in samples if folds[base_case_id(s)] == fold}
        assert any("#aug" in s for s in held_out)
        assert trained[fold] == (samples - held_out, held_out)
        assert validated[fold] == held_out


def test_evaluate_reads_truth_labels_without_feature_cache(tmp_path):
    """Evaluation takes its truth labels from the labels stage, so the
    report is the same once the feature caches are gone."""
    data = tmp_path / "data"
    manifest = load_manifest(generate_benchmark(data, n_cases=3, seed=5))
    config = PipelineConfig(
        target_faces=2000, folds=2, epochs=1, width_scale=0.125,
        batch_size=4, seed=1,
    )
    run = tmp_path / "run"
    for name, stage in pipeline.STAGES:
        if name != "extract":
            stage(manifest, config, run)
    report = run / "evaluation" / "report.json"
    before = report.read_bytes()
    assert all(
        isinstance(row["dsc"], float) for row in json.loads(before)["cases"]
    )
    for path in (run / "features").glob("*.mlfc"):
        path.unlink()
    stage_evaluate(manifest, config, run)
    assert report.read_bytes() == before


def test_fold_guard_counts_cases_not_augmented_samples(tmp_path):
    """Three cases cannot fill five folds, however many #augK variants
    each one brings."""
    data = tmp_path / "data"
    manifest = load_manifest(generate_benchmark(data, n_cases=3, seed=5))
    config = PipelineConfig(
        target_faces=2000, folds=5, epochs=1, width_scale=0.125,
        augment_per_die=2, seed=1,
    )
    run = tmp_path / "run"
    for stage in (stage_preprocess, stage_labels, stage_features):
        stage(manifest, config, run)
    assert len(list((run / "features").glob("*.mlfc"))) == 9
    with pytest.raises(ManifestError, match="3 labeled training cases"):
        stage_train(manifest, config, run)


def test_saved_checkpoints_reproduce_validation_dice(tmp_path):
    """Each saved fold model, reloaded and run on its held-out cases'
    feature caches, scores exactly the validation Dice stage_train wrote."""
    data = tmp_path / "data"
    manifest = load_manifest(generate_benchmark(data, n_cases=6, seed=5))
    config = PipelineConfig(
        target_faces=2000, folds=2, epochs=2, width_scale=0.125,
        batch_size=4, seed=1,
    )
    run = tmp_path / "run"
    for stage in (stage_preprocess, stage_labels, stage_features, stage_train):
        stage(manifest, config, run)
    written = json.loads((run / "models" / "validation_dice.json").read_text())
    folds = json.loads((run / "models" / "folds.json").read_text())
    recomputed = {}
    for fold in range(1, config.folds + 1):
        params = NetworkParams.load(run / "models" / f"fold{fold}.bin")
        assert params.dtype == train_mod.COMPUTE_DTYPE
        scores = []
        for case_id in sorted(c for c, f in folds.items() if f == fold):
            feats, adj, labels = load_feature_cache(
                run / "features" / f"{case_id}.mlfc"
            )
            pred = np.argmax(forward(params, feats.matrix, adj), axis=1)
            scores.append(metrics.segmentation_metrics(pred, labels)[1])
        recomputed[str(fold)] = float(np.mean(scores))
    assert recomputed == written


def test_train_and_predict_do_not_depend_on_the_thread_count(tmp_path, monkeypatch):
    """Checkpoints, history.csv, validation_dice.json and the predicted
    probabilities are the same bytes from one thread and from two."""
    data = tmp_path / "data"
    manifest = load_manifest(generate_benchmark(data, n_cases=4, seed=5))
    config = PipelineConfig(
        target_faces=2000, folds=2, epochs=2, width_scale=0.125,
        batch_size=4, seed=1,
    )
    base = tmp_path / "base"
    for stage in (stage_preprocess, stage_labels, stage_features):
        stage(manifest, config, base)
    real_forward = pipeline.forward
    outputs = {}
    for workers in (1, 2):
        threads = set()

        def recording_forward(*args, **kwargs):
            threads.add(threading.current_thread())
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(train_mod, "worker_count", lambda n: min(n, workers))
        monkeypatch.setattr(pipeline, "forward", recording_forward)
        run = tmp_path / f"run{workers}"
        shutil.copytree(base, run)
        stage_train(manifest, config, run)
        stage_predict(manifest, config, run)
        # forward ran off the main thread exactly when two were allowed
        assert (threads == {threading.main_thread()}) == (workers == 1)
        outputs[workers] = {
            p.relative_to(run).as_posix(): p.read_bytes()
            for sub in ("models", "predict")
            for p in sorted((run / sub).iterdir())
        }
    names = set(outputs[1])
    assert {"models/fold1.bin", "models/fold2.bin", "models/history.csv",
            "models/validation_dice.json"} <= names
    assert sum(n.endswith("_probs.npy") for n in names) == 4
    assert outputs[1] == outputs[2]


def test_democracy_vote_reaches_refine(tmp_path, monkeypatch):
    """Under `democracy`, refine cuts a field whose argmax is the vote.
    On the band 0 < z <= 0.5 two of three folds call 1 with little
    confidence and one calls 0 with much: the vote is 1, the mean 0.37.
    At smoothness 0 the cut keeps each face's argmax."""
    run = tmp_path / "run"
    for sub in ("preprocess", "features", "models"):
        (run / sub).mkdir(parents=True)
    stl = run / "preprocess" / "die_decimated.stl"
    save_stl_binary(icosphere(subdivisions=2), stl)
    mesh = load_mesh(stl)
    feats = assemble_features(mesh, np.zeros(mesh.n_vertices))
    save_feature_cache(
        run / "features" / "die.mlfc", feats, build_adjacency(mesh.barycenters)
    )
    for fold in (1, 2, 3):
        params = NetworkParams.init(18, 0.125, seed=fold)
        params.tensors["clf.b"][:] = fold  # tells the folds apart below
        params.save(run / "models" / f"fold{fold}.bin")

    z = mesh.barycenters[:, 2]
    top, band = z > 0.5, (z > 0.0) & (z <= 0.5)
    assert top.any() and band.any()

    def fold_field(params, x, adj, want_cache=False):
        fold = int(params.tensors["clf.b"][0])
        p1 = np.where(top, 0.9, 0.1)
        p1[band] = 0.01 if fold == 3 else 0.55
        return np.stack([1.0 - p1, p1], axis=1)

    monkeypatch.setattr(pipeline, "forward", fold_field)
    case = CaseEntry("die", tmp_path / "die.stl", None, "upper", 11, None, "test")
    config = PipelineConfig(folds=3, ensemble="democracy", smoothness=0.0)
    manifest = DatasetManifest([case])
    stage_predict(manifest, config, run)
    stage_refine(manifest, config, run)
    refined = np.load(run / "refine" / "die_labels.npy")
    assert np.array_equal(refined, (z > 0.0).astype(np.int64))
    assert sorted(p.name for p in (run / "predict").iterdir()) == ["die_probs.npy"]


@pytest.mark.parametrize(
    "field, value",
    [
        ("dihedral_sigma", 0.0),
        ("epochs", 0),
        ("batch_size", 0),
        ("learning_rate", -1.0),
        ("width_scale", 0.0),
        ("augment_per_die", -1),
        ("ensemble", "fold-9"),  # 5 folds
        ("ensemble", "fold-x"),
        ("seed", -1),
        ("learning_rate", float("nan")),
        ("width_scale", float("nan")),
        ("smoothness", float("nan")),
        ("dihedral_sigma", float("nan")),
    ],
)
def test_validate_refuses_values_a_later_stage_fails_on(field, value):
    PipelineConfig().validate()
    with pytest.raises(ValueError):
        PipelineConfig(**{field: value}).validate()
