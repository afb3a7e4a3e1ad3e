"""Stage-level pipeline behaviour not covered by the acceptance criteria."""

import csv
import json
import shutil
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from geometry import grid_patch, icosphere
from marginline import metrics, pipeline
from marginline.cli import main
from marginline.errors import (
    ManifestError,
    MarginlineError,
    MeshParseError,
    RegistrationError,
)
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
from marginline.margin import load_margin_json, save_margin_json
from marginline.mesh import TriangleMesh
from marginline.meshio import load_mesh, save_stl_binary
from marginline.pipeline import (
    PipelineConfig,
    artifact_path,
    run_pipeline,
    sample_ids,
    stage_evaluate,
    stage_extract,
    stage_features,
    stage_labels,
    stage_predict,
    stage_preprocess,
    stage_refine,
    stage_train,
)
from marginline.segnet import NetworkParams, forward
from marginline.segnet import train as train_mod
from marginline.preprocess import obb_register, rotation_xyz
from marginline.refine import cleanup_components
from marginline.shapes import frustum_die
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


def test_one_bad_die_does_not_stop_the_others(tmp_path, capsys):
    """A flat scan fails registration. The dies before and after it are
    still preprocessed, and then the stage fails naming the flat one,
    from the library and from the command line alike."""
    data = tmp_path / "data"
    data.mkdir()
    die, _ = frustum_die(segments=16, rows_below=4, rows_above=3)
    for case_id, mesh in (("a", die), ("b", grid_patch(n=3)), ("c", die)):
        save_stl_binary(mesh, data / f"{case_id}_die.stl")
    run = tmp_path / "run"
    with pytest.raises(MarginlineError) as info:
        stage_preprocess(load_manifest(data), PipelineConfig(target_faces=200), run)
    assert "b: RegistrationError" in str(info.value)
    assert isinstance(info.value.__cause__, RegistrationError)
    # Qhull's first line only, not its multi-line diagnostic
    assert "\n" not in str(info.value)
    assert "QH6154" in str(info.value)
    assert sorted(p.name for p in (run / "preprocess").iterdir()) == [
        "a_decimated.stl", "a_transform.json", "c_decimated.stl", "c_transform.json",
    ]
    code = main(
        [
            "preprocess",
            "--manifest", str(data),
            "--run-dir", str(tmp_path / "cli_run"),
            "--target-faces", "200",
        ]
    )
    assert code == 1
    error = json.loads(capsys.readouterr().err)
    assert "b: RegistrationError" in error["message"]
    assert "\n" not in error["message"]


def test_a_ply_die_fails_only_its_own_case(tmp_path):
    """Dies are read as STL only: a die under a `.ply` name, though its
    bytes are STL, fails its case with a `MeshParseError` naming the
    file, and the STL case after it is preprocessed."""
    data = tmp_path / "data"
    data.mkdir()
    die, _ = frustum_die(segments=16, rows_below=4, rows_above=3)
    save_stl_binary(die, data / "a_die.ply")
    save_stl_binary(die, data / "b_die.stl")
    save_manifest(data / "manifest.json", [
        {"case_id": "a", "die_path": "a_die.ply"},
        {"case_id": "b", "die_path": "b_die.stl"},
    ])
    run = tmp_path / "run"
    with pytest.raises(MarginlineError) as info:
        stage_preprocess(load_manifest(data), PipelineConfig(target_faces=200), run)
    assert "1 of 2 cases failed: a: MeshParseError" in str(info.value)
    assert str(data / "a_die.ply") in str(info.value)
    assert isinstance(info.value.__cause__, MeshParseError)
    assert sorted(p.name for p in (run / "preprocess").iterdir()) == [
        "b_decimated.stl", "b_transform.json",
    ]


@pytest.mark.parametrize(
    "stage, kind, output",
    [
        (stage_features, "labels", "features"),
        (stage_refine, "vote", "refined"),
        (stage_extract, "refined", "margin"),
        (stage_evaluate, "refined", None),
    ],
)
def test_a_per_face_array_of_the_wrong_length_fails_its_own_case(
    tmp_path, stage, kind, output
):
    """A per-face array that an earlier stage wrote, 5 rows short for its
    die: that case fails naming the file and both lengths, and a stage
    with a per-case output still writes it for the other case."""
    data = tmp_path / "data"
    manifest = load_manifest(generate_benchmark(data, n_cases=2, seed=5))
    config = PipelineConfig(target_faces=800)
    run = tmp_path / "run"
    for earlier in (stage_preprocess, stage_labels):
        earlier(manifest, config, run)
    first, second = (case.case_id for case in manifest)
    # the labels stand in for the one per-face array the stage reads
    for case_id in (first, second):
        artifact_path(run, kind, case_id).parent.mkdir(exist_ok=True)
        np.save(
            artifact_path(run, kind, case_id),
            np.load(artifact_path(run, "labels", case_id)),
        )
    path = artifact_path(run, kind, first)
    np.save(path, np.load(path)[:-5])
    n_faces = load_mesh(artifact_path(run, "decimated", first)).n_faces

    with pytest.raises(MarginlineError) as info:
        stage(manifest, config, run)
    error = f"{path} has {n_faces - 5} rows for {n_faces} faces"
    assert f"1 of 2 cases failed: {first}: MarginlineError: {error}" in str(info.value)
    if output is not None:
        assert not artifact_path(run, output, first).exists()
        assert artifact_path(run, output, second).exists()


@pytest.fixture(scope="module")
def predicted_run(tmp_path_factory):
    """Three seed-5 cases at 800 faces run through predict (2 folds, 1
    epoch): (manifest path, run directory)."""
    root = tmp_path_factory.mktemp("predicted")
    manifest_path = generate_benchmark(root / "data", n_cases=3, seed=5)
    config = PipelineConfig(
        target_faces=800, folds=2, epochs=1, width_scale=0.125, batch_size=4
    )
    stages = [fn for _, fn in pipeline.STAGES[:5]]
    pipeline.run_stages(stages, load_manifest(manifest_path), config, root / "run")
    return manifest_path, root / "run"


@pytest.mark.parametrize(
    "command, kind, failed, damage, error, output",
    [
        ("refine", "vote", 0, None, FileNotFoundError, "refined"),
        ("predict", "features", 1, b"\x80 not a cache", ValueError, "vote"),
    ],
    ids=("missing vote", "garbage features"),
)
def test_a_missing_or_unreadable_upstream_file_fails_its_own_case(
    tmp_path, capsys, predicted_run, command, kind, failed, damage, error, output
):
    """An upstream file deleted (None) or overwritten with garbage: the
    stage fails naming that case with the reader's error, after writing
    its output for the other two, and the command line exits 1."""
    manifest_path, predicted = predicted_run
    run = tmp_path / "run"
    shutil.copytree(predicted, run)
    manifest = load_manifest(manifest_path)
    ids = [case.case_id for case in manifest]
    for case_id in ids:
        artifact_path(run, output, case_id).unlink(missing_ok=True)
    path = artifact_path(run, kind, ids[failed])
    if damage is None:
        path.unlink()
    else:
        path.write_bytes(damage)

    stage = dict(pipeline.STAGES)[command]
    with pytest.raises(MarginlineError) as info:
        stage(manifest, PipelineConfig.from_json(run / "config.json"), run)
    named = f"1 of 3 cases failed: {ids[failed]}: {error.__name__}: "
    assert named in str(info.value)
    assert str(path) in str(info.value)
    assert isinstance(info.value.__cause__, error)
    written = [artifact_path(run, output, case_id).exists() for case_id in ids]
    assert written == [k != failed for k in range(3)]

    code = main([command, "--manifest", str(manifest_path), "--run-dir", str(run)])
    assert code == 1
    message = json.loads(capsys.readouterr().err)["message"]
    assert named in message


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

    trained, validated, fold_of_thread = {}, {}, {}

    def recording_train_fold(train_samples, val_samples, config, fold=1):
        trained[fold] = (
            {sample_of[key(x)] for x, _, _ in train_samples},
            {sample_of[key(x)] for x, _, _ in val_samples},
        )
        # a fold trains and validates on one thread from start to end
        fold_of_thread[threading.get_ident()] = fold
        return real_train_fold(train_samples, val_samples, config, fold=fold)

    def recording_forward(params, x, adj, want_cache=False):
        if not want_cache:  # a validation pass; training keeps the cache
            validated.setdefault(fold_of_thread[threading.get_ident()], set()).add(
                sample_of[key(x)]
            )
        return real_forward(params, x, adj, want_cache)

    real_train_fold, real_forward = train_mod.train_fold, train_mod.forward
    monkeypatch.setattr(train_mod, "train_fold", recording_train_fold)
    monkeypatch.setattr(train_mod, "forward", recording_forward)
    stage_train(manifest, config, run)

    folds = json.loads((run / "models" / "folds.json").read_text())
    assert sorted(folds) == sorted(c.case_id for c in manifest)
    assert sorted(set(folds.values())) == [1, 2]
    samples = set(sample_of.values())
    for fold in (1, 2):
        held_out = {s for c, f in folds.items() if f == fold for s in sample_ids(c, 2)}
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


def test_report_correlates_rating_with_margin_error(tmp_path):
    """With three or more rated cases the summary holds Spearman's ρ
    between rating and mean margin error, and its p-value, as
    `metrics.spearman` computes them from the report's rows; with two
    rated cases, or one rating for all, it holds neither."""
    theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    truth = np.column_stack([5 * np.cos(theta), 4 * np.sin(theta), 0 * theta])
    lifts_mm = (0.01, 0.03, 0.04, 0.02)

    def summary(ratings):
        run = tmp_path / "-".join(map(str, ratings))
        cases = []
        for i, (rating, lift) in enumerate(zip(ratings, lifts_mm)):
            case_id = f"case{i}"
            cases.append(CaseEntry(case_id, "die.stl", None, rating, "test"))
            margins = {"truth_margin": truth, "margin": truth + [0.0, 0.0, lift]}
            for kind in ("labels", "refined", *margins):
                path = artifact_path(run, kind, case_id)
                path.parent.mkdir(parents=True, exist_ok=True)
                if kind in margins:
                    save_margin_json(path, margins[kind], case_id)
                else:
                    np.save(path, np.array([0, 1, 1, 0]))
        stage_evaluate(DatasetManifest(cases), PipelineConfig(), run)
        report = json.loads((run / "evaluation" / "report.json").read_text())
        mean_um = [row["mean_um"] for row in report["cases"]]
        assert mean_um == pytest.approx([1e3 * lift for lift in lifts_mm])
        return report["summary"], mean_um

    ratings = (1.0, 3.0, 2.0, 4.0)
    got, mean_um = summary(ratings)
    r, p = metrics.spearman(ratings, mean_um)
    assert (got["spearman_r"], got["spearman_p"]) == (r, p)
    assert -1.0 < r < 1.0
    for ratings in ((1.0, 3.0, None, None), (2.0, 2.0, 2.0, 2.0)):
        got, _ = summary(ratings)
        assert "spearman_r" not in got and "spearman_p" not in got


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
    votes are the same bytes from one thread and from two."""
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
    assert sum(n.endswith("_vote.npy") for n in names) == 4
    assert outputs[1] == outputs[2]


# the one case of `_three_fold_run`
DIE = CaseEntry("die", "die.stl", None, None, "test")


def _three_fold_run(run):
    """A run directory as preprocess, features and a 3-fold train leave it
    for the case `DIE`, an icosphere; returns the decimated mesh. Fold
    k's classifier bias is k."""
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
    folds = {"a": 1, "b": 2, "c": 3}
    (run / "models" / "folds.json").write_text(json.dumps(folds, indent=1))
    return mesh


def test_democracy_vote_reaches_refine(tmp_path, monkeypatch):
    """Under `democracy`, predict writes the vote and refine keeps it. On
    the band 0 < z <= 0.5 two of three folds call 1 with little
    confidence and one calls 0 with much: the vote is 1, the mean 0.37."""
    run = tmp_path / "run"
    mesh = _three_fold_run(run)

    z = mesh.barycenters[:, 2]
    top, band = z > 0.5, (z > 0.0) & (z <= 0.5)
    assert top.any() and band.any()

    def fold_field(params, x, adj, want_cache=False):
        fold = int(params.tensors["clf.b"][0])
        p1 = np.where(top, 0.9, 0.1)
        p1[band] = 0.01 if fold == 3 else 0.55
        return np.stack([1.0 - p1, p1], axis=1)

    monkeypatch.setattr(pipeline, "forward", fold_field)
    config = PipelineConfig(folds=3, ensemble="democracy")
    manifest = DatasetManifest([DIE])
    stage_predict(manifest, config, run)
    stage_refine(manifest, config, run)
    expected = (z > 0.0).astype(np.int64)
    assert np.array_equal(np.load(artifact_path(run, "vote", "die")), expected)
    assert np.array_equal(np.load(artifact_path(run, "refined", "die")), expected)
    assert sorted(p.name for p in (run / "predict").iterdir()) == ["die_vote.npy"]


def test_refine_writes_the_vote_without_islands(tmp_path, monkeypatch, predicted_run):
    """Refine runs no graph cut: each case's labels are the ensemble's
    vote with label-1 islands removed, as int64."""
    manifest_path, predicted = predicted_run
    run = tmp_path / "run"
    shutil.copytree(predicted, run)
    manifest = load_manifest(manifest_path)

    def no_cut(*args):
        raise AssertionError("refine ran a graph cut")

    monkeypatch.setattr(pipeline, "graph_cut_refine", no_cut)
    stage_refine(manifest, PipelineConfig.from_json(run / "config.json"), run)
    for case in manifest:
        mesh = load_mesh(artifact_path(run, "decimated", case.case_id))
        vote = np.load(artifact_path(run, "vote", case.case_id))
        refined = np.load(artifact_path(run, "refined", case.case_id))
        assert refined.dtype == np.int64
        assert np.array_equal(refined, cleanup_components(vote, mesh.adjacency()))
    assert sorted(p.name for p in (run / "refine").iterdir()) == sorted(
        f"{case.case_id}_labels.npy" for case in manifest
    )


@pytest.mark.parametrize("height", [0.1, 0.3, 0.5])
def test_labels_whose_band_reaches_the_open_base_close_above_it(tmp_path, height):
    """Refined labels that are 1 above `height` mm over the decimated
    die's lowest barycenter: the band around their boundary reaches the
    scan's open base, whose faces the cut holds to 0, so extract closes
    the margin above the base instead of labelling the whole band 1."""
    manifest = load_manifest(generate_benchmark(tmp_path / "data", n_cases=1, seed=5))
    config = PipelineConfig(target_faces=800)
    run = tmp_path / "run"
    stage_preprocess(manifest, config, run)
    (case,) = manifest
    die = load_mesh(artifact_path(run, "decimated", case.case_id))
    z = die.barycenters[:, 2]
    path = artifact_path(run, "refined", case.case_id)
    path.parent.mkdir()
    np.save(path, (z > z.min() + height).astype(np.int64))
    stage_extract(manifest, config, run)
    points, _ = load_margin_json(artifact_path(run, "margin", case.case_id))
    assert len(points) == config.n_samples
    # the loop runs all the way round the die, clear of its base
    assert points[:, 2].min() > die.vertices[:, 2].min() + 0.1
    angle = np.sort(np.arctan2(points[:, 1], points[:, 0]))
    assert np.diff(angle, append=angle[0] + 2 * np.pi).max() < 0.1


def test_every_per_face_array_between_stages_is_int64_labels(tmp_path, predicted_run):
    """After refine, every .npy that labels, predict and refine wrote is
    one int64 label per face of its case's decimated die."""
    manifest_path, predicted = predicted_run
    run = tmp_path / "run"
    shutil.copytree(predicted, run)
    manifest = load_manifest(manifest_path)
    stage_refine(manifest, PipelineConfig.from_json(run / "config.json"), run)
    n_faces = {
        case.case_id: load_mesh(artifact_path(run, "decimated", case.case_id)).n_faces
        for case in manifest
    }
    arrays = [
        p for sub in ("labels", "predict", "refine") for p in (run / sub).glob("*.npy")
    ]
    assert len(arrays) == 3 * len(n_faces)
    for path in arrays:
        values = np.load(path)
        case_id = path.stem.rsplit("_", 1)[0]
        assert values.dtype == np.int64, path
        assert values.shape == (n_faces[case_id],), path


def test_predict_runs_every_fold_that_train_saved(tmp_path, monkeypatch):
    """The fold models predict runs are the ones folds.json lists: all
    three, although the config says two folds."""
    run = tmp_path / "run"
    _three_fold_run(run)
    real_forward, ran = pipeline.forward, []

    def recording_forward(params, x, adj, want_cache=False):
        ran.append(int(params.tensors["clf.b"][0]))
        return real_forward(params, x, adj, want_cache)

    monkeypatch.setattr(pipeline, "forward", recording_forward)
    stage_predict(DatasetManifest([DIE]), PipelineConfig(folds=2), run)
    assert sorted(ran) == [1, 2, 3]


def test_train_reads_only_the_samples_of_the_last_featurize(tmp_path, monkeypatch):
    """featurize --augment 2, then --augment 1, leaves four stale #aug2
    caches beside the eight current ones. train takes augment_per_die
    from config.json and trains on the eight."""
    manifest_path = generate_benchmark(tmp_path / "data", n_cases=4, seed=5)
    run = tmp_path / "run"
    common = ["--manifest", str(manifest_path), "--run-dir", str(run)]
    for argv in (
        ["preprocess", "--target-faces", "2000"],
        ["label"],
        ["featurize", "--augment", "2"],
        ["featurize", "--augment", "1"],
    ):
        assert main(argv + common) == 0
    assert len(list((run / "features").glob("*.mlfc"))) == 12
    real_train_kfold, trained = pipeline.train_kfold, []

    def recording_train_kfold(dataset, fold_of, config):
        trained.append(sorted(dataset))
        return real_train_kfold(dataset, fold_of, config)

    monkeypatch.setattr(pipeline, "train_kfold", recording_train_kfold)
    train = ["train", "--folds", "2", "--epochs", "1", "--scale", "0.125"]
    assert main(train + common) == 0
    case_ids = [c.case_id for c in load_manifest(manifest_path)]
    assert trained == [sorted(s for c in case_ids for s in sample_ids(c, 1))]
    assert len(trained[0]) == 8


def test_train_names_a_sample_it_cannot_use(tmp_path):
    """A missing #augK cache, or the cache of a labeled case written
    without its labels, stops train with an error naming the sample
    instead of leaving the sample out."""
    config = PipelineConfig(
        target_faces=2000, folds=2, epochs=1, width_scale=0.125, augment_per_die=1
    )
    manifest = load_manifest(generate_benchmark(tmp_path / "data", n_cases=4, seed=5))
    run = tmp_path / "run"
    for stage in (stage_preprocess, stage_labels, stage_features):
        stage(manifest, config, run)
    with pytest.raises(MarginlineError, match="sample synth000#aug2 has no feature"):
        stage_train(manifest, replace(config, augment_per_die=2), run)
    (run / "labels" / "synth001_labels.npy").unlink()
    stage_features(manifest, config, run)
    with pytest.raises(MarginlineError, match="sample synth001 has no labels"):
        stage_train(manifest, config, run)


def test_a_crown_bottom_with_a_hole_warns_once(tmp_path):
    """labels walks a crown bottom's boundary loops once per case, so a
    second loop (a hole in the crown's top) is reported once."""
    manifest_path = generate_benchmark(tmp_path / "data", n_cases=1, seed=5)
    manifest = load_manifest(manifest_path)
    crown_path = manifest.cases[0].crown_bottom_path
    crown = load_mesh(crown_path)
    top = int(np.argmax(crown.barycenters[:, 2]))
    holed = TriangleMesh(crown.vertices, np.delete(crown.faces, top, axis=0))
    save_stl_binary(holed, crown_path)
    config = PipelineConfig(target_faces=2000)
    run = tmp_path / "run"
    stage_preprocess(manifest, config, run)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stage_labels(manifest, config, run)
    messages = [str(w.message) for w in caught]
    assert len(messages) == 1 and "2 boundary loops" in messages[0], messages


@pytest.mark.parametrize(
    "field, value",
    [
        ("epochs", 0),
        ("batch_size", 0),
        ("width_scale", 0.0),
        ("augment_per_die", -1),
        ("ensemble", "fold-9"),  # 5 folds
        ("ensemble", "fold-x"),
        ("seed", -1),
        ("width_scale", float("nan")),
        ("width_scale", float("inf")),  # the network's widths overflow
    ],
)
def test_validate_refuses_values_a_later_stage_fails_on(field, value):
    PipelineConfig().validate()
    with pytest.raises(ValueError):
        PipelineConfig(**{field: value}).validate()


_WRONG_TYPES = {
    "int": ["5", 2.5, 5.0, True, None],
    "float": ["2", True, None, [1.0]],
    "str": [3, None, True],
}
_WRONG_TYPE_CASES = [
    (name, value)
    for name, f in PipelineConfig.__dataclass_fields__.items()
    for value in _WRONG_TYPES[f.type]
]


# named by field and value, so adding or dropping a field renames no
# other field's cases
@pytest.mark.parametrize(
    "field, value",
    _WRONG_TYPE_CASES,
    ids=[f"{field}-{value}" for field, value in _WRONG_TYPE_CASES],
)
def test_validate_refuses_values_of_the_wrong_type(field, value):
    with pytest.raises(ValueError, match=field):
        PipelineConfig(**{field: value}).validate()


def test_validate_takes_numpy_and_integer_numbers():
    PipelineConfig(
        folds=np.int64(3),
        epochs=np.int32(2),
        width_scale=np.float32(0.5),
    ).validate()
    # an int is a real number too
    PipelineConfig(width_scale=1).validate()


def test_config_has_exactly_these_fields():
    """Adding a setting is a deliberate edit of this list."""
    assert list(PipelineConfig.__dataclass_fields__) == [
        "target_faces",
        "augment_per_die",
        "folds",
        "epochs",
        "width_scale",
        "batch_size",
        "ensemble",
        "n_samples",
        "seed",
    ]


@pytest.mark.parametrize("raw", [5, None, ["folds"], "abc"])
def test_config_file_that_is_not_an_object_is_refused(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="must be a JSON object") as info:
        PipelineConfig.from_json(path)
    assert str(path) in str(info.value)


def test_registered_scan_rebuilt_from_its_transform_bit_for_bit(tmp_path):
    """The saved transform moves the scan exactly as registration did."""
    mesh, _ = frustum_die(
        base_radius=6.2, margin_radius=4.0, margin_height=3.6, crown_height=2.6,
        scale_xy=(1.0, 0.86),
    )
    rng = np.random.default_rng(8)
    rot = rotation_xyz(*rng.uniform(-np.pi, np.pi, size=3))
    scan = TriangleMesh(mesh.vertices @ rot.T + rng.uniform(-5, 5, 3), mesh.faces)
    registered, transform = obb_register(scan)
    pipeline._save_transform(tmp_path / "die_transform.json", transform)
    rebuilt = pipeline._registered(scan, tmp_path / "die_transform.json")
    assert rebuilt.vertices.tobytes() == registered.vertices.tobytes()
    assert np.array_equal(rebuilt.faces, registered.faces)


def test_a_die_declared_upper_or_lower_gets_the_same_transform_and_margin(tmp_path):
    """The manifest's `arch` (and `tooth_position`) are read by no stage:
    one die listed as an upper and as a lower case is registered, labelled
    and cut alike."""
    data = tmp_path / "data"
    generate_benchmark(data, n_cases=1, seed=5)
    paths = {"die_path": "synth000_die.stl",
             "crown_bottom_path": "synth000_crown_bottom.stl"}
    save_manifest(data / "manifest.json", [
        {"case_id": "up", "arch": "upper", "tooth_position": 11, **paths},
        {"case_id": "low", "arch": "lower", "tooth_position": 31, **paths},
    ])
    manifest = load_manifest(data)
    config = PipelineConfig(target_faces=800, n_samples=64)
    run = tmp_path / "run"
    stage_preprocess(manifest, config, run)
    stage_labels(manifest, config, run)
    # the transferred labels stand in for the refined ones
    shutil.copytree(run / "labels", run / "refine")
    stage_extract(manifest, config, run)
    for kind in ("transform", "decimated", "labels"):
        up, low = (artifact_path(run, kind, c).read_bytes() for c in ("up", "low"))
        assert up == low, kind
    up, low = (load_margin_json(artifact_path(run, "margin", c))[0] for c in ("up", "low"))
    assert up.tobytes() == low.tobytes()


def test_preprocess_writes_no_registered_scan(tmp_path):
    """Preprocess keeps the decimated die and the transform only, and
    extract rebuilds the full-resolution scan from the manifest's."""
    manifest = load_manifest(generate_benchmark(tmp_path / "data", n_cases=2, seed=5))
    config = PipelineConfig(target_faces=2000, n_samples=64)
    run = tmp_path / "run"
    stage_preprocess(manifest, config, run)
    assert sorted(p.name for p in (run / "preprocess").iterdir()) == sorted(
        f"{c.case_id}_{suffix}"
        for c in manifest
        for suffix in ("decimated.stl", "transform.json")
    )
    stage_labels(manifest, config, run)
    # the transferred labels stand in for the refined ones
    shutil.copytree(run / "labels", run / "refine")
    stage_extract(manifest, config, run)
    for case in manifest:
        margin = json.loads((run / "margins" / f"{case.case_id}_margin.json").read_text())
        assert margin["closed"] is True and margin["n"] == 64
