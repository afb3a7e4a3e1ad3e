"""Command line interface tests: a small end-to-end run, the report
command, and exit code conventions."""

import csv
import dataclasses
import json
from pathlib import Path

import pytest

from marginline import pipeline
from marginline.cli import COMMANDS, FLAGS, _build_config, build_parser, main
from marginline.pipeline import PipelineConfig


@pytest.fixture(scope="module")
def small_run(tmp_path_factory, capfd_unsupported=None):
    """One tiny synthetic dataset pushed through the full pipeline."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert main(["synth", "--out", str(data), "--cases", "4", "--seed", "5"]) == 0
    code = main(
        [
            "pipeline",
            "--manifest", str(data / "manifest.json"),
            "--run-dir", str(run),
            "--target-faces", "2000",
            "--folds", "2",
            "--epochs", "12",
            "--scale", "0.125",
            "--seed", "1",
        ]
    )
    assert code == 0
    return data, run


def test_stage_commands_one_by_one_match_the_pipeline(small_run, tmp_path):
    """The eight stage commands run one by one, each flag given only to
    the command that reads it, write `pipeline`'s margins: a command
    starts from the run's config.json, so predict finds the two folds
    that train was given."""
    data, pipeline_run = small_run
    run = tmp_path / "run"
    flags = {
        "preprocess": ["--target-faces", "2000"],
        "train": ["--folds", "2", "--epochs", "12", "--scale", "0.125", "--seed", "1"],
    }
    for command in (
        "preprocess", "label", "featurize", "train",
        "predict", "refine", "extract", "evaluate",
    ):
        args = [command, "--manifest", str(data), "--run-dir", str(run)]
        assert main(args + flags.get(command, [])) == 0, command
    margins = sorted((pipeline_run / "margins").glob("*_margin.json"))
    assert len(margins) == 4
    for path in margins:
        assert (run / "margins" / path.name).read_bytes() == path.read_bytes()
    used = PipelineConfig(
        target_faces=2000, folds=2, epochs=12, width_scale=0.125, seed=1
    )
    assert json.loads((run / "config.json").read_text()) == dataclasses.asdict(used)


def test_synth_layout(small_run):
    data, _ = small_run
    assert (data / "manifest.json").exists()
    for i in range(4):
        assert (data / f"synth{i:03d}_die.stl").exists()
        assert (data / f"synth{i:03d}_crown_bottom.stl").exists()
        assert (data / "truth" / f"synth{i:03d}_margin.json").exists()


def test_pipeline_artifacts(small_run):
    _, run = small_run
    for sub in ("preprocess", "labels", "features", "models",
                "predict", "refine", "margins", "evaluation"):
        assert (run / sub).is_dir()
    assert (run / "models" / "folds.json").exists()
    report = json.loads((run / "evaluation" / "report.json").read_text())
    assert report["summary"]["n_cases"] == 4
    with open(run / "evaluation" / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert set(rows[0]) >= {
        "case_id", "rating", "dsc", "sen", "ppv",
        "max_um", "mean_um", "std_um", "success",
    }


def test_margin_outputs(small_run):
    _, run = small_run
    margins = sorted((run / "margins").glob("*_margin.json"))
    assert len(margins) == 4
    data = json.loads(margins[0].read_text())
    assert data["closed"] is True
    assert data["n"] == len(data["points"])


def test_report_command(small_run, capsys):
    _, run = small_run
    assert main(["report", "--run-dir", str(run)]) == 0
    out = capsys.readouterr().out
    assert "dsc_mean" in out
    assert "success_count" in out


def test_missing_manifest_exit_1(tmp_path, capsys):
    code = main(
        [
            "preprocess",
            "--manifest", str(tmp_path / "nope.json"),
            "--run-dir", str(tmp_path / "run"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err.strip()
    parsed = json.loads(err.splitlines()[-1])
    assert "error" in parsed and "message" in parsed


def test_report_before_evaluate_exit_1(tmp_path, capsys):
    assert main(["report", "--run-dir", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["pipeline"]) == 2  # missing required arguments
    assert main(["synth", "--out", "x", "--cases", "abc"]) == 2
    capsys.readouterr()


def test_bad_config_value_exit_1(tmp_path, capsys):
    (tmp_path / "a_die.stl").write_bytes(b"\0" * 84)
    code = main(
        [
            "train",
            "--manifest", str(tmp_path),
            "--run-dir", str(tmp_path / "run"),
            "--folds", "1",
        ]
    )
    assert code == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, config", [("preprocess", {"folds": "5"}), ("pipeline", {"epochs": 2.5})]
)
def test_config_value_of_the_wrong_type_exit_1(tmp_path, capsys, command, config):
    """Refused as a bad value (exit 1) before any stage runs, not a
    TypeError from a comparison or a failure in training (exit 3)."""
    (tmp_path / "a_die.stl").write_bytes(b"\0" * 84)
    (tmp_path / "config.json").write_text(json.dumps(config))
    run = tmp_path / "run"
    code = main(
        [
            command,
            "--manifest", str(tmp_path),
            "--run-dir", str(run),
            "--config", str(tmp_path / "config.json"),
        ]
    )
    assert code == 1
    assert next(iter(config)) in capsys.readouterr().err
    assert not (run / "preprocess").exists()


def test_bad_config_stops_before_any_stage(tmp_path, capsys):
    """A value only predict would trip on (fold 9 of 5) is refused up
    front: exit 1 and no stage directory."""
    (tmp_path / "a_die.stl").write_bytes(b"\0" * 84)
    run = tmp_path / "run"
    code = main(
        [
            "pipeline",
            "--manifest", str(tmp_path),
            "--run-dir", str(run),
            "--ensemble", "fold-9",
        ]
    )
    assert code == 1
    assert "ensemble" in capsys.readouterr().err
    assert not (run / "preprocess").exists()


_COMMON = {"-h", "--help", "--manifest", "--run-dir", "--config"}

# each command's option strings as the hand-written parsers declared them
PARENT_OPTIONS = {
    "synth": {"-h", "--help", "--out", "--cases", "--seed"},
    "preprocess": _COMMON | {"--target-faces"},
    "label": _COMMON,
    "featurize": _COMMON | {"--augment"},
    "train": _COMMON | {"--folds", "--epochs", "--scale", "--seed"},
    # predict runs the folds that train saved, so it takes no --folds
    "predict": _COMMON | {"--ensemble"},
    # graph-cut λ and σ and the success threshold are constants
    "refine": _COMMON,
    "extract": _COMMON | {"--samples"},
    "evaluate": _COMMON,
    "pipeline": _COMMON | {
        "--target-faces", "--augment", "--folds", "--epochs", "--scale",
        "--ensemble", "--samples", "--seed",
    },
    "report": {"-h", "--help", "--run-dir"},
}

# one valid value per field, none of them its default
VALUES = {
    "target_faces": "1234",
    "augment_per_die": "3",
    "folds": "3",
    "epochs": "7",
    "width_scale": "0.5",
    "ensemble": "democracy",
    "n_samples": "64",
    "seed": "9",
}


def _subparsers():
    return build_parser()._subparsers._group_actions[0].choices


def test_every_command_keeps_its_options():
    parsers = _subparsers()
    assert set(parsers) == set(PARENT_OPTIONS)
    for command, parser in parsers.items():
        options = {o for action in parser._actions for o in action.option_strings}
        assert options == PARENT_OPTIONS[command], command


def test_flags_name_config_fields():
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    assert set(FLAGS) <= fields
    assert set(VALUES) == set(FLAGS)
    for _, _, taken in COMMANDS.values():
        assert set(taken) <= set(FLAGS)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_flag_reaches_its_field(command):
    default = PipelineConfig()
    for field in COMMANDS[command][2]:
        flag, kind, _ = FLAGS[field]
        args = build_parser().parse_args(
            [command, "--manifest", "m", "--run-dir", "r", flag, VALUES[field]]
        )
        config = _build_config(args)
        assert getattr(config, field) == kind(VALUES[field]) != getattr(default, field)
        others = {f: v for f, v in vars(config).items() if f != field}
        assert others == {f: v for f, v in vars(default).items() if f != field}


@pytest.mark.parametrize(
    "key", ["r_small", "smoothness", "dihedral_sigma", "threshold_um"]
)
def test_removed_config_key_exit_1(tmp_path, capsys, key):
    """A config.json that an older version wrote, holding a setting
    that is now a constant, is refused naming the key."""
    (tmp_path / "a_die.stl").write_bytes(b"\0" * 84)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: 1.0}))
    code = main(
        [
            "preprocess",
            "--manifest", str(tmp_path),
            "--run-dir", str(tmp_path / "run"),
            "--config", str(config),
        ]
    )
    assert code == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("raw", [5, None, ["folds"], "abc"])
def test_config_that_is_not_an_object_exit_1(tmp_path, capsys, raw):
    (tmp_path / "a_die.stl").write_bytes(b"\0" * 84)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    code = main(
        [
            "preprocess",
            "--manifest", str(tmp_path),
            "--run-dir", str(tmp_path / "run"),
            "--config", str(config),
        ]
    )
    assert code == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ValueError"
    assert "must be a JSON object" in error["message"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "manifest",
    [
        {"x": 1},
        5,
        ["case_id die_path arch"],
        [{"case_id": "a", "die_path": 3, "arch": "lower"}],
        {"cases": []},
        [],
    ],
)
def test_malformed_manifest_exit_1(tmp_path, capsys, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code = main(["preprocess", "--manifest", str(path), "--run-dir", str(tmp_path / "run")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ManifestError"


def test_synth_of_no_cases_exit_1(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "data"), "--cases", "0"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert not (tmp_path / "data").exists()


def test_directory_that_names_a_file_exit_1(tmp_path, capsys):
    """A file where a stage's `--run-dir` or `synth --out` names a
    directory is bad input: exit 1 with the path named, and nothing
    written."""
    (tmp_path / "a_die.stl").write_bytes(b"\0" * 84)
    occupied = tmp_path / "occupied"
    occupied.write_text("")
    for argv in (
        ["preprocess", "--manifest", str(tmp_path), "--run-dir", str(occupied)],
        ["synth", "--out", str(occupied), "--cases", "1"],
    ):
        assert main(argv) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "MarginlineError"
        assert str(occupied) in error["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_die.stl", "occupied"]


@pytest.mark.parametrize("wrong", ["stage_dir_is_a_file", "config_is_a_dir"])
def test_path_of_the_wrong_kind_exit_1(tmp_path, capsys, wrong):
    """A file where a stage's directory belongs in the run directory, or
    a `--config` that names a directory, is bad input: exit 1 with the
    path named, and no stage directory written."""
    (tmp_path / "a_die.stl").write_bytes(b"\0" * 84)
    run = tmp_path / "run"
    argv = ["preprocess", "--manifest", str(tmp_path), "--run-dir", str(run)]
    if wrong == "stage_dir_is_a_file":
        run.mkdir()
        path = run / "preprocess"
        path.write_text("")
    else:
        path = tmp_path / "config.json"
        path.mkdir()
        argv += ["--config", str(path)]
    assert main(argv) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "MarginlineError"
    assert str(path) in error["message"]
    assert [p for p in run.glob("*") if p.is_dir()] == []


@pytest.fixture(scope="module")
def two_dies(tmp_path_factory):
    """The manifest of a two-case synthetic dataset, `synth000` and
    `synth001`, that the tests below only read."""
    data = tmp_path_factory.mktemp("two") / "data"
    assert main(["synth", "--out", str(data), "--cases", "2", "--seed", "5"]) == 0
    return data / "manifest.json"


def test_artifact_path_that_is_a_directory_fails_its_case(two_dies, tmp_path, capsys):
    """A directory where a case's artifact belongs fails that case, not
    the stage: exit 1 naming the path, and the other case's artifacts
    are written."""
    run = tmp_path / "run"
    blocked = run / "preprocess" / "synth000_decimated.stl"
    blocked.mkdir(parents=True)
    argv = ["--manifest", str(two_dies), "--run-dir", str(run), "--target-faces", "800"]
    assert main(["preprocess", *argv]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "MarginlineError"
    assert "synth000: IsADirectoryError" in error["message"]
    assert str(blocked) in error["message"]
    assert (run / "preprocess" / "synth001_decimated.stl").is_file()
    assert (run / "preprocess" / "synth001_transform.json").is_file()
    assert not (run / "preprocess" / "synth000_transform.json").exists()


def test_transform_without_a_key_fails_its_case(two_dies, tmp_path, capsys):
    """A transform that lacks its rotation fails the case with the file
    named, not the run with a bare KeyError."""
    run = tmp_path / "run"
    argv = ["--manifest", str(two_dies), "--run-dir", str(run)]
    assert main(["preprocess", *argv, "--target-faces", "800"]) == 0
    transform = run / "preprocess" / "synth000_transform.json"
    transform.write_text(json.dumps({"target_faces": 800}))
    capsys.readouterr()
    assert main(["label", *argv]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "MarginlineError"
    assert f"{transform}: no 'rotation'" in error["message"]
    assert (run / "labels" / "synth001_labels.npy").is_file()


@pytest.mark.parametrize("wrong", ["directory", "no_summary"])
def test_report_that_cannot_be_read_exit_1(tmp_path, capsys, wrong):
    """A `report.json` that is a directory, or that holds no summary,
    exits 1 naming it."""
    report = tmp_path / "evaluation" / "report.json"
    if wrong == "directory":
        report.mkdir(parents=True)
    else:
        report.parent.mkdir()
        report.write_text("{}")
    assert main(["report", "--run-dir", str(tmp_path)]) == 1
    error = json.loads(capsys.readouterr().err)
    assert str(report) in error["message"]
    if wrong == "no_summary":
        assert error == {"error": "MarginlineError", "message": f"{report}: no 'summary'"}


def test_internal_failure_exit_3(tmp_path, monkeypatch, capsys):
    """An exception that is not a data error stops the command with exit
    3: one JSON line naming it on stderr, then the traceback."""

    def broken(path):
        raise IndexError("index 7 is out of bounds")

    monkeypatch.setattr(pipeline, "load_mesh", broken)
    (tmp_path / "a_die.stl").write_bytes(b"\0" * 84)
    argv = ["preprocess", "--manifest", str(tmp_path), "--run-dir", str(tmp_path / "run")]
    assert main(argv) == 3
    first, *rest = capsys.readouterr().err.splitlines()
    assert json.loads(first) == {"error": "IndexError", "message": "index 7 is out of bounds"}
    assert rest[0] == "Traceback (most recent call last):"
    assert rest[-1] == "IndexError: index 7 is out of bounds"
