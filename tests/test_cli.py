"""Command line interface tests: a small end-to-end run, the report
command, and exit code conventions."""

import csv
import dataclasses
import json
from pathlib import Path

import pytest

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


def test_bad_config_stops_before_any_stage(tmp_path, capsys):
    """A value only refine would trip on is refused up front: exit 1 and
    no stage directory."""
    (tmp_path / "a_die.stl").write_bytes(b"\0" * 84)
    run = tmp_path / "run"
    code = main(
        ["pipeline", "--manifest", str(tmp_path), "--run-dir", str(run), "--sigma", "0"]
    )
    assert code == 1
    assert "dihedral_sigma" in capsys.readouterr().err
    assert not (run / "preprocess").exists()


_COMMON = {"-h", "--help", "--manifest", "--run-dir", "--config"}

# each command's option strings as the hand-written parsers declared them
PARENT_OPTIONS = {
    "synth": {"-h", "--help", "--out", "--cases", "--seed"},
    "preprocess": _COMMON | {"--target-faces"},
    "label": _COMMON,
    "featurize": _COMMON | {"--augment"},
    "train": _COMMON | {"--folds", "--epochs", "--scale", "--seed"},
    "predict": _COMMON | {"--ensemble", "--folds"},
    "refine": _COMMON | {"--smoothness", "--sigma"},
    "extract": _COMMON | {"--samples"},
    "evaluate": _COMMON | {"--threshold-um"},
    "pipeline": _COMMON | {
        "--target-faces", "--augment", "--folds", "--epochs", "--scale",
        "--ensemble", "--smoothness", "--sigma", "--samples",
        "--threshold-um", "--seed",
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
    "smoothness": "1.5",
    "dihedral_sigma": "0.25",
    "n_samples": "64",
    "threshold_um": "150.5",
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


def test_removed_radius_key_in_config_exit_1(tmp_path, capsys):
    (tmp_path / "a_die.stl").write_bytes(b"\0" * 84)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"r_small": 0.1}))
    code = main(
        [
            "preprocess",
            "--manifest", str(tmp_path),
            "--run-dir", str(tmp_path / "run"),
            "--config", str(config),
        ]
    )
    assert code == 1
    assert "r_small" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "manifest",
    [
        {"x": 1},
        5,
        ["case_id die_path arch"],
        [{"case_id": "a", "die_path": 3, "arch": "lower"}],
    ],
)
def test_malformed_manifest_exit_1(tmp_path, capsys, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code = main(["preprocess", "--manifest", str(path), "--run-dir", str(tmp_path / "run")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ManifestError"
