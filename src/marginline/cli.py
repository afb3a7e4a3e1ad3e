"""Command line front end.

Exit codes: 0 success, 1 data/validation error, 2 usage error,
3 internal failure. Errors are also emitted as one-line JSON on stderr
so that batch drivers can parse them.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from . import pipeline as pl
from .errors import DATA_ERRORS, MarginlineError
from .manifest import load_manifest
from .synthetic import generate_benchmark

# PipelineConfig field -> (flag, type, help)
FLAGS = {
    "target_faces": ("--target-faces", int, "face budget after decimation"),
    "augment_per_die": ("--augment", int, "augmented copies per training die"),
    "folds": ("--folds", int, "number of folds, one model each"),
    "epochs": ("--epochs", int, "training epochs per fold"),
    "width_scale": ("--scale", float, "network width scale"),
    "ensemble": ("--ensemble", str, "max_probability, democracy, or fold-K"),
    "n_samples": ("--samples", int, "points sampled on each margin line"),
    "seed": ("--seed", int, "seed of folds, weights and augmentation"),
}

# command -> (stage functions it runs, help, the PipelineConfig fields it takes)
COMMANDS = {
    "preprocess": (
        (pl.stage_preprocess,), "register and decimate the dies", ("target_faces",)
    ),
    "label": ((pl.stage_labels,), "transfer crown-bottom labels onto dies", ()),
    "featurize": (
        (pl.stage_features,), "cache per-case feature matrices", ("augment_per_die",)
    ),
    "train": (
        (pl.stage_train,),
        "train the k-fold segmentation ensemble",
        ("folds", "epochs", "width_scale", "seed"),
    ),
    "predict": ((pl.stage_predict,), "run the ensemble on the dataset", ("ensemble",)),
    "refine": ((pl.stage_refine,), "graph-cut label refinement", ()),
    "extract": (
        (pl.stage_extract,), "fit and sample the margin lines", ("n_samples",)
    ),
    "evaluate": ((pl.stage_evaluate,), "score predictions against truth", ()),
    "pipeline": (
        tuple(fn for _, fn in pl.STAGES), "run every stage in order", tuple(FLAGS)
    ),
}


def _build_config(args):
    """The run directory's config.json (the defaults for a new run),
    replaced by --config when given, with the command's flags on top."""
    saved = Path(args.run_dir) / "config.json"
    path = args.config or (saved if saved.exists() else None)
    config = pl.PipelineConfig.from_json(path) if path else pl.PipelineConfig()
    for field in COMMANDS[args.command][2]:
        value = getattr(args, field)
        if value is not None:
            setattr(config, field, value)
    return config


def build_parser():
    parser = argparse.ArgumentParser(
        prog="marginline",
        description="Margin line extraction pipeline for dental die scans",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic die benchmark")
    p.add_argument("--out", required=True)
    p.add_argument("--cases", type=int, default=20)
    p.add_argument("--seed", type=int, default=7)

    for command, (_, help_text, fields) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--manifest", required=True, help="manifest JSON or dataset directory")
        p.add_argument("--run-dir", required=True, help="artifact directory")
        p.add_argument("--config", help="pipeline config JSON")
        for field in fields:
            flag, kind, field_help = FLAGS[field]
            p.add_argument(flag, dest=field, type=kind, help=field_help)

    p = sub.add_parser("report", help="print the evaluation summary")
    p.add_argument("--run-dir", required=True)
    return parser


def _run(args):
    if args.command == "synth":
        path = generate_benchmark(args.out, n_cases=args.cases, seed=args.seed)
        print(f"wrote {args.cases} cases; manifest at {path}")
        return 0
    if args.command == "report":
        report = Path(args.run_dir) / "evaluation" / "report.json"
        if not report.exists():
            raise MarginlineError(f"no evaluation report at {report}")
        summary = json.loads(report.read_text())["summary"]
        for key in sorted(summary):
            print(f"{key}: {summary[key]}")
        return 0

    manifest = load_manifest(args.manifest)
    stages = COMMANDS[args.command][0]
    out = pl.run_stages(stages, manifest, _build_config(args), args.run_dir)
    print(f"{args.command}: artifacts in {out}")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except Exception as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error), file=sys.stderr)
        if isinstance(exc, DATA_ERRORS):
            return 1
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
