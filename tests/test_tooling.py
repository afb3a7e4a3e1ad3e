"""The benchmark's tracer wraps `marginline` entry points by name, so a
renamed kernel would silently drop its per-layer metrics; and its
workloads read the program's artifacts themselves, so an artifact they
cannot read would fail only the benchmark."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# retired with the labeled-PLY handoff; the tracer still lists it
RETIRED = {"marginline.pipeline.load_labeled_ply"}


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _load_perfbench("tracer").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert set(tracer.missing) <= RETIRED


def test_benchmark_workloads_score_correct_at_smoke_size(tmp_path):
    """Both workloads' own checks, at the smoke size: held-out Dice
    recomputed from the saved folds and feature caches, and every die's
    margin read back as a closed loop."""
    workloads = _load_perfbench("workloads")
    for cls in (workloads.TrainSynth20, workloads.InferHires):
        workload = cls(tmp_path / cls.name, 1, workloads.SMOKE)
        workload.setup()
        workload.prepare()
        workload.run()
        ok, metrics = workload.score()
        assert ok, (cls.name, workload.details)
        assert workload.failed == 0, (cls.name, workload.details)
