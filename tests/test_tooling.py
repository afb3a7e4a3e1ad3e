"""The benchmark's tracer wraps `marginline` entry points by name; a
renamed kernel would silently drop its per-layer metrics."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# retired with the labeled-PLY handoff; the tracer still lists it
RETIRED = {"marginline.pipeline.load_labeled_ply"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert set(tracer.missing) <= RETIRED
