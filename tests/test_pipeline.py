"""Stage-level pipeline behaviour not covered by the acceptance criteria."""

import csv
import json

from marginline.manifest import load_manifest, save_manifest
from marginline.pipeline import PipelineConfig, run_pipeline
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
    assert not (run / "labels" / f"{case_id}_labeled.ply").exists()
    margin = json.loads((run / "margins" / f"{case_id}_margin.json").read_text())
    assert margin["closed"] is True
    assert margin["n"] == len(margin["points"]) == config.n_samples
    with open(run / "evaluation" / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["case_id"] for r in rows] == [case_id]
    assert rows[0]["dsc"] == "" and rows[0]["mean_um"] == ""
