"""Synthetic die benchmark: randomized frustum dies with an analytic crease.

Each case is a closed lathed die whose margin is an exact ellipse at a known
height, so the extracted margin line can be scored against ground truth with
no manual annotation. The generator writes binary STL dies, matching
crown-bottom shells, a dataset manifest, and per-case truth polylines.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .manifest import save_manifest
from .margin import load_margin_json, save_margin_json
from .mesh import TriangleMesh, compact_mesh
from .meshio import save_stl_binary
from .preprocess import rotation_xyz
from .shapes import crease_circle, frustum_die

TRUTH_POINTS = 2048  # samples of each case's analytic crease


def _crown_shell(die, crease):
    """Faces of the die strictly above the crease, in die order, as a
    standalone mesh of the vertices they use."""
    above = die.barycenters[:, 2] > crease["z"] + 1e-9
    return compact_mesh(die.vertices, die.faces[above])


def generate_case(rng):
    """A random die as `(die, crown_bottom, truth_points)`: the crown is
    the die above the crease, and the truth points sample the crease."""
    # squat proportions keep the variance ordering x > y > z unambiguous
    # for the canonical-pose registration
    base_radius = rng.uniform(5.8, 6.5)
    margin_radius = rng.uniform(3.8, 4.4)
    margin_height = rng.uniform(3.2, 4.0)
    crown_height = rng.uniform(2.2, 3.0)
    squash = rng.uniform(0.82, 0.9)
    segments = int(rng.integers(48, 73))
    spin = rng.uniform(0.0, 2.0 * np.pi)
    shift = rng.uniform(-3.0, 3.0, size=3)

    die, crease = frustum_die(
        base_radius=base_radius,
        margin_radius=margin_radius,
        margin_height=margin_height,
        crown_height=crown_height,
        scale_xy=(1.0, squash),
        segments=segments,
    )
    crown = _crown_shell(die, crease)
    truth = crease_circle(crease, TRUTH_POINTS)

    rot = rotation_xyz(0.0, 0.0, spin).T
    die = TriangleMesh(die.vertices @ rot + shift, die.faces)
    crown = TriangleMesh(crown.vertices @ rot + shift, crown.faces)
    return die, crown, truth @ rot + shift


def generate_benchmark(out_dir, n_cases=20, seed=7):
    """Write a full synthetic dataset and return its manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    truth_dir = out_dir / "truth"
    truth_dir.mkdir(exist_ok=True)

    entries = []
    for i in range(n_cases):
        case_id = f"synth{i:03d}"
        die, crown, truth = generate_case(np.random.default_rng([seed, i]))
        die_name = f"{case_id}_die.stl"
        crown_name = f"{case_id}_crown_bottom.stl"
        save_stl_binary(die, out_dir / die_name)
        save_stl_binary(crown, out_dir / crown_name)
        save_margin_json(truth_dir / f"{case_id}_margin.json", truth, case_id)
        entries.append(
            {
                "case_id": case_id,
                "die_path": die_name,
                "crown_bottom_path": crown_name,
                "arch": "lower",
                "tooth_position": 31,
                "rating": None,
                "split": "train",
            }
        )
    manifest_path = out_dir / "manifest.json"
    save_manifest(manifest_path, entries)
    return manifest_path


def load_truth_points(out_dir, case_id):
    points, _ = load_margin_json(Path(out_dir) / "truth" / f"{case_id}_margin.json")
    return points
