"""Synthetic die benchmark: randomized frustum dies with an analytic crease.

Each case is a closed lathed die whose margin is an exact ellipse at a known
height, so the extracted margin line can be scored against ground truth with
no manual annotation. The generator writes binary STL dies, matching
crown-bottom shells, a dataset manifest, and per-case truth polylines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .manifest import save_manifest
from .mesh import TriangleMesh
from .meshio import save_stl_binary, soup_to_mesh
from .shapes import crease_circle, frustum_die

TRUTH_POINTS = 2048  # samples of each case's analytic crease


@dataclass
class SyntheticCase:
    case_id: str
    die: TriangleMesh
    crown_bottom: TriangleMesh
    crease: dict
    truth_points: np.ndarray


def _crown_shell(die, crease):
    """Faces of the die strictly above the crease, as a standalone mesh."""
    above = die.barycenters[:, 2] > crease["z"] + 1e-9
    tris = die.vertices[die.faces[above]]
    return soup_to_mesh(tris.reshape(-1, 3))


def _rotate_z(points, angle):
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return points @ rot.T


def generate_case(case_id, rng) -> SyntheticCase:
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

    die = TriangleMesh(_rotate_z(die.vertices, spin) + shift, die.faces)
    crown = TriangleMesh(_rotate_z(crown.vertices, spin) + shift, crown.faces)
    truth = _rotate_z(truth, spin) + shift
    crease = dict(crease, spin=spin, shift=shift.tolist())
    return SyntheticCase(case_id, die, crown, crease, truth)


def generate_benchmark(out_dir, n_cases=20, seed=7):
    """Write a full synthetic dataset and return its manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    truth_dir = out_dir / "truth"
    truth_dir.mkdir(exist_ok=True)

    entries = []
    for i in range(n_cases):
        rng = np.random.default_rng([seed, i])
        case = generate_case(f"synth{i:03d}", rng)
        die_name = f"{case.case_id}_die.stl"
        crown_name = f"{case.case_id}_crown_bottom.stl"
        save_stl_binary(case.die, out_dir / die_name)
        save_stl_binary(case.crown_bottom, out_dir / crown_name)
        truth_path = truth_dir / f"{case.case_id}_margin.json"
        truth_path.write_text(
            json.dumps(
                {
                    "case_id": case.case_id,
                    "crease": {
                        k: v for k, v in case.crease.items() if k != "shift"
                    } | {"shift": case.crease["shift"]},
                    "points": np.asarray(case.truth_points).tolist(),
                },
                indent=1,
            )
        )
        entries.append(
            {
                "case_id": case.case_id,
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
    path = Path(out_dir) / "truth" / f"{case_id}_margin.json"
    return np.asarray(json.loads(path.read_text())["points"], dtype=float)
