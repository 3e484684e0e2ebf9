"""Seeded scenario generator and per-job set-up for the benchmark.

A scenario is drawn from ``(workload, scenario id)`` alone, so the same id
always yields the same file.  Set-up turns a scenario into a runnable job:
it validates the scenario, measures the residual floor and the target norm
through the public API at the job's own node counts, and derives the
accuracy budget (and, for sweeps, the epsilon ladder) from them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from fieldcast.fields import build_target
from fieldcast.geometry import build_rules, validate_scenario
from fieldcast.operator import assemble_forward
from fieldcast.scenario_io import parse_scenario
from fieldcast.solver import residual_floor

DELTA = 1.0
OBSERVATION_RADIUS = 15.0

# epsilon = floor + EPSILON_FRACTION * (||v|| - floor): well inside the
# feasible interval, so every job solves and certifies.
EPSILON_FRACTION = 0.1

# The sweep ladder runs geometrically over this share of [floor, ||v||].
LADDER_LO = 1.05
LADDER_HI = 0.95

# Harmonic polynomials of degree <= 3, as {powers: coeff}.
_POLY_BASIS = {
    2: [
        {(1, 0): 1.0},
        {(0, 1): 1.0},
        {(1, 1): 1.0},
        {(2, 0): 1.0, (0, 2): -1.0},
        {(3, 0): 1.0, (1, 2): -3.0},
        {(2, 1): 3.0, (0, 3): -1.0},
    ],
    3: [
        {(1, 0, 0): 1.0},
        {(0, 1, 0): 1.0},
        {(0, 0, 1): 1.0},
        {(1, 1, 0): 1.0},
        {(0, 1, 1): 1.0},
        {(2, 0, 0): 1.0, (0, 2, 0): -1.0},
        {(2, 0, 0): 1.0, (0, 0, 2): -1.0},
        {(1, 1, 1): 1.0},
        {(3, 0, 0): 1.0, (1, 2, 0): -3.0},
        {(0, 0, 3): 1.0, (2, 0, 1): -3.0},
    ],
}


@dataclass(frozen=True)
class Shape:
    """What a workload's scenarios look like: dimension and target count."""

    dim: int
    n_regions: int


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _inside_antenna(rng: np.random.Generator, dim: int) -> list[float]:
    """A singular point well inside the antenna ball, so every target ball
    sees a field that is harmonic on its closed control ball."""
    return [float(c) for c in 0.5 * DELTA * rng.uniform() * _unit(rng, dim)]


def _field(rng: np.random.Generator, dim: int) -> dict:
    kind = rng.choice(["source", "dipole", "polynomial"])
    if kind == "source":
        return {"kind": "log-source" if dim == 2 else "point-source",
                "location": _inside_antenna(rng, dim)}
    if kind == "dipole":
        return {"kind": "dipole", "location": _inside_antenna(rng, dim),
                "direction": [float(c) for c in _unit(rng, dim)]}
    terms: dict[tuple[int, ...], float] = {}
    for k in rng.choice(len(_POLY_BASIS[dim]), size=2, replace=False):
        basis = _POLY_BASIS[dim][k]
        degree = sum(next(iter(basis)))
        coeff = float(rng.standard_normal()) * 10.0 ** (1 - degree)
        for powers, c in basis.items():
            terms[powers] = terms.get(powers, 0.0) + c * coeff
    return {"kind": "harmonic-polynomial",
            "terms": [{"powers": list(p), "coeff": c} for p, c in terms.items()]}


def generate(shape: Shape, scenario_id: int) -> dict:
    """Scenario document (the YAML schema of ``fieldcast.scenario_io``).

    Target balls have radius in [1.5, 2.5], end 2.5 to 4 inside the
    observation boundary (so at least 5 clear of the antenna), and stay at
    least 1 apart from each other.  The exterior target is zero.  Control radii
    and node counts are left to the library defaults.
    """
    rng = np.random.default_rng([shape.dim, shape.n_regions, scenario_id])
    regions: list[dict] = []
    while len(regions) < shape.n_regions:
        a = float(rng.uniform(1.5, 2.5))
        dist = OBSERVATION_RADIUS - a - float(rng.uniform(2.5, 4.0))
        center = dist * _unit(rng, shape.dim)
        if any(np.linalg.norm(center - np.asarray(r["center"])) <= a + r["radius"] + 1.0
               for r in regions):
            continue
        regions.append({"center": [float(c) for c in center], "radius": a,
                        "field": _field(rng, shape.dim)})
    return {
        "format-version": 1,
        "dim": shape.dim,
        "delta": DELTA,
        "epsilon": "auto",
        "seed": scenario_id,
        "regions": regions,
        "outer": {"observation-radius": OBSERVATION_RADIUS, "field": {"kind": "zero"}},
    }


@dataclass(frozen=True)
class Job:
    """A set-up job: its scenario file, budget, ladder and operator shape."""

    scenario_id: int
    path: Path
    epsilon: float
    floor: float
    target_norm: float
    ladder: tuple[float, ...]
    matrix_shape: tuple[int, int]


def ladder(floor: float, target_norm: float, points: int) -> tuple[float, ...]:
    """Geometric epsilon ladder from 1.05 * floor to 0.95 * ||v||."""
    values = np.geomspace(LADDER_LO * floor, LADDER_HI * target_norm, points)
    return tuple(float(e) for e in values)


def set_up(shape: Shape, scenario_id: int, directory: Path, ladder_points: int = 0) -> Job:
    """Generate, validate and size one job, and write its scenario file.

    The written scenario carries the numeric epsilon, so the CLI sees a
    plain file and no flags beyond the workload's own.
    """
    doc = generate(shape, scenario_id)
    scenario = validate_scenario(parse_scenario(yaml.safe_dump(doc, sort_keys=False)))
    antenna, controls = build_rules(scenario)
    K = assemble_forward(antenna, controls)
    v = build_target(scenario, controls)
    floor = residual_floor(K, v)
    target_norm = v.norm()
    epsilon = floor + EPSILON_FRACTION * (target_norm - floor)
    if not floor < epsilon < target_norm or not math.isfinite(epsilon):
        raise ValueError(f"scenario {scenario_id}: no feasible budget "
                         f"(floor {floor!r}, ||v|| {target_norm!r})")
    doc["epsilon"] = epsilon
    path = directory / f"scenario-{scenario_id}.scn"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return Job(
        scenario_id=scenario_id,
        path=path,
        epsilon=epsilon,
        floor=floor,
        target_norm=target_norm,
        ladder=ladder(floor, target_norm, ladder_points) if ladder_points else (),
        matrix_shape=tuple(K.matrix.shape),
    )


def timed_set_up(shape: Shape, scenario_id: int, directory: Path,
                 ladder_points: int = 0) -> tuple[Job, float]:
    """:func:`set_up` and the seconds it took."""
    t0 = time.perf_counter()
    job = set_up(shape, scenario_id, directory, ladder_points)
    return job, time.perf_counter() - t0
