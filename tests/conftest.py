"""Shared fixtures: the demo scenarios assembled once per session.

FEASIBLE_EPS_2D / FEASIBLE_EPS_3D are accuracy budgets sitting above each
demo's residual floor (about 5.77 and 0.45), which the gap between a
region's control sphere and the outer control sphere sets; the
literature-scaled budgets carried by the presets (epsilon "auto") lie far
below those floors and are exercised separately as intentional
infeasibility cases.
"""

from pathlib import Path

import numpy as np
import pytest

from fieldcast import (apply, assemble_forward, build_rules, build_target, load_scenario,
                       solve_min_energy, weighted_svd)
from fieldcast.fields import resolve_epsilon
from fieldcast.operator import RESIDUAL_ROUNDING_C, block_residuals

FEASIBLE_EPS_2D = 6.5
FEASIBLE_EPS_3D = 0.6

PRESETS = Path(__file__).resolve().parent.parent / "presets"


def load_preset(name):
    """A demo scenario from ``presets/<name>.scn``, control radii defaulted."""
    return load_scenario(PRESETS / f"{name}.scn")


def assert_residuals_match_the_nodal_matvec(K, h, v):
    """``block_residuals`` (through the factors) against the nodal A h - v,
    block by block, within RESIDUAL_ROUNDING_C * u * (sigma_1 ||h|| + ||v||)."""
    nodal = [rule.l2_norm(b) for b, rule in zip((apply(K, h) - v).blocks, K.control_rules)]
    bound = RESIDUAL_ROUNDING_C * 2.0**-53 * (weighted_svd(K).sigma[0] * h.norm() + v.norm())
    for factored, direct in zip(block_residuals(K, h, v), nodal, strict=True):
        assert abs(factored - direct) <= bound


def stencil_laplacian(fn, x, h=1e-3):
    """Central-difference Laplacian: 5-point in 2D, 7-point in 3D."""
    x = np.asarray(x, dtype=float)
    total = -2.0 * len(x) * fn(x)
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = h
        total += fn(x + e) + fn(x - e)
    return total / h**2


@pytest.fixture(scope="session")
def demo2d():
    return resolve_epsilon(load_preset("demo-2d"))


@pytest.fixture(scope="session")
def demo2d_parts(demo2d):
    antenna, controls = build_rules(demo2d)
    K = assemble_forward(antenna, controls)
    v = build_target(demo2d, controls)
    return demo2d, antenna, controls, K, v


@pytest.fixture(scope="session")
def demo2d_solution(demo2d_parts):
    s, antenna, controls, K, v = demo2d_parts
    h, report = solve_min_energy(K, v, FEASIBLE_EPS_2D)
    return s, K, v, h, report


@pytest.fixture(scope="session")
def demo3d():
    return resolve_epsilon(load_preset("demo-3d"))


@pytest.fixture(scope="session")
def demo3d_parts(demo3d):
    antenna, controls = build_rules(demo3d)
    K = assemble_forward(antenna, controls)
    v = build_target(demo3d, controls)
    return demo3d, antenna, controls, K, v
