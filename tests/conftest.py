"""Shared fixtures: the demo scenarios assembled once per session.

FEASIBLE_EPS_2D / FEASIBLE_EPS_3D are accuracy budgets sitting above each
demo's residual floor (about 5.77 and 0.45), which the gap between a
region's control sphere and the outer control sphere sets; the
literature-scaled budgets carried by the presets (epsilon "auto") lie far
below those floors and are exercised separately as intentional
infeasibility cases.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from fieldcast import (assemble_forward, build_rules, build_target, dlp_kernel, load_scenario,
                       solve_min_energy, solver, weighted_svd)
from fieldcast.fields import resolve_epsilon
from fieldcast.geometry import ScenarioValidationError
from fieldcast.operator import RESIDUAL_ROUNDING_C, block_residuals
from fieldcast.solver import InfeasibleAccuracyError, _FilterData

FEASIBLE_EPS_2D = 6.5
FEASIBLE_EPS_3D = 0.6

# Closed-form columns agree with the Nystrom sum of their basis densities to
# this fraction of the largest entry, where the antenna resolves L* + 1 degrees.
COLUMN_RTOL = 1e-12

PRESETS = Path(__file__).resolve().parent.parent / "presets"


def load_preset(name):
    """A demo scenario from ``presets/<name>.scn``, control radii defaulted."""
    return load_scenario(PRESETS / f"{name}.scn")


def assert_residuals_match_the_matrix(K, h, v):
    """``block_residuals`` (through the factors) against the operator's own
    A c - v, c the coefficients of h, block by block, within
    RESIDUAL_ROUNDING_C * u * (sigma_1 ||c|| + ||v||)."""
    c = K.coefficients(h)
    direct = [rule.l2_norm(b) for b, rule in zip((K.split(K.matrix @ c) - v).blocks,
                                                 K.control_rules)]
    bound = RESIDUAL_ROUNDING_C * 2.0**-53 * (weighted_svd(K).sigma[0] * np.linalg.norm(c)
                                              + v.norm())
    for factored, expected in zip(block_residuals(K, h, v), direct, strict=True):
        assert abs(factored - expected) <= bound


def nystrom_matrix(antenna, controls):
    """The nodal Nystrom matrix dlp_kernel(x_i, y_j, nu_j) w_j, in the
    broadcast (m, n, dim) form, one control rule at a time."""
    dim = antenna.boundary.dim
    blocks = [dlp_kernel(rule.nodes[:, None, :], antenna.nodes[None], antenna.normals[None], dim)
              for rule in controls]
    return np.concatenate(blocks) * antenna.weights


def assert_columns_match_the_nystrom_sum(K):
    """Each closed-form column against the Nystrom sum of its basis density
    (:func:`fieldcast.operator.apply`, whose blocks ``nystrom_matrix``
    reproduces), within COLUMN_RTOL of the largest entry."""
    nodal = nystrom_matrix(K.antenna_rule, K.control_rules) @ K.basis
    assert np.max(np.abs(nodal - K.matrix)) <= COLUMN_RTOL * np.max(np.abs(K.matrix))


def nodal_floor_and_energy(antenna, controls, v, epsilon):
    """Residual floor and energy at ``epsilon`` of the nodal Nystrom operator,
    factored by LAPACK's SVD of W^(1/2) A w^(-1/2): the oracle the closed-form
    operator replaces."""
    sqrt_row = np.sqrt(np.concatenate([r.weights for r in controls]))
    b = sqrt_row[:, None] * nystrom_matrix(antenna, controls) / np.sqrt(antenna.weights)
    u, sigma, _ = np.linalg.svd(b, full_matrices=False)
    x = sqrt_row * v.concatenated
    beta = u.T @ x
    perp = x - u @ beta
    data = _FilterData(sigma=sigma, beta=beta, perp_sq=float(perp @ perp), v_norm=v.norm())
    return data.floor, data.energy(data.match([epsilon])[0].item())


def scalar_match(data, epsilon):
    """(alpha, residual norm, iterations) for one budget by a scalar
    bisection, one residual evaluation per step: the oracle that
    ``_FilterData.match`` must equal bit for bit on every budget of a ladder.
    Reads the solver's tolerances at call time, so a monkeypatched
    DISCREPANCY_RTOL applies to both."""
    def discrepancy(alpha):
        f = alpha / (alpha + data.sigma**2)
        return math.sqrt(float(np.sum((f * data.beta) ** 2)) + data.perp_sq)

    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if data.v_norm == 0.0:
        raise ScenarioValidationError(["target trace is identically zero; nothing to solve"])
    if epsilon >= data.v_norm:
        return math.inf, data.v_norm, 0
    if epsilon <= data.floor:
        raise InfeasibleAccuracyError(epsilon, data.floor)
    sigma_1 = float(data.sigma[0])
    lo = math.log10(solver.ALPHA_BRACKET_LO * sigma_1**2)
    hi = math.log10(solver.ALPHA_BRACKET_HI * sigma_1**2)
    target_lo = epsilon * (1.0 - solver.DISCREPANCY_RTOL)
    target_hi = epsilon * (1.0 + solver.DISCREPANCY_RTOL)
    while discrepancy(10.0**hi) < target_lo and hi < 40:
        hi += 2.0
    iterations = 0
    log_alpha = 0.5 * (lo + hi)
    disc = discrepancy(10.0**log_alpha)
    while not (target_lo <= disc <= target_hi) and iterations < solver.MAX_BRACKET_ITERATIONS:
        if disc > epsilon:
            hi = log_alpha
        else:
            lo = log_alpha
        log_alpha = 0.5 * (lo + hi)
        disc = discrepancy(10.0**log_alpha)
        iterations += 1
    return 10.0**log_alpha, disc, iterations


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
