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

from fieldcast import (ControlTrace, ForwardOperator, assemble_forward, build_rules, build_target,
                       dlp_kernel, load_scenario, solve_min_energy, solver, weighted_svd)
from fieldcast.fields import resolve_epsilon
from fieldcast.geometry import (UNIT_SPHERE_MEASURE, ScenarioValidationError, harmonic_count,
                                harmonic_degree, harmonic_transform, surface_harmonics)
from fieldcast.operator import RESIDUAL_ROUNDING_C, basis_fields, block_residuals
from fieldcast.solver import InfeasibleAccuracyError

FEASIBLE_EPS_2D = 6.5
FEASIBLE_EPS_3D = 0.6

# Closed-form columns agree with the Nystrom sum of their basis densities to
# this fraction of the largest entry, where the antenna resolves L* + 1 degrees.
COLUMN_RTOL = 1e-12

PRESETS = Path(__file__).resolve().parent.parent / "presets"


def load_preset(name):
    """A demo scenario from ``presets/<name>.scn``, control radii defaulted."""
    return load_scenario(PRESETS / f"{name}.scn")


def rule_harmonics(rule):
    """The rule's orthonormal harmonics of degrees 0 .. L at its nodes, an
    (n, H) array formed explicitly from ``surface_harmonics``: the oracle for
    ``harmonic_transform``, whose coefficients of f are rule_harmonics^T W f."""
    dim = rule.boundary.dim
    constant = np.full((rule.node_count, 1), 1.0 / math.sqrt(UNIT_SPHERE_MEASURE[dim]))
    values = np.hstack([constant, surface_harmonics(rule.normals, harmonic_degree(rule))])
    return values * rule.boundary.radius ** (-(dim - 1) / 2)


def block_harmonics(K, rule, rows):
    """The harmonics of ``rule_harmonics`` that K's rows ``rows`` stand for,
    as far as the rule resolves them: on a sphere concentric with the
    antenna, those of the antenna's degrees 1 .. L; elsewhere all of them."""
    values = rule_harmonics(rule)
    if np.array_equal(rule.boundary.center, K.antenna_rule.boundary.center):
        return values[:, 1: 1 + rows.stop - rows.start]
    return values


def trace_of(K, y):
    """The nodal trace whose coefficients in K's rows are y (and nothing else):
    each block synthesized on its rule's harmonics, explicitly."""
    blocks = []
    for rule, rows in zip(K.control_rules, K.block_rows):
        values = block_harmonics(K, rule, rows)
        blocks.append(values @ y[rows][: values.shape[1]])
    return ControlTrace(blocks=blocks, rules=K.control_rules)


def explicit_coefficients(K, v):
    """(y, outside) of ``K.trace_coefficients(v)``, formed explicitly from
    ``block_harmonics``: v's coefficients in K's rows, and per block the
    squared weighted norm of what of v they leave out."""
    y, outside = np.zeros(K.matrix.shape[0]), []
    for rule, block, rows in zip(K.control_rules, v.blocks, K.block_rows):
        values = block_harmonics(K, rule, rows)
        a = values.T @ (rule.weights * block)
        y[rows][: a.shape[0]] = a
        outside.append(rule.l2_norm(block - values @ a) ** 2)
    return y, np.array(outside)


def assert_residuals_match_the_matrix(K, h, v):
    """``block_residuals`` (through the factors) against the operator's own
    C c - y, c the coefficients of h and y those of v, plus v's part outside
    each block, block by block, within RESIDUAL_ROUNDING_C * u * (sigma_1
    ||c|| + ||v||).  And each against the nodal residual, the fields of
    ``basis_fields`` at the control nodes minus v, within the block's
    unresolved share of its nodal block's Frobenius norm times ||c||, plus
    that rounding bound."""
    c = K.coefficients(h)
    y, outside = K.trace_coefficients(v)
    res = K.matrix @ c - y
    direct = [math.sqrt(float(res[rows] @ res[rows]) + rest)
              for rows, rest in zip(K.block_rows, outside)]
    bound = RESIDUAL_ROUNDING_C * 2.0**-53 * (weighted_svd(K).sigma[0] * np.linalg.norm(c)
                                              + v.norm())
    factored = block_residuals(K, h, v)
    for got, expected in zip(factored, direct, strict=True):
        assert abs(got - expected) <= bound
    for got, rule, block, share in zip(factored, K.control_rules, v.blocks, K.unresolved,
                                       strict=True):
        nodal = basis_fields(K.antenna_rule, rule.nodes)
        frobenius = math.sqrt(float(rule.weights @ np.sum(nodal**2, axis=1)))
        expected = rule.l2_norm(nodal @ c - block)
        assert abs(got - expected) <= share * frobenius * np.linalg.norm(c) + bound


def summed_basis_fields(h, points):
    """The radiated field of density h at the points as the matrix product
    ``basis_fields(h.rule, points) @ a``, a the coefficients
    ``radiated_field`` takes, and sum_j |a_j basis_j| per point, the scale
    its rounding is measured against: the oracle for ``radiated_field``'s
    point-by-point sum."""
    a = harmonic_transform(h.rule, h.values)[0][1:]
    fields = basis_fields(h.rule, points)
    return fields @ a, np.abs(fields) @ np.abs(a)


def nystrom_matrix(antenna, controls):
    """The nodal Nystrom matrix dlp_kernel(x_i, y_j, nu_j) w_j, in the
    broadcast (m, n, dim) form, one control rule at a time."""
    dim = antenna.boundary.dim
    blocks = [dlp_kernel(rule.nodes[:, None, :], antenna.nodes[None], antenna.normals[None], dim)
              for rule in controls]
    return np.concatenate(blocks) * antenna.weights


def assert_columns_match_the_nystrom_sum(K):
    """The Nystrom sum of each basis density (:func:`fieldcast.operator.apply`,
    whose blocks ``nystrom_matrix`` reproduces), on each control rule: equal
    to the closed-form ``basis_fields`` at its nodes, and its harmonic
    coefficients (formed explicitly, ``rule_harmonics``) equal to the rule's
    rows of ``K.matrix``, each within COLUMN_RTOL of the largest entry."""
    scale = np.max(np.abs(K.matrix))
    for rule, rows in zip(K.control_rules, K.block_rows):
        nodal = nystrom_matrix(K.antenna_rule, [rule]) @ K.basis
        closed = basis_fields(K.antenna_rule, rule.nodes)
        assert np.max(np.abs(nodal - closed)) <= COLUMN_RTOL * np.max(np.abs(closed))
        harmonics = block_harmonics(K, rule, rows)
        kept = harmonics.shape[1]
        coefficients = harmonics.T @ (rule.weights[:, None] * nodal)
        if kept < rows.stop - rows.start:
            # A concentric rule that resolves fewer degrees than the antenna
            # radiates: its nodes alias the higher columns, so only the
            # resolved ones can be compared.
            coefficients, block = coefficients[:, :kept], K.matrix[rows][:kept, :kept]
        else:
            block = K.matrix[rows]
        assert np.max(np.abs(coefficients - block)) <= COLUMN_RTOL * scale


def _extended_gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1] in numpy's longdouble:
    numpy's float64 nodes refined by Newton steps on P_n."""
    t = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
    for _ in range(3):
        previous, current = np.ones_like(t), t
        for k in range(2, n + 1):
            previous, current = current, ((2 * k - 1) * t * current - (k - 1) * previous) / k
        slope = n * (t * current - previous) / (t * t - 1)
        t = t - current / slope
    return t, 2 / ((1 - t * t) * slope * slope)


def extended_nystrom_fields(antenna, points):
    """The Nystrom sums of the antenna's basis densities at the points, (p, M)
    in numpy's longdouble (a 64-bit mantissa on x86-64): the quadrature of
    the double-layer kernel over a rule of the antenna's sphere whose nodes,
    weights and harmonics are formed in that precision, the azimuthal sums
    by numpy's longdouble ``rfft``.

    In float64 these sums carry absolute errors of about 1e-16 of the
    largest terms, which the small fields of high degrees cannot absorb;
    here they are about 1e-18.  Seen from a point at distance r from the
    centre the kernel's harmonics of degree k decay like (delta/r)^k, so the
    rule integrates exactly every degree up to the antenna's L plus the k at
    which the nearest point's have fallen to 1e-19: no aliasing above the
    rounding."""
    ld = np.longdouble
    dim, delta = antenna.boundary.dim, ld(antenna.boundary.radius)
    degree = harmonic_degree(antenna)
    pi = 4 * np.arctan(ld(1))
    x = np.asarray(points, dtype=ld) - np.asarray(antenna.boundary.center, dtype=ld)  # (p, dim)
    x_sq = np.sum(x * x, axis=-1)
    exact = degree + math.ceil(math.log(1e-19) / math.log(float(delta / np.sqrt(x_sq.min()))))
    # A circle of n nodes is exact below degree n, Gauss-Legendre rings below
    # 2 polar in t; ``rfft`` holds the modes up to L once around > 2 L.
    if dim == 2:
        around, polar = max(exact + 1, 2 * degree + 1), 1
        t, w = np.zeros(1, dtype=ld), np.ones(1, dtype=ld)
    else:
        polar = exact // 2 + 1
        around = max(2 * polar, 2 * degree + 1)
        t, w = _extended_gauss_legendre(polar)
    st = np.sqrt(1 - t * t)
    phi = 2 * pi * np.arange(around, dtype=ld) / around
    nu = np.stack([st[:, None] * np.cos(phi), st[:, None] * np.sin(phi),
                   np.broadcast_to(t[:, None], (polar, around))], axis=-1)[..., :dim]
    # The harmonics' polar factors, times the node weights over the azimuth:
    # (polar, l, m).  On a sphere Pbar_l^m(t_k), sin^m included, by the
    # normalized recurrence of surface_harmonics, sqrt(2) for m > 0; on a
    # circle 1 / sqrt(pi) at l = m.
    legendre = np.zeros((polar, degree + 1, degree + 1), dtype=ld)
    if dim == 2:
        legendre[0, np.arange(degree + 1), np.arange(degree + 1)] = 1 / np.sqrt(pi)
    else:
        start = 1 / np.sqrt(4 * pi)
        for m in range(degree + 1):
            if m:
                start = start * np.sqrt(ld(2 * m + 1) / ld(2 * m))
            previous, current = np.zeros_like(t), np.full_like(t, start)
            for l in range(m, degree + 1):
                if l > m:
                    a = np.sqrt(ld(4 * l * l - 1) / ld(l * l - m * m))
                    b = np.sqrt(ld((l - 1) ** 2 - m * m) / ld(4 * (l - 1) ** 2 - 1))
                    previous, current = current, a * (t * current - b * previous)
                legendre[:, l, m] = current * st**m * (np.sqrt(ld(2)) if m else 1)
    # Node weight delta^(dim-1) w_k 2 pi / around, basis scale delta^(-(dim-1)/2).
    legendre *= (w * 2 * pi / around * delta ** ld((dim - 1) / 2))[:, None, None]
    fields = np.empty((x.shape[0], harmonic_count(degree, dim)), dtype=ld)
    for rows in np.array_split(np.arange(x.shape[0]), max(1, x.shape[0] // 16)):
        # (x - delta nu).nu / (omega |x - delta nu|^dim), nu unit.
        dot = np.einsum("xd,kjd->xkj", x[rows], nu)                      # (r, polar, around)
        dist_sq = x_sq[rows, None, None] - 2 * delta * dot + delta * delta
        kernel = (dot - delta) / (2 * (dim - 1) * pi * dist_sq ** ld(dim / 2))
        spectrum = np.fft.rfft(kernel, axis=-1)[..., : degree + 1]      # sum_j K e^(-i m phi_j)
        c = np.einsum("xkm,klm->xlm", spectrum.real, legendre)
        s = np.einsum("xkm,klm->xlm", -spectrum.imag, legendre)
        for l in range(1, degree + 1):
            if dim == 2:
                fields[rows, 2 * l - 2], fields[rows, 2 * l - 1] = c[:, l, l], s[:, l, l]
                continue
            col = l * l - 1
            fields[rows, col] = c[:, l, 0]
            fields[rows, col + 1: col + 2 * l + 1: 2] = c[:, l, 1: l + 1]
            fields[rows, col + 2: col + 2 * l + 1: 2] = s[:, l, 1: l + 1]
    return fields


def _back_substitute(r, b):
    """x with r x = b, r upper triangular, one row at a time."""
    x = np.zeros_like(b)
    for i in range(b.shape[0] - 1, -1, -1):
        x[i] = (b[i] - r[i, i + 1:] @ x[i + 1:]) / r[i, i]
    return x


def tikhonov_floor(K, v):
    """``residual_floor(K, v)`` from the regularized least-squares problem
    itself, without the SVD's singular vectors: the residual of
    min ||C x - y||^2 + alpha ||x||^2 at the bracket's bottom alpha, solved by
    a Householder QR of [C; sqrt(alpha) I], plus v's part outside the rows,
    plus what the floor adds for the singular values below the rank cutoff
    (their filter factors are 1 there, within 1e-10, so the SVD's values
    serve).  Householder QR is backward stable column by column, and the
    columns of C fall off geometrically with the antenna degree: where a
    normwise perturbation of 1e-16 sigma_1, which the SVD makes, moves the
    floor by up to 1e-9, this one moves by 1e-15."""
    y, outside = K.trace_coefficients(v)
    data = solver._filter_data(K, v)
    alpha = solver.ALPHA_BRACKET_LO * float(data.sigma[0]) ** 2
    columns = K.matrix.shape[1]
    q, r = np.linalg.qr(np.vstack([K.matrix, math.sqrt(alpha) * np.eye(columns)]))
    x = _back_substitute(r, q.T @ np.concatenate([y, np.zeros(columns)]))
    res = K.matrix @ x - y
    rank = solver.rank_above_cutoff(data.sigma)
    f = alpha / (alpha + data.sigma[rank:] ** 2)
    dropped = float(np.sum((1 - f * f) * data.beta[rank:] ** 2))
    return math.sqrt(float(res @ res) + float(np.sum(outside)) + dropped)


def nystrom_floor_and_energy(K, v, epsilon):
    """Residual floor and energy at ``epsilon`` of the Nystrom operator, the
    oracle the closed-form operator replaces: the Nystrom sums of the basis
    densities at each control rule's nodes in extended precision
    (``extended_nystrom_fields``), projected on the control harmonics
    explicitly (``block_harmonics``) in that precision and rounded to
    float64; its floor from ``tikhonov_floor`` and its energy from the
    solver.  A concentric rule that resolves fewer degrees than the antenna
    radiates cannot see the higher ones, and its nodes alias them, so their
    rows and columns are the closed form's."""
    matrix = K.matrix.copy()
    for rule, rows in zip(K.control_rules, K.block_rows):
        harmonics = block_harmonics(K, rule, rows).astype(np.longdouble)
        kept = harmonics.shape[1]
        nodal = extended_nystrom_fields(K.antenna_rule, rule.nodes)
        projected = np.einsum("ih,ij->hj", harmonics, rule.weights[:, None] * nodal)
        if kept < rows.stop - rows.start:
            matrix[rows][:kept, :kept] = projected[:, :kept]
        else:
            matrix[rows] = projected
    oracle = ForwardOperator(matrix=matrix, basis=K.basis, antenna_rule=K.antenna_rule,
                             control_rules=K.control_rules)
    return tikhonov_floor(oracle, v), solve_min_energy(oracle, v, epsilon)[1].energy


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
