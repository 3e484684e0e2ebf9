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

from fieldcast import (ForwardOperator, HarmonicDensity, HarmonicTrace, assemble_forward,
                       build_rules, build_target, load_scenario, solve_min_energy, solver,
                       weighted_svd)
from fieldcast.fields import eval_field, radiated_field, resolve_epsilon
from fieldcast.geometry import (UNIT_SPHERE_MEASURE, ScenarioValidationError, control_labels,
                                harmonic_count, on_boundary, surface_harmonics)
from fieldcast.kernels import dlp_kernel
from fieldcast.operator import RESIDUAL_ROUNDING_C, block_residuals, degree_gains
from fieldcast.solver import InfeasibleAccuracyError
from oracles import ball_l2_norm, basis, make_rule

FEASIBLE_EPS_2D = 6.5
FEASIBLE_EPS_3D = 0.6

# Closed-form columns agree with the Nystrom sum of their basis densities to
# this fraction of the largest entry, where the antenna resolves L* + 1 degrees.
COLUMN_RTOL = 1e-12

PRESETS = Path(__file__).resolve().parent.parent / "presets"


def load_preset(name):
    """A demo scenario from ``presets/<name>.scn``, control radii defaulted."""
    return load_scenario(PRESETS / f"{name}.scn")


def scenario_rules(s):
    """The quadrature rules of a validated scenario's boundaries, for the
    Nystrom oracles: ``make_rule``'s rule of each node count, on the
    boundaries of ``build_rules``, whose degrees they share, in their solve
    frame: the nodes are solve-frame points, and a user's field is
    evaluated at them turned back (``Boundary.to_user``).  The outer
    sphere's rule has the antenna's node count, as its boundary has the
    antenna's degree."""
    d = s.discretization
    antenna, spheres = build_rules(s)
    counts = [d.control] * s.n_regions + [d.antenna]
    return (on_boundary("antenna", make_rule, antenna.center, antenna.radius, d.antenna, s.dim,
                        antenna.frame),
            [on_boundary(label, make_rule, b.center, b.radius, n, s.dim, b.frame)
             for label, b, n in zip(control_labels(s), spheres, counts)])


def quadrature_epsilon(s):
    """``auto_epsilon`` by quadrature, its oracle: 1e-3 times the sum of each
    region target's L2 norm over its target ball by radial-shell quadrature
    (``ball_l2_norm``, 128 circle nodes or 32 polar rings a shell) and the
    exterior target's over the observation sphere by a rule of 256 circle
    nodes or 32 polar rings.  Both are accurate to rounding while every
    singular point keeps a ball radius clear of each target ball and inside
    half the observation radius; closer, the rules lose digits."""
    total = sum(ball_l2_norm(r.target, r.center, r.radius, s.dim,
                             n_surface=128 if s.dim == 2 else 32) for r in s.regions)
    rule = make_rule(np.zeros(s.dim), s.observation_radius, 256 if s.dim == 2 else 32, s.dim)
    return 1e-3 * (total + rule.l2_norm(eval_field(s.exterior_target, rule.nodes)))


def boundaries(rules):
    """The boundary of each rule."""
    return [rule.boundary for rule in rules]


def rule_harmonics(rule, degree=None):
    """The rule's orthonormal harmonics of degrees 0 .. L at its nodes, an
    (n, H) array formed explicitly: the constant, then the degrees 1 .. L
    of ``oracles.basis``; with ``degree`` (at most L) only those of
    degrees 0 .. ``degree``, at the same scale.  The coefficients of nodal
    values f are rule_harmonics^T W f (``explicit_coefficients``)."""
    dim = rule.boundary.dim
    scale = rule.boundary.radius ** (-(dim - 1) / 2)
    harmonics = (basis(rule) if degree is None
                 else surface_harmonics(rule.normals, degree) * scale)
    constant = 1.0 / math.sqrt(UNIT_SPHERE_MEASURE[dim]) * scale
    return np.hstack([np.full((rule.node_count, 1), constant), harmonics])


def explicit_coefficients(rule, values, degree=None):
    """(a, outside): nodal values (n,) or (n, k) projected on the rule's
    ``rule_harmonics`` of degrees 0 .. ``degree`` explicitly, and the
    squared weighted norm of what the projection leaves out, per column."""
    harmonics = rule_harmonics(rule, degree)
    w = rule.weights if np.ndim(values) == 1 else rule.weights[:, None]
    a = harmonics.T @ (w * values)
    return a, np.sum(w * (values - harmonics @ a) ** 2, axis=0)


def basis_fields(antenna, points):
    """The field of each of the basis densities of the antenna boundary at
    each of the points, a (p, M) array formed whole: the surface harmonics
    at each point's direction from the antenna centre, column by column
    times the ``degree_gains`` of the column's degree at the point's distance."""
    x = np.asarray(points, dtype=float) - antenna.center
    r = np.linalg.norm(x, axis=-1)
    degree, dim = antenna.degree, antenna.dim
    degrees = np.repeat(np.arange(1, degree + 1),
                        np.diff([harmonic_count(l, dim) for l in range(degree + 1)]))
    return surface_harmonics(x / r[:, None], degree) * degree_gains(antenna, r)[degrees - 1].T


def quadrature_block(antenna, rule):
    """The quadrature assembly of a region's block, the oracle for the
    translated one: the fields of the basis densities at the rule's nodes
    (``basis_fields``) projected on its harmonics (``explicit_coefficients``),
    and the share of their nodal block's weighted Frobenius norm that the
    rule does not resolve.  On a rule of D degrees its rows hold the block's
    degrees 0 .. D plus what the nodes fold into them from above D."""
    block, rest = explicit_coefficients(rule, basis_fields(antenna.boundary, rule.nodes))
    rest = float(np.sum(rest))
    return block, math.sqrt(rest / (float(np.sum(block**2)) + rest))


def projected(g):
    """The coefficient density of a nodal density g: g projected on its
    rule's harmonics (``explicit_coefficients``), degree 0 dropped, as it
    radiates nothing outside the antenna."""
    return HarmonicDensity(g.rule.boundary, explicit_coefficients(g.rule, g.values)[0][1:])


def block_harmonics(K, rule, rows):
    """The harmonics of ``rule_harmonics`` that K's rows ``rows`` stand for,
    as far as the rule resolves them: on a sphere concentric with the
    antenna, those of the antenna's degrees 1 .. L; elsewhere all of them."""
    values = rule_harmonics(rule)
    if np.array_equal(rule.boundary.center, K.antenna.center):
        return values[:, 1: 1 + rows.stop - rows.start]
    return values


def trace_of(K, y, outside=None):
    """The coefficient trace whose coefficients in K's rows are y, and whose
    squared norms outside them are ``outside`` (zero by default): on a
    sphere concentric with the antenna, those of the degrees 1 .. L the
    rule resolves."""
    blocks = []
    for sphere, rows in zip(K.controls, K.block_rows):
        block = np.zeros(harmonic_count(sphere.degree, sphere.dim) + 1)
        if np.array_equal(sphere.center, K.antenna.center):
            block[1:] = y[rows][: block.shape[0] - 1]
        else:
            block[:] = y[rows]
        blocks.append(block)
    outside = np.zeros(len(blocks)) if outside is None else outside
    return HarmonicTrace(blocks=blocks, outside=outside, boundaries=K.controls)


def harmonic_trace(t):
    """The coefficient trace of a nodal one: each block projected on its
    rule's harmonics (``explicit_coefficients``), the rest outside."""
    parts = [explicit_coefficients(rule, block) for rule, block in zip(t.rules, t.blocks)]
    return HarmonicTrace(blocks=[a for a, _ in parts], outside=[rest for _, rest in parts],
                         boundaries=boundaries(t.rules))


def assert_residuals_match_the_matrix(K, h, v, controls):
    """``block_residuals`` (through the factors) against the operator's own
    C c - y, c h's coefficients and y those of v, plus v's part outside
    each block, block by block, within RESIDUAL_ROUNDING_C * u * (sigma_1
    ||c|| + ||v||).  And each against the nodal residual, the fields of
    ``basis_fields`` at the nodes of the control rules ``controls`` minus v's coefficients
    synthesized there (``block_harmonics``), with v's part outside added,
    within that rounding bound plus ||c|| times the weighted Frobenius norm
    of the fields the block's rows leave out: the nodal fields minus those
    the kept rows synthesize, and the rows a concentric rule cannot
    resolve."""
    c = h.coefficients
    y, outside = K.trace_coefficients(v)
    res = K.matrix @ c - y
    direct = [math.sqrt(float(res[rows] @ res[rows]) + rest)
              for rows, rest in zip(K.block_rows, outside)]
    bound = RESIDUAL_ROUNDING_C * 2.0**-53 * (weighted_svd(K).sigma[0] * np.linalg.norm(c)
                                              + v.norm())
    factored = block_residuals(K, h, v)
    for got, expected in zip(factored, direct, strict=True):
        assert abs(got - expected) <= bound
    for got, rule, rows, rest in zip(factored, controls, K.block_rows, outside, strict=True):
        nodal = basis_fields(K.antenna, rule.nodes)
        harmonics = block_harmonics(K, rule, rows)
        kept = harmonics.shape[1]
        left = nodal - harmonics @ K.matrix[rows][:kept]
        tail = (math.sqrt(float(rule.weights @ np.sum(left**2, axis=1)))
                + float(np.linalg.norm(K.matrix[rows][kept:])))
        expected = math.sqrt(rule.l2_norm(nodal @ c - harmonics @ y[rows][:kept]) ** 2 + rest)
        assert abs(got - expected) <= tail * np.linalg.norm(c) + bound


def summed_basis_fields(h, points):
    """The radiated field of density h at the points as the matrix product
    ``basis_fields(h.boundary, points) @ a``, a h's coefficients, and
    sum_j |a_j basis_j| per point, the scale its rounding is measured
    against: the oracle for ``radiated_field``'s point-by-point sum."""
    a = h.coefficients
    fields = basis_fields(h.boundary, points)
    return fields @ a, np.abs(fields) @ np.abs(a)


def nystrom_matrix(antenna, controls):
    """The nodal Nystrom matrix dlp_kernel(x_i, y_j, nu_j) w_j, in the
    broadcast (m, n, dim) form, one control rule at a time."""
    dim = antenna.boundary.dim
    blocks = [dlp_kernel(rule.nodes[:, None, :], antenna.nodes[None], antenna.normals[None], dim)
              for rule in controls]
    return np.concatenate(blocks) * antenna.weights


def finer_rule(antenna, rule):
    """``make_rule``'s rule on the sphere of the region rule ``rule`` that
    projects exactly onto its degrees 0 .. D every degree k of the basis
    fields up to K, the larger of D and the degree at which they fall below
    2^-60 of the lowest: (R / (|a| - delta))^k bounds their decay, with a
    the control centre's offset from the antenna's.  A product of
    harmonics of degrees D and K integrates exactly on n circle nodes for
    n > K + D, and on n Gauss-Legendre rings of 2n nodes for 2n > K + D.
    Its projection onto ``rule``'s degrees folds in those above K at
    rounding level."""
    dim, degree = rule.boundary.dim, rule.boundary.degree
    gap = np.linalg.norm(rule.boundary.center - antenna.center) - antenna.radius
    top = max(degree, math.ceil(-60 * math.log(2) / math.log(rule.boundary.radius / gap)))
    n = top + degree + 1 if dim == 2 else (top + degree) // 2 + 1
    return make_rule(rule.boundary.center, rule.boundary.radius, n, dim)


def nystrom_fields(antenna, points):
    """The Nystrom sum of each basis density at each point, (p, M): the
    ``nystrom_matrix`` of the points times the basis's nodal values, 256
    points at a time."""
    harmonics, dim = rule_harmonics(antenna)[:, 1:], antenna.boundary.dim
    return np.concatenate([
        dlp_kernel(points[rows, None, :], antenna.nodes[None], antenna.normals[None], dim)
        @ (antenna.weights[:, None] * harmonics)
        for rows in np.array_split(np.arange(len(points)), max(1, len(points) // 256))])


def assert_columns_match_the_nystrom_sum(K, antenna, controls):
    """The Nystrom sum over the ``antenna`` rule of each basis density (its
    nodal values the rule's ``rule_harmonics`` of degrees 1 .. L;
    :func:`oracles.apply`, whose blocks ``nystrom_matrix``
    reproduces), on each of the rules ``controls`` of K's spheres: equal
    to the closed-form ``basis_fields`` at its nodes, and its harmonic
    coefficients (formed explicitly, ``rule_harmonics``) equal to the rule's
    rows of ``K.matrix``, each within COLUMN_RTOL of the largest entry.  On
    a region's sphere the coefficients are taken on a ``finer_rule``, since
    the block is the exact projection, which the rule's own nodes alias."""
    scale = np.max(np.abs(K.matrix))
    for rule, rows in zip(controls, K.block_rows):
        nodal = nystrom_matrix(antenna, [rule]) @ rule_harmonics(antenna)[:, 1:]
        closed = basis_fields(K.antenna, rule.nodes)
        assert np.max(np.abs(nodal - closed)) <= COLUMN_RTOL * np.max(np.abs(closed))
        harmonics = block_harmonics(K, rule, rows)
        kept = harmonics.shape[1]
        if np.array_equal(rule.boundary.center, K.antenna.center):
            coefficients = harmonics.T @ (rule.weights[:, None] * nodal)
        else:
            fine = finer_rule(K.antenna, rule)
            nodal = fine.weights[:, None] * nystrom_fields(antenna, fine.nodes)
            coefficients = rule_harmonics(fine, rule.boundary.degree).T @ nodal
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
    dim, delta = antenna.dim, ld(antenna.radius)
    degree = antenna.degree
    pi = 4 * np.arctan(ld(1))
    x = np.asarray(points, dtype=ld) - np.asarray(antenna.center, dtype=ld)  # (p, dim)
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
        power = dist_sq if dim == 2 else dist_sq * np.sqrt(dist_sq)     # |x - delta nu|^dim
        kernel = (dot - delta) / (2 * (dim - 1) * pi * power)
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


def nystrom_floor_and_energy(K, v, epsilon, controls):
    """Residual floor and energy at ``epsilon`` of the Nystrom operator, the
    oracle the closed-form operator replaces: the Nystrom sums of the basis
    densities in extended precision (``extended_nystrom_fields``), projected
    on the control harmonics explicitly in that precision and rounded to
    float64; its floor from ``tikhonov_floor`` and its energy from the
    solver.  On ``controls``, the rules of K's spheres; a region's sums
    are taken on its ``finer_rule``, whose
    projection folds in the degrees above the rule's at rounding level, as
    the translated block is the exact projection.  A concentric rule that
    resolves fewer degrees than the antenna radiates cannot see the higher
    ones, and its nodes alias them, so their rows and columns are the
    closed form's."""
    matrix = K.matrix.copy()
    for rule, rows in zip(controls, K.block_rows):
        if np.array_equal(rule.boundary.center, K.antenna.center):
            harmonics, nodes = block_harmonics(K, rule, rows), rule
        else:
            nodes = finer_rule(K.antenna, rule)
            harmonics = rule_harmonics(nodes, rule.boundary.degree)
        kept = harmonics.shape[1]
        nodal = extended_nystrom_fields(K.antenna, nodes.nodes)
        projected = np.einsum("ih,ij->hj", harmonics.astype(np.longdouble),
                              nodes.weights[:, None] * nodal)
        if kept < rows.stop - rows.start:
            matrix[rows][:kept, :kept] = projected[:, :kept]
        else:
            matrix[rows] = projected
    oracle = ForwardOperator(matrix=matrix, antenna=K.antenna, controls=K.controls)
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


def random_on_sphere(rng, center, radius, dim, n):
    """n uniform random points on a sphere: Gaussian directions drawn from
    the Generator ``rng``, normalized.  For tests that want points no
    lattice chose; the report's probes are ``sample_on_sphere``'s lattice."""
    direction = rng.standard_normal((n, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return np.asarray(center, dtype=float) + radius * direction


def random_mismatches(h, v_fields, s, rng, n):
    """``empirical_mismatches`` at ``random_on_sphere`` points: the maximum
    of |radiated - wanted| over n random points on each target sphere and
    then on the observation sphere, drawn in that order."""
    spheres = [(r.center, r.radius) for r in s.regions] + [((0.0,) * s.dim, s.observation_radius)]
    points = [random_on_sphere(rng, center, radius, s.dim, n) for center, radius in spheres]
    return [float(np.max(np.abs(radiated_field(h, pts) - wanted(pts))))
            for wanted, pts in zip(v_fields, points, strict=True)]


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


def preset_parts(s):
    """(s, antenna rule, control rules, K, v): the scenario's rules
    (``scenario_rules``) for the Nystrom oracles, and its operator and
    target on ``build_rules``' boundaries."""
    antenna, controls = build_rules(s)
    return (s, *scenario_rules(s), assemble_forward(antenna, controls), build_target(s, controls))


@pytest.fixture(scope="session")
def demo2d_parts(demo2d):
    return preset_parts(demo2d)


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
    return preset_parts(demo3d)
