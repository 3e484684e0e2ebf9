"""Invariants over random admissible scenarios (hypothesis)."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fieldcast import (
    ControlTrace,
    Density,
    Region,
    Scenario,
    assemble_forward,
    build_rules,
    build_target,
    log_source,
    point_source,
    radiated_field,
    solve_min_energy,
    sweep_epsilon,
    validate_scenario,
    weighted_svd,
    with_defaults,
    zero_field,
)
from conftest import (assert_residuals_match_the_matrix, nystrom_floor_and_energy, rule_harmonics,
                      scalar_match, summed_basis_fields)
from fieldcast import kernels, solver
from fieldcast.geometry import (DEFAULT_NODES, MIN_NODES, SEPARATION_RTOL, Discretization,
                                harmonic_count, harmonic_degree, make_rule)
from fieldcast.operator import basis_fields
from fieldcast.solver import DISCREPANCY_RTOL, MAX_BRACKET_ITERATIONS, _FilterData, residual_floor

# Fixed example order and no example database: every run checks the same cases.
PROPERTY = settings(derandomize=True, deadline=None, database=None)


@st.composite
def hard_data(draw, dim=None, target=zero_field(), log_gap=(-3.0, 7.0)):
    """A scenario with admissible hard data and no control radii: 1-3
    disjoint target balls spread round the antenna, each clear of it by an
    inward gap |x| - a - delta of delta * SEPARATION_RTOL * (1 + 10^g), with g
    drawn from ``log_gap`` (by default just above delta * SEPARATION_RTOL up to
    10 delta), and the observation boundary beyond them all."""
    dim = dim or draw(st.sampled_from([2, 3]))
    delta = draw(st.floats(0.1, 2.0))
    n = draw(st.integers(1, 3))
    turn = draw(st.floats(0.0, 2.0 * math.pi))
    regions = []
    for k in range(n):
        radius = draw(st.floats(0.1, 3.0))
        gap = delta * SEPARATION_RTOL * (1.0 + 10.0 ** draw(st.floats(*log_gap)))
        theta = turn + 2.0 * math.pi * k / n
        direction = [math.cos(theta), math.sin(theta), 0.0][:dim]
        center = (radius + delta + gap) * np.array(direction)
        regions.append(Region(center=center, radius=radius, target=target))
    for i, ri in enumerate(regions):
        for rj in regions[i + 1:]:
            assume(np.linalg.norm(ri.center - rj.center) > ri.radius + rj.radius)
    reach = max(r.center_distance + r.radius for r in regions)
    margin = draw(st.floats(1e-3, 10.0))
    return Scenario(dim=dim, delta=delta, regions=tuple(regions),
                    observation_radius=reach + margin, exterior_target=zero_field(),
                    epsilon=1.0)


def _tight_clearance():
    # |x| - a - delta = 1.2e-6 sits 2e-7 beyond the clearance delta * 1e-6.
    return Scenario(dim=2, delta=1.0,
                    regions=(Region(center=(3.0 + 1.2e-6, 0.0), radius=2.0,
                                    target=zero_field()),),
                    observation_radius=20.0, exterior_target=zero_field(), epsilon=1.0)


@PROPERTY
@given(hard_data())
@example(_tight_clearance())
def test_default_radii_keep_admissible_hard_data_admissible(s):
    validate_scenario(with_defaults(s))


@PROPERTY
@given(s=hard_data(dim=2, target=log_source((0.0, 0.0))),
       fractions=st.lists(st.floats(0.01, 0.99), min_size=2, max_size=6))
def test_sweep_energy_falls_as_the_achieved_discrepancy_grows(s, fractions):
    # Compare energies by the discrepancy reached, not by the budget asked:
    # within the DISCREPANCY_RTOL stop rule, two close budgets may swap.
    s = replace(with_defaults(s), discretization=Discretization(16, 32))
    antenna, controls = build_rules(s)
    K = assemble_forward(antenna, controls)
    v = build_target(s, controls)
    floor, top = residual_floor(K, v), v.norm()
    budgets = [floor + f * (top - floor) for f in fractions]
    rows = sweep_epsilon(K, v, budgets)
    for eps, disc, _ in rows:
        assert abs(disc - eps) <= DISCREPANCY_RTOL * eps
    energies = [energy for _, _, energy in sorted(rows, key=lambda row: row[1])]
    for tighter, looser in zip(energies, energies[1:]):
        assert looser <= tighter * (1.0 + 1e-12)


@settings(PROPERTY, max_examples=25)
@given(s=st.one_of(hard_data(dim=2, target=log_source((0.0, 0.0))),
                   hard_data(dim=3, target=point_source((0.0, 0.0, 0.0)))),
       fraction=st.floats(0.01, 0.99))
def test_factored_residuals_match_the_matrix(s, fraction):
    s = with_defaults(s)
    s = replace(s, discretization=Discretization(16, 32) if s.dim == 2 else Discretization(6, 6))
    antenna, controls = build_rules(s)
    K = assemble_forward(antenna, controls)
    v = build_target(s, controls)
    floor = residual_floor(K, v)
    h, _ = solve_min_energy(K, v, floor + fraction * (v.norm() - floor))
    assert_residuals_match_the_matrix(K, h, v)


@PROPERTY
@given(dim=st.sampled_from([2, 3]), delta=st.floats(0.1, 10.0), log_ratio=st.floats(-4.0, 2.0),
       antenna=st.integers(2, 12), extra=st.integers(0, 4))
def test_outer_block_is_the_projected_nodal_block(dim, delta, log_ratio, antenna, extra):
    # A sphere concentric with the antenna, at R / delta from just outside the
    # clearance up to 100, resolving every antenna degree: its closed-form
    # diagonal against the fields at its nodes, projected on its harmonics
    # explicitly, column by column to 1e-13 of the column's diagonal entry.
    radius = delta * (1.0 + SEPARATION_RTOL) * (1.0 + 10.0 ** log_ratio)
    n_antenna = 2 * antenna if dim == 2 else antenna
    ant = make_rule(np.zeros(dim), delta, n_antenna, dim)
    outer = make_rule(np.zeros(dim), radius, n_antenna + extra, dim)
    K = assemble_forward(ant, [outer])
    diagonal = np.diag(K.matrix)
    assert np.array_equal(K.matrix, np.diag(diagonal)) and K.unresolved == (0.0,)
    harmonics = rule_harmonics(outer)[:, 1: 1 + diagonal.shape[0]]
    projected = harmonics.T @ (outer.weights[:, None] * basis_fields(ant, outer.nodes))
    assert np.all(np.abs(projected - K.matrix) <= 1e-13 * diagonal)


@settings(PROPERTY, max_examples=100)
@given(dim=st.sampled_from([2, 3]), delta=st.floats(0.1, 10.0), antenna=st.integers(2, 32),
       center=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_radiated_field_matches_the_summed_basis_fields(dim, delta, antenna, center, seed):
    # A random density on an antenna of degree up to 31 (2D) or 16 (3D),
    # anywhere, at points from 1.01 to 50 delta off its centre: the
    # point-by-point sum against the (p, M) basis fields times the
    # coefficients, within 1e-14 of sum_j |a_j basis_j| at each point.
    n_antenna = 2 * antenna if dim == 2 else antenna // 2 + 1
    ant = make_rule(center[:dim], delta, n_antenna, dim)
    rng = np.random.default_rng(seed)
    h = Density(rule=ant, values=rng.normal(size=ant.node_count))
    direction = rng.normal(size=(64, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    pts = ant.boundary.center + delta * 10.0 ** rng.uniform(np.log10(1.01), np.log10(50.0),
                                                             size=(64, 1)) * direction
    oracle, scale = summed_basis_fields(h, pts)
    assert np.all(np.abs(radiated_field(h, pts) - oracle) <= 1e-14 * scale)


@PROPERTY
@given(dim=st.sampled_from([2, 3]), delta=st.floats(0.1, 10.0), log_ratio=st.floats(-4.0, 2.0),
       antenna=st.integers(2, 12), outer_shift=st.integers(-2, 4), seed=st.integers(0, 2**32 - 1),
       fraction=st.floats(0.01, 0.99))
def test_outer_sphere_alone_is_the_closed_form(dim, delta, log_ratio, antenna, outer_shift, seed,
                                                fraction):
    # The antenna and a concentric outer sphere alone, which may resolve more
    # or fewer degrees than the antenna.  Degree l's harmonics are singular
    # vectors of gain g_l (delta/R)^(l+dim-2) (R/delta)^((dim-1)/2), so the
    # spectrum is known in closed form, and so are the floor, the matched
    # discrepancy and the energy of a target synthesized on the outer
    # sphere's harmonics, degree by degree.
    ratio = (1.0 + SEPARATION_RTOL) * (1.0 + 10.0 ** log_ratio)
    n_antenna = 2 * antenna if dim == 2 else antenna
    ant = make_rule(np.zeros(dim), delta, n_antenna, dim)
    outer = make_rule(np.zeros(dim), delta * ratio, max(MIN_NODES[dim], n_antenna + outer_shift),
                      dim)
    K = assemble_forward(ant, [outer])
    degrees = np.arange(1, harmonic_degree(ant) + 1)
    g = 0.5 if dim == 2 else degrees / (2 * degrees + 1)
    gains = g * ratio ** -(degrees + dim - 2.0) * ratio ** ((dim - 1) / 2)
    sigma = np.repeat(gains, 2 if dim == 2 else 2 * degrees + 1)  # antenna harmonic order
    assert np.allclose(weighted_svd(K).sigma, np.sort(sigma)[::-1], rtol=1e-13, atol=0.0)

    b = np.random.default_rng(seed).standard_normal(harmonic_count(harmonic_degree(outer), dim) + 1)
    v = ControlTrace(blocks=[rule_harmonics(outer) @ b], rules=[outer])
    y = np.zeros(sigma.shape[0])   # the target on the antenna's harmonics of degrees 1 .. L
    kept = min(sigma.shape[0], b.shape[0] - 1)
    y[:kept] = b[1: kept + 1]
    outside_sq = b[0] ** 2 + float(b[kept + 1:] @ b[kept + 1:])

    def discrepancy(alpha, counted):
        filtered = np.where(counted, alpha / (alpha + sigma**2), 1.0) * y
        return math.sqrt(float(filtered @ filtered) + outside_sq)

    top = sigma.max()
    floor = discrepancy(solver.ALPHA_BRACKET_LO * top**2, sigma >= solver.RANK_CUTOFF_RTOL * top)
    assert residual_floor(K, v) == pytest.approx(floor, rel=1e-12)
    _, report = solve_min_energy(K, v, floor + fraction * (v.norm() - floor))
    alpha = report.alpha_star
    assert report.discrepancy == pytest.approx(discrepancy(alpha, True), rel=1e-12)
    assert report.energy == pytest.approx(
        math.sqrt(float(np.sum((sigma * y / (alpha + sigma**2)) ** 2))), rel=1e-12)


def _solve(s):
    """Operator, target, residual floor, epsilon = floor + 0.1 (||v|| - floor)
    and the energy at that epsilon."""
    antenna, controls = build_rules(s)
    K = assemble_forward(antenna, controls)
    v = build_target(s, controls)
    floor = residual_floor(K, v)
    epsilon = floor + 0.1 * (v.norm() - floor)
    _, report = solve_min_energy(K, v, epsilon)
    return K, v, floor, epsilon, report.energy


# In 3D the control rules are coarsened to keep the default antenna's SVD cheap.
_CONTROL_NODES = {2: DEFAULT_NODES[2], 3: 8}


def _assert_geometry_sized_antenna_matches_the_default(s):
    # The antenna count read off the geometry loses nothing the default
    # count resolves: same floor and same energy at the same control count.
    # And the closed-form operator gives the floor and energy of the Nystrom
    # operator projected on the control harmonics at that count, within the
    # floor's documented 2e-10 antenna-count jitter.  The Nystrom sums run in
    # extended precision: in float64 their absolute errors, about 2e-15 of
    # the largest entry, move a floor by up to 2.8e-10.
    s = with_defaults(s)
    chosen = s.discretization.antenna
    assert MIN_NODES[s.dim] <= chosen <= DEFAULT_NODES[s.dim]
    control = _CONTROL_NODES[s.dim]
    K, v, floor, epsilon, energy = _solve(
        replace(s, discretization=Discretization(chosen, control)))
    *_, ref_floor, _, ref_energy = _solve(
        replace(s, discretization=Discretization(DEFAULT_NODES[s.dim], control)))
    assert floor == pytest.approx(ref_floor, rel=1e-10)
    assert energy == pytest.approx(ref_energy, rel=1e-9)
    nystrom_floor, nystrom_energy = nystrom_floor_and_energy(K, v, epsilon)
    assert floor == pytest.approx(nystrom_floor, rel=2e-10)
    assert energy == pytest.approx(nystrom_energy, rel=1e-9)


# Inward gaps from delta (2D) or 3 delta (3D) up to 30 delta: the chosen
# count runs from near the cap down to under a quarter of it.
_ANTENNA_LOG_GAPS = {2: (6.0, 7.5), 3: (6.5, 7.5)}


@settings(PROPERTY, max_examples=30)
@given(hard_data(dim=2, target=log_source((0.0, 0.0)), log_gap=_ANTENNA_LOG_GAPS[2]))
def test_geometry_sized_antenna_keeps_floor_and_energy_2d(s):
    _assert_geometry_sized_antenna_matches_the_default(s)


@settings(PROPERTY, max_examples=8)
@given(hard_data(dim=3, target=point_source((0.0, 0.0, 0.0)), log_gap=_ANTENNA_LOG_GAPS[3]))
def test_geometry_sized_antenna_keeps_floor_and_energy_3d(s):
    _assert_geometry_sized_antenna_matches_the_default(s)


@st.composite
def filter_data(draw):
    """A target in a random weighted singular basis: a nonincreasing positive
    spectrum over 20 decades, its coefficients and the part outside the span.
    Up to 300 values, past the 128 at which numpy's pairwise sum splits."""
    k = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = 10.0 ** np.sort(rng.uniform(-8.0, 12.0, k))[::-1]
    beta = rng.uniform(-10.0, 10.0, k) * (rng.random(k) < draw(st.floats(0.1, 1.0)))
    perp_sq = draw(st.floats(0.0, 10.0))
    v_norm = math.sqrt(perp_sq + float(beta @ beta))
    assume(v_norm > 0.0)
    return _FilterData(sigma=sigma, beta=beta, perp_sq=perp_sq, v_norm=v_norm)


@PROPERTY
@given(data=filter_data(),
       fractions=st.lists(st.floats(0.0, 1.0), max_size=8),
       sliver=st.lists(st.floats(0.0, 1.0), max_size=4),
       above_top=st.lists(st.floats(1.0, 2.0), max_size=3),
       rtol=st.sampled_from([DISCREPANCY_RTOL, 1e-9, 0.0, -DISCREPANCY_RTOL]),
       block_pairs=st.sampled_from([1, 700, kernels.BLOCK_PAIRS]),
       order=st.randoms(use_true_random=False))
def test_match_equals_the_scalar_bisection(data, fractions, sliver, above_top, rtol, block_pairs,
                                           order):
    # Budgets between the floor and ||v||, in the last sliver below ||v||
    # (they need the bracket widened once the stop test is tighter than the
    # bracket top's 1e-4 gap to ||v||), and at or above ||v||, shuffled.  A
    # negative DISCREPANCY_RTOL makes the stop test unsatisfiable, so every
    # bisected budget runs to the iteration cap.  A small BLOCK_PAIRS splits
    # the ladder's residual sums into one-row or ragged blocks.
    floor, top = data.floor, data.v_norm
    bracket_top = solver.ALPHA_BRACKET_HI * float(data.sigma[0]) ** 2
    top_residual = math.sqrt(data.discrepancy_sq(np.array([bracket_top]))[0])
    ladder = ([floor + f * (top - floor) for f in fractions]
              + [top_residual + f * (top - top_residual) for f in sliver] + [top * g for g in above_top])
    ladder = [eps for eps in ladder if eps > floor or eps >= top]
    assume(ladder)
    order.shuffle(ladder)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "DISCREPANCY_RTOL", rtol)
        patch.setattr(kernels, "BLOCK_PAIRS", block_pairs)
        got = list(zip(*(x.tolist() for x in data.match(ladder))))
        assert got == [scalar_match(data, eps) for eps in ladder]
    if rtol < 0:
        assert all(its == MAX_BRACKET_ITERATIONS for alpha, _, its in got if alpha < math.inf)
