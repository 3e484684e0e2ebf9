"""Invariants over random admissible scenarios (hypothesis)."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fieldcast import (
    HarmonicDensity,
    HarmonicTrace,
    Region,
    Scenario,
    assemble_forward,
    build_rules,
    build_target,
    constant_field,
    dipole,
    eval_field,
    harmonic_polynomial,
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
from conftest import (assert_residuals_match_the_matrix, basis_fields, boundaries,
                      explicit_coefficients, load_preset, nystrom_floor_and_energy, projected,
                      quadrature_block, quadrature_epsilon, rule_harmonics, scalar_match,
                      scenario_rules, summed_basis_fields)
from fieldcast import kernels, solver
from fieldcast.geometry import (DEFAULT_NODES, MIN_NODES, SEPARATION_RTOL, Discretization,
                                harmonic_count, surface_harmonics)
from fieldcast.fields import _wanted_block, auto_epsilon
from fieldcast.operator import (_coefficient_block, block_residuals, factor_blocks,
                                factorization_cost, unresolved_share)
from fieldcast.translation import degree_norms
from fieldcast.solver import DISCREPANCY_RTOL, MAX_BRACKET_ITERATIONS, _FilterData, residual_floor
from oracles import Density, make_rule

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
    assert_residuals_match_the_matrix(K, h, v, scenario_rules(s)[1])


@settings(PROPERTY, max_examples=40)
@given(s=st.one_of(hard_data(dim=2, target=log_source((0.0, 0.0))),
                   hard_data(dim=3, target=point_source((0.0, 0.0, 0.0)))),
       antenna=st.integers(2, 12), control=st.integers(2, 12))
def test_boundaries_give_the_rules_operator_and_target(s, antenna, control):
    # build_rules' boundaries carry the degree of make_rule's rule at each
    # node count, the outer sphere the antenna's (scenario_rules builds its
    # rule of the antenna's nodes), so the operator and the target on them
    # are those on the rules' own boundaries, bit for bit; and the price
    # counts, from the boundaries alone, the flops of the largest block the
    # SVD factors, the whole matrix unless it splits by order.
    s = with_defaults(s)
    scale = 2 if s.dim == 2 else 1
    s = replace(s, discretization=Discretization(scale * antenna, scale * control))
    spheres = build_rules(s)
    rules = scenario_rules(s)
    K = assemble_forward(*spheres)
    oracle = assemble_forward(rules[0].boundary, boundaries(rules[1]))
    assert K.matrix.tobytes() == oracle.matrix.tobytes() and K.unresolved == oracle.unresolved
    v, w = build_target(s, spheres[1]), build_target(s, boundaries(rules[1]))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(v.blocks, w.blocks, strict=True))
    assert v.outside.tobytes() == w.outside.tobytes()
    assert factorization_cost(*spheres)[1] == max(f.reflectors.shape[1] * f.vt.shape[1] ** 2
                                                  for *_, f in weighted_svd(K).blocks)


@PROPERTY
@given(dim=st.sampled_from([2, 3]), delta=st.floats(0.1, 10.0), log_ratio=st.floats(-4.0, 2.0),
       antenna=st.integers(2, 12))
def test_outer_block_is_the_projected_nodal_block(dim, delta, log_ratio, antenna):
    # A sphere concentric with the antenna, at R / delta from just outside the
    # clearance up to 100, resolving the antenna's degree: its closed-form
    # diagonal against the fields at its nodes, projected on its harmonics
    # explicitly, column by column to 1e-13 of the column's diagonal entry.
    radius = delta * (1.0 + SEPARATION_RTOL) * (1.0 + 10.0 ** log_ratio)
    n_antenna = 2 * antenna if dim == 2 else antenna
    ant = make_rule(np.zeros(dim), delta, n_antenna, dim)
    outer = make_rule(np.zeros(dim), radius, n_antenna, dim)
    K = assemble_forward(ant.boundary, [outer.boundary])
    diagonal = np.diag(K.matrix)
    assert np.array_equal(K.matrix, np.diag(diagonal)) and K.unresolved == (0.0,)
    harmonics = rule_harmonics(outer)[:, 1: 1 + diagonal.shape[0]]
    projected = harmonics.T @ (outer.weights[:, None] * basis_fields(K.antenna, outer.nodes))
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
    h = projected(Density(rule=ant, values=rng.normal(size=ant.node_count)))
    direction = rng.normal(size=(64, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    pts = ant.boundary.center + delta * 10.0 ** rng.uniform(np.log10(1.01), np.log10(50.0),
                                                             size=(64, 1)) * direction
    oracle, scale = summed_basis_fields(h, pts)
    assert np.all(np.abs(radiated_field(h, pts) - oracle) <= 1e-14 * scale)


@PROPERTY
@given(dim=st.sampled_from([2, 3]), delta=st.floats(0.1, 10.0), log_ratio=st.floats(-4.0, 2.0),
       antenna=st.integers(2, 12), target_shift=st.integers(-2, 4),
       seed=st.integers(0, 2**32 - 1), fraction=st.floats(0.01, 0.99))
def test_outer_sphere_alone_is_the_closed_form(dim, delta, log_ratio, antenna, target_shift, seed,
                                                fraction):
    # The antenna and a concentric outer sphere alone, which resolves the
    # antenna's degree L, and a target synthesized on the outer sphere's
    # harmonics of degrees 0 .. L + target_shift, those above L in
    # ``outside``.  Degree l's harmonics are singular vectors of gain
    # g_l (delta/R)^(l+dim-2) (R/delta)^((dim-1)/2), so the spectrum is
    # known in closed form, and so are the floor, the matched discrepancy
    # and the energy of the target, degree by degree.
    ratio = (1.0 + SEPARATION_RTOL) * (1.0 + 10.0 ** log_ratio)
    n_antenna = 2 * antenna if dim == 2 else antenna
    ant = make_rule(np.zeros(dim), delta, n_antenna, dim)
    outer = make_rule(np.zeros(dim), delta * ratio, n_antenna, dim)
    K = assemble_forward(ant.boundary, [outer.boundary])
    degrees = np.arange(1, ant.boundary.degree + 1)
    g = 0.5 if dim == 2 else degrees / (2 * degrees + 1)
    gains = g * ratio ** -(degrees + dim - 2.0) * ratio ** ((dim - 1) / 2)
    sigma = np.repeat(gains, 2 if dim == 2 else 2 * degrees + 1)  # antenna harmonic order
    assert np.allclose(weighted_svd(K).sigma, np.sort(sigma)[::-1], rtol=1e-13, atol=0.0)

    degree = max(ant.boundary.degree + target_shift, 0)
    b = np.random.default_rng(seed).standard_normal(harmonic_count(degree, dim) + 1)
    block = np.zeros(sigma.shape[0] + 1)   # the outer sphere's degrees 0 .. L
    block[:b.shape[0]] = b[:block.shape[0]]
    above = float(b[block.shape[0]:] @ b[block.shape[0]:])
    v = HarmonicTrace(blocks=[block], outside=[above], boundaries=[outer.boundary])
    y = block[1:]   # the target on the antenna's harmonics of degrees 1 .. L
    outside_sq = block[0] ** 2 + above

    def discrepancy(alpha, counted):
        filtered = np.where(counted, alpha / (alpha + sigma**2), 1.0) * y
        return math.sqrt(float(filtered @ filtered) + outside_sq)

    top = sigma.max()
    floor = discrepancy(solver.ALPHA_BRACKET_LO * top**2, sigma >= solver.RANK_CUTOFF_RTOL * top)
    assert residual_floor(K, v) == pytest.approx(floor, rel=1e-12, abs=0)
    _, report = solve_min_energy(K, v, floor + fraction * (v.norm() - floor))
    alpha = report.alpha_star
    assert report.discrepancy == pytest.approx(discrepancy(alpha, True), rel=1e-12, abs=0)
    assert report.energy == pytest.approx(
        math.sqrt(float(np.sum((sigma * y / (alpha + sigma**2)) ** 2))), rel=1e-12, abs=0)


# Relative Frobenius distance that the translated blocks keep from the
# quadrature oracle on a rule that resolves them: their entries are formed
# from sums of logarithms (of factorials up to (2 L + 2 D)!), each rounded;
# measured up to 3.2e-14 on the presets and benchmark-pool scenarios.
TRANSLATION_RTOL = 2e-13


def _translated_against_the_quadrature(antenna, rule):
    """A region's translated block and unresolved share against the
    quadrature oracle on a rule of four times the nodes.  Where that rule
    resolves the fields (its own unresolved share of their nodal norm is at
    most 1e-6), its first rows equal the block within 4 times that share,
    which bounds what its nodes fold in from above, plus rounding.  And the
    norm of its rows above the block's degrees is the block's share within
    10%, where that share lies above the 4x rule's and above rounding.
    Returns the 4x rule's share."""
    block = _coefficient_block(antenna.boundary, rule.boundary)
    dim = rule.boundary.dim
    polar = rule.node_count if dim == 2 else rule.boundary.degree + 1   # make_rule's rings
    fine, fine_share = quadrature_block(
        antenna, make_rule(rule.boundary.center, rule.boundary.radius, 4 * polar, dim))
    norm = float(np.linalg.norm(fine))
    if fine_share <= 1e-6:
        assert (np.linalg.norm(block - fine[: block.shape[0]])
                <= 4 * fine_share * norm + TRANSLATION_RTOL * np.linalg.norm(block))
    share = unresolved_share(antenna.boundary, rule.boundary)
    if share > 1e-10 and fine_share < 1e-3 * share:
        tail = float(np.linalg.norm(fine[block.shape[0]:])) / norm
        assert tail == pytest.approx(share, rel=0.1, abs=0)
    return fine_share


def _local_series_against_the_field(antenna, rule, seed):
    """The block's rows applied to a random density, summed as the
    interior harmonic series sum_h (C c)_h (|w|/R)^deg Y_h(w^) of the
    control sphere's orthonormal harmonics Y_h, against
    ``radiated_field`` at 32 random points w inside the control ball:
    equal within rounding plus the degrees above the rows, bounded through
    the addition theorem by sum_lam (|w|/R)^lam ||c|| (S_lam N_lam / |S|)^(1/2),
    S_lam the closed-form squared norm of the block's degree-lam rows and
    N_lam the dimension of degree lam's harmonics."""
    antenna, rule = antenna.boundary, rule.boundary
    dim, radius, degree = rule.dim, rule.radius, rule.degree
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(harmonic_count(antenna.degree, dim))
    h = HarmonicDensity(antenna, c)
    coefficients = _coefficient_block(antenna, rule) @ c
    direction = rng.standard_normal((32, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    scale = rng.uniform(0.0, 0.9, 32)
    points = rule.center + radius * scale[:, None] * direction
    # The orthonormal harmonics of the control sphere at the points' directions.
    constant = 1.0 / math.sqrt(2 * math.pi if dim == 2 else 4 * math.pi)
    values = np.hstack([np.full((32, 1), constant), surface_harmonics(direction, degree)])
    values *= radius ** (-(dim - 1) / 2)
    degrees = np.concatenate([[0], np.repeat(np.arange(1, degree + 1),
                                             2 if dim == 2 else 2 * np.arange(1, degree + 1) + 1)])
    terms = values * scale[:, None] ** degrees * coefficients
    series = terms.sum(axis=1)
    field = radiated_field(h, points)
    above = np.arange(degree + 1, degree + 400)
    multiplet = 2.0 if dim == 2 else 2.0 * above + 1
    measure = (2 * math.pi if dim == 2 else 4 * math.pi) * radius ** (dim - 1)
    norms = np.sqrt(degree_norms(antenna, rule, above) * multiplet / measure) * np.linalg.norm(c)
    tail = (scale[:, None] ** above * norms).sum(axis=1)
    rounding = 1e-12 * (np.abs(terms).sum(axis=1) + summed_basis_fields(h, points)[1])
    assert np.all(np.abs(series - field) <= tail + rounding)


@st.composite
def control_spheres(draw):
    """An antenna rule and a region's control rule, anywhere, in 2D or 3D:
    the control sphere of radius R in any direction from the antenna's
    centre, at the distance |a| = R / x + delta for x drawn from 0.05 to
    0.95, the rate R / (|a| - delta) at which the basis fields' degrees
    decay on it.  Antennas of degree 1 .. 7, control rules of degree 1 .. 9."""
    dim = draw(st.sampled_from([2, 3]))
    delta, radius = draw(st.floats(0.1, 2.0)), draw(st.floats(0.1, 3.0))
    rate = draw(st.floats(0.05, 0.95))
    centre = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=dim, max_size=dim)))
    direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    assume(np.linalg.norm(direction) > 0.1)
    direction /= np.linalg.norm(direction)
    antenna, control = draw(st.integers(2, 8)), draw(st.integers(2, 10))
    return (make_rule(centre, delta, 2 * antenna if dim == 2 else antenna, dim),
            make_rule(centre + (radius / rate + delta) * direction, radius,
                      2 * control if dim == 2 else control, dim))


@settings(PROPERTY, max_examples=60)
@given(rules=control_spheres(), seed=st.integers(0, 2**32 - 1))
def test_translated_blocks_match_the_quadrature_and_the_field(rules, seed):
    # A region's translated block against the quadrature oracle on a 4x rule,
    # its share against that rule's rows, and its rows against the field
    # they expand inside the control ball.
    _translated_against_the_quadrature(*rules)
    _local_series_against_the_field(*rules, seed)


@pytest.mark.parametrize("preset, nodes", [("demo-2d", (640, 16)), ("demo-3d", (32, 8))])
def test_translated_blocks_match_the_quadrature_on_the_presets(preset, nodes):
    # demo-2d at 640 antenna nodes is the shape whose high degrees radiate
    # subnormal entries (``test_subnormal_entries_are_flushed_at_assembly``):
    # its binomials hold factorials up to 325!, far past the 170! that
    # float64 holds, which the translation never forms.
    s = replace(load_preset(preset), discretization=Discretization(*nodes))
    antenna, controls = scenario_rules(s)
    for rule in controls[:-1]:
        assert _translated_against_the_quadrature(antenna, rule) <= 1e-6


@st.composite
def wanted_fields(draw, dim, nearest):
    """A catalog field of any kind in ``dim`` dimensions, its singular point
    (if any) ``nearest`` to ``nearest`` + 5 radii R from the control centre
    in any direction: returns a function of (centre, R)."""
    kind = draw(st.sampled_from(["zero", "constant", "source", "dipole", "polynomial"]))
    direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    assume(np.linalg.norm(direction) > 0.1)
    distance = nearest + draw(st.floats(0.0, 5.0))
    weights = draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
    direction /= np.linalg.norm(direction)
    polynomial = ({(1, 0): weights[0], (1, 1): weights[1], (3, 0): weights[2],
                   (1, 2): -3 * weights[2]} if dim == 2 else
                  {(0, 1, 0): weights[0], (2, 0, 0): weights[1], (0, 0, 2): -weights[1],
                   (1, 1, 1): weights[2]})

    def field(centre, radius):
        s = centre + distance * radius * direction
        return {"zero": zero_field(), "constant": constant_field(weights[0]),
                "source": log_source(s) if dim == 2 else point_source(s),
                "dipole": dipole(s, weights[:dim]) if any(weights[:dim]) else zero_field(),
                "polynomial": harmonic_polynomial(polynomial, dim)}[kind]
    return field


@settings(PROPERTY, max_examples=100)
@given(data=st.data(), dim=st.sampled_from([2, 3]), radius=st.floats(0.1, 3.0),
       centre=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3), nodes=st.integers(2, 8))
def test_target_blocks_match_the_explicit_projection(data, dim, radius, centre, nodes):
    # The wanted field u_k - u_0 of two catalog fields on a control rule of
    # degree 1 .. 7, in closed form, against the explicit projection of its
    # values on a rule of four times the nodes (4 n circle nodes or Gauss
    # rings for n = 2 nodes or rings), which integrates the product of a
    # harmonic of the rule's degrees and one of degree k < 7 n exactly.  So
    # with the singular points at 10^(17 / (7 n)) radii or more, it folds
    # in nothing above 1e-17: the coefficients agree within 2e-13 of the
    # two fields' norms (of the difference's, but where they cancel), and
    # its coefficients above D hold ``outside`` within 10% wherever that is
    # above rounding.
    centre = np.array(centre[:dim])
    rule = make_rule(centre, radius, 2 * nodes if dim == 2 else nodes, dim)
    fine = make_rule(centre, radius, 8 * nodes if dim == 2 else 4 * nodes, dim)
    nearest = max(1.1, 10 ** (17 / (7 * nodes)))
    region, exterior = (data.draw(wanted_fields(dim, nearest))(centre, radius) for _ in range(2))
    block, outside = _wanted_block([(region, 1.0), (exterior, -1.0)], rule.boundary)
    fields = [eval_field(f, fine.nodes) for f in (region, exterior)]
    a, rest = explicit_coefficients(fine, fields[0] - fields[1])
    total, scale = float(a @ a) + rest, sum(map(fine.l2_norm, fields))
    assert np.linalg.norm(block - a[: block.shape[0]]) <= 2e-13 * scale
    if outside > 1e-14 * total:
        above = a[block.shape[0]:]
        assert float(above @ above) == pytest.approx(outside, rel=0.1, abs=0)


@st.composite
def budget_scenarios(draw):
    """Admissible ``hard_data`` with a catalog target in every region and an
    exterior target that decays (3D) or stays bounded (2D), each singular
    point at least one ball radius outside every target ball and inside half
    the observation radius, where ``quadrature_epsilon`` is accurate."""
    s = with_defaults(draw(hard_data()))
    dim, half = s.dim, 0.5 * s.observation_radius

    def source():
        point = half * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
        assume(np.linalg.norm(point) < half)
        assume(all(np.linalg.norm(point - r.center) >= 2 * r.radius for r in s.regions))
        return point

    def field(kinds):
        kind = draw(st.sampled_from(kinds))
        moment = draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim))
        if kind == "source":
            return log_source(source()) if dim == 2 else point_source(source())
        if kind == "dipole":
            assume(any(moment))
            return dipole(source(), moment)
        if kind == "polynomial":
            terms = ({(1, 0): moment[0], (2, 0): moment[1], (0, 2): -moment[1]} if dim == 2
                     else {(0, 1, 0): moment[0], (2, 0, 0): moment[1], (0, 0, 2): -moment[1],
                           (1, 1, 1): moment[2]})
            return harmonic_polynomial(terms, dim)
        return constant_field(moment[0]) if kind == "constant" else zero_field()

    regions = tuple(replace(r, target=field(["source", "dipole", "polynomial", "constant"]))
                    for r in s.regions)
    exterior = field(["zero", "constant", "dipole"] if dim == 2 else ["zero", "source", "dipole"])
    return validate_scenario(replace(s, regions=regions, exterior_target=exterior))


@settings(PROPERTY, max_examples=60)
@given(s=budget_scenarios())
def test_auto_epsilon_matches_the_quadrature(s):
    # The closed-form volume and sphere norms against the shell quadrature
    # and a fine rule on the observation sphere.
    assert auto_epsilon(s) == pytest.approx(quadrature_epsilon(s), rel=1e-13, abs=0)


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
    # And the closed-form operator gives the floor and energy of the
    # Nystrom operator projected on the control harmonics at that count,
    # within the floor's documented 2e-10 antenna-count jitter.  The Nystrom
    # sums run in extended precision: in float64 their absolute errors,
    # about 2e-15 of the largest entry, move a floor by up to 2.8e-10.
    s = with_defaults(s)
    chosen = s.discretization.antenna
    assert MIN_NODES[s.dim] <= chosen <= DEFAULT_NODES[s.dim]
    control = _CONTROL_NODES[s.dim]
    K, v, floor, epsilon, energy = _solve(
        replace(s, discretization=Discretization(chosen, control)))
    *_, ref_floor, _, ref_energy = _solve(
        replace(s, discretization=Discretization(DEFAULT_NODES[s.dim], control)))
    assert floor == pytest.approx(ref_floor, rel=1e-10, abs=0)
    assert energy == pytest.approx(ref_energy, rel=1e-9, abs=0)
    controls = scenario_rules(replace(s, discretization=Discretization(chosen, control)))[1]
    nystrom_floor, nystrom_energy = nystrom_floor_and_energy(K, v, epsilon, controls)
    assert floor == pytest.approx(nystrom_floor, rel=2e-10, abs=0)
    assert energy == pytest.approx(nystrom_energy, rel=1e-9, abs=0)


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


class _SingularCoefficients:
    """Stands in for the factors of a spectrum with no matrix behind it: the
    Tikhonov residual from the singular coefficients alone,
    sum (alpha / (alpha + sigma^2))^2 beta^2."""

    def __init__(self, sigma):
        self.sigma = sigma

    def tikhonov_residual_sq(self, beta, alpha):
        return float(np.sum((alpha / (alpha + self.sigma**2) * beta) ** 2))


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
    return _FilterData(sigma=sigma, beta=beta, perp_sq=perp_sq, v_norm=v_norm,
                       svd=_SingularCoefficients(sigma))


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


def _catalog_field(draw, dim, delta, kind=None):
    """A catalog field singular, if at all, inside half the antenna ball."""
    kind = kind or draw(st.sampled_from(["source", "dipole", "polynomial"]))
    inside = 0.5 * delta * draw(st.integers(0, 8)) / 8 * _unit(draw, dim)
    if kind == "source":
        return log_source(inside) if dim == 2 else point_source(inside)
    if kind == "dipole":
        return dipole(inside, _unit(draw, dim))
    a, b = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    if dim == 2:
        return harmonic_polynomial({(1, 1): a, (2, 0): b, (0, 2): -b, (1, 0): 1.0}, 2)
    return harmonic_polynomial({(1, 1, 0): a, (2, 0, 0): b, (0, 0, 2): -b, (0, 1, 1): 1.0}, 3)


def _unit(draw, dim):
    polar, azimuth = draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 2.0 * math.pi))
    if dim == 2:
        return np.array([math.cos(azimuth), math.sin(azimuth)])
    return np.array([math.sin(polar) * math.cos(azimuth), math.sin(polar) * math.sin(azimuth),
                     math.cos(polar)])


@st.composite
def axial_scenarios(draw):
    """A scenario whose 1-3 target balls lie on one line through the antenna
    centre, on either side of it, with catalog targets, an exterior target
    that is zero or a source inside the antenna, and small node counts."""
    dim = draw(st.sampled_from([2, 3]))
    delta = draw(st.floats(0.5, 1.5))
    axis = _unit(draw, dim)
    reach = {1.0: delta, -1.0: delta}
    regions = []
    for _ in range(draw(st.integers(1, 3))):
        side = draw(st.sampled_from([1.0, -1.0]))
        radius, gap = draw(st.floats(0.3, 1.5)), draw(st.floats(0.3, 2.0))
        distance = reach[side] + gap + radius
        reach[side] = distance + radius
        regions.append(Region(center=side * distance * axis, radius=radius,
                              target=_catalog_field(draw, dim, delta)))
    exterior = draw(st.sampled_from(["zero", "dipole"] + (["source"] if dim == 3 else [])))
    exterior = zero_field() if exterior == "zero" else _catalog_field(draw, dim, delta, exterior)
    assume(any(r.target != exterior for r in regions))   # else the target trace is zero
    s = with_defaults(Scenario(dim=dim, delta=delta, regions=tuple(regions),
                               observation_radius=max(reach.values()) + draw(st.floats(0.5, 4.0)),
                               exterior_target=exterior, epsilon=1.0))
    scale = 2 if dim == 2 else 1
    nodes = (draw(st.integers(4, 16)), draw(st.integers(4, 16)))
    return replace(s, discretization=Discretization(scale * nodes[0], scale * nodes[1]))


def _user_frame_parts(s):
    """The operator and the target on the scenario's boundaries in its own
    frame, as they were before any turn: the dense reference."""
    antenna, controls = build_rules(s)
    origin = np.zeros(s.dim)
    user = [replace(b, center=center, frame=None)
            for b, center in zip(controls, [r.center for r in s.regions] + [origin])]
    K = assemble_forward(replace(antenna, frame=None), user)
    return K, build_target(s, user)


def _at_alphas(K, v, alphas):
    """(discrepancy, energy, block residuals) of the Tikhonov density at each alpha."""
    data = solver._filter_data(K, v)
    rows = []
    for alpha in alphas:
        h = HarmonicDensity(K.antenna, weighted_svd(K).vt.T @ data.coefficients(alpha))
        disc, energy = np.sqrt(data.discrepancy_sq(np.array([alpha])))[0], h.norm()
        rows.append((disc, energy, *block_residuals(K, h, v)))
    return np.array(rows)


# Axial scenarios against their own operator in the user's frame, factored
# whole: the deviations the frame turn and the split make together, as
# fractions of the user frame's value (residuals of its discrepancy).
# Largest over 800 random examples of ``axial_scenarios``: floor 2.5e-11
# (the turn alone moves the Householder QR oracle ``tikhonov_floor`` by up
# to 1.7e-12: the floor sits at alpha = 1e-14 sigma_1^2, which amplifies
# the rounding of the matrix); at alpha = 1e-8 sigma_1^2 discrepancy
# 1.1e-13, energy 8.0e-13 and residuals 1.7e-13; at 1e-4 sigma_1^2 and
# above 3.5e-14.  Each bound is about 4 times its largest.
AXIAL_FLOOR_RTOL = 1e-10
AXIAL_SOLVE_RTOL = 3e-12


@settings(PROPERTY, max_examples=60)
@given(s=axial_scenarios())
def test_axial_operator_splits_by_order_and_keeps_every_number(s):
    antenna, controls = build_rules(s)
    K, v = assemble_forward(antenna, controls), build_target(s, controls)
    svd = weighted_svd(K)
    blocks = factor_blocks(antenna, controls)[0]
    assert len(svd.blocks) == len(blocks) > 1
    outside = K.matrix.copy()
    for rows, columns in blocks:
        outside[np.ix_(rows, columns)] = 0.0
    assert np.count_nonzero(outside) == 0   # exact zeros, the loose rows too
    user_K, user_v = _user_frame_parts(s)
    sigma = np.linalg.svd(user_K.matrix, compute_uv=False)
    assert svd.sigma.shape == sigma.shape
    assert np.max(np.abs(svd.sigma - sigma)) <= 1e-14 * sigma[0]
    assert residual_floor(K, v) == pytest.approx(residual_floor(user_K, user_v),
                                                 rel=AXIAL_FLOOR_RTOL, abs=0)
    alphas = sigma[0] ** 2 * np.array([1e-8, 1e-4, 1.0])
    got, expected = _at_alphas(K, v, alphas), _at_alphas(user_K, user_v, alphas)
    assert np.all(np.abs(got[:, :2] - expected[:, :2]) <= AXIAL_SOLVE_RTOL * expected[:, :2])
    assert np.all(np.abs(got[:, 2:] - expected[:, 2:]) <= AXIAL_SOLVE_RTOL * expected[:, :1])
