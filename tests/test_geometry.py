"""Quadrature rules and scenario admissibility."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fieldcast import (
    Boundary,
    ControlTrace,
    Density,
    QuadratureRule,
    Region,
    Scenario,
    ScenarioValidationError,
    make_circle_rule,
    make_sphere_rule,
    validate_scenario,
    with_defaults,
    zero_field,
)
from fieldcast.fields import dipole, log_source
from conftest import load_preset
from fieldcast.geometry import (DEFAULT_NODES, MIN_NODES, UNIT_SPHERE_MEASURE, Discretization,
                                build_rules, harmonic_count, harmonic_degree, harmonic_transform,
                                make_rule, nodes_around, order_columns, order_width, rule_degree,
                                surface_harmonics)


class TestCircleRule:
    def test_four_node_construction(self):
        rule = make_circle_rule((0.0, 0.0), 1.0, 4)
        expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        assert np.allclose(rule.nodes, expected, atol=1e-15)
        assert np.allclose(rule.weights, np.pi / 2)

    def test_weights_sum_to_circumference(self):
        for r, n in [(1.0, 4), (2.5, 37), (14.75, 128)]:
            rule = make_circle_rule((3.0, -1.0), r, n)
            assert abs(np.sum(rule.weights) - 2 * np.pi * r) <= 1e-12 * 2 * np.pi * r

    def test_trigonometric_exactness(self):
        # Trapezoid rule integrates e^{ik theta} exactly for 0 < |k| < n.
        rule = make_circle_rule((0.0, 0.0), 1.0, 64)
        theta = np.arctan2(rule.nodes[:, 1], rule.nodes[:, 0])
        assert abs(rule.integrate(np.cos(3 * theta))) <= 1e-13
        for k in range(1, 64):
            assert abs(rule.integrate(np.cos(k * theta))) <= 1e-12
            assert abs(rule.integrate(np.sin(k * theta))) <= 1e-12

    def test_refinement_convergence(self):
        def f(nodes):
            return np.exp(np.sin(np.arctan2(nodes[:, 1], nodes[:, 0]))) * nodes[:, 0]

        coarse = make_circle_rule((0.0, 0.0), 2.0, 64)
        fine = make_circle_rule((0.0, 0.0), 2.0, 128)
        assert abs(coarse.integrate(f(coarse.nodes)) - fine.integrate(f(fine.nodes))) <= 1e-10

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            make_circle_rule((0.0, 0.0), 1.0, 3)
        with pytest.raises(ValueError):
            make_circle_rule((0.0, 0.0), 0.0, 8)
        with pytest.raises(ValueError):
            make_circle_rule((0.0, 0.0), -2.0, 8)


class TestSphereRule:
    def test_weight_normalization(self):
        rule = make_sphere_rule((0.0, 0.0, 0.0), 2.0, 8, 16)
        assert abs(np.sum(rule.weights) - 16 * np.pi) <= 1e-12 * 16 * np.pi

    def test_constant_integration(self):
        rule = make_sphere_rule((1.0, 2.0, 3.0), 1.5, 12, 24)
        assert np.isclose(rule.integrate(np.ones(rule.node_count)),
                          4 * np.pi * 1.5**2, rtol=1e-13)

    def test_odd_harmonic_vanishes(self):
        rule = make_sphere_rule((0.0, 0.0, 0.0), 2.0, 8, 16)
        values = rule.nodes[:, 2] / 2.0  # y_3 / r on the sphere
        assert abs(rule.integrate(values)) <= 1e-13

    def test_refinement_convergence(self):
        def f(nodes):
            return np.exp(nodes[:, 0] / 2.0) * (1.0 + nodes[:, 2])

        coarse = make_sphere_rule((0.0, 0.0, 0.0), 1.0, 16, 32)
        fine = make_sphere_rule((0.0, 0.0, 0.0), 1.0, 32, 64)
        assert abs(coarse.integrate(f(coarse.nodes)) - fine.integrate(f(fine.nodes))) <= 1e-10

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            make_sphere_rule((0.0, 0.0, 0.0), 1.0, 1, 16)
        with pytest.raises(ValueError):
            make_sphere_rule((0.0, 0.0, 0.0), 1.0, 8, 3)


class TestSurfaceHarmonics:
    @pytest.mark.parametrize("n, dim", [(4, 2), (5, 2), (40, 2), (128, 2),
                                        (2, 3), (7, 3), (16, 3), (24, 3)])
    def test_orthonormal_on_make_rules_own_nodes(self, n, dim):
        rule = make_rule(np.zeros(dim), 1.0, n, dim)
        degree = harmonic_degree(rule)
        assert degree == rule_degree(n, dim)
        y = surface_harmonics(rule.normals, degree)
        assert y.shape == (rule.node_count, harmonic_count(degree, dim))
        assert y.flags.f_contiguous
        gram = y.T @ (rule.weights[:, None] * y)
        assert np.max(np.abs(gram - np.eye(y.shape[1]))) <= 1e-13

    def test_product_rule_degree_follows_the_coarser_direction(self):
        # 10 rings of 9 azimuth nodes: frequencies up to 4 only.
        assert harmonic_degree(make_sphere_rule((0.0, 0.0, 0.0), 1.0, 10, 9)) == 4
        assert harmonic_degree(make_sphere_rule((0.0, 0.0, 0.0), 1.0, 3, 32)) == 2

    def test_nodes_around_are_the_circle_or_one_polar_ring(self):
        assert nodes_around(make_rule(np.zeros(2), 1.0, 40, 2)) == 40
        assert nodes_around(make_sphere_rule((0.0, 0.0, 0.0), 1.0, 10, 9)) == 9

    def test_low_degrees_match_their_closed_forms(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=(50, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        x, y, z = u.T
        c1, c2 = math.sqrt(3 / (4 * math.pi)), math.sqrt(15 / (4 * math.pi))
        expected = np.column_stack([
            c1 * z, c1 * x, c1 * y,                                  # degree 1
            math.sqrt(5 / (16 * math.pi)) * (3 * z**2 - 1),          # degree 2: m = 0
            c2 * x * z, c2 * y * z, c2 / 2 * (x**2 - y**2), c2 * x * y,
        ])
        assert np.max(np.abs(surface_harmonics(u, 2) - expected)) <= 1e-15
        theta = rng.uniform(0, 2 * np.pi, 50)
        circle = np.column_stack([np.cos(theta), np.sin(theta)])
        expected = np.column_stack([f(k * theta) for k in (1, 2, 3) for f in (np.cos, np.sin)])
        assert np.max(np.abs(surface_harmonics(circle, 3) - expected / math.sqrt(math.pi))) <= 1e-15

    @pytest.mark.parametrize("dim", [2, 3])
    def test_order_ranges_are_the_whole_arrays_columns(self, dim):
        # Every range of orders: its columns of the whole array, bit for bit,
        # where order_columns places them, each of the degree it names; all
        # orders together place every column once.
        rng = np.random.default_rng(dim)
        u = rng.normal(size=(7, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        for degree in (1, 2, 9):
            whole = surface_harmonics(u, degree)
            columns, degrees = order_columns(degree, dim, range(degree + 1))
            assert sorted(columns.tolist()) == list(range(whole.shape[1]))
            assert np.array_equal(np.searchsorted(
                [harmonic_count(l, dim) for l in range(degree + 1)], columns, side="right"),
                degrees)
            for first in range(degree + 1):
                for last in range(first + 1, degree + 2):
                    orders = range(first, last)
                    part = surface_harmonics(u, degree, orders)
                    assert part.flags.f_contiguous
                    assert part.shape[1] == sum(order_width(degree, dim, m) for m in orders)
                    assert np.array_equal(part, whole[:, order_columns(degree, dim, orders)[0]])

    @pytest.mark.parametrize("degree", [1, 5, 23])
    def test_addition_theorem(self, degree):
        # sum_m Y_lm(a) Y_lm(b) = (2l + 1) / (4 pi) P_l(a . b), degree by degree,
        # including directions at the poles.
        rng = np.random.default_rng(degree)
        u = np.vstack([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], rng.normal(size=(30, 3))])
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        y = surface_harmonics(u, degree)
        cols = slice(harmonic_count(degree - 1, 3), harmonic_count(degree, 3))
        zonal = np.polynomial.legendre.Legendre.basis(degree)(u @ u.T)
        expected = (2 * degree + 1) / (4 * math.pi) * zonal
        assert np.max(np.abs(y[:, cols] @ y[:, cols].T - expected)) <= 1e-13 * (2 * degree + 1)


# Rules of make_rule's layout, and product rules whose azimuth count is odd
# or does not follow the polar count.
_TRANSFORM_RULES = [
    (lambda: make_rule(np.zeros(2), 1.0, 4, 2), "circle-4"),
    (lambda: make_rule((0.5, -1.0), 2.5, 17, 2), "circle-17"),
    (lambda: make_rule((3.0, 0.0), 0.7, 128, 2), "circle-128"),
    (lambda: make_rule(np.zeros(3), 1.0, 2, 3), "sphere-2"),
    (lambda: make_rule((10.0, 0.0, -2.0), 1.5, 7, 3), "sphere-7"),
    (lambda: make_rule(np.zeros(3), 20.0, 24, 3), "sphere-24"),
    (lambda: make_sphere_rule((0.0, 1.0, 0.0), 2.0, 10, 9), "sphere-10x9"),
    (lambda: make_sphere_rule((0.0, 0.0, 0.0), 1.0, 3, 32), "sphere-3x32"),
]


def _rule_harmonics(rule):
    """The rule's orthonormal harmonics of degrees 0 .. L, explicitly."""
    dim = rule.boundary.dim
    constant = np.full((rule.node_count, 1), 1.0 / math.sqrt(UNIT_SPHERE_MEASURE[dim]))
    values = np.hstack([constant, surface_harmonics(rule.normals, harmonic_degree(rule))])
    return values * rule.boundary.radius ** (-(dim - 1) / 2)


@pytest.mark.parametrize("make", [m for m, _ in _TRANSFORM_RULES],
                         ids=[i for _, i in _TRANSFORM_RULES])
class TestHarmonicTransform:
    def test_matches_the_explicit_weighted_product(self, make):
        rule = make()
        harmonics = _rule_harmonics(rule)
        values = np.random.default_rng(rule.node_count).normal(size=(rule.node_count, 5))
        coefficients, remainder = harmonic_transform(rule, values)
        expected = harmonics.T @ (rule.weights[:, None] * values)
        scale = np.sqrt(rule.weights @ values**2)
        assert coefficients.shape == (harmonic_transform(rule, values[:, 0])[0].shape[0], 5)
        assert coefficients.shape[0] == harmonic_count(harmonic_degree(rule), rule.boundary.dim) + 1
        assert np.all(np.abs(coefficients - expected) <= 1e-13 * scale)
        # The remainder is what the synthesis of the coefficients leaves over.
        left = values - harmonics @ expected
        assert np.all(np.abs(remainder - rule.weights @ left**2) <= 1e-13 * scale**2)

    def test_parseval(self, make):
        rule = make()
        values = np.random.default_rng(7).normal(size=(rule.node_count, 3))
        coefficients, remainder = harmonic_transform(rule, values)
        norm_sq = rule.weights @ values**2
        assert np.all(np.abs(np.sum(coefficients**2, axis=0) + remainder - norm_sq)
                      <= 1e-12 * norm_sq)

    def test_single_harmonics_below_the_resolution_are_exact(self, make):
        rule = make()
        harmonics = _rule_harmonics(rule)
        coefficients, remainder = harmonic_transform(rule, harmonics)
        assert np.max(np.abs(coefficients - np.eye(harmonics.shape[1]))) <= 1e-13
        assert np.max(remainder) <= 1e-26

    def test_one_column_and_many_agree(self, make):
        rule = make()
        values = np.random.default_rng(11).normal(size=(rule.node_count, 4))
        coefficients, remainder = harmonic_transform(rule, values)
        one, rest = harmonic_transform(rule, values[:, 2])
        assert one.shape == coefficients.shape[:1] and np.shape(rest) == ()
        assert np.max(np.abs(one - coefficients[:, 2])) <= 1e-15 * np.max(np.abs(one))
        assert rest == pytest.approx(remainder[2], rel=1e-12, abs=1e-30)


def test_transform_leaves_the_degree_above_over():
    # A harmonic of degree L + 1 is orthogonal to every resolved harmonic on
    # the sphere, but not on the rule: what the rule does see of it is
    # aliased into the coefficients, and the rest is the remainder, Parseval
    # still holding.  On a circle of 2L + 2 nodes its cos part is the
    # Nyquist mode, left over whole.
    circle = make_rule(np.zeros(2), 1.0, 16, 2)
    top = np.cos(8 * np.arctan2(circle.normals[:, 1], circle.normals[:, 0]))
    coefficients, remainder = harmonic_transform(circle, top)
    assert np.max(np.abs(coefficients)) <= 1e-14
    assert remainder == pytest.approx(circle.weights @ top**2, rel=1e-14)
    # On 6 Gauss rings the zonal P_6 vanishes at every node, as does
    # sin(6 phi) on 12 azimuths; the other degree-6 harmonics are seen.
    sphere = make_rule(np.zeros(3), 1.0, 6, 3)
    top = surface_harmonics(sphere.normals, 6)[:, harmonic_count(5, 3):]
    coefficients, remainder = harmonic_transform(sphere, top)
    norm_sq = sphere.weights @ top**2
    seen = norm_sq > 1e-20
    assert np.count_nonzero(seen) == 11
    assert np.all(remainder[seen] > 0.1 * norm_sq[seen])
    assert np.all(np.abs(np.sum(coefficients**2, axis=0) + remainder - norm_sq) <= 1e-12 * norm_sq)


def _scenario_2d(regions, outer_control=None, observation=15.0):
    return Scenario(
        dim=2,
        delta=1.0,
        regions=tuple(regions),
        observation_radius=observation,
        exterior_target=zero_field(),
        epsilon=1.0,
        outer_control_radius=outer_control,
        discretization=Discretization(128, 128),
    )


class TestValidateScenario:
    def test_demo_preset_with_default_radii_is_valid(self):
        s = load_preset("demo-2d")
        assert validate_scenario(s) is s
        # Defaults honor every inequality with room on both sides.
        assert s.regions[0].control_radius == pytest.approx(2.5)
        assert s.regions[1].control_radius == pytest.approx(3.0)
        assert s.outer_control_radius == pytest.approx(14.75)

    def test_3d_demo_preset_is_valid(self):
        s = load_preset("demo-3d")
        assert validate_scenario(s) is s
        assert s.regions[0].control_radius == pytest.approx(3.0)
        assert s.outer_control_radius == pytest.approx(14.0)

    def test_rejects_center_too_close_to_antenna(self):
        s = _scenario_2d(
            [Region(center=(2.0, 0.0), radius=1.0, control_radius=1.5,
                    target=dipole((0.0, 0.0), (1.0, 0.0)))],
            outer_control=13.0,
        )
        with pytest.raises(ScenarioValidationError, match=r"a' \+ delta"):
            validate_scenario(s)

    def test_rejects_outer_control_beyond_observation(self):
        s = _scenario_2d(
            [Region(center=(0.0, 12.0), radius=2.0, control_radius=2.5,
                    target=log_source((0.0, 0.0)))],
            outer_control=16.0,
        )
        with pytest.raises(ScenarioValidationError, match="R' < R fails"):
            validate_scenario(s)

    def test_rejects_control_ball_outside_outer_sphere(self):
        s = _scenario_2d(
            [Region(center=(0.0, 12.0), radius=2.0, control_radius=2.5,
                    target=log_source((0.0, 0.0)))],
            outer_control=14.0,
        )
        with pytest.raises(ScenarioValidationError, match=r"R' > \|x\| \+ a'"):
            validate_scenario(s)

    def test_rejects_control_radius_not_above_region_radius(self):
        s = _scenario_2d(
            [Region(center=(0.0, 12.0), radius=2.0, control_radius=2.0,
                    target=log_source((0.0, 0.0)))],
            outer_control=14.75,
        )
        with pytest.raises(ScenarioValidationError, match="a < a' fails"):
            validate_scenario(s)

    def test_rejects_overlapping_regions(self):
        s = _scenario_2d(
            [
                Region(center=(0.0, 12.0), radius=2.0, control_radius=2.4,
                       target=log_source((0.0, 0.0))),
                Region(center=(0.0, 8.5), radius=2.0, control_radius=2.4,
                       target=dipole((0.0, 0.0), (1.0, 0.0))),
            ],
            outer_control=14.6,
        )
        with pytest.raises(ScenarioValidationError, match="intersect"):
            validate_scenario(s)

    def test_reports_all_violations_together(self):
        s = _scenario_2d(
            [Region(center=(0.0, 12.0), radius=2.0, control_radius=1.5,
                    target=log_source((0.0, 0.0)))],
            outer_control=16.0,
        )
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(s)
        assert len(err.value.violations) == 2

    def test_reports_geometry_and_field_violations_together(self):
        s = _scenario_2d(
            [Region(center=(10.0, 0.0), radius=2.0, control_radius=1.5,
                    target=log_source((10.5, 0.0)))],
            outer_control=13.0,
        )
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(s)
        assert len(err.value.violations) == 2
        assert "a < a' fails" in err.value.violations[0]
        assert "singular inside the control ball" in err.value.violations[1]

    def test_rejects_non_finite_epsilon(self):
        s = replace(load_preset("demo-2d"), epsilon=math.inf)
        with pytest.raises(ScenarioValidationError, match="positive and finite"):
            validate_scenario(s)

    def test_default_radii_leave_room_on_both_sides(self):
        # A region hugging the observation boundary must still default to
        # an admissible control radius.
        s = with_defaults(_scenario_2d(
            [Region(center=(0.0, 12.5), radius=2.0,
                    target=log_source((0.0, 0.0)))]))
        validate_scenario(s)
        assert s.regions[0].control_radius < 15.0 - 12.5
        assert s.outer_control_radius < 15.0

    def test_default_radii_respect_the_antenna_clearance(self):
        # |x| - a - delta = 1.2e-6 leaves room for a' = a + 6e-8 beyond the
        # clearance delta * SEPARATION_RTOL, so the default must find room too.
        s = with_defaults(_scenario_2d(
            [Region(center=(3.0 + 1.2e-6, 0.0), radius=2.0, target=zero_field())],
            observation=20.0))
        validate_scenario(s)
        assert 2.0 < s.regions[0].control_radius < 2.0 + 6e-8


def test_constructors_copy_caller_arrays():
    # Each value object keeps its own read-only copy: the caller's arrays
    # stay writable, and writing to them leaves the object unchanged.
    center = np.array([1.0, -2.0])
    boundary = Boundary(center=center, radius=1.5, dim=2)
    made = make_circle_rule((1.0, -2.0), 1.5, 8)
    nodes, weights, normals = (np.array(a) for a in (made.nodes, made.weights, made.normals))
    rule = QuadratureRule(boundary=boundary, nodes=nodes, weights=weights, normals=normals)
    region_center = np.array([0.0, 12.0])
    region = Region(center=region_center, radius=2.0, target=zero_field())
    values = np.ones(8)
    density = Density(rule=rule, values=values)
    block = np.arange(8.0)
    trace = ControlTrace(blocks=[block], rules=[rule])

    held = [(boundary.center, center), (rule.nodes, nodes), (rule.weights, weights),
            (rule.normals, normals), (region.center, region_center),
            (density.values, values), (trace.blocks[0], block)]
    before = [own.copy() for own, _ in held]
    for own, given in held:
        assert given.flags.writeable
        assert not own.flags.writeable
        given += 1.0
    for (own, _), old in zip(held, before):
        assert np.array_equal(own, old)


class TestDefaultNodes:
    @staticmethod
    def _one_region(dim, delta=1.0, distance=10.0, control_radius=3.0):
        center = (distance,) + (0.0,) * (dim - 1)
        return Scenario(dim=dim, delta=delta,
                        regions=(Region(center=center, radius=2.0, control_radius=control_radius,
                                        target=zero_field()),),
                        observation_radius=15.0, exterior_target=zero_field(), epsilon=1.0)

    @pytest.mark.parametrize("dim, control_radius, antenna", [
        (2, 3.0, 32), (3, 3.0, 16), (2, 4.0, 40), (3, 4.0, 20),
    ])
    def test_antenna_count_is_read_off_the_gap(self, dim, control_radius, antenna):
        # delta = 1 and rho = |x| - a' (R' = 14 or 14.5 is farther).  rho = 7
        # gives L* = ceil(ln 1e-12 / ln(1/7)) = 15, whose 16 degrees are a
        # multiple of 4: 32 circle or 16 polar nodes.  rho = 6 gives L* = 16,
        # whose 17 degrees round up to 20: 40 circle or 20 polar nodes.
        s = with_defaults(self._one_region(dim, control_radius=control_radius))
        assert s.discretization == Discretization(antenna, DEFAULT_NODES[dim])
        validate_scenario(s)

    @pytest.mark.parametrize("dim, smallest", [(2, 8), (3, 4)])
    def test_antenna_count_stays_between_the_minimum_and_the_default(self, dim, smallest):
        # rho / delta = 7e13 gives L* = 1, whose 2 degrees round up to one
        # step of 4; rho = delta (1 + 1e-9) gives an L* far beyond the default.
        far = with_defaults(self._one_region(dim, delta=1e-13))
        near = with_defaults(self._one_region(dim, control_radius=9.0 - 1e-9))
        assert far.discretization.antenna == smallest >= MIN_NODES[dim]
        assert near.discretization.antenna == DEFAULT_NODES[dim]

    def test_given_counts_are_kept(self):
        given = Discretization(200, 8)
        s = with_defaults(replace(self._one_region(2), discretization=given))
        assert s.discretization == given

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("distance, control_radius", [
        (10.0, 9.5), (10.0, math.nan), (math.inf, 3.0),
    ], ids=["rho-below-delta", "rho-nan", "rho-inf"])
    def test_inadmissible_gap_gets_the_default_and_fails_validation(self, dim, distance,
                                                                    control_radius):
        s = with_defaults(self._one_region(dim, distance=distance,
                                           control_radius=control_radius))
        assert s.discretization.antenna == DEFAULT_NODES[dim]
        with pytest.raises(ScenarioValidationError):
            validate_scenario(s)

    def test_unset_counts_are_reported(self):
        with pytest.raises(ScenarioValidationError, match="node counts are unset"):
            validate_scenario(replace(with_defaults(self._one_region(2)), discretization=None))


class TestBuildRules:
    def test_2d_rule_layout(self, demo2d):
        antenna, controls = build_rules(demo2d)
        assert antenna.boundary.radius == demo2d.delta
        assert len(controls) == 3
        assert controls[0].boundary.radius == demo2d.regions[0].control_radius
        assert controls[-1].boundary.radius == demo2d.outer_control_radius
        assert all(r.node_count == 128 for r in [antenna, *controls])

    def test_3d_rule_layout(self):
        s = Scenario(
            dim=3,
            delta=1.0,
            regions=(Region(center=(10.0, 0.0, 0.0), radius=2.0,
                            control_radius=3.0, target=zero_field()),),
            observation_radius=15.0,
            exterior_target=zero_field(),
            epsilon=1.0,
            outer_control_radius=14.0,
            discretization=Discretization(8, 6),
        )
        antenna, controls = build_rules(s)
        assert antenna.node_count == 8 * 16
        assert controls[0].node_count == 6 * 12
        assert len(controls) == 2
