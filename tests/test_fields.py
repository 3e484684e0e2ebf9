"""Target-field catalog, trace targets, and radiated-field evaluation."""

import tracemalloc

import numpy as np
import pytest

from conftest import stencil_laplacian
from fieldcast import (
    Density,
    Region,
    Scenario,
    ScenarioValidationError,
    apply,
    build_rules,
    build_target,
    certify_solution,
    constant_field,
    dipole,
    dlp_kernel,
    eval_double_layer,
    eval_field,
    eval_on_grid,
    harmonic_polynomial,
    log_source,
    make_circle_rule,
    point_source,
    radiated_field,
    zero_field,
)
from fieldcast import kernels
from fieldcast.cli import write_grid
from fieldcast.fields import GridSpec, _distance, auto_epsilon, ball_l2_norm, default_grid
from fieldcast.geometry import (SEPARATION_RTOL, harmonic_count, harmonic_degree, make_rule,
                                surface_harmonics, with_defaults)
from fieldcast.kernels import BLOCK_PAIRS
from fieldcast.operator import block_residuals

MIB = 1024 * 1024


class TestEvalField:
    def test_log_source_on_unit_circle(self):
        f = log_source((0.0, 0.0))
        assert eval_field(f, (1.0, 0.0)) == 0.0
        assert eval_field(f, (0.6, 0.8)) == pytest.approx(0.0, abs=1e-15)

    def test_point_source_at_distance_two(self):
        f = point_source((0.0, 0.0, 0.0))
        assert eval_field(f, (0.0, 0.0, 2.0)) == 0.5

    def test_dipole_closed_form_2d(self):
        f = dipole((0.0, 0.0), (1.0, 0.0))
        assert eval_field(f, (2.0, 0.0)) == 0.5  # x_1 / |x|^2
        assert eval_field(f, (0.0, 2.0)) == 0.0

    def test_near_singularity_rejected(self):
        f = log_source((1.0, 1.0))
        with pytest.raises(ValueError, match="singular"):
            eval_field(f, (1.0, 1.0 + 1e-10))

    def test_vectorized_evaluation(self):
        f = dipole((0.0, 0.0), (1.0, 0.0))
        pts = np.array([[2.0, 0.0], [0.0, 2.0], [4.0, 0.0]])
        assert np.allclose(eval_field(f, pts), [0.5, 0.0, 0.25])


class TestCatalogHarmonicity:
    CASES_2D = [
        log_source((0.3, -0.2)),
        dipole((0.0, 0.5), (0.6, -0.8)),
        constant_field(2.5),
        harmonic_polynomial({(2, 0): 1.0, (0, 2): -1.0}, 2),
        harmonic_polynomial({(3, 0): 1.0, (1, 2): -3.0}, 2),
    ]
    CASES_3D = [
        point_source((0.1, 0.0, -0.3)),
        dipole((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
        harmonic_polynomial({(1, 1, 1): 2.0}, 3),
        harmonic_polynomial({(2, 0, 0): 1.0, (0, 0, 2): -1.0}, 3),
    ]

    @pytest.mark.parametrize("field", CASES_2D)
    def test_2d_fields_pass_stencil_check(self, field):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 50:
            x = rng.uniform(-5, 5, 2)
            s = field.singularity
            if s is not None and np.linalg.norm(x - s) < 1.0:
                continue
            assert abs(stencil_laplacian(lambda p: eval_field(field, p), x)) <= 1e-6
            checked += 1

    @pytest.mark.parametrize("field", CASES_3D)
    def test_3d_fields_pass_stencil_check(self, field):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 50:
            x = rng.uniform(-4, 4, 3)
            s = field.singularity
            if s is not None and np.linalg.norm(x - s) < 1.0:
                continue
            assert abs(stencil_laplacian(lambda p: eval_field(field, p), x)) <= 1e-6
            checked += 1

    def test_non_harmonic_polynomial_rejected(self):
        with pytest.raises(ValueError, match="not harmonic"):
            harmonic_polynomial({(2, 0): 1.0}, 2)

    def test_degree_cap(self):
        with pytest.raises(ValueError, match="degree"):
            harmonic_polynomial({(4, 0): 1.0, (2, 2): -6.0, (0, 4): 1.0}, 2)


class TestBuildTarget:
    def test_log_target_blocks(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        expected = -np.log(np.linalg.norm(controls[0].nodes, axis=1))
        assert np.allclose(v.blocks[0], expected, rtol=1e-15)
        assert np.all(v.blocks[-1] == 0.0)

    def test_matching_targets_cancel(self):
        # Region 2 keeps the trace nonzero, so build_target returns it.
        f = dipole((0.0, 0.0), (1.0, 0.0))
        s = with_defaults(Scenario(
            dim=2, delta=1.0,
            regions=(Region(center=(8.0, 0.0), radius=1.5, target=f),
                     Region(center=(-8.0, 0.0), radius=1.5, target=zero_field())),
            observation_radius=15.0, exterior_target=f, epsilon=1.0))
        _, controls = build_rules(s)
        v = build_target(s, controls)
        assert np.all(v.blocks[0] == 0.0)

    def test_3d_point_source_block(self, demo3d_parts):
        s, antenna, controls, K, v = demo3d_parts
        expected = 1.0 / np.linalg.norm(controls[0].nodes, axis=1)
        assert np.allclose(v.blocks[0], expected, rtol=1e-15)

    def test_all_zero_fields_give_exactly_zero_target(self):
        s = with_defaults(Scenario(
            dim=2, delta=1.0,
            regions=(Region(center=(8.0, 0.0), radius=1.5, target=zero_field()),),
            observation_radius=15.0, exterior_target=zero_field(), epsilon=1.0))
        _, controls = build_rules(s)
        # The trace is exactly zero, so there is nothing to solve for.
        with pytest.raises(ScenarioValidationError, match="identically zero"):
            build_target(s, controls)

    def test_singularity_inside_control_ball_rejected(self):
        s = with_defaults(Scenario(
            dim=2, delta=1.0,
            regions=(Region(center=(10.0, 0.0), radius=2.0,
                            target=log_source((10.5, 0.0))),),
            observation_radius=15.0, exterior_target=zero_field(), epsilon=1.0))
        _, controls = build_rules(s)
        with pytest.raises(ValueError, match="singular inside"):
            build_target(s, controls)

    def test_growing_exterior_target_rejected_2d(self):
        s = with_defaults(Scenario(
            dim=2, delta=1.0,
            regions=(Region(center=(10.0, 0.0), radius=2.0,
                            target=dipole((0.0, 0.0), (1.0, 0.0))),),
            observation_radius=15.0,
            exterior_target=log_source((0.0, 0.0)), epsilon=1.0))
        _, controls = build_rules(s)
        with pytest.raises(ValueError, match="bounded at infinity"):
            build_target(s, controls)

    def test_nonzero_constant_exterior_target_rejected_3d(self):
        s = with_defaults(Scenario(
            dim=3, delta=1.0,
            regions=(Region(center=(10.0, 0.0, 0.0), radius=2.0,
                            target=point_source((0.0, 0.0, 0.0))),),
            observation_radius=15.0, exterior_target=constant_field(1.0),
            epsilon=1.0))
        _, controls = build_rules(s)
        with pytest.raises(ValueError, match="decay at infinity"):
            build_target(s, controls)


class TestEvalDoubleLayer:
    def test_unit_density_radiates_nothing(self):
        rule = make_circle_rule((0.0, 0.0), 1.0, 128)
        g = Density(rule=rule, values=np.ones(128))
        pts = np.array([[3.0, 0.0], [0.0, -5.0], [10.0, 10.0]])
        assert np.max(np.abs(eval_double_layer(g, pts))) <= 1e-12

    def test_linear_in_density(self):
        rule = make_circle_rule((0.0, 0.0), 1.0, 64)
        rng = np.random.default_rng(23)
        g1 = rng.normal(size=64)
        g2 = rng.normal(size=64)
        a, b = 0.7, -1.3
        pts = rng.uniform(2, 6, size=(10, 2))
        lhs = eval_double_layer(Density(rule=rule, values=a * g1 + b * g2), pts)
        rhs = a * eval_double_layer(Density(rule=rule, values=g1), pts) \
            + b * eval_double_layer(Density(rule=rule, values=g2), pts)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    def test_radiated_field_is_harmonic(self):
        rule = make_circle_rule((0.0, 0.0), 1.0, 128)
        theta = np.arctan2(rule.nodes[:, 1], rule.nodes[:, 0])
        g = Density(rule=rule, values=np.cos(theta))
        lap = stencil_laplacian(lambda p: eval_double_layer(g, p), np.array([5.0, 0.0]))
        assert abs(lap) <= 1e-6

    def test_matches_forward_operator_at_control_nodes(self, demo2d_solution):
        s, K, v, h, report = demo2d_solution
        traces = apply(K, h)
        for block, rule in zip(traces.blocks, traces.rules):
            direct = eval_double_layer(h, rule.nodes)
            assert np.max(np.abs(direct - block)) <= 1e-12 * max(1.0, np.max(np.abs(block)))

    def test_row_blocks_match_one_shot_quadrature(self):
        rule = make_circle_rule((0.0, 0.0), 1.0, 128)
        rng = np.random.default_rng(29)
        g = Density(rule=rule, values=rng.normal(size=128))
        count = 3 * (BLOCK_PAIRS // 128) + 17  # three full row blocks and a ragged one
        pts = rng.uniform(2, 6, size=(count, 2)) * rng.choice([-1.0, 1.0], size=(count, 2))
        kernel = dlp_kernel(pts[:, None, :], rule.nodes[None], rule.normals[None], 2)
        one_shot = kernel @ (rule.weights * g.values)
        blocked = eval_double_layer(g, pts)
        assert np.max(np.abs(blocked - one_shot)) <= 1e-14 * np.max(np.abs(one_shot))

    def test_peak_memory_on_many_points(self):
        rule = make_circle_rule((0.0, 0.0), 1.0, 128)
        g = Density(rule=rule, values=np.ones(128))
        pts = np.random.default_rng(31).uniform(2, 6, size=(40000, 2))
        tracemalloc.start()
        try:
            eval_double_layer(g, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * MIB

    def test_near_boundary_rejected(self):
        rule = make_circle_rule((0.0, 0.0), 1.0, 64)
        g = Density(rule=rule, values=np.ones(64))
        with pytest.raises(ValueError, match="too close"):
            eval_double_layer(g, (1.0 + 1e-9, 0.0))
        with pytest.raises(ValueError, match="too close"):
            eval_double_layer(g, (0.2, 0.0))


def _synthesized(rule, c, degree):
    """The density of coefficients c on the harmonics of degrees 1 .. degree,
    at the nodes of ``rule``."""
    dim = rule.boundary.dim
    values = surface_harmonics(rule.normals, degree) @ c
    return Density(rule=rule, values=values * rule.boundary.radius ** (-(dim - 1) / 2))


class TestRadiatedField:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_the_nystrom_oracle_far_from_the_antenna(self, dim):
        # A density with every mode its nodes carry, the ones the closed form
        # drops included: from 5 delta on, at 64 circle nodes or 24 polar
        # rings, they radiate below rounding, and the Nystrom sum is exact.
        rule = make_rule(np.zeros(dim), 0.7, 64 if dim == 2 else 24, dim)
        rng = np.random.default_rng(dim)
        g = Density(rule=rule, values=rng.normal(size=rule.node_count))
        direction = rng.normal(size=(200, dim))
        pts = rng.uniform(3.5, 20.0, size=(200, 1)) * direction / np.linalg.norm(
            direction, axis=1, keepdims=True)
        oracle = eval_double_layer(g, pts)
        assert np.max(np.abs(radiated_field(g, pts) - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_each_value_depends_on_its_point_alone(self, dim, monkeypatch):
        # One batch, blocks of 100 points, 333-point chunks and one point at a
        # time (a scalar input): the same bits, the poles and the points at
        # the far end of the radii included.
        rule = make_rule(np.zeros(dim), 0.7, 64 if dim == 2 else 12, dim)
        rng = np.random.default_rng(40 + dim)
        g = Density(rule=rule, values=rng.normal(size=rule.node_count))
        direction = rng.normal(size=(715, dim))
        direction[:2] = np.eye(dim)[-1] * np.array([[1.0], [-1.0]])
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        pts = 0.7 * rng.uniform(1.01, 50.0, size=(715, 1)) * direction
        batch = radiated_field(g, pts).tobytes()
        chunks = np.concatenate([radiated_field(g, pts[i: i + 333]) for i in range(0, 715, 333)])
        single = np.array([radiated_field(g, point) for point in pts])
        monkeypatch.setattr(kernels, "BLOCK_PAIRS", 800)   # blocks of 100 points
        assert radiated_field(g, pts).tobytes() == batch
        assert chunks.tobytes() == batch
        assert single.tobytes() == batch

    @pytest.mark.parametrize("dim", [2, 3])
    def test_unit_density_radiates_nothing(self, dim):
        rule = make_rule(np.zeros(dim), 1.0, 32 if dim == 2 else 8, dim)
        g = Density(rule=rule, values=np.ones(rule.node_count))
        pts = np.eye(dim)[:2] * np.array([[1.01], [5.0]])
        assert np.max(np.abs(radiated_field(g, pts))) <= 1e-14

    def test_one_point_gives_a_float(self):
        rule = make_circle_rule((0.0, 0.0), 1.0, 32)
        g = _synthesized(rule, np.eye(30)[0], 15)  # cos(theta) / sqrt(pi)
        value = radiated_field(g, (2.0, 0.0))
        assert isinstance(value, float)
        assert value == pytest.approx(0.5 * 0.5 / np.sqrt(np.pi), rel=1e-14)

    def test_inside_the_clearance_rejected(self):
        rule = make_circle_rule((0.0, 0.0), 1.0, 64)
        g = Density(rule=rule, values=np.ones(64))
        with pytest.raises(ValueError, match="too close"):
            radiated_field(g, (1.0 + 1e-9, 0.0))
        with pytest.raises(ValueError, match="too close"):
            radiated_field(g, (0.2, 0.0))


class TestEvalOnGrid:
    def test_empty_grid(self, demo2d_solution):
        s, K, v, h, report = demo2d_solution
        grid = eval_on_grid(h, s, GridSpec(shape=(0, 0), lo=(-1, -1), hi=(1, 1)))
        assert grid.points.shape[0] == 0

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4)])
    def test_points_and_distances_match_the_broadcast_forms(self, shape):
        spec = GridSpec(shape=shape, lo=(-1.5, -2.0, 0.25)[: len(shape)],
                        hi=(2.5, 3.0, 7.0)[: len(shape)])
        axes = [np.linspace(lo, hi, n) for n, lo, hi in zip(spec.shape, spec.lo, spec.hi)]
        reference = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
        points = spec.points()
        assert points.shape == reference.shape and points.tobytes() == reference.tobytes()
        rng = np.random.default_rng(37)
        pts = rng.normal(scale=10.0, size=(1000, len(shape)))
        center = rng.normal(size=len(shape))
        assert (_distance(pts, center).tobytes()
                == np.linalg.norm(pts - center, axis=-1).tobytes())

    def test_peak_memory_per_point(self, demo2d_solution):
        # The returned columns take 48 bytes a point (two coordinates, three
        # fields and a label reference); at its peak the evaluation holds at
        # most 32 more, counted by tracemalloc from a 100^2 to a 300^2 grid.
        s, h = demo2d_solution[0], demo2d_solution[3]

        def traced_peak(n):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                eval_on_grid(h, s, default_grid(s, (n, n)))
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert traced_peak(300) - traced_peak(100) <= 80 * (300**2 - 100**2)

    def test_labels_and_masks(self, demo2d_solution):
        s, K, v, h, report = demo2d_solution
        spec = GridSpec(shape=(41, 41), lo=(-18.0, -18.0), hi=(18.0, 18.0))
        grid = eval_on_grid(h, s, spec)
        labels = np.array(grid.labels)
        # No point inside the clearance the closed form demands survives.
        assert np.min(np.linalg.norm(grid.points, axis=1)) >= s.delta * (1.0 + SEPARATION_RTOL)
        assert {"region-1", "region-2", "exterior", "annulus"} <= set(labels)
        # Region labels match geometry.
        sel = labels == "region-1"
        assert np.all(np.linalg.norm(grid.points[sel] - s.regions[0].center, axis=1)
                      <= s.regions[0].radius)
        # Mismatch defined exactly where a target exists.
        has_target = np.isin(labels, ["region-1", "region-2", "exterior"])
        assert np.all(np.isfinite(grid.mismatch[has_target]))
        assert np.all(np.isnan(grid.mismatch[labels == "annulus"]))

    @pytest.mark.parametrize("preset, nodes, shape", [
        ("demo2d", 32, (8, 11)), ("demo3d", 12, (8, 7, 7)),
    ], ids=["2d", "3d"])
    def test_grid_near_the_antenna_matches_a_refined_nystrom_sum(self, request, preset, nodes,
                                                                 shape):
        # Grid points from 1.15 to 1.5 delta, where the Nystrom sum at the
        # density's own nodes misses by a tenth of the largest value or more,
        # against the Nystrom sum of the same coefficients on a rule of 8x
        # the nodes; nearer the antenna that sum itself misses by over 1e-9.
        s = request.getfixturevalue(preset)
        dim = s.dim
        coarse = make_rule(np.zeros(dim), s.delta, nodes, dim)
        degree = harmonic_degree(coarse)
        c = np.random.default_rng(nodes).normal(size=harmonic_count(degree, dim))
        half = 0.45 * s.delta
        spec = GridSpec(shape=shape, lo=(1.15 * s.delta, *(-half,) * (dim - 1)),
                        hi=(1.5 * s.delta, *(half,) * (dim - 1)))
        grid = eval_on_grid(_synthesized(coarse, c, degree), s, spec)
        assert grid.points.shape == spec.points().shape
        fine = _synthesized(make_rule(np.zeros(dim), s.delta, 8 * nodes, dim), c, degree)
        oracle = eval_field(s.exterior_target, grid.points) + eval_double_layer(fine, grid.points)
        assert np.max(np.abs(grid.values - oracle)) <= 1e-9 * np.max(np.abs(grid.values))

    def test_exterior_grid_bounded_by_certificate(self, demo2d_solution):
        s, K, v, h, report = demo2d_solution
        cert = certify_solution(block_residuals(K, h, v), s)
        spec = GridSpec(shape=(25, 25), lo=(15.5, 15.5), hi=(40.0, 40.0))
        grid = eval_on_grid(h, s, spec)
        assert set(grid.labels) == {"exterior"}
        # Exterior target is zero, so the mismatch column is |radiated field|.
        assert np.max(grid.mismatch) <= cert[-1].bound_conservative

    def test_singular_target_point_dropped_not_fatal(self):
        # A grid point sitting on a field's singularity is dropped; the rest
        # of the grid still evaluates.
        s = with_defaults(Scenario(
            dim=2, delta=1.0,
            regions=(Region(center=(10.0, 0.0), radius=2.0,
                            target=dipole((0.0, 0.0), (1.0, 0.0))),),
            observation_radius=15.0,
            exterior_target=dipole((3.0, 3.0), (0.0, 1.0)), epsilon=1.0))
        rule = make_circle_rule((0.0, 0.0), 1.0, 32)
        g = Density(rule=rule, values=np.ones(32))
        spec = GridSpec(shape=(3, 3), lo=(3.0, 3.0), hi=(5.0, 5.0))
        grid = eval_on_grid(g, s, spec)
        assert np.array_equal(grid.points, spec.points()[1:])  # all but (3, 3)
        assert np.all(np.isfinite(grid.values))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_export_format(self, demo2d_solution, demo3d, dim, tmp_path):
        if dim == 2:
            s, h = demo2d_solution[0], demo2d_solution[3]
        else:
            rule = make_rule(np.zeros(3), demo3d.delta, 12, 3)
            s, h = demo3d, Density(rule=rule, values=np.ones(rule.node_count))
        # Nine points per axis put an exact 0.0 among the coordinates.
        grid = eval_on_grid(h, s, default_grid(s, (9,) * dim))
        assert np.any(grid.points == 0.0)
        path = tmp_path / "grid.tsv"
        write_grid(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "format-version: 1"
        assert lines[1].split("\t") == [*"xyz"[:dim], "total", "target", "mismatch", "label"]
        assert len(lines) == 2 + grid.points.shape[0]
        # Every number is its float's repr and reads back with float(), NaN
        # where a column is undefined.
        rows = [line.split("\t") for line in lines[2:]]
        expected = np.column_stack([grid.points, grid.values, grid.target, grid.mismatch])
        assert np.isnan(expected).any()
        assert [row[:-1] for row in rows] == [list(map(repr, r)) for r in expected.tolist()]
        numbers = np.array([[float(f) for f in row[:-1]] for row in rows])
        np.testing.assert_array_equal(numbers, expected)
        assert tuple(row[-1] for row in rows) == grid.labels


class TestAutoEpsilon:
    def test_matches_monte_carlo_volume_norms(self, demo2d):
        # Independent oracle: Monte-Carlo volume integrals of the squared
        # targets over each target ball (exterior target is zero here).
        rng = np.random.default_rng(99)
        total = 0.0
        for r in demo2d.regions:
            pts = r.center + r.radius * rng.uniform(-1, 1, size=(400000, 2))
            inside = np.linalg.norm(pts - r.center, axis=1) <= r.radius
            vals = eval_field(r.target, pts[inside])
            area = np.pi * r.radius**2
            total += np.sqrt(np.mean(vals**2) * area)
        assert float(demo2d.epsilon) == pytest.approx(1e-3 * total, rel=2e-2)

    def test_shell_quadrature_is_converged(self, demo2d):
        f = demo2d.regions[0].target
        r = demo2d.regions[0]
        a = ball_l2_norm(f, r.center, r.radius, 2, n_shells=16)
        b = ball_l2_norm(f, r.center, r.radius, 2, n_shells=32)
        assert a == pytest.approx(b, rel=1e-12)

    def test_resolve_epsilon_replaces_auto(self, demo2d):
        assert isinstance(demo2d.epsilon, float)
        assert demo2d.epsilon == pytest.approx(auto_epsilon(demo2d), rel=1e-12)
