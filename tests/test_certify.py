"""Sup-norm bound arithmetic and empirical certificate soundness."""

import numpy as np
import pytest

from conftest import FEASIBLE_EPS_2D, FEASIBLE_EPS_3D
from fieldcast import (
    Density,
    Region,
    Scenario,
    apply,
    certify_solution,
    solve_min_energy,
    zero_field,
)
from fieldcast.certify import empirical_mismatches, sample_on_sphere
from fieldcast.cli import EMPIRICAL_SAMPLES
from fieldcast.fields import eval_double_layer, scenario_difference_fields
from fieldcast.geometry import make_rule
from fieldcast.operator import block_residuals


def _certify(a, a_prime, r_prime, r, dim, region_mismatch=1.0, exterior_mismatch=1.0):
    """The certificate of one region (ball radius a, control radius a') with outer
    control radius r' and observation radius r; the region is unvalidated,
    so its radii alone set the bounds."""
    s = Scenario(
        dim=dim,
        delta=1.0,
        regions=(Region(center=(10.0,) + (0.0,) * (dim - 1), radius=a,
                        control_radius=a_prime, target=zero_field()),),
        observation_radius=r,
        exterior_target=zero_field(),
        epsilon=1.0,
        outer_control_radius=r_prime,
    )
    return certify_solution([region_mismatch, exterior_mismatch], s)


def _interior(m, a, a_prime, dim):
    return _certify(a, a_prime, 13.0, 15.0, dim, region_mismatch=m)[0]


def _exterior(m, r_prime, r, dim):
    return _certify(2.0, 2.5, r_prime, r, dim, exterior_mismatch=m)[-1]


class TestBoundArithmetic:
    def test_zero_mismatch_zero_bound(self):
        assert _interior(0.0, 2.0, 2.5, 2).bound_conservative == 0.0
        assert _exterior(0.0, 13.0, 15.0, 3).bound_conservative == 0.0

    def test_interior_constant_2d(self):
        # (a'+a) / (|B_1| a' (a'-a)) with |B_1| = pi: 4.5 / (pi*2.5*0.5)
        m = 0.37
        entry = _interior(m, 2.0, 2.5, 2)
        c = entry.constant_conservative
        assert c == pytest.approx(4.5 / (np.pi * 2.5 * 0.5), rel=1e-15)
        assert c == pytest.approx(1.1459155902616464, rel=1e-12)
        assert entry.bound_conservative == pytest.approx(c * np.sqrt(5 * np.pi) * m, rel=1e-15)

    def test_interior_constant_3d(self):
        # 5 / ((4 pi / 3) * 3 * 1)
        c = _interior(1.0, 2.0, 3.0, 3).constant_conservative
        assert c == pytest.approx(5.0 / ((4 * np.pi / 3) * 3.0), rel=1e-15)
        assert c == pytest.approx(0.39788735772973843, rel=1e-12)

    def test_exterior_constant_2d(self):
        # (r+r') / (|B_1| r' (r-r')): 28 / (pi*13*2)
        c = _exterior(1.0, 13.0, 15.0, 2).constant_conservative
        assert c == pytest.approx(28.0 / (np.pi * 13.0 * 2.0), rel=1e-15)
        assert c == pytest.approx(0.3427952620440822, rel=1e-12)

    def test_exterior_gap_doubling_shrinks_bound_3d(self):
        tight = _exterior(1.0, 2.0, 3.0, 3).bound_conservative   # gap 1
        loose = _exterior(1.0, 2.0, 4.0, 3).bound_conservative   # gap 2
        assert loose < tight
        # The squared-gap term alone would divide by 4; the numerator
        # growth makes the drop slightly less than 4x.
        assert tight / loose == pytest.approx(4 * 5 / 6, rel=1e-12)

    def test_homogeneity_in_mismatch(self):
        m = 0.123
        assert (_interior(2 * m, 2.0, 2.5, 2).bound_conservative
                == 2 * _interior(m, 2.0, 2.5, 2).bound_conservative)
        assert (_exterior(2 * m, 13.0, 15.0, 3).bound_conservative
                == 2 * _exterior(m, 13.0, 15.0, 3).bound_conservative)

    def test_blowup_as_gap_closes(self):
        gaps = [0.5, 0.2, 0.05, 0.01, 0.001]
        bounds = [_interior(1.0, 2.0, 2.0 + g, 3).bound_conservative for g in gaps]
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
        assert bounds[-1] > 1e5 * bounds[0]

    def test_degenerate_radii_rejected(self):
        with pytest.raises(ValueError):
            _interior(1.0, 2.5, 2.0, 2)
        with pytest.raises(ValueError):
            _exterior(1.0, 15.0, 13.0, 2)
        with pytest.raises(ValueError, match="nonnegative"):
            _interior(-1.0, 2.0, 2.5, 2)


class TestCertifySolution:
    def test_exact_data_gives_vanishing_bounds(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        rng = np.random.default_rng(5)
        h = Density(rule=antenna, values=rng.normal(size=antenna.node_count))
        exact_v = apply(K, h)
        cert = certify_solution(block_residuals(K, h, exact_v), s)
        scale = exact_v.norm()
        for entry in cert:
            assert entry.bound_conservative <= 1e-9 * scale

    def test_certificate_structure(self, demo2d_solution):
        s, K, v, h, report = demo2d_solution
        cert = certify_solution(block_residuals(K, h, v), s)
        assert len(cert[:-1]) == 2
        for entry in cert:
            assert entry.bound_conservative >= 0
            assert entry.bound_conservative == pytest.approx(
                entry.constant_conservative * entry.l1_factor * entry.mismatch_l2,
                rel=1e-15,
            )
        # Residuals feeding the certificate are the solve's block residuals.
        for entry, res in zip(cert, report.block_residuals):
            assert entry.mismatch_l2 == pytest.approx(res, rel=1e-12)

    def test_rejects_wrong_residual_count(self, demo2d_solution):
        s, K, v, h, report = demo2d_solution
        residuals = report.block_residuals
        for wrong in (residuals[:-1], residuals + (0.0,)):
            with pytest.raises(ValueError, match="residual norms"):
                certify_solution(wrong, s)

    def test_solved_density_within_bounds(self, demo2d_solution):
        s, K, v, h, report = demo2d_solution
        cert = certify_solution(block_residuals(K, h, v), s)
        rng = np.random.default_rng(s.seed)
        maxima = empirical_mismatches(
            h, scenario_difference_fields(s), s, rng, n_samples=500
        )
        for entry, observed in zip(cert, maxima):
            assert observed <= entry.bound_conservative

    @pytest.mark.parametrize("parts", ["demo2d_parts", "demo3d_parts"])
    def test_random_densities_never_beat_their_bounds(self, parts, request):
        # Soundness does not depend on the density being a solution.  200
        # densities x 100 sphere points per boundary, where each sup lies.
        s, antenna, controls, K, v = request.getfixturevalue(parts)
        rng = np.random.default_rng(71)
        fields = scenario_difference_fields(s)
        for _ in range(200):
            h = Density(rule=antenna, values=rng.normal(size=antenna.node_count))
            cert = certify_solution(block_residuals(K, h, v), s)
            maxima = empirical_mismatches(h, fields, s, rng, n_samples=100)
            for entry, observed in zip(cert, maxima):
                assert observed <= entry.bound_conservative


class TestSampling:
    @pytest.mark.parametrize("center", [(1.0, -2.0), (1.0, -2.0, 3.0)], ids=["2d", "3d"])
    def test_sphere_samples_lie_on_the_sphere(self, center):
        radius = 1.5
        pts = sample_on_sphere(np.random.default_rng(1), center, radius, len(center), 1000)
        assert pts.shape == (1000, len(center))
        distance = np.linalg.norm(pts - np.array(center), axis=1)
        assert np.max(np.abs(distance - radius)) <= 1e-14 * radius

    @pytest.mark.parametrize("parts, epsilon, n", [
        ("demo2d_parts", FEASIBLE_EPS_2D, 256), ("demo3d_parts", FEASIBLE_EPS_3D, 64),
    ], ids=["2d", "3d"])
    def test_demo_sampled_max_reaches_the_sphere_max(self, request, parts, epsilon, n):
        # The report's probes (the preset's seed, EMPIRICAL_SAMPLES per sphere)
        # against the maximum over a dense rule on the same sphere: 256 circle
        # nodes, or 64 polar nodes.
        s, antenna, controls, K, v = request.getfixturevalue(parts)
        h, _ = solve_min_energy(K, v, epsilon)
        fields = scenario_difference_fields(s)
        sampled = empirical_mismatches(h, fields, s, np.random.default_rng(s.seed),
                                       EMPIRICAL_SAMPLES)
        spheres = [(r.center, r.radius) for r in s.regions] + [((0.0,) * s.dim,
                                                               s.observation_radius)]
        for observed, wanted, (center, radius) in zip(sampled, fields, spheres, strict=True):
            pts = make_rule(center, radius, n, s.dim).nodes
            dense = float(np.max(np.abs(eval_double_layer(h, pts) - wanted(pts))))
            assert observed == pytest.approx(dense, rel=0.01)
