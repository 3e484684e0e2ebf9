"""Fundamental solution, layer kernels, and the Poisson Dirichlet oracles."""

import numpy as np
import pytest

from conftest import stencil_laplacian
from fieldcast import kernels
from fieldcast.geometry import UNIT_SPHERE_MEASURE
from fieldcast.kernels import dlp_kernel
from oracles import adjoint_kernel, make_circle_rule, make_sphere_rule, phi, poisson_solve


def _rows_with_last_coincident():
    """x (5, 1, 3), y (1, 4, 3), normals (1, 4, 3); only x[-1] nears a y."""
    rng = np.random.default_rng(3)
    y = np.vstack([rng.normal(size=(3, 3)), [[1e6 + 1e-7, 0.0, 0.0]]])[None]
    x = np.vstack([10.0 + rng.normal(size=(4, 3)), [[1e6, 0.0, 0.0]]])[:, None]
    nu = rng.normal(size=(1, 4, 3))
    return x, y, nu


class TestRowBlocks:
    @pytest.mark.parametrize("m, n", [(384, 128), (2304, 1152), (5, 10**6), (1, 1)])
    def test_cover_every_row_once_within_the_pair_budget(self, m, n):
        blocks = kernels.row_blocks(m, n)
        rows = np.concatenate([np.arange(m)[b] for b in blocks])
        assert np.array_equal(rows, np.arange(m))
        assert all((b.stop - b.start) * n <= max(n, kernels.BLOCK_PAIRS) for b in blocks)


class TestPhi:
    def test_unit_distance_2d_is_zero(self):
        assert phi((1.0, 0.0), (0.0, 0.0), 2) == 0.0

    def test_unit_distance_3d(self):
        assert phi((0.0, 0.0, 1.0), (0.0, 0.0, 0.0), 3) == pytest.approx(
            1.0 / (4 * np.pi), rel=1e-15, abs=0
        )

    def test_log_inversion_2d(self):
        x = (np.exp(-2 * np.pi), 0.0)
        assert phi(x, (0.0, 0.0), 2) == pytest.approx(1.0, rel=1e-14, abs=0)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError, match="coincident"):
            phi((1.0, 2.0), (1.0, 2.0), 2)
        with pytest.raises(ValueError, match="coincident"):
            phi((1.0, 2.0, 3.0), (1.0, 2.0, 3.0 + 1e-14), 3)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_harmonic_in_x(self, dim):
        rng = np.random.default_rng(31 + dim)
        y = np.zeros(dim)
        for _ in range(20):
            x = rng.normal(size=dim)
            x *= (1.0 + 2.0 * rng.uniform()) / np.linalg.norm(x)  # |x - y| in [1, 3]
            lap = stencil_laplacian(lambda p: phi(p, y, dim), x)
            assert abs(lap) <= 1e-6


class TestDlpKernel:
    def test_perpendicular_direction_vanishes(self):
        assert dlp_kernel((0.0, 1.0), (0.0, 0.0), (1.0, 0.0), 2) == 0.0

    def test_collinear_2d_value(self):
        # (x-y).nu / (2 pi |x-y|^2) = 2 / (2 pi * 4) = 1/(4 pi)
        val = dlp_kernel((3.0, 0.0), (1.0, 0.0), (1.0, 0.0), 2)
        assert val == pytest.approx(1.0 / (4 * np.pi), rel=1e-15, abs=0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_gauss_identity_by_quadrature(self, dim):
        # Unit density integrates to -1 inside the boundary, 0 outside,
        # evaluated at points separated by at least half a radius.
        if dim == 2:
            rule = make_circle_rule((1.0, -2.0), 2.0, 128)
            inside = [np.array([1.0, -2.0]), np.array([1.6, -2.6])]
            outside = [np.array([6.0, 0.0]), np.array([1.0, 1.1])]
        else:
            rule = make_sphere_rule((0.0, 1.0, 0.0), 2.0, 24, 48)
            inside = [np.array([0.0, 1.0, 0.0]), np.array([0.5, 1.5, 0.0])]
            outside = [np.array([0.0, 6.0, 0.0]), np.array([3.5, 1.0, 0.0])]
        for x in inside:
            total = np.sum(dlp_kernel(x, rule.nodes, rule.normals, dim) * rule.weights)
            assert total == pytest.approx(-1.0, abs=1e-10)
        for x in outside:
            total = np.sum(dlp_kernel(x, rule.nodes, rule.normals, dim) * rule.weights)
            assert abs(total) <= 1e-10

    def test_coincident_pair_in_last_row_rejected(self):
        # Broadcast (m, 1, dim) x (1, n, dim) with one near-coincident pair,
        # in the last row only; its |x| of 1e6 sets the relative threshold.
        x, y, nu = _rows_with_last_coincident()
        assert np.all(np.isfinite(dlp_kernel(x[:-1], y, nu, 3)))
        with pytest.raises(ValueError, match="coincident"):
            dlp_kernel(x, y, nu, 3)


class TestAdjointKernel:
    def test_role_swap_symmetry(self):
        rng = np.random.default_rng(5)
        for dim in (2, 3):
            for _ in range(10):
                x = rng.normal(size=dim)
                y = x + 2.0 * rng.normal(size=dim)
                nu = rng.normal(size=dim)
                nu /= np.linalg.norm(nu)
                assert adjoint_kernel(x, nu, y, dim) == pytest.approx(
                    dlp_kernel(y, x, nu, dim), rel=1e-14, abs=1e-16
                )

    def test_coincident_pair_in_last_row_rejected(self):
        x, y, nu = _rows_with_last_coincident()
        assert np.all(np.isfinite(adjoint_kernel(x[:-1], nu, y, 3)))
        with pytest.raises(ValueError, match="coincident"):
            adjoint_kernel(x, nu, y, 3)

    def test_perpendicular_vanishes(self):
        assert adjoint_kernel((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (2.0, 0.0, 0.0), 3) == 0.0

    def test_matches_finite_difference_of_phi(self):
        # Independent oracle: central difference of phi along nu_x.
        rng = np.random.default_rng(17)
        step = 1e-5
        for _ in range(25):
            x = rng.normal(size=3)
            y = x + rng.normal(size=3) * 2.0 + np.array([2.5, 0.0, 0.0])
            nu = rng.normal(size=3)
            nu /= np.linalg.norm(nu)
            fd = (phi(x + step * nu, y, 3) - phi(x - step * nu, y, 3)) / (2 * step)
            assert adjoint_kernel(x, nu, y, 3) == pytest.approx(fd, abs=1e-8)


class TestPoissonSolve:
    def test_constant_data_interior(self):
        rule = make_circle_rule((0.0, 0.0), 3.0, 128)
        data = np.ones(rule.node_count)
        for x in [(0.0, 0.0), (1.0, 0.5), (-1.2, 0.3)]:
            assert poisson_solve(rule, data, x, "interior") == pytest.approx(1.0, abs=1e-12)

    def test_center_value_equals_quadrature_mean(self):
        rule = make_sphere_rule((1.0, 0.0, 0.0), 2.0, 16, 32)
        rng = np.random.default_rng(2)
        data = rng.normal(size=rule.node_count)
        mean = rule.integrate(data) / (4 * np.pi * 4.0)
        center = poisson_solve(rule, data, (1.0, 0.0, 0.0), "interior")
        assert center == pytest.approx(mean, rel=1e-14, abs=1e-16)

    def test_harmonic_polynomial_reproduction_interior_2d(self):
        # Interior points kept within half the data radius: the quadrature
        # of the analytic kernel is spectrally accurate there.
        rule = make_circle_rule((0.0, 0.0), 2.0, 128)
        data = rule.nodes[:, 0]  # the degree-1 harmonic y_1
        for x in [(0.3, 0.1), (-0.8, 0.5), (0.0, 0.9)]:
            assert poisson_solve(rule, data, x, "interior") == pytest.approx(x[0], abs=1e-12)

    def test_exterior_constant_3d_decays_like_inverse_radius(self):
        rule = make_sphere_rule((0.0, 0.0, 0.0), 2.0, 24, 48)
        data = np.ones(rule.node_count)
        val = poisson_solve(rule, data, (4.0, 0.0, 0.0), "exterior")
        assert val == pytest.approx(0.5, abs=1e-10)

    def test_exterior_constant_2d_is_constant(self):
        rule = make_circle_rule((0.0, 0.0), 2.0, 128)
        data = np.ones(rule.node_count)
        for x in [(5.0, 0.0), (0.0, -7.0), (30.0, 10.0)]:
            assert poisson_solve(rule, data, x, "exterior") == pytest.approx(1.0, abs=1e-11)

    def test_on_boundary_and_wrong_side_rejected(self):
        rule = make_circle_rule((0.0, 0.0), 2.0, 64)
        data = np.ones(rule.node_count)
        with pytest.raises(ValueError, match="on the data sphere"):
            poisson_solve(rule, data, (2.0, 0.0), "interior")
        with pytest.raises(ValueError, match="interior"):
            poisson_solve(rule, data, (3.0, 0.0), "interior")
        with pytest.raises(ValueError, match="exterior"):
            poisson_solve(rule, data, (1.0, 0.0), "exterior")
        with pytest.raises(ValueError, match="side"):
            poisson_solve(rule, data, (1.0, 0.0), "above")
