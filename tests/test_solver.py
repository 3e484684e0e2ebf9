"""Tikhonov filtering, discrepancy matching, and minimal-energy optimality."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (FEASIBLE_EPS_2D, FEASIBLE_EPS_3D, block_harmonics, scalar_match,
                      scenario_rules, tikhonov_floor, trace_of)
from fieldcast import (
    Discretization,
    ForwardOperator,
    InfeasibleAccuracyError,
    Region,
    Scenario,
    assemble_forward,
    build_rules,
    build_target,
    log_source,
    solve_min_energy,
    sweep_alpha,
    sweep_epsilon,
    weighted_svd,
    with_defaults,
    zero_field,
)
from fieldcast import solver
from fieldcast.solver import rank_above_cutoff, residual_floor
from oracles import ControlTrace, apply, apply_adjoint, make_circle_rule, nodal


def _random_instance(rng, n_antenna=6, n_control=10, target_in_range=True):
    """Small synthetic operator: a random matrix on the genuine antenna and
    control circles, one row per harmonic the control circle resolves, and a
    target of coefficients in those rows and a squared norm outside them:
    in the column span but for noise of 1e-3, or at random."""
    antenna = make_circle_rule((0.0, 0.0), 1.0, n_antenna)
    control = make_circle_rule((8.0, 0.0), 2.0, n_control)
    genuine = assemble_forward(antenna.boundary, [control.boundary])
    K = ForwardOperator(
        matrix=rng.normal(size=genuine.matrix.shape),
        antenna=genuine.antenna,
        controls=genuine.controls,
    )
    m, columns = K.matrix.shape
    if target_in_range:
        y = K.matrix @ rng.normal(size=columns) + 1e-3 * rng.normal(size=m)
        v = trace_of(K, y, [(1e-3 * rng.normal()) ** 2])
    else:
        v = trace_of(K, rng.normal(size=m), [rng.normal() ** 2])
    return K, v


def _synthesized(K, v, controls):
    """v's coefficients synthesized at the nodes of the control rules
    ``controls`` (``block_harmonics``)."""
    y, _ = K.trace_coefficients(v)
    blocks = []
    for rule, rows in zip(controls, K.block_rows):
        harmonics = block_harmonics(K, rule, rows)
        blocks.append(harmonics @ y[rows][: harmonics.shape[1]])
    return ControlTrace(blocks=blocks, rules=controls)


def _dense_normal_solve(K, v, alpha):
    """Oracle: solve (alpha I + C^T C) c = C^T y directly, y the target's
    coefficients, and return the density's coefficients c."""
    C = K.matrix
    y, _ = K.trace_coefficients(v)
    lhs = alpha * np.eye(C.shape[1]) + C.T @ C
    return np.linalg.solve(lhs, C.T @ y)


def _qp_oracle_energy(K, v, disc_target):
    """Brute-force minimal-energy oracle for a matched residual norm.

    Works on the matrix through an eigendecomposition of the normal matrix
    (no SVD of the operator), with the target's coefficients and what of
    it they leave out added to every residual: scans
    1e4 log-spaced Lagrange multipliers to bracket the residual target, then
    bisects the bracket so the comparison is limited by neither grid nor
    root tolerance.  The basis is orthonormal, so the energy is the
    coefficient norm.
    """
    B = K.matrix
    b, outside = K.trace_coefficients(v)
    outside_sq = float(np.sum(outside))
    lam, Q = np.linalg.eigh(B.T @ B)
    rhs = Q.T @ (B.T @ b)

    def solve_at(mu):
        coeff = rhs / (mu + lam)
        h_tilde = Q @ coeff
        res = B @ h_tilde - b
        return math.sqrt(float(res @ res) + outside_sq), float(np.linalg.norm(h_tilde))

    mus = np.geomspace(1e-16 * lam[-1], 1e6 * lam[-1], 10000)
    discs = np.array([solve_at(mu)[0] for mu in mus])
    idx = int(np.searchsorted(discs, disc_target))
    lo, hi = mus[max(idx - 1, 0)], mus[min(idx, len(mus) - 1)]
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        d, _ = solve_at(mid)
        if abs(d - disc_target) <= 1e-12 * disc_target:
            break
        if d > disc_target:
            hi = mid
        else:
            lo = mid
    return solve_at(mid)[1]


class TestTikhonovSolve:
    def test_zero_target_gives_zero_density(self):
        rng = np.random.default_rng(1)
        K, _ = _random_instance(rng)
        zero = trace_of(K, np.zeros(K.matrix.shape[0]))
        for alpha, disc, energy in sweep_alpha(K, zero, [1e-8, 1.0, 1e8]):
            assert disc == 0.0
            assert energy == 0.0

    def test_huge_alpha_collapses_solution(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        sigma1 = weighted_svd(K).sigma[0]
        ((_, disc, energy),) = sweep_alpha(K, v, [1e12 * sigma1**2])
        assert energy <= 1e-10 * v.norm() / sigma1
        assert disc == pytest.approx(v.norm(), rel=1e-8, abs=0)

    def test_matches_dense_normal_equations(self):
        rng = np.random.default_rng(2)
        K, v = _random_instance(rng)
        floor = residual_floor(K, v)
        for t in (0.01, 0.1, 0.5, 0.9):
            h, report = solve_min_energy(K, v, floor + t * (v.norm() - floor))
            oracle = _dense_normal_solve(K, v, report.alpha_star)
            scale = max(np.max(np.abs(oracle)), 1e-30)
            assert np.max(np.abs(h.coefficients - oracle)) <= 1e-10 * scale


class TestSolveMinEnergy:
    def test_degenerate_epsilon_returns_zero_density(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        h, report = solve_min_energy(K, v, 2.0 * v.norm())
        assert report.degenerate
        assert h.norm() == 0.0
        assert report.energy == 0.0
        assert report.discrepancy == pytest.approx(v.norm(), rel=1e-15, abs=0)
        assert report.alpha_star == math.inf

    def test_feasible_solve_matches_budget(self, demo2d_solution):
        s, K, v, h, report = demo2d_solution
        assert not report.degenerate
        assert abs(report.discrepancy - report.epsilon) <= 1e-3 * report.epsilon
        assert report.alpha_star > 0
        assert math.isfinite(report.energy)
        assert len(report.block_residuals) == 3

    @pytest.mark.parametrize("parts, eps", [("demo2d_parts", FEASIBLE_EPS_2D),
                                            ("demo3d_parts", FEASIBLE_EPS_3D)])
    def test_discrepancy_matches_block_residuals(self, request, parts, eps):
        # The discrepancy is computed in the SVD basis, the block residuals
        # by applying K directly; both are the norm of the same residual.
        s, antenna, controls, K, v = request.getfixturevalue(parts)
        h, report = solve_min_energy(K, v, eps)
        direct = math.sqrt(sum(r**2 for r in report.block_residuals))
        assert report.discrepancy == pytest.approx(direct, rel=1e-10, abs=0)
        # The energy comes from the filtered singular coefficients, the
        # density norm from its coefficients Vt^T of them; vt's orthonormal
        # rows make them agree.
        assert report.energy == pytest.approx(h.norm(), rel=1e-12, abs=0)

    def test_stationarity_of_returned_density(self, demo2d_solution):
        # The regularized normal equations hold at the returned strength.
        s, K, v, h, report = demo2d_solution
        antenna, controls = scenario_rules(s)
        g, target = nodal(h, antenna), _synthesized(K, v, controls)
        residual_trace = ControlTrace(
            [a - b for a, b in zip(apply(controls, g).blocks, target.blocks)], controls)
        grad = apply_adjoint(antenna, residual_trace).values + report.alpha_star * g.values
        grad_norm = antenna.l2_norm(grad)
        ref = apply_adjoint(antenna, target).norm()
        assert grad_norm <= 1e-8 * ref

    def test_energy_monotone_in_epsilon(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        floor = residual_floor(K, v)
        ladder = floor * np.array([1.02, 1.08, 1.2, 1.35, 1.55])
        assert ladder[-1] < v.norm()
        energies = [solve_min_energy(K, v, eps)[1].energy for eps in ladder]
        for tight, loose in zip(energies, energies[1:]):
            assert loose <= tight * (1 + 1e-12)

    def test_epsilon_below_floor_raises(self, demo2d_parts):
        # The literature-scaled budget of this scenario sits far below the
        # residual floor set by the control-sphere gap; the solver must
        # refuse rather than silently under-deliver.
        s, antenna, controls, K, v = demo2d_parts
        assert float(s.epsilon) < residual_floor(K, v)
        with pytest.raises(InfeasibleAccuracyError, match="residual floor"):
            solve_min_energy(K, v, float(s.epsilon))

    def test_zero_target_rejected(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        zero = trace_of(K, np.zeros(K.matrix.shape[0]))
        with pytest.raises(ValueError, match="identically zero"):
            solve_min_energy(K, zero, 1.0)

    def test_synthetic_epsilon_halving_does_not_lower_energy(self):
        rng = np.random.default_rng(21)
        K, v = _random_instance(rng, target_in_range=True)
        eps = 0.3 * v.norm()
        _, loose = solve_min_energy(K, v, eps)
        _, tight = solve_min_energy(K, v, eps / 2.0)
        assert tight.energy >= loose.energy * (1 - 1e-12)


class TestResidualFloor:
    def test_doubling_node_counts_keeps_the_2d_floor(self, demo2d_parts):
        # The floor is set by the geometry (the control-sphere gap), not by
        # the resolution: at twice the nodes it stays put to 1e-9.
        s, _, _, K, v = demo2d_parts
        d = s.discretization
        fine = replace(s, discretization=Discretization(2 * d.antenna, 2 * d.control))
        antenna, controls = build_rules(fine)
        fine_floor = residual_floor(assemble_forward(antenna, controls),
                                    build_target(fine, controls))
        assert fine_floor == pytest.approx(residual_floor(K, v), rel=1e-9, abs=0)

    def test_floor_is_the_tikhonov_residual_of_r(self):
        # Two log sources and an antenna sized to the geometry (324 x 70):
        # summed from the singular coefficients alone, the floor lies 2.8e-10
        # below that of a Householder QR of [C; sqrt(alpha) I], which moves by
        # about 1e-15 under roundings of C; from R it agrees to 1e-14.
        s = with_defaults(Scenario(
            dim=2, delta=1.0,
            regions=(Region(center=np.array([3.77828041, 0.0]), radius=1.0,
                            target=log_source((0.0, 0.0))),
                     Region(center=np.array([-3.09078041, 0.0]), radius=0.3125,
                            target=log_source((0.0, 0.0)))),
            observation_radius=13.778280410038922, exterior_target=zero_field(), epsilon=1.0))
        antenna, controls = build_rules(s)
        K = assemble_forward(antenna, controls)
        v = build_target(s, controls)
        assert K.matrix.shape == (324, 70)
        assert residual_floor(K, v) == pytest.approx(tikhonov_floor(K, v), rel=1e-13, abs=0)

    def test_reachable_target_has_a_rounding_level_floor(self):
        # v = K h lies in the column span, so the floor is rounding alone.
        # Forming ||v||^2 - ||beta||^2 cancelled to about 4e-8 ||v||, which
        # rejected feasible budgets below that as infeasible.
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(200):
            K, _ = _random_instance(rng)
            v = trace_of(K, K.matrix @ rng.normal(size=K.matrix.shape[1]))
            worst = max(worst, residual_floor(K, v) / v.norm())
        assert worst <= 1e-11


class TestRankCutoff:
    def test_value_at_cutoff_is_kept(self):
        assert rank_above_cutoff(np.array([1.0, 1e-12, 9e-13])) == 2


class TestBruteForceOracle:
    @pytest.mark.parametrize("shape", [(10, 6), (14, 9), (20, 12)])
    def test_matches_lagrange_scan(self, shape):
        # Compare at the achieved residual norm (both methods sit on the
        # constraint boundary), removing the root-finding tolerance from
        # the comparison.
        m, n = shape
        rng = np.random.default_rng(m * 100 + n)
        K, v = _random_instance(rng, n_antenna=n, n_control=m)
        eps = 0.25 * v.norm()
        h, report = solve_min_energy(K, v, eps)
        oracle_energy = _qp_oracle_energy(K, v, report.discrepancy)
        assert report.energy == pytest.approx(oracle_energy, rel=1e-6, abs=0)


class TestSweepAlpha:
    def test_table_monotonicity(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        sigma1 = weighted_svd(K).sigma[0]
        alphas = np.geomspace(1e-10 * sigma1**2, 1e2 * sigma1**2, 25)
        rows = sweep_alpha(K, v, alphas)
        assert [r[0] for r in rows] == sorted(r[0] for r in rows)
        for (a1, d1, e1), (a2, d2, e2) in zip(rows, rows[1:]):
            assert d2 >= d1 * (1 - 1e-12)
            assert e2 <= e1 * (1 + 1e-12)

    def test_single_alpha_consistency(self, demo2d_solution):
        s, K, v, h, report = demo2d_solution
        ((a, d, e),) = sweep_alpha(K, v, [report.alpha_star])
        assert a == report.alpha_star
        assert d == report.discrepancy
        assert e == pytest.approx(h.norm(), rel=1e-12, abs=0)

    def test_rejects_empty_or_nonpositive(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        with pytest.raises(ValueError, match="at least one"):
            sweep_alpha(K, v, [])
        with pytest.raises(ValueError, match="positive"):
            sweep_alpha(K, v, [1.0, -2.0])
        with pytest.raises(ValueError, match="positive"):
            sweep_alpha(K, v, [0.0])


class TestSweepEpsilon:
    def test_rows_match_one_shot_solves(self, demo2d_parts):
        # Budgets at or above ||v|| (zero density) interleaved with feasible ones.
        s, antenna, controls, K, v = demo2d_parts
        top = v.norm()
        ladder = [9.0, 2.0 * top, 6.0, top, 7.5, 1.5 * top, FEASIBLE_EPS_2D]
        rows = sweep_epsilon(K, v, ladder)
        assert [r[0] for r in rows] == sorted(ladder)
        for eps, disc, energy in rows:
            _, report = solve_min_energy(K, v, eps)
            assert (disc, energy) == (report.discrepancy, report.energy)
        assert rows[4:] == [(top, top, 0.0), (1.5 * top, top, 0.0), (2.0 * top, top, 0.0)]

    def test_budget_above_target_norm_gives_zero_energy_row(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        eps = 2.0 * v.norm()
        assert sweep_epsilon(K, v, [eps]) == [(eps, v.norm(), 0.0)]

    def test_floor_is_computed_once_per_sweep(self, demo2d_parts, monkeypatch):
        # The floor counts the rank and filters the spectrum: once per sweep,
        # not once per ladder value.
        s, antenna, controls, K, v = demo2d_parts
        calls = []

        def counted(sigma):
            calls.append(sigma.shape)
            return rank_above_cutoff(sigma)

        monkeypatch.setattr(solver, "rank_above_cutoff", counted)
        rows = sweep_epsilon(K, v, np.linspace(6.0, 9.0, 20))
        assert len(rows) == 20
        assert len(calls) == 1

    def test_ladder_reaching_the_floor_raises(self, demo2d_parts):
        # The error names the smallest budget, whatever else the ladder holds.
        s, antenna, controls, K, v = demo2d_parts
        floor = residual_floor(K, v)
        ladder = [2.0 * v.norm(), FEASIBLE_EPS_2D, floor, 0.5 * floor, 7.0]
        with pytest.raises(InfeasibleAccuracyError) as info:
            sweep_epsilon(K, v, ladder)
        assert (info.value.epsilon, info.value.floor) == (0.5 * floor, floor)
        assert str(info.value) == ("requested accuracy 2.8829 is at or below the residual "
                                   "floor 5.76581 of this discretization")
        # A ladder whose smallest budget is the floor itself is infeasible too.
        with pytest.raises(InfeasibleAccuracyError) as info:
            sweep_epsilon(K, v, [FEASIBLE_EPS_2D, floor])
        assert info.value.epsilon == floor


class TestMatch:
    """``_FilterData.match`` bisects a whole ladder in lockstep; each budget
    must take the steps the scalar bisection takes for it alone."""

    def test_budgets_needing_a_wider_bracket_match_the_scalar_bisection(
            self, demo2d_parts, monkeypatch):
        # Within DISCREPANCY_RTOL = 1e-3 of ||v|| every budget is met below the
        # bracket top; with a tighter stop, budgets in the last sliver below
        # ||v|| need the top widened.
        s, antenna, controls, K, v = demo2d_parts
        data = solver._filter_data(K, v)
        top = data.v_norm
        ladder = np.concatenate([top * (1.0 - np.geomspace(1e-9, 1e-5, 9)), [7.0, top]])
        monkeypatch.setattr(solver, "DISCREPANCY_RTOL", 0.0)
        bracket_top = solver.ALPHA_BRACKET_HI * float(data.sigma[0]) ** 2
        assert math.sqrt(data.discrepancy_sq(np.array([bracket_top]))[0]) < ladder[0]
        got = list(zip(*(x.tolist() for x in data.match(ladder))))
        assert got == [scalar_match(data, float(eps)) for eps in ladder]

    def test_an_unsorted_ladder_reaching_the_floor_names_its_smallest_budget(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        data = solver._filter_data(K, v)
        ladder = [7.0, 0.5 * data.floor, 2.0 * data.v_norm, 0.25 * data.floor, data.floor]
        with pytest.raises(InfeasibleAccuracyError) as info:
            data.match(ladder)
        assert info.value.epsilon == 0.25 * data.floor

    def test_a_long_ladder_is_matched_in_bounded_memory(self, demo2d_parts):
        # Unblocked, each (budgets, k) temporary of 20 000 budgets against
        # demo-2d's 126 singular values would hold about 20 MB.
        s, antenna, controls, K, v = demo2d_parts
        data = solver._filter_data(K, v)
        ladder = np.linspace(FEASIBLE_EPS_2D, v.norm(), 20_000)
        assert data.floor < ladder[0]
        tracemalloc.start()
        try:
            data.match(ladder)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestLadderCheck:
    @pytest.mark.parametrize("sweep", [sweep_alpha, sweep_epsilon])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, demo2d_parts, sweep, bad):
        s, antenna, controls, K, v = demo2d_parts
        with pytest.raises(ValueError, match="finite"):
            sweep(K, v, [7.0, bad])
