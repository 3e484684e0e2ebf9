"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 1 and 2 ask the demo scenarios to solve at the field-scaled
accuracy budget (1e-3 times the target-field norms).  For both demo
geometries that budget lies below a resolution-independent residual
floor set by the control-sphere gap: a target region's control sphere
reaches close to the outer control sphere, and matching a sizable field
inside the one while vanishing on the other needs harmonics whose
singular values fall below the rank cutoff, so no node count within reach
delivers the request (doubling node counts leaves the floor within 1e-9
relative).  The tests state the criteria verbatim and fail honestly;
criteria 1b and 2b run the same pipelines at certifiable budgets and
check every remaining clause (discrepancy matching, certificate
soundness, runtime).
"""

import time

import numpy as np
import pytest

from conftest import (FEASIBLE_EPS_2D, FEASIBLE_EPS_3D, projected, random_mismatches,
                      random_on_sphere, scenario_rules)
from fieldcast import (
    assemble_forward,
    build_rules,
    build_target,
    certify_solution,
    harmonic_polynomial,
    solve_min_energy,
    weighted_svd,
)
from fieldcast.certify import empirical_mismatches
from fieldcast.fields import eval_field, scenario_difference_fields
from fieldcast.kernels import dlp_kernel
from fieldcast.operator import block_residuals
from fieldcast.solver import residual_floor
from oracles import (ControlTrace, Density, apply, apply_adjoint, eval_double_layer,
                     make_circle_rule, make_sphere_rule, nodal, poisson_solve, xi_inner)
from test_solver import _qp_oracle_energy, _random_instance


def _criterion(name: str, ok: bool, detail: str) -> None:
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    if not ok:
        pytest.fail(f"{name}: {detail}")


def _full_pipeline(scenario, epsilon):
    antenna, controls = build_rules(scenario)
    K = assemble_forward(antenna, controls)
    v = build_target(scenario, controls)
    h, report = solve_min_energy(K, v, epsilon)
    cert = certify_solution(block_residuals(K, h, v), scenario)
    return K, v, h, report, cert


def test_criterion_1_2d_reproduction_at_scaled_budget(demo2d_parts):
    """2D demo at the 1e-3 field-scaled budget, stated verbatim."""
    s, antenna, controls, K, v = demo2d_parts
    eps = float(s.epsilon)
    floor = residual_floor(K, v)
    try:
        h, report = solve_min_energy(K, v, eps)
        ok = abs(report.discrepancy - eps) <= 1e-3 * eps
        detail = f"discrepancy {report.discrepancy:.6g} vs budget {eps:.6g}"
    except Exception as exc:
        ok = False
        detail = (
            f"budget {eps:.6g} is below the residual floor {floor:.6g} set by the "
            f"control-sphere gap "
            f"(resolution-independent; {type(exc).__name__})"
        )
    _criterion("criterion 1 (2D demo at scaled budget)", ok, detail)


def test_criterion_1b_2d_pipeline_at_certifiable_budget(demo2d):
    """Same 2D pipeline at a budget above the floor: discrepancy matched to
    1e-3 relative, certificates bound the sampled sup-norms, runtime <= 30 s."""
    t0 = time.perf_counter()
    K, v, h, report, cert = _full_pipeline(demo2d, FEASIBLE_EPS_2D)
    maxima = empirical_mismatches(
        h, scenario_difference_fields(demo2d), demo2d, demo2d.seed, n_samples=500
    )
    elapsed = time.perf_counter() - t0

    gap = abs(report.discrepancy - report.epsilon) / report.epsilon
    sound = all(m <= e.bound_conservative for m, e in zip(maxima, cert))
    ok = gap <= 1e-3 and sound and elapsed <= 30.0
    _criterion(
        "criterion 1b (2D pipeline, certifiable budget)",
        ok,
        f"relative gap {gap:.2e}, sup-norms within bounds: {sound}, {elapsed:.1f}s",
    )


def test_criterion_2_3d_reproduction_at_scaled_budget(demo3d_parts):
    """3D demo at the 1e-3 field-scaled budget, stated verbatim."""
    s, antenna, controls, K, v = demo3d_parts
    eps = float(s.epsilon)
    floor = residual_floor(K, v)
    try:
        h, report = solve_min_energy(K, v, eps)
        ok = abs(report.discrepancy - eps) <= 1e-3 * eps
        detail = f"discrepancy {report.discrepancy:.6g} vs budget {eps:.6g}"
    except Exception as exc:
        ok = False
        detail = (
            f"budget {eps:.6g} is below the residual floor {floor:.6g} set by the "
            f"control-sphere gap "
            f"(resolution-independent; {type(exc).__name__})"
        )
    _criterion("criterion 2 (3D demo at scaled budget)", ok, detail)


def test_criterion_2b_3d_pipeline_at_certifiable_budget(demo3d):
    t0 = time.perf_counter()
    K, v, h, report, cert = _full_pipeline(demo3d, FEASIBLE_EPS_3D)
    maxima = empirical_mismatches(
        h, scenario_difference_fields(demo3d), demo3d, demo3d.seed, n_samples=500
    )
    elapsed = time.perf_counter() - t0

    gap = abs(report.discrepancy - report.epsilon) / report.epsilon
    sound = all(m <= e.bound_conservative for m, e in zip(maxima, cert))
    ok = gap <= 1e-3 and sound and elapsed <= 120.0
    _criterion(
        "criterion 2b (3D pipeline, certifiable budget)",
        ok,
        f"relative gap {gap:.2e}, sup-norms within bounds: {sound}, {elapsed:.1f}s",
    )


def test_criterion_3_adjoint_identity(demo2d_parts):
    s, antenna, controls, K, v = demo2d_parts
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        u = Density(rule=antenna, values=rng.normal(size=antenna.node_count))
        t = ControlTrace(
            blocks=[rng.normal(size=r.node_count) for r in controls], rules=controls
        )
        lhs = xi_inner(apply(controls, u), t)
        rhs = float(antenna.weights @ (u.values * apply_adjoint(antenna, t).values))
        worst = max(worst, abs(lhs - rhs) / (u.norm() * t.norm()))
    _criterion("criterion 3 (adjoint identity)", worst <= 1e-10,
               f"worst relative defect {worst:.2e} over 100 pairs")


def test_criterion_4_gauss_identity(demo2d_parts, demo3d_parts):
    checks = []
    for parts in (demo2d_parts, demo3d_parts):
        s, antenna, controls, K, v = parts
        ones = Density(rule=antenna, values=np.ones(antenna.node_count))
        checks.append(apply(controls, ones).norm() <= 1e-10 * ones.norm())

    # Pointwise double-layer of the unit density: -1 inside, 0 outside.
    circle = make_circle_rule((0.0, 0.0), 1.0, 128)
    inner = np.sum(dlp_kernel(np.zeros(2), circle.nodes, circle.normals, 2)
                   * circle.weights)
    outer = np.sum(dlp_kernel(np.array([10.0, 0.0]), circle.nodes, circle.normals, 2)
                   * circle.weights)
    sphere = make_sphere_rule((0.0, 0.0, 0.0), 1.0, 24, 48)
    inner3 = np.sum(dlp_kernel(np.zeros(3), sphere.nodes, sphere.normals, 3)
                    * sphere.weights)
    outer3 = np.sum(dlp_kernel(np.array([0.0, 0.0, 4.0]), sphere.nodes, sphere.normals, 3)
                    * sphere.weights)
    checks.append(abs(inner + 1.0) <= 1e-10 and abs(outer) <= 1e-10)
    checks.append(abs(inner3 + 1.0) <= 1e-10 and abs(outer3) <= 1e-10)
    _criterion("criterion 4 (Gauss identity)", all(checks),
               f"trace norms and point checks: {checks}")


HARMONICS_2D = [
    ({(0, 0): 1.0}, 0),
    ({(1, 0): 1.0}, 1),
    ({(0, 1): 1.0}, 1),
    ({(2, 0): 1.0, (0, 2): -1.0}, 2),
    ({(1, 1): 1.0}, 2),
    ({(3, 0): 1.0, (1, 2): -3.0}, 3),
    ({(2, 1): 3.0, (0, 3): -1.0}, 3),
]
HARMONICS_3D = [
    ({(0, 0, 0): 1.0}, 0),
    ({(1, 0, 0): 1.0}, 1),
    ({(0, 0, 1): 1.0}, 1),
    ({(1, 1, 0): 1.0}, 2),
    ({(2, 0, 0): 1.0, (0, 2, 0): -1.0}, 2),
    ({(1, 1, 1): 1.0}, 3),
    ({(2, 0, 1): 1.0, (0, 2, 1): -1.0}, 3),
    ({(3, 0, 0): 1.0, (1, 2, 0): -3.0}, 3),
]


def test_criterion_5_poisson_oracles():
    worst = 0.0
    rng = np.random.default_rng(505)

    # Mean-value property, exact to roundoff.
    sphere = make_sphere_rule((0.5, 0.0, -1.0), 2.0, 24, 48)
    data = rng.normal(size=sphere.node_count)
    mean = sphere.integrate(data) / (4 * np.pi * 4.0)
    center = poisson_solve(sphere, data, (0.5, 0.0, -1.0), "interior")
    mean_ok = abs(center - mean) <= 1e-14 * max(1.0, abs(mean))

    # Homogeneous harmonics of degree <= 3, reproduced on both sides.
    # Interior points stay within half the sphere radius, exterior points
    # beyond twice, where the kernel quadrature is spectrally converged.
    for dim, catalog, rule in (
        (2, HARMONICS_2D, make_circle_rule((0.0, 0.0), 2.0, 128)),
        (3, HARMONICS_3D, make_sphere_rule((0.0, 0.0, 0.0), 2.0, 24, 48)),
    ):
        r_star = rule.boundary.radius
        for terms, degree in catalog:
            field = harmonic_polynomial(terms, dim)
            data = np.asarray(eval_field(field, rule.nodes), dtype=float)
            for _ in range(5):
                direction = rng.normal(size=dim)
                direction /= np.linalg.norm(direction)
                x_in = direction * r_star * 0.5 * rng.uniform(0.1, 1.0)
                got = poisson_solve(rule, data, x_in, "interior")
                worst = max(worst, abs(got - eval_field(field, x_in)))

                x_out = direction * r_star * rng.uniform(2.0, 4.0)
                # Kelvin image of a homogeneous degree-m harmonic.
                radius_ratio = r_star / np.linalg.norm(x_out)
                expected = eval_field(field, x_out) * radius_ratio ** (2 * degree + dim - 2)
                got = poisson_solve(rule, data, x_out, "exterior")
                worst = max(worst, abs(got - expected))

    # Exterior constant in 3D decays like r_star / |x|.
    sphere2 = make_sphere_rule((0.0, 0.0, 0.0), 2.0, 24, 48)
    got = poisson_solve(sphere2, np.ones(sphere2.node_count), (4.0, 0.0, 0.0), "exterior")
    const_ok = abs(got - 0.5) <= 1e-10

    ok = mean_ok and const_ok and worst <= 1e-10
    _criterion("criterion 5 (Poisson oracle suite)", ok,
               f"worst polynomial defect {worst:.2e}, mean-value {mean_ok}, "
               f"exterior constant {const_ok}")


def test_criterion_6_quadratic_program_oracle():
    worst = 0.0
    for m, n in [(10, 6), (14, 9), (20, 12)]:
        rng = np.random.default_rng(m * 100 + n)
        K, v = _random_instance(rng, n_antenna=n, n_control=m)
        eps = 0.25 * v.norm()
        h, report = solve_min_energy(K, v, eps)
        oracle = _qp_oracle_energy(K, v, report.discrepancy)
        worst = max(worst, abs(report.energy - oracle) / oracle)
    _criterion("criterion 6 (quadratic-program oracle)", worst <= 1e-6,
               f"worst relative energy mismatch {worst:.2e}")


def test_criterion_7_ill_posedness_signature(demo2d_parts):
    s, antenna, controls, K, v = demo2d_parts
    sigma = weighted_svd(K).sigma[:30]
    slope = float(np.polyfit(np.arange(30), np.log10(sigma), 1)[0])

    floor = residual_floor(K, v)
    ladder = floor * np.array([1.02, 1.08, 1.2, 1.35, 1.55])
    energies = [solve_min_energy(K, v, eps)[1].energy for eps in ladder]
    monotone = all(e2 <= e1 * (1 + 1e-12) for e1, e2 in zip(energies, energies[1:]))

    ok = slope < 0 and monotone
    _criterion("criterion 7 (ill-posedness signature)", ok,
               f"log10 spectrum slope {slope:.3f}, energies nonincreasing: {monotone}")


def test_criterion_8_certificate_soundness(demo2d_parts):
    s, antenna, controls, K, v = demo2d_parts
    rng = np.random.default_rng(808)
    fields = scenario_difference_fields(s)
    violations = 0
    worst_margin = np.inf
    for _ in range(20):
        h = projected(Density(rule=antenna, values=rng.normal(size=antenna.node_count)))
        cert = certify_solution(block_residuals(K, h, v), s)
        maxima = random_mismatches(h, fields, s, rng, 500)
        for observed, entry in zip(maxima, cert):
            if observed > entry.bound_conservative:
                violations += 1
            worst_margin = min(worst_margin, entry.bound_conservative / observed)
    _criterion("criterion 8 (certificate soundness)", violations == 0,
               f"{violations} violations over 20 densities x 500 points; "
               f"smallest bound/observed ratio {worst_margin:.2f}")


def test_criterion_9_discretization_convergence(demo2d):
    from dataclasses import replace

    from fieldcast.geometry import Discretization

    probes = {}
    for n in (128, 256):
        sn = replace(demo2d, discretization=Discretization(n, n))
        antenna, controls = build_rules(sn)
        K = assemble_forward(antenna, controls)
        v = build_target(sn, controls)
        h, _ = solve_min_energy(K, v, FEASIBLE_EPS_2D)
        rng = np.random.default_rng(909)
        pts = np.vstack(
            [random_on_sphere(rng, r.center, r.radius, 2, 40) for r in sn.regions]
            + [random_on_sphere(rng, (0.0, -7.0), 2.0, 2, 20)]
        )  # 100 probe points, on spheres: where a harmonic difference peaks
        probes[n] = eval_double_layer(nodal(h, scenario_rules(sn)[0]), pts)
    change = np.max(np.abs(probes[128] - probes[256])) / np.max(np.abs(probes[128]))
    _criterion("criterion 9 (discretization convergence)", change <= 1e-6,
               f"relative field change over 100 probes {change:.2e}")
