"""Forward operator assembly, adjointness, inner products, weighted SVD."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fieldcast import (
    ForwardOperator,
    HarmonicDensity,
    HarmonicTrace,
    assemble_forward,
    build_target,
    kernels,
    weighted_svd,
)
from conftest import (FEASIBLE_EPS_2D, FEASIBLE_EPS_3D, assert_columns_match_the_nystrom_sum,
                      assert_residuals_match_the_matrix, boundaries, explicit_coefficients,
                      harmonic_trace, nystrom_matrix, projected, scenario_rules, trace_of)
from fieldcast.geometry import UNIT_SPHERE_MEASURE, Discretization, build_rules, harmonic_count
from fieldcast import operator as operator_module
from fieldcast.operator import (RUN_OVERHEAD_BYTES, TABLE_BYTES, _coefficient_block,
                                block_residuals, degree_gains, dump_operator, factorization_cost,
                                load_operator_dump, row_offsets)
from fieldcast.solver import solve_min_energy
from oracles import (ControlTrace, Density, adjoint_kernel, apply, apply_adjoint, basis,
                     make_circle_rule, make_rule, make_sphere_rule, nodal, xi_inner)

MIB = 1024 * 1024


def _small_geometry(n_antenna=6, n_control=10):
    antenna = make_circle_rule((0.0, 0.0), 1.0, n_antenna)
    control = make_circle_rule((8.0, 0.0), 2.0, n_control)
    return antenna, [control]


@pytest.fixture(scope="module", params=["demo2d_parts", "demo3d_parts"])
def preset_gesdd(request):
    """A preset's operator and LAPACK's gesdd of its matrix: the oracle."""
    K = request.getfixturevalue(request.param)[3]
    return K, np.linalg.svd(K.matrix, full_matrices=False)


def _operator_with(matrix_of, n_antenna=6, n_control=10):
    """Operator on the boundaries of the small geometry with the matrix
    ``matrix_of(rows, M)`` gives for its shape."""
    antenna, controls = _small_geometry(n_antenna, n_control)
    genuine = assemble_forward(antenna.boundary, boundaries(controls))
    return ForwardOperator(matrix=matrix_of(*genuine.matrix.shape), antenna=genuine.antenna,
                           controls=genuine.controls)


def _random_operator(rng, n_antenna=6, n_control=10):
    """Operator with a random matrix but genuine rules."""
    return _operator_with(lambda rows, columns: rng.normal(size=(rows, columns)),
                          n_antenna, n_control)


def _split(t, controls):
    """Nodal values at every node of the control rules, regions first, as a trace."""
    return ControlTrace(blocks=np.split(t, np.cumsum([r.node_count for r in controls])[:-1]),
                        rules=controls)


class TestAssembleApply:
    @pytest.mark.parametrize("parts", ["demo2d_parts", "demo3d_parts"])
    def test_matrix_rows_counts_the_assembled_rows(self, parts, request):
        s, antenna, controls, K, v = request.getfixturevalue(parts)
        rows = row_offsets(*build_rules(s))
        assert rows[-1] == K.matrix.shape[0] == K.block_rows[-1].stop
        assert rows[:-1] == [block.start for block in K.block_rows]

    def test_unit_density_maps_to_zero_trace(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        ones = Density(rule=antenna, values=np.ones(antenna.node_count))
        t = apply(controls, ones)
        assert t.norm() <= 1e-10 * ones.norm()

    def test_antenna_refinement_agreement(self, demo2d_parts):
        # Same control nodes, antenna node count doubled: the analytic
        # kernels make the coarse trapezoid rule already exact.
        s, antenna, controls, K, v = demo2d_parts
        a64 = make_circle_rule((0.0, 0.0), s.delta, 64)
        theta64 = np.arctan2(a64.nodes[:, 1], a64.nodes[:, 0])
        theta = np.arctan2(antenna.nodes[:, 1], antenna.nodes[:, 0])
        t64 = apply(controls, Density(rule=a64, values=np.cos(theta64)))
        t128 = apply(controls, Density(rule=antenna, values=np.cos(theta)))
        for b1, b2 in zip(t64.blocks, t128.blocks):
            assert np.max(np.abs(b1 - b2)) <= 1e-10

    def test_all_counts_doubled_trace_change_small(self, demo2d):
        # Control circles share their coarse nodes with the doubled rules
        # (even indices), so traces are comparable pointwise there.
        from dataclasses import replace

        from fieldcast.geometry import Discretization

        results = {}
        for n in (128, 256):
            sn = replace(demo2d, discretization=Discretization(n, n))
            antenna, controls = scenario_rules(sn)
            theta = np.arctan2(antenna.nodes[:, 1], antenna.nodes[:, 0])
            h = Density(rule=antenna, values=np.exp(np.cos(theta)))
            results[n] = apply(controls, h)
        for b_coarse, b_fine in zip(results[128].blocks, results[256].blocks):
            assert np.max(np.abs(b_coarse - b_fine[::2])) <= 1e-9
        assert results[128].norm() == pytest.approx(results[256].norm(), abs=1e-9)

    def test_linearity(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        rng = np.random.default_rng(7)
        h1 = rng.normal(size=antenna.node_count)
        h2 = rng.normal(size=antenna.node_count)
        a, b = 1.7, -0.4
        combo = apply(controls, Density(rule=antenna, values=a * h1 + b * h2))
        parts = [apply(controls, Density(rule=antenna, values=h)) for h in (h1, h2)]
        for blk, p1, p2 in zip(combo.blocks, parts[0].blocks, parts[1].blocks):
            assert np.max(np.abs(blk - (a * p1 + b * p2))) <= 1e-12

    def test_zero_density_zero_trace(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        t = apply(controls, Density(rule=antenna, values=np.zeros(antenna.node_count)))
        assert t.norm() == 0.0

    def test_demo_operator_is_finite_and_nontrivial(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        assert np.all(np.isfinite(K.matrix))
        assert np.max(np.abs(K.matrix)) > 0
        sigma1 = weighted_svd(K).sigma[0]
        assert np.isfinite(sigma1) and sigma1 > 0

    def test_subnormal_entries_are_flushed_at_assembly(self, demo2d, tmp_path):
        # 640 antenna nodes on demo-2d: degrees 264 and up radiate subnormal
        # gains onto the outer circle (and the regions' rows hold some too).
        # They are zero in the assembled matrix and in the dump's rows.
        antenna, controls = build_rules(replace(demo2d, discretization=Discretization(640, 16)))
        tiny = np.finfo(float).tiny
        radius = controls[-1].radius
        diagonal = np.repeat(degree_gains(antenna, np.array([radius]))[:, 0] * np.sqrt(radius), 2)
        assert np.any((0 < diagonal) & (diagonal < tiny))
        K = assemble_forward(antenna, controls)
        assert not np.any((0 < np.abs(K.matrix)) & (np.abs(K.matrix) < tiny))
        diagonal[diagonal < tiny] = 0.0
        assert np.array_equal(np.diag(K.matrix[K.block_rows[-1]]), diagonal)
        kept = K.matrix.copy()
        weighted_svd(K, release=True)
        dump_operator(K, tmp_path / "operator.bin")
        assert np.array_equal(load_operator_dump(tmp_path / "operator.bin")[0], kept)

    @pytest.mark.parametrize("parts, block_cols", [
        ("demo2d_parts", None),
        ("demo2d_parts", 7),  # 128 antenna nodes: 18 full blocks and a ragged one
        ("demo3d_parts", None),
    ])
    def test_apply_matches_the_broadcast_form(self, parts, block_cols, request, monkeypatch):
        # The blocked Nystrom sums against the whole (m, n, dim) broadcast matrix.
        s, antenna, controls, K, v = request.getfixturevalue(parts)
        m = sum(r.node_count for r in controls)
        if block_cols is not None:
            monkeypatch.setattr(kernels, "BLOCK_PAIRS", block_cols * m)
        dim = antenna.boundary.dim
        diff = np.concatenate([r.nodes for r in controls])[:, None, :] - antenna.nodes[None]
        dist = np.linalg.norm(diff, axis=-1)
        kernel = np.sum(diff * antenna.normals[None], axis=-1) / (
            UNIT_SPHERE_MEASURE[dim] * dist**dim)
        reference = kernel * antenna.weights[None, :]
        assert np.array_equal(nystrom_matrix(antenna, controls), reference)
        rng = np.random.default_rng(31)
        h = rng.normal(size=antenna.node_count)
        trace = apply(controls, Density(rule=antenna, values=h)).concatenated
        # Both sums within the dot-product error bound n u sum |a_j h_j| of the exact one.
        u = 2.0**-53
        assert np.all(np.abs(trace - reference @ h)
                      <= 2 * antenna.node_count * u * (np.abs(reference) @ np.abs(h)))
        t = rng.normal(size=m)
        adjoint = apply_adjoint(antenna, _split(t, controls)).values
        wt = np.concatenate([r.weights for r in controls]) * t
        expected = (reference.T @ wt) / antenna.weights
        assert np.all(np.abs(adjoint - expected)
                      <= 2 * (m + 2) * u * (np.abs(reference).T @ np.abs(wt)) / antenna.weights)

    @pytest.mark.parametrize("parts", ["demo2d_parts", "demo3d_parts"])
    def test_columns_match_the_nystrom_sum(self, parts, request):
        s, antenna, controls, K, v = request.getfixturevalue(parts)
        assert_columns_match_the_nystrom_sum(K, antenna, controls)

    @pytest.mark.parametrize("parts", ["demo2d_parts", "demo3d_parts"])
    def test_basis_is_orthonormal_on_the_antenna_rule(self, parts, request):
        # The whole basis's weighted Gram matrix, and nodal() as its product
        # with the coefficients: a unit vector's values are its column.
        s, antenna, controls, K, v = request.getfixturevalue(parts)
        values = basis(antenna)
        gram = values.T @ (antenna.weights[:, None] * values)
        assert np.max(np.abs(gram - np.eye(values.shape[1]))) <= 1e-13
        count = harmonic_count(antenna.boundary.degree, s.dim)
        draws = np.random.default_rng(9).normal(size=(3, count))
        for c in [*np.eye(count)[[0, count // 2, -1]], *draws]:
            assert np.array_equal(nodal(HarmonicDensity(K.antenna, c), antenna).values, values @ c)

    def test_3d_columns_match_the_nystrom_sum_at_a_pool_shape(self, demo3d):
        # 16 polar antenna nodes resolve degree 15 = L*: the shape of the
        # smaller benchmark antenna, 4 x 8 control nodes per sphere.
        s = replace(demo3d, discretization=Discretization(16, 8))
        assert_columns_match_the_nystrom_sum(assemble_forward(*build_rules(s)), *scenario_rules(s))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        K = _random_operator(np.random.default_rng(5))
        matrix = K.matrix.copy()
        matrix[-1, -1] = bad
        with pytest.raises(ValueError, match="matrix contains non-finite"):
            ForwardOperator(matrix=matrix, antenna=K.antenna, controls=K.controls)
        coefficients = np.ones(harmonic_count(K.antenna.degree, 2))
        coefficients[-1] = bad
        with pytest.raises(ValueError, match="coefficients must be finite"):
            HarmonicDensity(K.antenna, coefficients)

    def test_finiteness_scan_allocates_no_matrix_sized_mask(self, demo3d):
        antenna, controls = build_rules(replace(demo3d, discretization=Discretization(16, 64)))
        K = assemble_forward(antenna, controls)
        assert K.matrix.shape == (64**2 + 255, 255)   # the region's harmonics, the outer diagonal
        tracemalloc.start()
        try:
            ForwardOperator(matrix=K.matrix, antenna=antenna, controls=controls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= K.matrix.size // 8   # a whole bool mask is K.matrix.size bytes

    def test_assembly_peak_memory_is_about_the_matrix(self, demo3d_parts):
        # The matrix it returns, whose rows each region's block is written
        # into, and beside it the temporaries of one antenna order: a few
        # arrays of (2, row pairs, degrees of that order), with 300 row pairs
        # and 23 degrees at order 0 the largest.  At 1151 x 575 the bound,
        # the matrix and half of one region's rows, is 6.31 MiB (measured:
        # 5.92), under the 8.05 MiB that the quadrature assembly it replaced
        # was held to.
        s, antenna, controls, K, v = demo3d_parts
        tracemalloc.start()
        try:
            result = assemble_forward(K.antenna, K.controls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        region = result.matrix[result.block_rows[0]].nbytes
        assert peak <= result.matrix.nbytes + region / 2

    def test_separation_violation_rejected(self):
        antenna = make_circle_rule((0.0, 0.0), 1.0, 16)
        touching = make_circle_rule((2.0, 0.0), 1.0, 16)  # touches the antenna
        with pytest.raises(ValueError, match="too close"):
            assemble_forward(antenna.boundary, [touching.boundary])
        # A sphere concentric with the antenna resolves exactly its degree, 7.
        for n in (8, 32):
            outer = make_circle_rule((0.0, 0.0), 20.0, n)
            with pytest.raises(ValueError, match=f"degree {(n - 1) // 2}, not the antenna's 7"):
                assemble_forward(antenna.boundary, [outer.boundary])

    def test_dimension_mismatch_rejected(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        wrong = make_circle_rule((0.0, 0.0), 1.0, 64)
        with pytest.raises(ValueError, match="antenna boundary"):
            nodal(HarmonicDensity(K.antenna, np.ones(K.matrix.shape[1])), wrong)
        # Same node counts on other spheres: not a trace of K's.
        moved = [make_circle_rule(r.boundary.center, 1.5 * r.boundary.radius, r.node_count)
                 for r in controls]
        t = ControlTrace(blocks=[np.ones(r.node_count) for r in moved], rules=moved)
        with pytest.raises(ValueError, match="different boundaries"):
            xi_inner(apply(controls, Density(rule=antenna, values=np.ones(antenna.node_count))), t)
        with pytest.raises(ValueError, match="mixed dimensions"):
            assemble_forward(K.antenna, [make_sphere_rule((0.0, 0.0, 0.0), 20.0, 4, 8).boundary])

    # Each entry takes the operator and a rule, and joins a density of the
    # one to the other: the operator's density at the rule's nodes for the
    # oracle, and a density on the rule's boundary to the residuals.
    _ENTRIES = [
        lambda K, rule: apply([make_rule(b.center, b.radius, 4, b.dim) for b in K.controls],
                              nodal(HarmonicDensity(K.antenna, np.ones(K.matrix.shape[1])), rule)),
        lambda K, rule: block_residuals(
            K, HarmonicDensity(rule.boundary, np.ones(harmonic_count(rule.boundary.degree,
                                                                     rule.boundary.dim))),
            trace_of(K, np.zeros(K.matrix.shape[0]))),
    ]
    _ENTRY_IDS = ["apply", "block_residuals"]
    # (a builder of the operator's antenna rule, its control rule); every
    # rejected density below has the antenna's node count.
    _UNIT_CIRCLE = (lambda: make_circle_rule((0.0, 0.0), 1.0, 16), make_circle_rule((8.0, 0.0), 2.0, 10))
    _UNIT_SPHERE = (lambda: make_sphere_rule((0.0, 0.0, 0.0), 1.0, 12, 8),
                    make_sphere_rule((8.0, 0.0, 0.0), 2.0, 4, 8))

    @pytest.mark.parametrize("entry", _ENTRIES, ids=_ENTRY_IDS)
    @pytest.mark.parametrize("geometry, other", [
        (_UNIT_CIRCLE, make_circle_rule((0.0, 0.0), 0.5, 16)),
        (_UNIT_CIRCLE, make_circle_rule((0.1, 0.0), 1.0, 16)),
        (_UNIT_SPHERE, make_sphere_rule((0.0, 0.0, 0.0), 1.0, 8, 12)),
    ], ids=["radius", "centre", "node-layout"])
    def test_density_on_another_antenna_rule_rejected(self, entry, geometry, other):
        antenna, control = geometry
        K = assemble_forward(antenna().boundary, [control.boundary])
        with pytest.raises(ValueError, match="antenna boundary"):
            entry(K, other)

    def test_traces_on_another_node_layout_rejected(self):
        # 96 nodes on the same sphere as 12 x 8 and as 8 x 12: not the same trace space.
        a, b = (make_sphere_rule((0.0, 0.0, 0.0), 1.0, *n) for n in [(12, 8), (8, 12)])
        s, t = (ControlTrace(blocks=[np.ones(96)], rules=[r]) for r in (a, b))
        with pytest.raises(ValueError, match="different boundaries"):
            xi_inner(s, t)

    @pytest.mark.parametrize("entry", _ENTRIES, ids=_ENTRY_IDS)
    @pytest.mark.parametrize("geometry", [_UNIT_CIRCLE, _UNIT_SPHERE], ids=["2d", "3d"])
    def test_density_on_a_rebuilt_antenna_rule_accepted(self, entry, geometry):
        # An equal rule built anew is on the same boundary: the check compares
        # boundaries, not identity.
        antenna, control = geometry
        K = assemble_forward(antenna().boundary, [control.boundary])
        rule = antenna()
        assert rule.boundary is not K.antenna
        entry(K, rule)


class TestHarmonicDensity:
    # Antennas of degree 3 (2D, 8 nodes) and 4 (3D, 5 polar rings): six and
    # 24 harmonics.
    _RULES = {2: make_circle_rule((0.5, -1.0), 0.7, 8),
              3: make_sphere_rule((0.5, -1.0, 2.0), 0.7, 5, 10)}

    @pytest.mark.parametrize("dim, count", [(2, 6), (3, 24)])
    def test_coefficients_of_another_length_rejected(self, dim, count):
        rule = self._RULES[dim]
        for shape in ((count - 1,), (count + 1,), (count, 1)):
            with pytest.raises(ValueError, match=f"does not match {count} antenna harmonics"):
                HarmonicDensity(rule.boundary, np.ones(shape))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_nodal_values_carry_the_norm_and_project_back(self, dim):
        # The norm ||c|| is the quadrature norm of the nodal values, and
        # their explicit projection returns c, degree 0 at zero.
        rule = self._RULES[dim]
        c = np.random.default_rng(60 + dim).normal(size=harmonic_count(rule.boundary.degree, dim))
        h = HarmonicDensity(rule.boundary, c)
        g = nodal(h, rule)
        assert g.norm() == pytest.approx(h.norm(), rel=1e-14, abs=0)
        a, rest = explicit_coefficients(rule, g.values)
        assert np.max(np.abs(a - np.concatenate([[0.0], c]))) <= 1e-14 * np.max(np.abs(c))
        assert rest <= 1e-28 * h.norm() ** 2


class TestAdjoint:
    def test_defining_identity_random_pairs(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        rng = np.random.default_rng(41)
        for _ in range(100):
            u = Density(rule=antenna, values=rng.normal(size=antenna.node_count))
            t = ControlTrace(
                blocks=[rng.normal(size=r.node_count) for r in controls],
                rules=controls,
            )
            lhs = xi_inner(apply(controls, u), t)
            rhs = float(antenna.weights @ (u.values * apply_adjoint(antenna, t).values))
            scale = u.norm() * t.norm()
            assert abs(lhs - rhs) <= 1e-10 * scale

    def test_matches_independent_kernel_quadrature(self, demo2d_parts):
        # Oracle: Nystrom quadrature of the observation-side normal
        # derivative kernel, block by block, never touching the matrix.
        s, antenna, controls, K, v = demo2d_parts
        rng = np.random.default_rng(43)
        t = ControlTrace(
            blocks=[rng.normal(size=r.node_count) for r in controls],
            rules=controls,
        )
        direct = np.zeros(antenna.node_count)
        for block, rule in zip(t.blocks, controls):
            kern = adjoint_kernel(
                antenna.nodes[:, None, :], antenna.normals[:, None, :],
                rule.nodes[None, :, :], s.dim,
            )  # (n_antenna, n_control)
            direct += kern @ (rule.weights * block)
        via_matrix = apply_adjoint(antenna, t).values
        assert np.max(np.abs(direct - via_matrix)) <= 1e-12 * np.max(np.abs(direct))

    def test_zero_trace_zero_density(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        t = ControlTrace(blocks=[np.zeros(r.node_count) for r in controls], rules=controls)
        assert apply_adjoint(antenna, t).norm() == 0.0

    def test_single_block_restriction(self, demo2d_parts):
        # A trace supported on the outer sphere only must reproduce the
        # single-boundary adjoint integral.
        s, antenna, controls, K, v = demo2d_parts
        rng = np.random.default_rng(47)
        outer = controls[-1]
        data = rng.normal(size=outer.node_count)
        blocks = [np.zeros(r.node_count) for r in controls[:-1]] + [data]
        t = ControlTrace(blocks=blocks, rules=controls)
        kern = adjoint_kernel(
            antenna.nodes[:, None, :], antenna.normals[:, None, :],
            outer.nodes[None, :, :], s.dim,
        )
        expected = kern @ (outer.weights * data)
        assert np.allclose(apply_adjoint(antenna, t).values, expected, rtol=1e-12)


class TestXiInner:
    def test_positive_definite(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        rng = np.random.default_rng(3)
        t = ControlTrace(
            blocks=[rng.normal(size=r.node_count) for r in controls], rules=controls
        )
        assert xi_inner(t, t) > 0
        zero = ControlTrace(
            blocks=[np.zeros(r.node_count) for r in controls], rules=controls
        )
        assert xi_inner(zero, zero) == 0.0

    def test_constant_trace_measures_circumference(self):
        r_prime = 11.0
        rule = make_circle_rule((0.0, 0.0), r_prime, 64)
        t = ControlTrace(blocks=[np.ones(64)], rules=[rule])
        assert xi_inner(t, t) == pytest.approx(2 * np.pi * r_prime, rel=1e-14, abs=0)

    def test_symmetry(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        rng = np.random.default_rng(4)
        a = ControlTrace(blocks=[rng.normal(size=r.node_count) for r in controls],
                         rules=controls)
        b = ControlTrace(blocks=[rng.normal(size=r.node_count) for r in controls],
                         rules=controls)
        assert xi_inner(a, b) == xi_inner(b, a)

    def test_rule_mismatch_rejected(self):
        t1 = ControlTrace(blocks=[np.ones(8)], rules=[make_circle_rule((0, 0), 2.0, 8)])
        t2 = ControlTrace(blocks=[np.ones(8)], rules=[make_circle_rule((0, 0), 3.0, 8)])
        with pytest.raises(ValueError, match="different boundaries"):
            xi_inner(t1, t2)


class TestWeightedSVD:
    def test_singular_values_nonincreasing(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        sigma = weighted_svd(K).sigma
        assert np.all(np.diff(sigma) <= 0)

    def test_geometric_decay_on_demo_operator(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        sigma = weighted_svd(K).sigma[:30]
        slope = np.polyfit(np.arange(30), np.log10(sigma), 1)[0]
        assert slope < -0.1  # compactness shows up as geometric decay

    def test_rank_one_fixture(self):
        rng = np.random.default_rng(8)
        K = _operator_with(lambda rows, columns: np.outer(rng.normal(size=rows),
                                                          rng.normal(size=columns)))
        sigma = weighted_svd(K).sigma
        assert np.all(sigma[1:] <= 1e-12 * sigma[0])

    def test_sigma_and_vt_equal_gesdd_on_the_presets(self, preset_gesdd):
        # demo-2d is one block: gesdd's factors bit for bit.  demo-3d splits
        # by order: each block's factors are gesdd's of that block, so sigma
        # agrees with the whole matrix's within rounding of sigma_1 (measured
        # 3.4e-16) and vt's rows are orthonormal right singular vectors.
        K, (_, sigma, vt) = preset_gesdd
        svd = weighted_svd(K)
        if len(svd.blocks) == 1:
            assert np.array_equal(svd.sigma, sigma)
            assert np.array_equal(svd.vt, vt)
            return
        assert np.max(np.abs(svd.sigma - sigma)) <= 1e-14 * sigma[0]
        assert np.max(np.abs(svd.vt @ svd.vt.T - np.eye(sigma.shape[0]))) <= 1e-13
        images = np.linalg.norm(K.matrix @ svd.vt.T, axis=0)
        assert np.max(np.abs(images - svd.sigma)) <= 1e-14 * sigma[0]

    def test_projection_matches_gesdd_u(self, preset_gesdd):
        # U is gesdd's U of the whole matrix for one block (demo-2d), and of
        # each block placed on its rows for a split one (demo-3d): the
        # singular vectors of the tiny singular values are rounding's choice,
        # so only those of the same matrices compare.
        K, (u, _, _) = preset_gesdd
        svd = weighted_svd(K)
        if len(svd.blocks) > 1:
            u = np.zeros((K.matrix.shape[0], svd.sigma.shape[0]))
            for rows, columns, at, _ in svd.blocks:
                u[np.ix_(rows, at)] = np.linalg.svd(K.matrix[np.ix_(rows, columns)],
                                                    full_matrices=False)[0]
        rng = np.random.default_rng(17)
        for _ in range(5):
            x = rng.normal(size=K.matrix.shape[0])
            beta, perp_sq = svd.project(x)
            ref = u.T @ x
            ref_perp = x - u @ ref
            assert np.linalg.norm(beta) == pytest.approx(np.linalg.norm(ref), rel=1e-13, abs=0)
            assert perp_sq == pytest.approx(ref_perp @ ref_perp, rel=1e-13, abs=0)

    def test_u_from_unit_vectors_reconstructs_the_matrix(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        svd = weighted_svd(K)
        m = K.matrix.shape[0]
        u = np.array([svd.project(e)[0] for e in np.eye(m)])  # row i is U^T e_i
        rebuilt = (u * svd.sigma) @ svd.vt
        scale = np.max(np.abs(K.matrix))
        assert np.max(np.abs(rebuilt - K.matrix)) <= 1e-10 * scale

    def test_wide_operator_spans_every_trace(self, demo2d):
        # Fewer control rows than antenna columns: the region spheres alone at
        # a small control count (the outer sphere's diagonal has M rows).
        antenna, controls = build_rules(replace(demo2d, discretization=Discretization(64, 8)))
        K = assemble_forward(antenna, controls[:-1])
        assert K.matrix.shape == (14, 62)
        svd = weighted_svd(K)
        sigma = np.linalg.svd(K.matrix, compute_uv=False)
        assert svd.sigma.shape == sigma.shape == (14,)
        assert np.max(np.abs(svd.sigma - sigma)) <= 1e-14 * sigma[0]
        rng = np.random.default_rng(19)
        for _ in range(5):
            x = rng.normal(size=14)
            beta, perp_sq = svd.project(x)
            assert perp_sq == 0.0
            assert np.linalg.norm(beta) == pytest.approx(np.linalg.norm(x), rel=1e-14, abs=0)

    def test_spectrum_reproducible(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        K2 = assemble_forward(K.antenna, K.controls)
        assert np.array_equal(K.matrix, K2.matrix)
        s1 = weighted_svd(K).sigma
        s2 = weighted_svd(K2).sigma
        assert np.max(np.abs(s1 - s2)) <= 1e-12 * s1[0]


def _user_frame_matrix(K):
    """K's matrix on its boundaries turned back to the user's frame: what
    ``dump_operator`` writes."""
    return assemble_forward(K.antenna.in_user_frame(),
                            [b.in_user_frame() for b in K.controls]).matrix


def _fresh(parts):
    """A new operator on a preset's boundaries, never the session fixture's:
    the fixtures are shared and must keep their matrix."""
    K = parts[3]
    return assemble_forward(K.antenna, K.controls)


class TestRelease:
    def test_assembly_is_column_major(self, demo2d_parts):
        assert _fresh(demo2d_parts).matrix.flags.f_contiguous

    @pytest.mark.parametrize("parts", ["demo2d_parts", "demo3d_parts"])
    def test_release_matches_keep_bit_for_bit(self, parts, request):
        parts = request.getfixturevalue(parts)
        kept, released = _fresh(parts), _fresh(parts)
        keep = weighted_svd(kept)
        assert np.array_equal(kept.matrix, parts[3].matrix)   # the default keeps it
        gone = weighted_svd(released, release=True)
        assert released.matrix is None
        for name in ("sigma", "vt"):
            assert np.array_equal(getattr(gone, name), getattr(keep, name)), name
        assert len(gone.blocks) == len(keep.blocks)
        for (*_, a), (*_, b) in zip(gone.blocks, keep.blocks):
            for name in ("sigma", "vt", "tau", "reflectors", "u_r"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name

    @pytest.mark.parametrize("parts", ["demo2d_parts", "demo3d_parts"])
    def test_qr_is_numpys_raw_qr_bit_for_bit(self, parts, request, monkeypatch):
        # The in-place gufunc against np.linalg.qr(mode="raw") on a copy of
        # each block (the whole matrix on demo-2d, each order's on demo-3d),
        # and the factors of that public form, which stands in where numpy
        # lacks the gufunc, against those of the in-place one.
        parts = request.getfixturevalue(parts)
        svd = weighted_svd(_fresh(parts), release=True)
        for rows, columns, _, factors in svd.blocks:
            h, tau = np.linalg.qr(parts[3].matrix[rows][:, columns], mode="raw")
            k = tau.shape[0]
            assert np.array_equal(factors.tau, tau)
            assert np.array_equal(np.triu(factors.reflectors, 1), np.triu(h[:k], 1))
        monkeypatch.setattr(operator_module, "_QR_R_RAW", None)
        public = weighted_svd(_fresh(parts), release=True)
        for name in ("sigma", "vt"):
            assert np.array_equal(getattr(public, name), getattr(svd, name)), name
        for (*_, a), (*_, b) in zip(public.blocks, svd.blocks, strict=True):
            for name in ("sigma", "vt", "tau", "reflectors", "u_r"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_release_traces_one_matrix_and_keep_two(self, demo3d):
        # 1279 x 255, from assembly on, in the user's frame, where the
        # region at (10, 0, 0) is off the polar axis and the matrix one
        # block.  During the SVD a released operator
        # traces its matrix, which the QR overwrites in place, and the SVD of
        # R (three 255 x 255 arrays, under the slack); a kept one
        # the QR's copy too.  After it the released operator holds one
        # matrix-sized array, the reflectors, and a kept one the matrix too.
        antenna, controls = build_rules(replace(demo3d, discretization=Discretization(16, 32)))
        antenna, controls = antenna.in_user_frame(), [b.in_user_frame() for b in controls]
        assemble_forward(antenna, controls)   # fills the transform's table cache first
        held, peaks = {}, {}
        for release in (True, False):
            tracemalloc.start()
            try:
                K = assemble_forward(antenna, controls)
                nbytes = K.matrix.nbytes
                tracemalloc.reset_peak()
                weighted_svd(K, release=release)
                held[release], peaks[release] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            del K
        assert nbytes == 1279 * 255 * 8
        assert peaks[True] <= nbytes + 2 * MIB
        assert abs(peaks[False] - peaks[True] - nbytes) <= MIB / 4
        assert nbytes <= held[True] <= nbytes + 2 * MIB
        assert abs(held[False] - held[True] - nbytes) <= MIB / 4

    @pytest.mark.parametrize("control", [64, 181, 300])
    def test_tall_region_stays_under_the_estimate(self, demo3d, control):
        # Two antenna nodes (L = 1, M = 3) and a region of control^2 rows,
        # up to 90 000: assembly and the SVD trace the matrix, one row
        # block's temporaries (under 1 MiB) and the translation's tables,
        # about 67 bytes per (L + D + 1)^2, which the estimate charges
        # beyond RUN_OVERHEAD_BYTES.  With its rows in blocks of 65 536 and
        # no table charge, a region of 65 536 rows traced 14.6 MiB against
        # an estimate of 12.0.
        antenna, controls = build_rules(replace(demo3d, discretization=Discretization(2, control)))
        assemble_forward(antenna, controls)
        tracemalloc.start()
        try:
            K = assemble_forward(antenna, controls)
            m, columns = K.matrix.shape
            weighted_svd(K, release=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (m, columns) == (control**2 + 3, 3)
        assert peak <= factorization_cost(antenna, controls)[0] - RUN_OVERHEAD_BYTES + MIB

    @pytest.mark.parametrize("dim, nodes", [
        (2, (4, 4)), (2, (16, 64)), (2, (64, 16)), (2, (128, 128)), (2, (768, 768)),
        (2, (32, 4096)), (3, (2, 2)), (3, (4, 12)), (3, (12, 4)), (3, (24, 24)), (3, (32, 32))])
    def test_one_block_is_priced_as_one_dense_factorization(self, demo2d, demo3d, dim, nodes):
        # demo-2d's two regions, and demo-3d's with a second region off its
        # line, are not axial: one block, priced as two m x M arrays and six
        # k x k, k = min(m, M), the translation's tables and
        # RUN_OVERHEAD_BYTES, at m M^2 flops.
        s = demo2d if dim == 2 else replace(demo3d, regions=(*demo3d.regions, replace(
            demo3d.regions[0], center=np.array([0.0, 10.0, 0.0]))))
        antenna, controls = build_rules(replace(s, discretization=Discretization(*nodes)))
        m, columns = row_offsets(antenna, controls)[-1], harmonic_count(antenna.degree, dim)
        k = min(m, columns)
        need = (8 * (2 * m * columns + 6 * k * k) + TABLE_BYTES * 2 * (columns + 1 + m)
                + RUN_OVERHEAD_BYTES)
        assert factorization_cost(antenna, controls) == (need, m * columns**2)

    def test_a_large_axial_operator_is_priced_by_its_blocks(self, demo3d):
        # demo-3d at 128 nodes, priced and never run: a 32767 x 16383 matrix
        # of 4.0 GiB in 255 blocks, the largest 255 x 127, which with the
        # blocks, the dense 16383 x 16383 vt and the largest block's
        # factorization comes to 6.04 GiB, where one dense factorization of
        # the matrix would be priced at 20.01 GiB.
        antenna, controls = build_rules(replace(demo3d, discretization=Discretization(128, 128)))
        m, columns = 32767, 16383
        assert row_offsets(antenna, controls)[-1] == m
        need, flops = factorization_cost(antenna, controls)
        assert flops == 255 * 127**2
        assert 8 * (m + columns) * columns < need < 6.1 * 2**30

    def test_dump_assembles_a_released_3d_operator_bit_for_bit(self, demo3d_parts, tmp_path):
        # 1151 x 575: each region's fields come in many blocks of antenna orders.
        # The dump is the user's frame's matrix (demo-3d's solve frame turns
        # its region onto the z axis).
        K = _fresh(demo3d_parts)
        matrix = _user_frame_matrix(K)
        weighted_svd(K, release=True)
        dump_operator(K, tmp_path / "operator.bin")
        assert np.array_equal(load_operator_dump(tmp_path / "operator.bin")[0], matrix)

    def test_released_operator_still_serves(self, demo2d_parts, tmp_path):
        rng = np.random.default_rng(23)
        s, antenna, controls = demo2d_parts[:3]
        K = _fresh(demo2d_parts)
        matrix = K.matrix.copy()
        h = Density(rule=antenna, values=rng.normal(size=antenna.node_count))
        t = _split(rng.normal(size=sum(r.node_count for r in controls)), controls)
        before = apply(controls, h).concatenated, apply_adjoint(antenna, t).values
        weighted_svd(K, release=True)
        assert K.matrix is None
        dump_operator(K, tmp_path / "operator.bin")   # rows evaluated again
        assert np.array_equal(load_operator_dump(tmp_path / "operator.bin")[0], matrix)
        assert len(block_residuals(K, projected(h), harmonic_trace(t))) == 3   # the factors serve
        # The Nystrom oracles never read the matrix.
        assert np.array_equal(apply(controls, h).concatenated, before[0])
        assert np.array_equal(apply_adjoint(antenna, t).values, before[1])


class TestFactoredResidual:
    # Each case checks the two links from the factored residuals to the nodal
    # matvec: the factors against the operator's own matrix, and its
    # closed-form columns against the Nystrom sums of the basis densities.
    @pytest.mark.parametrize("parts, eps", [("demo2d_parts", FEASIBLE_EPS_2D),
                                            ("demo3d_parts", FEASIBLE_EPS_3D)])
    def test_presets_match_the_nodal_matvec(self, parts, eps, request):
        s, antenna, controls, K, v = request.getfixturevalue(parts)
        h, _ = solve_min_energy(K, v, eps)
        assert_residuals_match_the_matrix(K, h, v, controls)
        assert_columns_match_the_nystrom_sum(K, antenna, controls)

    def test_wide_operator_matches_the_nodal_matvec(self, demo2d):
        # The region spheres alone, as in test_wide_operator_spans_every_trace.
        s = replace(demo2d, discretization=Discretization(64, 8))
        antenna, controls = build_rules(s)
        K = assemble_forward(antenna, controls[:-1])
        v = build_target(demo2d, controls)
        v = HarmonicTrace(blocks=v.blocks[:-1], outside=v.outside[:-1],
                          boundaries=controls[:-1])
        h, _ = solve_min_energy(K, v, FEASIBLE_EPS_2D)
        assert K.matrix.shape == (14, 62)
        antenna, controls = scenario_rules(s)
        assert_residuals_match_the_matrix(K, h, v, controls[:-1])
        assert_columns_match_the_nystrom_sum(K, antenna, controls[:-1])

    def test_random_density_matches_the_nodal_matvec(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        rng = np.random.default_rng(29)
        for _ in range(3):
            h = projected(Density(rule=antenna, values=rng.normal(size=antenna.node_count)))
            assert_residuals_match_the_matrix(K, h, v, controls)
        assert_columns_match_the_nystrom_sum(K, antenna, controls)


class TestDump:
    def test_round_trip(self, demo2d_parts, tmp_path):
        K = demo2d_parts[3]
        path = tmp_path / "operator.bin"
        dump_operator(K, path)
        matrix, sigma = load_operator_dump(path)
        assert np.array_equal(matrix, K.matrix)
        assert np.array_equal(sigma, weighted_svd(K).sigma)

    @pytest.mark.parametrize("parts", ["demo2d_parts", "demo3d_parts"])
    def test_released_dump_equals_the_kept_matrix_in_ragged_blocks(self, parts, request,
                                                                   tmp_path, monkeypatch):
        parts = request.getfixturevalue(parts)
        kept, released = _fresh(parts), _fresh(parts)
        m, columns = kept.matrix.shape
        # 7 rows a block; demo-3d's 2304 rows end in a block of one.
        monkeypatch.setattr(kernels, "BLOCK_PAIRS", 7 * columns)
        assert m % 7
        weighted_svd(released, release=True)
        dumps = {}
        for name, K in (("kept", kept), ("released", released)):
            dump_operator(K, tmp_path / name)
            dumps[name] = (tmp_path / name).read_bytes()
        assert dumps["kept"] == dumps["released"]
        matrix = _user_frame_matrix(kept)
        assert dumps["kept"][40:40 + 8 * m * columns] == np.ascontiguousarray(matrix).tobytes()

    def test_dump_streams_the_matrix_row_major(self, demo3d_parts, tmp_path):
        K = demo3d_parts[3]
        weighted_svd(K)
        path = tmp_path / "operator.bin"
        tracemalloc.start()
        try:
            dump_operator(K, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * MIB   # row blocks, not copies of the 5 MiB matrix
        m, n = K.matrix.shape
        matrix = _user_frame_matrix(K)
        assert path.read_bytes()[40:40 + 8 * m * n] == np.ascontiguousarray(matrix).tobytes()

    @pytest.mark.parametrize("parts", ["demo2d_parts", "demo3d_parts"])
    def test_outer_rows_are_made_without_the_whole_diagonal(self, parts, request):
        # Seven of the outer sphere's M rows, as a released dump makes them:
        # bit for bit the whole block's, and traced below one M x M array.
        s, antenna, controls, K, v = request.getfixturevalue(parts)
        rows, columns = slice(100, 107), K.matrix.shape[1]
        whole = _coefficient_block(K.antenna, K.controls[-1])
        assert whole.tobytes() == K.matrix[K.block_rows[-1]].tobytes()
        tracemalloc.start()
        try:
            part = _coefficient_block(K.antenna, K.controls[-1], rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert part.shape == (7, columns) and part.tobytes() == whole[rows].tobytes()
        assert peak < columns**2 * 8

    @pytest.mark.parametrize("parts", ["demo2d_parts", "demo3d_parts"])
    def test_region_rows_are_made_without_the_whole_block(self, parts, request):
        # Seven of region 1's rows, as a released dump makes them: bit for
        # bit the whole block's, and traced below half of it (measured: 0.32
        # of the 127 x 126 block in 2D, 0.067 of the 576 x 575 one in 3D;
        # the quadrature assembly, which evaluated the fields at all the
        # rule's nodes for each row block, traced 6.2 and 0.73 of it).
        s, antenna, controls, K, v = request.getfixturevalue(parts)
        rows, columns = slice(100, 107), K.matrix.shape[1]
        whole = _coefficient_block(K.antenna, K.controls[0])
        assert whole.tobytes() == K.matrix[K.block_rows[0]].tobytes()
        tracemalloc.start()
        try:
            part = _coefficient_block(K.antenna, K.controls[0], rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert part.shape == (7, columns) and part.tobytes() == whole[rows].tobytes()
        assert peak < whole.nbytes / 2

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        for junk in (b"\x00" * 64, b"FCOP"):   # shorter than a header too
            path.write_bytes(junk)
            with pytest.raises(ValueError, match="dump"):
                load_operator_dump(path)

    @pytest.mark.parametrize("cut, pad", [(16, b""), (0, b"\x00" * 24)])
    def test_rejects_a_file_of_the_wrong_length(self, demo2d_parts, tmp_path, cut, pad):
        path = tmp_path / "operator.bin"
        dump_operator(demo2d_parts[3], path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - cut] + pad)
        with pytest.raises(ValueError, match=f"{re.escape(str(path))} holds"):
            load_operator_dump(path)
