"""Forward operator assembly, adjointness, inner products, weighted SVD."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fieldcast import (
    ControlTrace,
    Density,
    ForwardOperator,
    adjoint_kernel,
    apply,
    apply_adjoint,
    assemble_forward,
    build_target,
    kernels,
    make_circle_rule,
    make_sphere_rule,
    weighted_svd,
    xi_inner,
)
from conftest import (FEASIBLE_EPS_2D, FEASIBLE_EPS_3D, assert_columns_match_the_nystrom_sum,
                      assert_residuals_match_the_matrix, nystrom_matrix)
from fieldcast.geometry import (UNIT_SPHERE_MEASURE, Discretization, build_rules, harmonic_degree,
                                rule_degree)
from fieldcast import operator as operator_module
from fieldcast.operator import (basis_field_blocks, basis_fields, block_residuals, degree_gains,
                                dump_operator, load_operator_dump, matrix_rows)
from fieldcast.solver import solve_min_energy

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
    """Operator with the genuine basis and rules of the small geometry and
    the matrix ``matrix_of(rows, M)`` gives for its shape."""
    antenna, controls = _small_geometry(n_antenna, n_control)
    genuine = assemble_forward(antenna, controls)
    return ForwardOperator(matrix=matrix_of(*genuine.matrix.shape), basis=genuine.basis,
                           antenna_rule=antenna, control_rules=controls)


def _random_operator(rng, n_antenna=6, n_control=10):
    """Operator with a random matrix but genuine basis and rules."""
    return _operator_with(lambda rows, columns: rng.normal(size=(rows, columns)),
                          n_antenna, n_control)


def _node_count(K):
    return sum(r.node_count for r in K.control_rules)


class TestAssembleApply:
    @pytest.mark.parametrize("parts", ["demo2d_parts", "demo3d_parts"])
    def test_matrix_rows_counts_the_assembled_rows(self, parts, request):
        s, antenna, controls, K, v = request.getfixturevalue(parts)
        d = s.discretization
        rows = matrix_rows(s.dim, s.n_regions, rule_degree(d.control, s.dim),
                           rule_degree(d.antenna, s.dim))
        assert rows == K.matrix.shape[0] == K.block_rows[-1].stop

    @pytest.mark.parametrize("parts", ["demo2d_parts", "demo3d_parts"])
    @pytest.mark.parametrize("values", [1, 300, 2**16])
    def test_basis_field_blocks_tile_the_fields(self, parts, values, request, monkeypatch):
        # Blocks of whole orders, of at most BASIS_BLOCK_VALUES values unless
        # one order has more, that cover every column once, bit for bit.
        s, antenna, controls, K, v = request.getfixturevalue(parts)
        points = controls[0].nodes
        whole = basis_fields(antenna, points)
        monkeypatch.setattr(operator_module, "BASIS_BLOCK_VALUES", values)
        seen = []
        for columns, fields in basis_field_blocks(antenna, points):
            assert fields.flags.f_contiguous
            assert fields.size <= max(values, fields.shape[0] * 2 * harmonic_degree(antenna))
            assert np.array_equal(fields, whole[:, columns])
            seen += columns.tolist()
        assert sorted(seen) == list(range(whole.shape[1]))

    def test_unit_density_maps_to_zero_trace(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        ones = Density(rule=antenna, values=np.ones(antenna.node_count))
        t = apply(K, ones)
        assert t.norm() <= 1e-10 * ones.norm()

    def test_antenna_refinement_agreement(self, demo2d_parts):
        # Same control nodes, antenna node count doubled: the analytic
        # kernels make the coarse trapezoid rule already exact.
        s, antenna, controls, K, v = demo2d_parts
        a64 = make_circle_rule((0.0, 0.0), s.delta, 64)
        k64 = assemble_forward(a64, controls)
        theta64 = np.arctan2(a64.nodes[:, 1], a64.nodes[:, 0])
        theta = np.arctan2(antenna.nodes[:, 1], antenna.nodes[:, 0])
        t64 = apply(k64, Density(rule=a64, values=np.cos(theta64)))
        t128 = apply(K, Density(rule=antenna, values=np.cos(theta)))
        for b1, b2 in zip(t64.blocks, t128.blocks):
            assert np.max(np.abs(b1 - b2)) <= 1e-10

    def test_all_counts_doubled_trace_change_small(self, demo2d):
        # Control circles share their coarse nodes with the doubled rules
        # (even indices), so traces are comparable pointwise there.
        from dataclasses import replace

        from fieldcast.geometry import Discretization, build_rules

        results = {}
        for n in (128, 256):
            sn = replace(demo2d, discretization=Discretization(n, n))
            antenna, controls = build_rules(sn)
            K = assemble_forward(antenna, controls)
            theta = np.arctan2(antenna.nodes[:, 1], antenna.nodes[:, 0])
            h = Density(rule=antenna, values=np.exp(np.cos(theta)))
            results[n] = apply(K, h)
        for b_coarse, b_fine in zip(results[128].blocks, results[256].blocks):
            assert np.max(np.abs(b_coarse - b_fine[::2])) <= 1e-9
        assert results[128].norm() == pytest.approx(results[256].norm(), abs=1e-9)

    def test_linearity(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        rng = np.random.default_rng(7)
        h1 = rng.normal(size=antenna.node_count)
        h2 = rng.normal(size=antenna.node_count)
        a, b = 1.7, -0.4
        combo = apply(K, Density(rule=antenna, values=a * h1 + b * h2))
        parts = [apply(K, Density(rule=antenna, values=h)) for h in (h1, h2)]
        for blk, p1, p2 in zip(combo.blocks, parts[0].blocks, parts[1].blocks):
            assert np.max(np.abs(blk - (a * p1 + b * p2))) <= 1e-12

    def test_zero_density_zero_trace(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        t = apply(K, Density(rule=antenna, values=np.zeros(antenna.node_count)))
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
        radius = controls[-1].boundary.radius
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
        m = _node_count(K)
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
        trace = apply(K, Density(rule=antenna, values=h)).concatenated
        # Both sums within the dot-product error bound n u sum |a_j h_j| of the exact one.
        u = 2.0**-53
        assert np.all(np.abs(trace - reference @ h)
                      <= 2 * antenna.node_count * u * (np.abs(reference) @ np.abs(h)))
        t = rng.normal(size=m)
        adjoint = apply_adjoint(K, K.split(t)).values
        wt = np.concatenate([r.weights for r in controls]) * t
        expected = (reference.T @ wt) / antenna.weights
        assert np.all(np.abs(adjoint - expected)
                      <= 2 * (m + 2) * u * (np.abs(reference).T @ np.abs(wt)) / antenna.weights)

    @pytest.mark.parametrize("parts", ["demo2d_parts", "demo3d_parts"])
    def test_columns_match_the_nystrom_sum(self, parts, request):
        assert_columns_match_the_nystrom_sum(request.getfixturevalue(parts)[3])

    @pytest.mark.parametrize("parts", ["demo2d_parts", "demo3d_parts"])
    def test_basis_is_orthonormal_on_the_antenna_rule(self, parts, request):
        s, antenna, controls, K, v = request.getfixturevalue(parts)
        gram = K.basis.T @ (antenna.weights[:, None] * K.basis)
        assert np.max(np.abs(gram - np.eye(K.basis.shape[1]))) <= 1e-13

    def test_3d_columns_match_the_nystrom_sum_at_a_pool_shape(self, demo3d):
        # 16 polar antenna nodes resolve degree 15 = L*: the shape of the
        # smaller benchmark antenna, 4 x 8 control nodes per sphere.
        antenna, controls = build_rules(replace(demo3d, discretization=Discretization(16, 8)))
        assert_columns_match_the_nystrom_sum(assemble_forward(antenna, controls))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["matrix", "basis"])
    def test_non_finite_entries_rejected(self, bad, where):
        K = _random_operator(np.random.default_rng(5))
        arrays = {"matrix": K.matrix.copy(), "basis": K.basis.copy()}
        arrays[where][-1, -1] = bad
        with pytest.raises(ValueError, match=f"{where} contains non-finite"):
            ForwardOperator(**arrays, antenna_rule=K.antenna_rule, control_rules=K.control_rules)

    def test_finiteness_scan_allocates_no_matrix_sized_mask(self, demo3d):
        antenna, controls = build_rules(replace(demo3d, discretization=Discretization(16, 64)))
        K = assemble_forward(antenna, controls)
        assert K.matrix.shape == (64**2 + 255, 255)   # the region's harmonics, the outer diagonal
        tracemalloc.start()
        try:
            ForwardOperator(matrix=K.matrix, basis=K.basis, antenna_rule=antenna,
                            control_rules=controls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= K.matrix.size // 8   # a whole bool mask is K.matrix.size bytes

    def test_assembly_peak_memory_is_about_the_matrix(self, demo3d_parts):
        # The matrix and the basis it returns, and at most 1 MiB more: a
        # region's block is projected from its fields a few antenna orders at
        # a time, so that holds less than the basis made after the blocks.
        # At 1151 x 575 the bound is 11.1 MiB, under the 18.1 MiB (matrix + 8
        # MiB) the 2304 x 575 nodal matrix it replaced was held to.
        s, antenna, controls, K, v = demo3d_parts
        tracemalloc.start()
        try:
            result = assemble_forward(antenna, controls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= result.matrix.nbytes + result.basis.nbytes + MIB

    def test_separation_violation_rejected(self):
        antenna = make_circle_rule((0.0, 0.0), 1.0, 16)
        touching = make_circle_rule((2.0, 0.0), 1.0, 16)  # touches the antenna
        with pytest.raises(ValueError, match="too close"):
            assemble_forward(antenna, [touching])

    def test_dimension_mismatch_rejected(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        wrong = Density(rule=make_circle_rule((0.0, 0.0), 1.0, 64), values=np.ones(64))
        with pytest.raises(ValueError, match="does not match"):
            apply(K, wrong)
        # Same node counts on other spheres: not a trace of K's.
        moved = [make_circle_rule(r.boundary.center, 1.5 * r.boundary.radius, r.node_count)
                 for r in controls]
        t = ControlTrace(blocks=[np.ones(r.node_count) for r in moved], rules=moved)
        with pytest.raises(ValueError, match="different boundaries"):
            apply_adjoint(K, t)
        with pytest.raises(ValueError, match="mixed dimensions"):
            assemble_forward(antenna, [make_sphere_rule((0.0, 0.0, 0.0), 20.0, 4, 8)])

    _ENTRIES = [
        apply,
        lambda K, h: K.coefficients(h),
        lambda K, h: block_residuals(
            K, h, ControlTrace([np.zeros(r.node_count) for r in K.control_rules], K.control_rules)),
    ]
    _ENTRY_IDS = ["apply", "coefficients", "block_residuals"]
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
        K = assemble_forward(antenna(), [control])
        h = Density(rule=other, values=np.ones(other.node_count))
        with pytest.raises(ValueError, match="antenna rule"):
            entry(K, h)

    def test_traces_on_another_node_layout_rejected(self):
        # 96 nodes on the same sphere as 12 x 8 and as 8 x 12: not the same trace space.
        a, b = (make_sphere_rule((0.0, 0.0, 0.0), 1.0, *n) for n in [(12, 8), (8, 12)])
        s, t = (ControlTrace(blocks=[np.ones(96)], rules=[r]) for r in (a, b))
        with pytest.raises(ValueError, match="different boundaries"):
            xi_inner(s, t)

    @pytest.mark.parametrize("entry", _ENTRIES, ids=_ENTRY_IDS)
    @pytest.mark.parametrize("geometry", [_UNIT_CIRCLE, _UNIT_SPHERE], ids=["2d", "3d"])
    def test_density_on_a_rebuilt_antenna_rule_accepted(self, entry, geometry):
        # An equal rule built anew is the same rule: the check compares nodes, not identity.
        antenna, control = geometry
        K = assemble_forward(antenna(), [control])
        h = Density(rule=antenna(), values=np.ones(K.antenna_rule.node_count))
        assert h.rule is not K.antenna_rule
        entry(K, h)


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
            lhs = xi_inner(apply(K, u), t)
            rhs = float(antenna.weights @ (u.values * apply_adjoint(K, t).values))
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
        via_matrix = apply_adjoint(K, t).values
        assert np.max(np.abs(direct - via_matrix)) <= 1e-12 * np.max(np.abs(direct))

    def test_zero_trace_zero_density(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        t = ControlTrace(blocks=[np.zeros(r.node_count) for r in controls], rules=controls)
        assert apply_adjoint(K, t).norm() == 0.0

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
        assert np.allclose(apply_adjoint(K, t).values, expected, rtol=1e-12)


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
        assert xi_inner(t, t) == pytest.approx(2 * np.pi * r_prime, rel=1e-14)

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
        K, (_, sigma, vt) = preset_gesdd
        svd = weighted_svd(K)
        assert np.array_equal(svd.sigma, sigma)
        assert np.array_equal(svd.vt, vt)

    def test_projection_matches_gesdd_u(self, preset_gesdd):
        K, (u, _, _) = preset_gesdd
        rng = np.random.default_rng(17)
        for _ in range(5):
            x = rng.normal(size=K.matrix.shape[0])
            beta, perp_sq = weighted_svd(K).project(x)
            ref = u.T @ x
            ref_perp = x - u @ ref
            assert np.linalg.norm(beta) == pytest.approx(np.linalg.norm(ref), rel=1e-13)
            assert perp_sq == pytest.approx(ref_perp @ ref_perp, rel=1e-13)

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
            assert np.linalg.norm(beta) == pytest.approx(np.linalg.norm(x), rel=1e-14)

    def test_spectrum_reproducible(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        K2 = assemble_forward(antenna, controls)
        assert np.array_equal(K.matrix, K2.matrix)
        s1 = weighted_svd(K).sigma
        s2 = weighted_svd(K2).sigma
        assert np.max(np.abs(s1 - s2)) <= 1e-12 * s1[0]


def _fresh(parts):
    """A new operator on a preset's rules, never the session fixture's: the
    fixtures are shared and must keep their matrix."""
    s, antenna, controls, K, v = parts
    return assemble_forward(antenna, controls)


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
        for name in ("sigma", "vt", "tau", "reflectors", "u_r"):
            assert np.array_equal(getattr(gone, name), getattr(keep, name)), name

    @pytest.mark.parametrize("parts", ["demo2d_parts", "demo3d_parts"])
    def test_qr_is_numpys_raw_qr_bit_for_bit(self, parts, request, monkeypatch):
        # The in-place gufunc against np.linalg.qr(mode="raw") on a copy, and
        # the factors of that public form, which stands in where numpy lacks
        # the gufunc, against those of the in-place one.
        parts = request.getfixturevalue(parts)
        h, tau = np.linalg.qr(parts[3].matrix, mode="raw")
        svd = weighted_svd(_fresh(parts), release=True)
        k = tau.shape[0]
        assert np.array_equal(svd.tau, tau)
        assert np.array_equal(np.triu(svd.reflectors, 1), np.triu(h[:k], 1))
        monkeypatch.setattr(operator_module, "_QR_R_RAW", None)
        public = weighted_svd(_fresh(parts), release=True)
        for name in ("sigma", "vt", "tau", "reflectors", "u_r"):
            assert np.array_equal(getattr(public, name), getattr(svd, name)), name

    def test_release_traces_one_matrix_and_keep_two(self, demo3d):
        # 1279 x 255, from assembly on.  During the SVD a released operator
        # traces its matrix, which the QR overwrites in place, its basis and
        # the SVD of R (three 255 x 255 arrays, under the slack); a kept one
        # the QR's copy too.  After it the released operator holds one
        # matrix-sized array, the reflectors, and a kept one the matrix too.
        antenna, controls = build_rules(replace(demo3d, discretization=Discretization(16, 32)))
        assemble_forward(antenna, controls)   # fills the transform's table cache first
        held, peaks = {}, {}
        for release in (True, False):
            tracemalloc.start()
            try:
                K = assemble_forward(antenna, controls)
                nbytes, basis = K.matrix.nbytes, K.basis.nbytes
                tracemalloc.reset_peak()
                weighted_svd(K, release=release)
                held[release], peaks[release] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            del K
        assert nbytes == 1279 * 255 * 8
        assert peaks[True] <= nbytes + basis + 2 * MIB
        assert abs(peaks[False] - peaks[True] - nbytes) <= MIB / 4
        assert nbytes + basis <= held[True] <= nbytes + basis + 2 * MIB
        assert abs(held[False] - held[True] - nbytes) <= MIB / 4

    def test_dump_assembles_a_released_3d_operator_bit_for_bit(self, demo3d_parts, tmp_path):
        # 1151 x 575: each region's fields come in many blocks of antenna orders.
        K = _fresh(demo3d_parts)
        matrix = K.matrix.copy()
        weighted_svd(K, release=True)
        dump_operator(K, tmp_path / "operator.bin")
        assert np.array_equal(load_operator_dump(tmp_path / "operator.bin")[0], matrix)

    def test_released_operator_still_serves(self, demo2d_parts, tmp_path):
        rng = np.random.default_rng(23)
        K = _fresh(demo2d_parts)
        matrix = K.matrix.copy()
        h = Density(rule=K.antenna_rule, values=rng.normal(size=K.antenna_rule.node_count))
        t = K.split(rng.normal(size=_node_count(K)))
        before = apply(K, h).concatenated, apply_adjoint(K, t).values
        weighted_svd(K, release=True)
        assert K.matrix is None
        dump_operator(K, tmp_path / "operator.bin")   # rows evaluated again
        assert np.array_equal(load_operator_dump(tmp_path / "operator.bin")[0], matrix)
        assert len(block_residuals(K, h, t)) == 3   # the factors still serve
        # The Nystrom oracles never read the matrix.
        assert np.array_equal(apply(K, h).concatenated, before[0])
        assert np.array_equal(apply_adjoint(K, t).values, before[1])


class TestFactoredResidual:
    # Each case checks the two links from the factored residuals to the nodal
    # matvec: the factors against the operator's own matrix, and its
    # closed-form columns against the Nystrom sums of the basis densities.
    @pytest.mark.parametrize("parts, eps", [("demo2d_parts", FEASIBLE_EPS_2D),
                                            ("demo3d_parts", FEASIBLE_EPS_3D)])
    def test_presets_match_the_nodal_matvec(self, parts, eps, request):
        s, antenna, controls, K, v = request.getfixturevalue(parts)
        h, _ = solve_min_energy(K, v, eps)
        assert_residuals_match_the_matrix(K, h, v)
        assert_columns_match_the_nystrom_sum(K)

    def test_wide_operator_matches_the_nodal_matvec(self, demo2d):
        # The region spheres alone, as in test_wide_operator_spans_every_trace.
        antenna, controls = build_rules(replace(demo2d, discretization=Discretization(64, 8)))
        K = assemble_forward(antenna, controls[:-1])
        v = build_target(demo2d, controls)
        v = ControlTrace(blocks=v.blocks[:-1], rules=controls[:-1])
        h, _ = solve_min_energy(K, v, FEASIBLE_EPS_2D)
        assert K.matrix.shape == (14, 62)
        assert_residuals_match_the_matrix(K, h, v)
        assert_columns_match_the_nystrom_sum(K)

    def test_random_density_matches_the_nodal_matvec(self, demo2d_parts):
        s, antenna, controls, K, v = demo2d_parts
        rng = np.random.default_rng(29)
        for _ in range(3):
            h = Density(rule=antenna, values=rng.normal(size=antenna.node_count))
            assert_residuals_match_the_matrix(K, h, v)
        assert_columns_match_the_nystrom_sum(K)


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
        assert dumps["kept"][40:40 + 8 * m * columns] == np.ascontiguousarray(kept.matrix).tobytes()

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
        assert path.read_bytes()[40:40 + 8 * m * n] == np.ascontiguousarray(K.matrix).tobytes()

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
