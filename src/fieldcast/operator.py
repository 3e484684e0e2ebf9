"""Forward operator from antenna densities to control-boundary traces.

The operator maps a density on the antenna boundary to the values of its
double-layer field on every control sphere (one block per region, then
the outer sphere).  It is built in closed form on an orthonormal basis of
antenna harmonics.  Outside the antenna sphere of radius delta, the double
layer of a surface harmonic of degree l is again that harmonic, times
l/(2l+1) (delta/r)^(l+1) in 3D and 1/2 (delta/r)^l in 2D (Kress, *Linear
Integral Equations*, ch. 6); degree 0 radiates nothing there (Gauss).  So
the field of basis density j is known everywhere outside the antenna
(:func:`basis_fields`), and the operator needs no antenna quadrature and
no singular kernel.  The nodal Nystrom quadrature of the double-layer
kernel stays as the oracle :func:`apply`.

The matrix holds each control sphere's block in that sphere's own
orthonormal harmonics, which is all the L2-minimal solution needs: the
singular system between the L2 spaces of antenna and control spheres.  A
region's block is the weighted harmonic projection of the fields at its
control nodes (:func:`fieldcast.geometry.harmonic_transform`): D^2 rows
in 3D and 2D - 1 in 2D, D the degrees 0 .. D - 1 its rule resolves, where
its nodal block had 2 D^2 or about 2D rows.  The outer sphere is
concentric with the antenna, so its block is the diagonal
g_l (delta/R)^(l+dim-2) (R/delta)^((dim-1)/2) over the antenna's degrees
1 .. L, in closed form, with no quadrature.  The part of each nodal block
that its rule does not resolve is measured at assembly and reported
(``ForwardOperator.unresolved``); targets are projected by the same
transform, and what of them the rule leaves over enters the residuals
whole.  Both bases are orthonormal, so the matrix's singular values are
the operator's between the function spaces, with no row or column
weighting.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

from .geometry import (SEPARATION_RTOL, QuadratureRule, frozen_array, harmonic_count,
                       harmonic_degree, harmonic_transform, order_columns, order_width,
                       surface_harmonics)
from .kernels import dlp_kernel, row_blocks

_DUMP_MAGIC = 0x46434F50  # "FCOP"
_DUMP_VERSION = 3

# block_residuals, through the factors, agrees with C c - y, C the operator's
# own matrix, c the density's coefficients and y the target's, within
# RESIDUAL_ROUNDING_C * u * (sigma_1 ||c|| + ||v||) per block, u = 2^-53.
# Largest ratio measured: 6.0 at the solved densities and 2.6 at random
# densities of the presets and 15 benchmark-pool scenarios; on the nodal
# matrix this one replaced, 13.1 over 4 500 random small scenarios.
RESIDUAL_ROUNDING_C = 64.0

# numpy's raw QR gufunc, which factors its argument in place; numpy before
# 2.0 has it only as qr_r_raw_m / qr_r_raw_n, and :func:`weighted_svd` then
# runs ``np.linalg.qr(mode="raw")``, the same gufunc on a copy.
_QR_R_RAW = getattr(_umath_linalg, "qr_r_raw", None)


@dataclass(frozen=True)
class Density:
    """Real values at the antenna rule's nodes."""

    rule: QuadratureRule
    values: np.ndarray  # (n,)

    def __post_init__(self):
        values = frozen_array(self.values)
        if values.shape != (self.rule.node_count,):
            raise ValueError(
                f"values shape {values.shape} does not match {self.rule.node_count} nodes"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")
        object.__setattr__(self, "values", values)

    def norm(self) -> float:
        """Quadrature-weighted L2 norm over the antenna boundary."""
        return self.rule.l2_norm(self.values)


@dataclass(frozen=True)
class ControlTrace:
    """One value block per control boundary, regions first, outer sphere last."""

    blocks: list[np.ndarray]
    rules: list[QuadratureRule]

    def __post_init__(self):
        if len(self.blocks) != len(self.rules):
            raise ValueError(
                f"{len(self.blocks)} blocks for {len(self.rules)} control rules"
            )
        blocks = [frozen_array(b) for b in self.blocks]
        for arr, rule in zip(blocks, self.rules):
            if arr.shape != (rule.node_count,):
                raise ValueError(
                    f"block shape {arr.shape} does not match {rule.node_count} nodes"
                )
        object.__setattr__(self, "blocks", blocks)

    @property
    def concatenated(self) -> np.ndarray:
        return np.concatenate(self.blocks)

    def norm(self) -> float:
        """Product-space norm: root of the summed weighted block norms."""
        return float(np.sqrt(xi_inner(self, self)))

    def __sub__(self, other: "ControlTrace") -> "ControlTrace":
        _check_same_rules(self.rules, other.rules)
        return ControlTrace(
            blocks=[a - b for a, b in zip(self.blocks, other.blocks)],
            rules=self.rules,
        )


def _same_rule(a: QuadratureRule, b: QuadratureRule) -> bool:
    """Same node count, boundary (dimension, radius, centre), nodes and weights."""
    return a is b or (a.node_count == b.node_count and a.boundary.dim == b.boundary.dim
                      and abs(a.boundary.radius - b.boundary.radius) <= 1e-14 * a.boundary.radius
                      and np.max(np.abs(a.boundary.center - b.boundary.center)) <= 1e-14
                      and np.array_equal(a.nodes, b.nodes) and np.array_equal(a.weights, b.weights))


def _check_same_rules(s: list[QuadratureRule], t: list[QuadratureRule]) -> None:
    if len(s) != len(t):
        raise ValueError("control traces have different block counts")
    if not all(map(_same_rule, s, t)):
        raise ValueError("control traces are defined on different boundaries")


def xi_inner(s: ControlTrace, t: ControlTrace) -> float:
    """Product-space inner product: sum of weighted surface inner products."""
    _check_same_rules(s.rules, t.rules)
    total = 0.0
    for a, b, rule in zip(s.blocks, t.blocks, s.rules):
        total += float(rule.weights @ (a * b))
    return total


@dataclass(frozen=True)
class WeightedSVD:
    """Thin SVD C = U diag(sigma) Vt of the operator's matrix C, with U kept
    factored as U = Q U_R: Q is the orthogonal factor of C's QR, held as its
    Householder reflectors, and U_R the left factor of the SVD of R.  U is
    never formed; :meth:`project` applies its transpose and :meth:`lift` U."""

    sigma: np.ndarray    # (k,) nonincreasing, k = min(m, M)
    vt: np.ndarray       # (k, M)
    reflectors: np.ndarray  # (k, m): reflector j is [0]*j + [1] + reflectors[j, j+1:]
    tau: np.ndarray      # (k,) reflector scales, H_j = I - tau_j v_j v_j^T
    u_r: np.ndarray      # (k, k)

    def project(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """(U^T x, ||x - U U^T x||^2) for x of length m.

        Applies Q^T = H_k ... H_1 one reflector at a time, then U_R^T to the
        first k entries; the squared norm of the remaining m - k entries is
        the part of x outside U's columns, summed without cancellation.
        """
        y = np.array(x, dtype=float)  # (m,)
        for j, (w, t) in enumerate(zip(self.reflectors, self.tau)):
            w = w[j:]
            y[j:] -= (t * (w @ y[j:])) * w
        k = self.tau.shape[0]
        tail = y[k:]
        return self.u_r.T @ y[:k], float(tail @ tail)

    def lift(self, z: np.ndarray) -> np.ndarray:
        """U z for z of length k, the mirror of :meth:`project`: U_R z padded
        with m - k zeros, then Q = H_1 ... H_k applied last reflector first."""
        k = self.tau.shape[0]
        y = np.zeros(self.reflectors.shape[1])  # (m,)
        y[:k] = self.u_r @ z
        for j in range(k - 1, -1, -1):
            w = self.reflectors[j, j:]
            y[j:] -= (self.tau[j] * (w @ y[j:])) * w
        return y


def _check_finite(a: np.ndarray, what: str) -> None:
    """Raise unless every entry is finite, scanning one block of columns at a
    time so that no array of a's size is allocated."""
    for cols in row_blocks(a.shape[1], a.shape[0]):
        if not np.isfinite(a[:, cols]).all():
            raise ValueError(f"operator {what} contains non-finite entries")


def _concentric(antenna: QuadratureRule, rule: QuadratureRule) -> bool:
    """Whether the control rule's sphere shares the antenna's centre, so that
    its block is the closed-form diagonal of :func:`_coefficient_block`."""
    return bool(np.array_equal(rule.boundary.center, antenna.boundary.center))


def _region_rows(degree: int, dim: int) -> int:
    """Rows of a region's block, for a rule of :func:`harmonic_degree`
    ``degree``: one per harmonic of degrees 0 .. ``degree``."""
    return harmonic_count(degree, dim) + 1


def _block_rows(antenna: QuadratureRule, rule: QuadratureRule) -> int:
    """Rows of a control rule's block: one per antenna harmonic on a sphere
    concentric with the antenna, else one per harmonic the rule resolves."""
    if _concentric(antenna, rule):
        return harmonic_count(harmonic_degree(antenna), antenna.boundary.dim)
    return _region_rows(harmonic_degree(rule), rule.boundary.dim)


def matrix_rows(dim: int, n_regions: int, control_degree: int, antenna_degree: int) -> int:
    """Rows of the matrix :func:`assemble_forward` builds from ``n_regions``
    region rules and the outer one, all of :func:`harmonic_degree`
    ``control_degree``, and an antenna rule of degree ``antenna_degree``:
    :func:`_block_rows` summed, with no rule built."""
    return n_regions * _region_rows(control_degree, dim) + harmonic_count(antenna_degree, dim)


@dataclass
class ForwardOperator:
    """Trace operator on the antenna's harmonic basis, with SVD cache.

    Column j of ``matrix`` holds the field radiated by basis density j,
    whose values at the antenna nodes are column j of ``basis``, as
    coefficients on each control sphere's orthonormal harmonics: one block
    of rows per control rule, in their order (:attr:`block_rows`).  The
    basis is orthonormal in the antenna rule's weights, basis^T diag(w)
    basis = I, so coefficients c stand for the density ``basis @ c``
    (:meth:`density`) of L2 norm ||c||.  ``unresolved`` holds, per control
    rule, the share of the Frobenius norm of its nodal block (the fields at
    its nodes, in its weights) that its harmonics do not resolve; a matrix
    given directly has none.  ``matrix`` is None once ``weighted_svd(K,
    release=True)`` has consumed it; the factors then stand in for it
    (:func:`block_residuals`), and :func:`dump_operator` assembles its rows
    again.
    """

    matrix: np.ndarray | None  # (m, M): control harmonics x antenna harmonics
    basis: np.ndarray          # (n, M): antenna nodes x antenna harmonics
    antenna_rule: QuadratureRule
    control_rules: list[QuadratureRule]
    unresolved: tuple[float, ...] | None = None
    _svd: WeightedSVD | None = field(default=None, repr=False)
    block_rows: list[slice] = field(init=False, repr=False)  # each control rule's rows

    def __post_init__(self):
        n = self.antenna_rule.node_count
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.basis = np.asarray(self.basis, dtype=float)
        if self.basis.ndim != 2 or self.basis.shape[0] != n:
            raise ValueError(f"basis shape {self.basis.shape} != ({n}, M)")
        ends = np.cumsum([0] + [_block_rows(self.antenna_rule, r) for r in self.control_rules])
        self.block_rows = [slice(int(a), int(b)) for a, b in zip(ends, ends[1:])]
        m = int(ends[-1])
        if self.matrix.shape != (m, self.basis.shape[1]):
            raise ValueError(f"matrix shape {self.matrix.shape} != ({m}, {self.basis.shape[1]})")
        if self.unresolved is None:
            self.unresolved = (0.0,) * len(self.control_rules)
        _check_finite(self.matrix, "matrix")
        _check_finite(self.basis, "basis")

    def split(self, concatenated: np.ndarray) -> ControlTrace:
        """Nodal values at every control node, regions first, as a trace."""
        ends = np.cumsum([r.node_count for r in self.control_rules])[:-1]
        return ControlTrace(blocks=np.split(concatenated, ends), rules=self.control_rules)

    def density(self, c: np.ndarray) -> Density:
        """The nodal density of coefficients c: ``basis @ c``."""
        return Density(rule=self.antenna_rule, values=self.basis @ c)

    def coefficients(self, h: Density) -> np.ndarray:
        """The coefficients of h's projection onto the basis:
        basis^T diag(w) h, which recovers c from ``density(c)``."""
        _check_density(self, h)
        return self.basis.T @ (self.antenna_rule.weights * h.values)

    def trace_coefficients(self, v: ControlTrace) -> tuple[np.ndarray, np.ndarray]:
        """(y, outside): the trace v in the rows of ``matrix``, and per control
        rule the squared norm of the part of v outside its block's rows.

        Each block of v is projected by
        :func:`fieldcast.geometry.harmonic_transform`; ``outside`` holds the
        remainder its rule does not resolve and, on a sphere concentric with
        the antenna, the harmonics of degrees the antenna does not radiate
        (degree 0, and those above its degree L).  So ||y[block]||^2 plus
        ``outside`` is the block's squared weighted norm, and the residual
        of any density on that block is sqrt(||C c - y||^2 + outside).
        """
        _check_same_rules(self.control_rules, v.rules)
        y = np.zeros(sum(rows.stop - rows.start for rows in self.block_rows))
        outside = np.empty(len(self.control_rules))
        for k, (rule, block, rows) in enumerate(zip(self.control_rules, v.blocks,
                                                    self.block_rows)):
            a, rest = harmonic_transform(rule, block)
            if _concentric(self.antenna_rule, rule):
                kept = min(a.shape[0] - 1, rows.stop - rows.start)
                y[rows.start: rows.start + kept] = a[1: kept + 1]
                rest = rest + a[0] ** 2 + a[kept + 1:] @ a[kept + 1:]
            else:
                y[rows] = a
            outside[k] = rest
        return y, outside


def degree_gains(antenna: QuadratureRule, r: np.ndarray) -> np.ndarray:
    """(L, p): g_l (delta/r)^(l+dim-2) delta^(-(dim-1)/2) at each distance r
    from the antenna centre, a row per degree l = 1 .. L (:func:`basis_fields`)."""
    dim, delta = antenna.boundary.dim, antenna.boundary.radius
    q = delta / r
    radial = delta ** (-(dim - 1) / 2) * q ** (dim - 2)  # (delta/r)^(l+dim-2) at l = 0, scaled
    out = np.empty((harmonic_degree(antenna), r.shape[0]))
    for l in range(1, out.shape[0] + 1):
        radial = radial * q
        out[l - 1] = (0.5 if dim == 2 else l / (2 * l + 1)) * radial
    return out


def basis_fields(antenna: QuadratureRule, points) -> np.ndarray:
    """The field of each of the antenna's basis densities at each of the
    points (p, dim): a column-major (p, M) array.

    The basis holds the surface harmonics of degrees 1 .. L, L the antenna
    rule's :func:`fieldcast.geometry.harmonic_degree`, over
    delta^((dim-1)/2): orthonormal in the rule's weights.  Entry (i, j) is
    g_l (delta/r_i)^(l+dim-2) times basis harmonic j at point i's direction,
    with r_i its distance from the antenna centre, l the degree of column j
    and g_l = l/(2l+1) in 3D, 1/2 in 2D.  Columns follow
    :func:`fieldcast.geometry.surface_harmonics`.  A row depends on its point
    alone, bit for bit.  Points inside or touching the antenna sphere are
    rejected: the expansion holds only outside it, and a violation indicates
    a broken scenario rather than something to regularize.
    """
    points = np.asarray(points, dtype=float)
    fields = np.empty((points.shape[0], harmonic_count(harmonic_degree(antenna),
                                                       antenna.boundary.dim)), order="F")
    for columns, block in basis_field_blocks(antenna, points):
        fields[:, columns] = block
    return fields


# Values of one block of :func:`basis_field_blocks`, unless one order has more.
BASIS_BLOCK_VALUES = 2**16


def basis_field_blocks(antenna: QuadratureRule, points):
    """:func:`basis_fields` a few antenna orders at a time: yields
    (columns, fields), the columns of those orders
    (:func:`fieldcast.geometry.order_columns`) and their fields at the
    points, a column-major (p, c) array of BASIS_BLOCK_VALUES or fewer;
    each column bit for bit the whole array's."""
    dim = antenna.boundary.dim
    if np.shape(points)[-1] != dim:
        raise ValueError("antenna and points have mixed dimensions")
    x = np.asarray(points, dtype=float) - antenna.boundary.center  # (p, dim)
    r = np.linalg.norm(x, axis=-1)  # (p,)
    _check_clearance(antenna, r)
    gains = degree_gains(antenna, r)  # (L, p)
    directions, degree = x / r[:, None], gains.shape[0]
    width = max(1, BASIS_BLOCK_VALUES // max(1, x.shape[0]))
    counts = [order_width(degree, dim, m) for m in range(degree + 1)]
    first = 0
    while first <= degree:
        last, taken = first + 1, counts[first]   # as many orders as fit, at least one
        while last <= degree and taken + counts[last] <= width:
            taken += counts[last]
            last += 1
        columns, degrees = order_columns(degree, dim, range(first, last))
        fields = surface_harmonics(directions, degree, range(first, last))  # (p, c)
        fields *= gains[degrees - 1].T
        yield columns, fields
        del fields   # the caller's del then frees them before the next orders'
        first = last


def _check_clearance(antenna: QuadratureRule, r) -> None:
    if np.any(r < antenna.boundary.radius * (1.0 + SEPARATION_RTOL)):
        raise ValueError("control boundary comes too close to the antenna boundary")


def _coefficient_block(antenna: QuadratureRule, rule: QuadratureRule,
                       rows: slice = slice(None)) -> tuple[np.ndarray, float]:
    """Rows ``rows`` of a control rule's block of the matrix, (rows, M), and
    the share of their nodal part's Frobenius norm that the rule does not
    resolve (the block's share when ``rows`` takes them all).

    A region's block is :func:`fieldcast.geometry.harmonic_transform` of
    :func:`basis_fields` at its nodes, a few antenna orders at a time
    (:func:`basis_field_blocks`), so the fields at all its nodes are never
    held at once.  On a sphere of radius R concentric with the antenna,
    basis density j radiates g_l (delta/R)^(l+dim-2) (R/delta)^((dim-1)/2)
    times the sphere's own orthonormal harmonic j, so the block is that
    diagonal over all the antenna's degrees, whether or not the rule
    resolves them.  Its nodal block lies in the rule's harmonics, and
    nothing is unresolved, unless the antenna radiates degrees above the
    rule's; only then is the nodal block evaluated, to measure that share.
    Subnormal entries, of degrees whose fields underflow, are zeroed.
    """
    concentric = _concentric(antenna, rule)
    if concentric:
        dim, radius = rule.boundary.dim, rule.boundary.radius
        _check_clearance(antenna, radius)
        gains = degree_gains(antenna, np.array([radius]))[:, 0] * radius ** ((dim - 1) / 2)
        counts = np.diff([harmonic_count(l, dim) for l in range(gains.shape[0] + 1)])
        diagonal = np.diag(np.repeat(gains, counts))
        if harmonic_degree(antenna) <= harmonic_degree(rule):
            return _flush_subnormal(diagonal[rows]), 0.0
    columns = harmonic_count(harmonic_degree(antenna), rule.boundary.dim)
    kept = range(_region_rows(harmonic_degree(rule), rule.boundary.dim))[rows]
    coefficients = np.empty((len(kept), columns), order="F")
    rest = np.empty(columns)
    for which, fields in basis_field_blocks(antenna, rule.nodes):
        projected, rest[which] = harmonic_transform(rule, fields)
        coefficients[:, which] = projected[rows]
        del fields, projected   # before the next orders' are made
    rest = float(np.sum(rest))
    share = math.sqrt(rest / (float(np.sum(coefficients**2)) + rest)) if rest else 0.0
    return _flush_subnormal(diagonal[rows] if concentric else coefficients), share


def _flush_subnormal(block: np.ndarray) -> np.ndarray:
    """``block`` with its subnormal entries, on which the QR and SVD run
    several times slower, set in place to zero of their sign, a few columns
    at a time."""
    for cols in row_blocks(block.shape[1], block.shape[0]):
        part = block[:, cols]
        part[(-np.finfo(float).tiny < part) & (part < np.finfo(float).tiny)] *= 0.0
    return block


def assemble_forward(antenna: QuadratureRule, controls: list[QuadratureRule]) -> ForwardOperator:
    """The closed-form trace operator: the antenna's harmonic basis, and a
    column-major matrix of each control rule's :func:`_coefficient_block`,
    regions first, assembled one block at a time."""
    rows = np.cumsum([0] + [_block_rows(antenna, r) for r in controls])
    columns = harmonic_count(harmonic_degree(antenna), antenna.boundary.dim)
    matrix = np.empty((rows[-1], columns), order="F")
    unresolved = []
    for rule, start, stop in zip(controls, rows, rows[1:]):
        block, share = _coefficient_block(antenna, rule)
        matrix[start:stop] = block
        unresolved.append(share)
        del block   # before the next block is made
    # The basis only after the blocks, so that it is not held beside their
    # working sets.
    basis = surface_harmonics(antenna.normals, harmonic_degree(antenna))
    basis *= antenna.boundary.radius ** (-(antenna.boundary.dim - 1) / 2)
    return ForwardOperator(matrix=matrix, basis=basis, antenna_rule=antenna,
                           control_rules=list(controls), unresolved=tuple(unresolved))


def _check_density(K: ForwardOperator, h: Density) -> None:
    if not _same_rule(K.antenna_rule, h.rule):
        raise ValueError("density's rule does not match the operator's antenna rule")


def _kernel_blocks(K: ForwardOperator):
    """The nodal double-layer kernel dlp_kernel(x_i, y_j, nu_j), x_i over all
    control nodes and y_j over the antenna nodes, one block of antenna nodes
    at a time: (cols, kernel (cols, m)), BLOCK_PAIRS pairs or fewer each."""
    a = K.antenna_rule
    x = np.concatenate([r.nodes for r in K.control_rules])[None]  # (1, m, dim)
    for cols in row_blocks(a.node_count, x.shape[1]):
        yield cols, dlp_kernel(x, a.nodes[cols, None], a.normals[cols, None], a.boundary.dim)


def apply(K: ForwardOperator, h: Density) -> ControlTrace:
    """Double-layer traces of a nodal density on every control boundary, by
    Nystrom quadrature over the antenna rule: sum_j dlp_kernel(x_i, y_j, nu_j)
    w_j h_j.  The oracle for the closed-form matrix; it stores no matrix."""
    _check_density(K, h)
    wh = K.antenna_rule.weights * h.values  # (n,)
    trace = np.zeros(sum(r.node_count for r in K.control_rules))  # (m,)
    for cols, kernel in _kernel_blocks(K):
        trace += wh[cols] @ kernel
    return K.split(trace)


def block_residuals(K: ForwardOperator, h: Density, v: ControlTrace) -> tuple[float, ...]:
    """Weighted L2 norm of K h - v on each control boundary, regions first.

    Computed through the factors from h's coefficients c
    (:meth:`ForwardOperator.coefficients`), whether or not K still holds
    its matrix: C c = Q [U_R diag(sigma) Vt c; 0], one reflector pass
    (:meth:`WeightedSVD.lift`), against v's coefficients y, plus the part of
    v outside each block (:meth:`ForwardOperator.trace_coefficients`).
    Each norm agrees with that of ``C c - y`` (and v's outside part) within
    RESIDUAL_ROUNDING_C * u * (sigma_1 ||c|| + ||v||), u = 2^-53.  It leaves
    out the part of the radiated field its rule does not resolve, which is
    at most the block's ``unresolved`` share of the nodal block's norm.
    """
    c = K.coefficients(h)
    y, outside = K.trace_coefficients(v)
    svd = weighted_svd(K)
    res = svd.lift(svd.sigma * (svd.vt @ c)) - y  # (m,)
    return tuple(math.sqrt(float(res[rows] @ res[rows]) + rest)
                 for rows, rest in zip(K.block_rows, outside.tolist()))


def apply_adjoint(K: ForwardOperator, t: ControlTrace) -> Density:
    """Adjoint of :func:`apply` in the weighted inner products.

    Nystrom quadrature of the adjoint kernel over the control boundaries:
    value j is sum_i dlp_kernel(x_i, y_j, nu_j) W_i t_i, the exact discrete
    adjoint of :func:`apply`.  It stores no matrix.
    """
    _check_same_rules(K.control_rules, t.rules)
    weighted = np.concatenate([r.weights for r in K.control_rules]) * t.concatenated  # (m,)
    values = np.empty(K.antenna_rule.node_count)  # (n,)
    for cols, kernel in _kernel_blocks(K):
        values[cols] = kernel @ weighted
    return Density(rule=K.antenna_rule, values=values)


def weighted_svd(K: ForwardOperator, *, release: bool = False) -> WeightedSVD:
    """SVD of the operator between the L2 spaces (cached).

    Factorizes C = ``K.matrix``: both of its bases are orthonormal, so C's
    singular values are the operator's between the function spaces, and
    the compactness of the underlying integral operator shows up as their
    rapid decay.  C = QR by Householder reflectors, then
    R = U_R diag(sigma) Vt, and neither Q nor U is formed.  LAPACK's gesdd
    takes the same steps when m >= 11M/6.  The QR is numpy's raw one, the
    gufunc that ``np.linalg.qr(mode="raw")`` runs on a copy, run here on a
    column-major array of C, which it overwrites with the reflectors as
    contiguous rows of its transpose (bit for bit ``np.linalg.qr``'s, which
    stands in where numpy lacks the gufunc, at the cost of one more copy).

    By default that array is a copy, and K keeps its matrix.  With
    ``release=True`` K.matrix is set to None and its array, column-major
    from :func:`assemble_forward`, is factored in place, so the QR holds no
    copy of C beside LAPACK's working one; a cached call only lets the
    matrix go.  Both give bit-identical factors.
    """
    if K._svd is not None:
        if release:
            K.matrix = None
        return K._svd
    if release:
        c, K.matrix = np.asfortranarray(K.matrix), None
    else:
        c = np.array(K.matrix, order="F")
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            if _QR_R_RAW is None:
                reflectors, tau = np.linalg.qr(c, mode="raw")
            else:
                tau, reflectors = _QR_R_RAW(c, signature="d->d"), c.T
        k = tau.shape[0]   # reflectors: (M, m), rows contiguous
        u_r, sigma, vt = np.linalg.svd(np.triu(reflectors[:, :k].T), full_matrices=False)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        raise RuntimeError(f"weighted SVD failed to converge: {exc}") from exc
    reflectors = reflectors[:k]
    np.fill_diagonal(reflectors, 1.0)
    K._svd = WeightedSVD(sigma=sigma, vt=vt, reflectors=reflectors, tau=tau, u_r=u_r)
    return K._svd


# What a run holds beside the operator's arrays: per node of a control rule,
# about 32 float64 of rules, target and transform temporaries; and a fixed
# part for the BLAS and module memory a run touches beyond ``import
# fieldcast.cli`` (the probes' series takes a few vectors of its points).
# On demo-3d a run at 31 x 15 (32 nodes a rule), where the arrays are
# negligible, grows by 9.7 MiB; at 1087 x 63 (2048 nodes a rule) by 11.5 MiB.
RUN_OVERHEAD_BYTES_PER_ROW = 8 * 32
RUN_OVERHEAD_BYTES = 12 * 2**20


def factorization_bytes(m: int, p: int, n: int, columns: int) -> int:
    """Bytes a run holds at its peak, for an m x M matrix (M = ``columns``
    antenna harmonics), p nodes on the largest region's control rule and n
    antenna nodes, summed over the stages that can set it: two m x M float64
    arrays at the QR in :func:`weighted_svd` (the matrix, which it
    overwrites with the reflectors, and LAPACK's working copy), which also
    bound what :func:`assemble_forward` holds while it projects a region
    (the matrix, that region's rows and its fields for a few antenna orders,
    :func:`basis_field_blocks`); six k x k, k = min(m, M), for the SVD of R
    (R, its factors and gesdd's workspace); the n x M basis; and the run's other
    arrays (RUN_OVERHEAD_BYTES_PER_ROW per control-rule node plus
    RUN_OVERHEAD_BYTES).  Growth of peak RSS over a process that only
    imports the CLI, with BLAS loaded as ``python -m fieldcast`` loads it
    (ru_maxrss), in MiB, for ``run`` / ``run --dump-operator`` / this
    estimate, on demo-3d: 19.9 / 21.2 / 27.9 at 975 x 399 (p = 1152,
    n = 800), 18.0 / 18.2 / 21.4 at 1279 x 255 (p = 2048, n = 512),
    31.1 / 31.1 / 42.6 at 1151 x 575 (p = 1152, n = 1152) and 81.8 / 82.3 /
    96.0 at 1279 x 1023 (p = 512, n = 2048), where the SVD of R sets the
    peak.  The dump assembles the rows again after the solve, one row block
    at a time (:func:`dump_operator`)."""
    k = min(m, columns)
    arrays = 2 * m * columns + n * columns + 6 * k * k
    return 8 * arrays + RUN_OVERHEAD_BYTES_PER_ROW * p + RUN_OVERHEAD_BYTES


def dump_operator(K: ForwardOperator, path) -> None:
    """Binary dump, version 3: int64 header (magic, version, rows m, columns M,
    n_sigma), then the m x M matrix row-major as float64, then the singular
    values, which are the matrix's own.  Rows are each control sphere's
    harmonic coefficients, regions first and the outer sphere last
    (:attr:`ForwardOperator.block_rows`): on a region's sphere the harmonics
    of degrees 0 .. D - 1 of :func:`fieldcast.geometry.harmonic_transform`,
    on the outer sphere those of the antenna's degrees 1 .. L.  Columns are
    the antenna harmonics of :func:`fieldcast.geometry.surface_harmonics`,
    degree by degree from 1: in 2D cos then sin of each degree; in 3D the
    zonal harmonic of degree l, then cos and sin of each order m = 1 .. l.
    The rows are written one row block at a time, from ``K.matrix`` while K
    holds it; once the SVD has released it, each row block is assembled
    again (:func:`_coefficient_block`), the same rows bit for bit, so the
    dump holds one row block, at the cost of the fields at all of a region's
    nodes per row block: time quadratic in a region's size."""
    svd = weighted_svd(K)
    m, columns = sum(rows.stop - rows.start for rows in K.block_rows), K.basis.shape[1]
    with open(path, "wb") as fh:
        fh.write(struct.pack("<5q", _DUMP_MAGIC, _DUMP_VERSION, m, columns, svd.sigma.shape[0]))
        for rule, block_rows in zip(K.control_rules, K.block_rows):
            for rows in row_blocks(block_rows.stop - block_rows.start, columns):
                if K.matrix is None:
                    block = _coefficient_block(K.antenna_rule, rule, rows)[0]
                else:
                    block = K.matrix[block_rows][rows]
                fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())
                del block
        fh.write(np.ascontiguousarray(svd.sigma, dtype="<f8").tobytes())


def load_operator_dump(path) -> tuple[np.ndarray, np.ndarray]:
    """Read back a dump written by :func:`dump_operator`: (matrix, sigma).
    A file longer or shorter than its header announces is rejected."""
    data = Path(path).read_bytes()
    magic, version, m, columns, k = struct.unpack_from("<5q", data.ljust(40, b"\0"))
    if magic != _DUMP_MAGIC or version != _DUMP_VERSION:
        raise ValueError(f"not a version-{_DUMP_VERSION} operator dump: {path}")
    size = 40 + 8 * (m * columns + k)
    if len(data) != size:
        raise ValueError(f"operator dump {path} holds {len(data)} bytes, not {size}")
    values = np.frombuffer(data, dtype="<f8", offset=40)
    return values[: m * columns].reshape(m, columns).copy(), values[m * columns:].copy()
