"""Forward operator from antenna densities to control-boundary traces.

The operator maps a density on the antenna boundary to the values of its
double-layer field on every control sphere (one block per region, then
the outer sphere).  It is built in closed form on an orthonormal basis of
antenna harmonics.  Outside the antenna sphere of radius delta, the double
layer of a surface harmonic of degree l is again that harmonic, times
l/(2l+1) (delta/r)^(l+1) in 3D and 1/2 (delta/r)^l in 2D (Kress, *Linear
Integral Equations*, ch. 6); degree 0 radiates nothing there (Gauss).  So
the field of basis density j is known everywhere outside the antenna, and
the operator needs no antenna quadrature and no singular kernel.  A
density is its coefficients on that basis (:class:`HarmonicDensity`) from
the solve to the probes, never as nodal values.  So the operator reads
of each sphere only its centre, radius and degree
(:class:`fieldcast.geometry.Boundary`).

The matrix holds each control sphere's block in that sphere's own
orthonormal harmonics, which is all the L2-minimal solution needs: the
singular system between the L2 spaces of antenna and control spheres.
Each block holds its sphere's harmonics of degrees ``first`` .. D
(:func:`_block_rows`).  A region's, from degree 0, holds each basis
field's local expansion about the control centre, by multipole-to-local
translation in closed form (:mod:`fieldcast.translation`), with no field
evaluated at a control node; the share of its norm in the degrees above D
is reported (``ForwardOperator.unresolved``).  On the outer sphere,
concentric with the antenna, each antenna harmonic radiates only itself,
so it has the antenna's degree L, and its block, from degree 1, is the
diagonal g_l (delta/R)^(l+dim-2) (R/delta)^((dim-1)/2).  A target is its
coefficients on each sphere's harmonics and the norm of its higher
degrees, in closed form too (:class:`HarmonicTrace`).
Both bases are orthonormal, so the matrix's singular values are the
operator's between the function spaces, with no row or column weighting.

Every harmonic is the solve frame's (:func:`fieldcast.geometry.solve_frame`).
When the control centres lie on its polar axis, the matrix is block
diagonal by harmonic order and parity, exactly, and :func:`weighted_svd`
factors it block by block (:func:`factor_blocks`).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

from .geometry import SEPARATION_RTOL, Boundary, frozen_array, harmonic_count
# dlp_kernel is unused here; the benchmark's tracer wraps this module's name for it.
from .kernels import dlp_kernel, row_blocks
from .translation import antenna_gains, region_share, row_orders, translated_block

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
class HarmonicDensity:
    """A density by its coefficients c on the antenna's orthonormal
    harmonics of degrees 1 .. L: basis density j is column j of
    :func:`fieldcast.geometry.surface_harmonics` at the direction from the
    antenna centre in its solve frame, over delta^((dim-1)/2).  Degree 0
    radiates nothing.
    Its L2 norm is ||c||."""

    boundary: Boundary
    coefficients: np.ndarray  # (M,)

    def __post_init__(self):
        coefficients = frozen_array(self.coefficients)
        if coefficients.shape != (_antenna_columns(self.boundary),):
            raise ValueError(f"coefficients shape {coefficients.shape} does not match "
                             f"{_antenna_columns(self.boundary)} antenna harmonics")
        if not np.all(np.isfinite(coefficients)):
            raise ValueError("density coefficients must be finite")
        object.__setattr__(self, "coefficients", coefficients)

    def norm(self) -> float:
        """L2 norm over the antenna boundary: ||c||, the basis being orthonormal."""
        return float(np.linalg.norm(self.coefficients))


@dataclass(frozen=True)
class HarmonicTrace:
    """A trace by its coefficients on each control sphere's orthonormal
    harmonics of degrees 0 .. D, its degree, the constant first, then those
    of :func:`fieldcast.geometry.surface_harmonics`, and per sphere
    ``outside``, the squared L2 norm of its degrees above D; regions first."""

    blocks: list[np.ndarray]
    outside: np.ndarray  # (spheres,)
    boundaries: list[Boundary]

    def __post_init__(self):
        object.__setattr__(self, "blocks", [frozen_array(b) for b in self.blocks])
        object.__setattr__(self, "outside", frozen_array(self.outside))
        if not len(self.blocks) == len(self.outside) == len(self.boundaries):
            raise ValueError(f"{len(self.blocks)} blocks for {len(self.boundaries)} "
                             f"control spheres")

    def norm(self) -> float:
        """Product-space L2 norm: the coefficients' and ``outside`` together."""
        return math.sqrt(sum(float(b @ b) for b in self.blocks) + float(np.sum(self.outside)))


def _same_boundary(a: Boundary, b: Boundary) -> bool:
    """Same dimension, degree, radius, centre and frame."""
    return a is b or (a.dim == b.dim and a.degree == b.degree
                      and abs(a.radius - b.radius) <= 1e-14 * a.radius
                      and np.max(np.abs(a.center - b.center)) <= 1e-14
                      and (a.frame is None) == (b.frame is None)
                      and (a.frame is None or np.array_equal(a.frame, b.frame)))


@dataclass(frozen=True)
class BlockSVD:
    """Thin SVD C_b = U diag(sigma) Vt of one block C_b of the operator's
    matrix, with U kept factored as U = Q U_R: Q is the orthogonal factor of
    C_b's QR, held as its Householder reflectors, and U_R the left factor of
    the SVD of R.  U is never formed; :meth:`project` applies its transpose
    and :meth:`lift` U."""

    sigma: np.ndarray    # (k,) nonincreasing, k = min(m, M) of the block
    vt: np.ndarray       # (k, M)
    reflectors: np.ndarray  # (k, m): reflector j is [0]*j + [1] + reflectors[j, j+1:]
    tau: np.ndarray      # (k,) reflector scales, H_j = I - tau_j v_j v_j^T
    u_r: np.ndarray      # (k, k)
    r: np.ndarray        # (k, M) R, upper triangular, kept for the residual floor

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

    def tikhonov_residual_sq(self, beta: np.ndarray, alpha: float) -> float:
        """||R x - z||^2 for z = U_R ``beta`` (beta = :meth:`project`'s U^T y)
        and x the Tikhonov solution at ``alpha`` of R x = z, from the singular
        coefficients and refined by one step on (R^T R + alpha) x = R^T z
        with R itself.  The Householder QR perturbs each column of C by a
        rounding of its own norm, the SVD of R every entry by about
        u sigma_1, and C's columns fall off geometrically with the antenna
        degree: at alpha = 1e-14 sigma_1^2 the sum
        sum (alpha / (alpha + sigma^2))^2 beta^2 was 2.8e-10 relative off
        on a 2D operator of 324 x 70, this residual 1e-14.  The step shrinks
        the error by about u sigma_1^2 / alpha."""
        r = self.r
        z = self.u_r @ beta
        scale = 1.0 / (alpha + self.sigma**2)
        x = self.vt.T @ (self.sigma * beta * scale)
        x += self.vt.T @ (scale * (self.vt @ (r.T @ (z - r @ x) - alpha * x)))
        residual = r @ x - z
        return float(residual @ residual)


@dataclass(frozen=True)
class WeightedSVD:
    """Thin SVD C = U diag(sigma) Vt of the operator's matrix C, one
    :class:`BlockSVD` per block of :func:`factor_blocks`: C is block
    diagonal once its rows and columns are gathered by block, so its
    singular triplets are those of its blocks.  ``sigma`` holds them all,
    merged in nonincreasing order (ties in block order), and row i of
    ``vt`` the right singular vector of sigma_i, zero outside its block's
    columns.  :meth:`project`, :meth:`lift` and
    :meth:`tikhonov_residual_sq` work block by block.  An operator of one
    block is its own single block, with the same sigma and vt."""

    sigma: np.ndarray    # (k,) nonincreasing, k the sum of the blocks' k
    vt: np.ndarray       # (k, M)
    # Per block: its rows and columns of C (slices or index arrays), the
    # places of its singular values in ``sigma``, and its factors.
    blocks: tuple[tuple[slice | np.ndarray, slice | np.ndarray, np.ndarray, BlockSVD], ...]
    loose: np.ndarray    # rows of C in no block: C is zero there

    def project(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """(U^T x, ||x - U U^T x||^2) for x of length m: each block's
        :meth:`BlockSVD.project` of its rows of x, and the loose rows of x
        outside U's columns."""
        x = np.asarray(x, dtype=float)
        beta, rest = np.empty(self.sigma.shape[0]), x[self.loose]
        perp_sq = float(rest @ rest)
        for rows, _, at, factors in self.blocks:
            beta[at], tail = factors.project(x[rows])
            perp_sq += tail
        return beta, perp_sq

    def lift(self, z: np.ndarray) -> np.ndarray:
        """U z for z of length k, block by block (:meth:`BlockSVD.lift`);
        zero on the loose rows."""
        y = np.zeros(sum(factors.reflectors.shape[1] for *_, factors in self.blocks)
                     + self.loose.shape[0])   # (m,)
        for rows, _, at, factors in self.blocks:
            y[rows] = factors.lift(z[at])
        return y

    def tikhonov_residual_sq(self, beta: np.ndarray, alpha: float) -> float:
        """The sum of each block's :meth:`BlockSVD.tikhonov_residual_sq`:
        the Tikhonov problem of a block diagonal R splits by block."""
        return sum(factors.tikhonov_residual_sq(beta[at], alpha)
                   for _, _, at, factors in self.blocks)


def _antenna_columns(antenna: Boundary) -> int:
    """M, the antenna harmonics of degrees 1 .. L: the matrix's columns."""
    return harmonic_count(antenna.degree, antenna.dim)


def _block_rows(antenna: Boundary, sphere: Boundary) -> range:
    """A control sphere's rows, as indices into its harmonics of degrees
    0 .. D, the constant first: those of degrees ``first`` .. D.  ``first``
    is 0 on a region's sphere, and 1 on one concentric with the antenna,
    where degree 0 radiates nothing and each antenna harmonic only itself,
    so that sphere must have the antenna's degree L."""
    first = int(np.array_equal(sphere.center, antenna.center))
    if first and sphere.degree != antenna.degree:
        raise ValueError(f"a control sphere concentric with the antenna has degree "
                         f"{sphere.degree}, not the antenna's {antenna.degree}")
    return range(first, harmonic_count(sphere.degree, sphere.dim) + 1)


def row_offsets(antenna: Boundary, controls: list[Boundary]) -> list[int]:
    """The first row of each control sphere's block of the matrix, and the
    matrix's row count last: a row per harmonic of its :func:`_block_rows`."""
    return list(accumulate((len(_block_rows(antenna, b)) for b in controls), initial=0))


@dataclass
class ForwardOperator:
    """Trace operator on the antenna's harmonic basis, with SVD cache.

    Column j of ``matrix`` holds the field radiated by the antenna's basis
    density j (:class:`HarmonicDensity`) as coefficients on each control
    sphere's orthonormal harmonics: one block of rows per control sphere,
    in their order (:attr:`block_rows`).  ``unresolved`` holds, per control
    sphere, the share of its block's Frobenius norm, over every degree the
    basis fields hold on it, that lies in the degrees above its own and so
    outside its rows (:func:`unresolved_share`); a matrix given directly
    has none.  ``matrix`` is None once ``weighted_svd(K, release=True)``
    has consumed it; the factors then stand in for it
    (:func:`block_residuals`), and :func:`dump_operator` assembles its rows
    again.
    """

    matrix: np.ndarray | None  # (m, M): control harmonics x antenna harmonics
    antenna: Boundary
    controls: list[Boundary]
    unresolved: tuple[float, ...] | None = None
    _svd: WeightedSVD | None = field(default=None, repr=False)
    block_rows: list[slice] = field(init=False, repr=False)  # each control sphere's rows

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        ends = row_offsets(self.antenna, self.controls)
        self.block_rows = [slice(a, b) for a, b in zip(ends, ends[1:])]
        shape = (ends[-1], _antenna_columns(self.antenna))
        if self.matrix.shape != shape:
            raise ValueError(f"matrix shape {self.matrix.shape} != {shape}")
        if self.unresolved is None:
            self.unresolved = (0.0,) * len(self.controls)
        # One block of columns at a time, so that no array of the matrix's size is made.
        for cols in row_blocks(shape[1], shape[0]):
            if not np.isfinite(self.matrix[:, cols]).all():
                raise ValueError("operator matrix contains non-finite entries")

    def trace_coefficients(self, v: HarmonicTrace) -> tuple[np.ndarray, np.ndarray]:
        """(y, outside): the trace v in the rows of ``matrix``, and per control
        sphere the squared norm of the part of v outside its block's rows: v's
        own ``outside`` and its degrees below the block's first
        (:func:`_block_rows`), the constant on the outer sphere.  So
        ||y[block]||^2 plus ``outside`` is the block's squared norm, and the
        residual of any density on that block is sqrt(||C c - y||^2 + outside).
        """
        if len(v.boundaries) != len(self.controls) or not all(
                map(_same_boundary, self.controls, v.boundaries)):
            raise ValueError("trace is not on the operator's control spheres")
        y = np.zeros(self.block_rows[-1].stop)
        outside = np.array(v.outside)
        for k, (sphere, a, rows) in enumerate(zip(self.controls, v.blocks, self.block_rows)):
            first = _block_rows(self.antenna, sphere).start
            y[rows] = a[first:]
            outside[k] += a[:first] @ a[:first]
        return y, outside


def degree_gains(antenna: Boundary, r: np.ndarray) -> np.ndarray:
    """(L, p): g_l (delta/r)^(l+dim-2) delta^(-(dim-1)/2) at each distance r
    from the antenna centre, a row per degree l = 1 .. L: the radial factor
    of the field of each basis density of degree l (:class:`HarmonicDensity`)."""
    dim, delta = antenna.dim, antenna.radius
    q = delta / r
    radial = delta ** (-(dim - 1) / 2) * q ** (dim - 2)  # (delta/r)^(l+dim-2) at l = 0, scaled
    out = np.empty((antenna.degree, r.shape[0]))
    for l in range(1, out.shape[0] + 1):
        radial = radial * q
        out[l - 1] = (0.5 if dim == 2 else l / (2 * l + 1)) * radial
    return out


def _check_clearance(antenna: Boundary, r) -> None:
    """Reject a control sphere that comes within ``r`` of the antenna centre,
    closer than its clearance delta (1 + SEPARATION_RTOL)."""
    if np.any(r < antenna.radius * (1.0 + SEPARATION_RTOL)):
        raise ValueError("control boundary comes too close to the antenna boundary")


def _coefficient_block(antenna: Boundary, sphere: Boundary, rows: slice = slice(None),
                       out: np.ndarray | None = None) -> np.ndarray:
    """Rows ``rows`` of a control sphere's block of the matrix, (rows, M),
    written into ``out`` (a new array when None).

    A region's block is its basis fields translated to the control centre
    in closed form (:func:`fieldcast.translation.translated_block`).  On a
    sphere of radius R concentric with the antenna, basis density j of
    degree l radiates g_l (delta/R)^(l+dim-2) (R/delta)^((dim-1)/2) times
    the sphere's own orthonormal harmonic j, so the block is that diagonal.
    Only the requested rows are made, and each entry depends on its row
    and column alone, so a slice equals the whole block's rows bit for bit.
    Subnormal entries, of degrees whose fields underflow, are zeroed.
    """
    if sphere.dim != antenna.dim:
        raise ValueError("antenna and control sphere have mixed dimensions")
    block = _block_rows(antenna, sphere)
    wanted = block[rows]
    if out is None:
        out = np.empty((len(wanted), _antenna_columns(antenna)), order="F")
    if not block.start:   # a region's sphere
        distance = float(np.linalg.norm(sphere.center - antenna.center))
        _check_clearance(antenna, distance - sphere.radius)
        # BLOCK_PAIRS / max(L, 32) rows at a time: the temporaries of one
        # antenna order hold about rows x L values each, and the rows' own
        # index and value arrays about 210 bytes a row (measured at L = 1),
        # both bounded however many rows a region has.
        gains = antenna_gains(antenna, sphere)
        for part in row_blocks(len(wanted), max(antenna.degree, 32)):
            translated_block(antenna.center, antenna.radius, gains, sphere, wanted[part], out[part])
        return _flush_subnormal(out)
    _check_clearance(antenna, sphere.radius)
    radius = sphere.radius
    gains = degree_gains(antenna, np.array([radius]))[:, 0] * radius ** ((sphere.dim - 1) / 2)
    out[...] = 0.0
    # Row j + 1, of degree l, holds antenna harmonic j's gain.
    diagonal = _flush_subnormal(gains[None, row_orders(wanted, sphere.dim)[0] - 1])[0]
    out[range(len(wanted)), range(wanted.start - 1, wanted.stop - 1)] = diagonal
    return out


def unresolved_share(antenna: Boundary, sphere: Boundary) -> float:
    """The share of a control block's Frobenius norm, over all the degrees
    its basis fields hold on the control sphere, that lies in degrees above
    the sphere's degree D, which the matrix leaves out: on a region's sphere
    :func:`fieldcast.translation.region_share`, on the concentric one none."""
    return 0.0 if _block_rows(antenna, sphere).start else region_share(antenna, sphere)


def _flush_subnormal(block: np.ndarray) -> np.ndarray:
    """``block`` with its subnormal entries, on which the QR and SVD run
    several times slower, set in place to zero of their sign, a few columns
    at a time."""
    for cols in row_blocks(block.shape[1], block.shape[0]):
        part = block[:, cols]
        part[(-np.finfo(float).tiny < part) & (part < np.finfo(float).tiny)] *= 0.0
    return block


def assemble_forward(antenna: Boundary, controls: list[Boundary]) -> ForwardOperator:
    """The closed-form trace operator: a column-major matrix of each control
    sphere's :func:`_coefficient_block`, regions first, each written straight
    into its rows of the matrix."""
    rows = row_offsets(antenna, controls)
    matrix = np.empty((rows[-1], _antenna_columns(antenna)), order="F")
    for sphere, start, stop in zip(controls, rows, rows[1:]):
        _coefficient_block(antenna, sphere, out=matrix[start:stop])
    return ForwardOperator(matrix=matrix, antenna=antenna, controls=list(controls),
                           unresolved=tuple(unresolved_share(antenna, b) for b in controls))


def block_residuals(K: ForwardOperator, h: HarmonicDensity,
                    v: HarmonicTrace) -> tuple[float, ...]:
    """L2 norm of K h - v on each control sphere, regions first.

    Computed through the factors from h's coefficients c, whether or not K
    still holds its matrix: C c = Q [U_R diag(sigma) Vt c; 0], one reflector pass
    (:meth:`WeightedSVD.lift`), against v's coefficients y, plus the part of
    v outside each block (:meth:`ForwardOperator.trace_coefficients`).
    Each norm agrees with that of ``C c - y`` (and v's outside part) within
    RESIDUAL_ROUNDING_C * u * (sigma_1 ||c|| + ||v||), u = 2^-53.  It leaves
    out the radiated field's degrees above its sphere's, whose L2 norm is at
    most the block's ``unresolved`` share of its Frobenius norm times ||c||.
    """
    if not _same_boundary(K.antenna, h.boundary):
        raise ValueError("density is not on the operator's antenna boundary")
    c = h.coefficients
    y, outside = K.trace_coefficients(v)
    svd = weighted_svd(K)
    res = svd.lift(svd.sigma * (svd.vt @ c)) - y  # (m,)
    return tuple(math.sqrt(float(res[rows] @ res[rows]) + rest)
                 for rows, rest in zip(K.block_rows, outside.tolist()))


def _axial(antenna: Boundary, controls: list[Boundary]) -> bool:
    """Whether every centre lies on the polar axis: the z axis in 3D, the x
    axis in 2D (:func:`fieldcast.geometry.solve_frame`)."""
    axis = 2 if antenna.dim == 3 else 0
    return not any(np.any(np.delete(b.center, axis)) for b in [antenna, *controls])


def _keyed(antenna: Boundary, controls: list[Boundary]):
    """For each block key an antenna harmonic has, 2 order + sin in 3D and
    sin in 2D, in key order: (each control sphere's rows of that key, as
    indices into its :func:`_block_rows`, and the columns of that key).
    The harmonic of degree l, order q and sin s is number l^2 + 2q - 1 + s
    in 3D (l^2 for q = 0) and 2l - 1 + s in 2D (0 for l = 0) of a sphere's
    harmonics of degrees 0 .. D (:func:`row_orders`)."""
    dim, degree = antenna.dim, antenna.degree
    firsts = [_block_rows(antenna, b).start for b in controls]

    def indices(first: int, top: int, key: int) -> np.ndarray:
        """The indices of key ``key`` among degrees ``first`` .. ``top``."""
        if dim == 2:
            return np.maximum(2 * np.arange(max(first, key), top + 1) - 1 + key, 0)
        order, sin = divmod(key, 2)
        l = np.arange(max(first, order), top + 1)
        return l**2 + (2 * order - 1 + sin if order else 0)

    for key in [0, 1] if dim == 2 else [0, *range(2, 2 * degree + 2)]:
        yield ([indices(first, b.degree, key) - first for b, first in zip(controls, firsts)],
               indices(1, degree, key) - 1)


def factor_blocks(antenna: Boundary, controls: list[Boundary]) -> tuple[list, np.ndarray]:
    """(blocks, loose): the blocks the operator's matrix splits into, as
    (rows, columns) pairs, and the rows in none of them, from the
    boundaries alone.

    When every centre lies on the polar axis (:func:`_axial`), the problem
    is invariant under turns about that axis (and its mirror image in 2D),
    so a basis field of order m and cos (or sin) has only harmonics of that
    order and parity on every control sphere: a block per key of
    :func:`_keyed`, of the rows and columns that have it, each in
    ascending order (White & Head-Gordon, J. Chem. Phys. 105 (1996) 5061;
    Greengard & Rokhlin, Acta Numerica 6 (1997) 229).  Rows of orders no
    column has are loose.  Any other operator is one block."""
    if not _axial(antenna, controls):
        return _one_block()
    starts = row_offsets(antenna, controls)
    blocks = [(np.concatenate([start + part for start, part in zip(starts, rows)]), columns)
              for rows, columns in _keyed(antenna, controls)]
    return blocks, np.delete(np.arange(starts[-1]), np.concatenate([rows for rows, _ in blocks]))


def _one_block() -> tuple[list, np.ndarray]:
    """:func:`factor_blocks`' answer for an operator that does not split."""
    return [(slice(None), slice(None))], np.zeros(0, dtype=np.intp)


def _take(matrix: np.ndarray, rows, columns) -> np.ndarray:
    """matrix[rows, columns]: a view for slices, a copy for index arrays."""
    if isinstance(rows, slice):
        return matrix[rows, columns]
    return matrix[np.ix_(rows, columns)]


def _factor(c: np.ndarray) -> BlockSVD:
    """The :class:`BlockSVD` of a column-major block c, which it overwrites."""
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            if _QR_R_RAW is None:
                reflectors, tau = np.linalg.qr(c, mode="raw")
            else:
                tau, reflectors = _QR_R_RAW(c, signature="d->d"), c.T
        k = tau.shape[0]   # reflectors: (M, m), rows contiguous
        r = np.triu(reflectors[:, :k].T)
        u_r, sigma, vt = np.linalg.svd(r, full_matrices=False)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        raise RuntimeError(f"weighted SVD failed to converge: {exc}") from exc
    reflectors = reflectors[:k]
    np.fill_diagonal(reflectors, 1.0)
    return BlockSVD(sigma=sigma, vt=vt, reflectors=reflectors, tau=tau, u_r=u_r, r=r)


def weighted_svd(K: ForwardOperator, *, release: bool = False) -> WeightedSVD:
    """SVD of the operator between the L2 spaces (cached).

    Factorizes C = ``K.matrix``: both of its bases are orthonormal, so C's
    singular values are the operator's between the function spaces, and
    the compactness of the underlying integral operator shows up as their
    rapid decay.  C splits into the blocks of :func:`factor_blocks` (kept
    only if every entry outside them is 0.0, else C is one block), and
    each block C_b = QR by Householder reflectors, then
    R = U_R diag(sigma) Vt, and neither Q nor U is formed.  A block equal
    to the one before it, bit for bit, as each sin block of an axial
    operator is to its cos block, takes that block's factors.  LAPACK's
    gesdd takes the same steps when m >= 11M/6.  The QR is numpy's raw one,
    the gufunc that ``np.linalg.qr(mode="raw")`` runs on a copy, run here
    on a column-major array of the block, which it overwrites with the
    reflectors as contiguous rows of its transpose (bit for bit
    ``np.linalg.qr``'s, which stands in where numpy lacks the gufunc, at
    the cost of one more copy).

    An operator of one block is factored as a whole.  By default its array
    is a copy, and K keeps its matrix.  With ``release=True`` K.matrix is
    set to None and its array, column-major from :func:`assemble_forward`,
    is factored in place, so the QR holds no copy of C beside LAPACK's
    working one; a cached call only lets the matrix go.  Both give
    bit-identical factors.  The blocks of a split operator are copies,
    each a few dozen columns.
    """
    if K._svd is not None:
        if release:
            K.matrix = None
        return K._svd
    matrix = K.matrix
    blocks, loose = factor_blocks(K.antenna, K.controls)
    parts = [_take(matrix, rows, columns) for rows, columns in blocks]
    # The blocks hold disjoint entries, so they hold every nonzero one if
    # they hold as many as the matrix; else it is factored whole.
    if len(blocks) > 1 and sum(map(np.count_nonzero, parts)) != np.count_nonzero(matrix):
        (blocks, loose), parts = _one_block(), [matrix]
    if release:
        K.matrix = None
    factored, previous = [], None
    for (rows, columns), c in zip(blocks, parts):
        if previous is None or not np.array_equal(c, previous[0]):
            whole = release and isinstance(rows, slice)
            previous = c, _factor(np.asfortranarray(c) if whole else np.array(c, order="F"))
        factored.append((rows, columns, previous[1]))
    del matrix, parts, previous
    values = np.concatenate([factors.sigma for *_, factors in factored])
    order = np.argsort(-values, kind="stable")   # the identity for one block
    place = np.empty_like(order)
    place[order] = np.arange(order.shape[0])
    starts = np.cumsum([0] + [factors.sigma.shape[0] for *_, factors in factored])
    blocks = tuple((rows, columns, place[a:b], factors)
                   for (rows, columns, factors), a, b in zip(factored, starts, starts[1:]))
    if len(blocks) == 1:
        vt = blocks[0][3].vt
    else:
        vt = np.zeros((order.shape[0], _antenna_columns(K.antenna)))
        for _, columns, at, factors in blocks:
            vt[np.ix_(at, columns)] = factors.vt
    K._svd = WeightedSVD(sigma=values[order], vt=vt, blocks=blocks, loose=loose)
    return K._svd


# What a run holds beside the operator's arrays and the translation's
# tables: the BLAS and module memory it touches beyond ``import
# fieldcast.cli`` and its small arrays (one row block's temporaries, the
# target's first run of degrees above its sphere's, the vectors of the
# solve, the probes' series, a dump's row block and its bytes); no array is
# sized by a node count.  The most measured beyond the arrays is 6.1 MiB, a
# dump at 21919 x 15 (:func:`_coefficient_block`); this is that with a
# margin of 35%, rounded up.
RUN_OVERHEAD_BYTES = 9 * 2**20

# Bytes of the 3D translation's tables (:func:`fieldcast.translation.translated_block`)
# per (L + D + 1)^2, L the antenna's degree and D a region's: traced peaks
# of a region's block beyond its rows' values, at L = 1 and D = 127 .. 299,
# read 66 to 67; this is that with a margin of 20%.
TABLE_BYTES = 80


def factorization_cost(antenna: Boundary, controls: list[Boundary]) -> tuple[int, int]:
    """(bytes, flops) of the operator on these boundaries, from their
    degrees alone: the bytes a run holds at its peak, and m_b M_b^2 of the
    largest block :func:`weighted_svd` factors (:func:`factor_blocks`), m M^2
    for an operator of one block, m rows (:func:`row_offsets`) by M
    antenna harmonics.

    Factoring an m_b x M_b block holds two such float64 arrays at the QR
    (the block, which it overwrites with the reflectors, and LAPACK's
    working copy) and six k_b x k_b, k_b = min(m_b, M_b), for the SVD of R.
    An operator of one block is factored in place, so that is all its
    arrays, and they also bound assembly (the matrix and the temporaries of
    one antenna order, :func:`fieldcast.translation.translated_block`) but
    on tall, narrow matrices, where RUN_OVERHEAD_BYTES covers the
    temporaries.  A split operator holds the m x M matrix, the blocks
    gathered from it and its largest block's factorization, then the dense
    k x M ``vt`` of the merged factors, k the sum of the k_b, which also
    stands for the factors of the blocks done.  Beside the arrays: the
    translation's tables, TABLE_BYTES per (L + D + 1)^2, at most
    2 (M + 1) + 2 m of them, and RUN_OVERHEAD_BYTES.  Growth of peak RSS
    over a process that only imports the CLI (ru_maxrss, median of 5), in
    MiB, for ``run`` / ``run --dump-operator`` / this price, on demo-2d,
    one block: 2.7 / 2.9 / 9.0 at 44 x 14, 3.9 / 4.2 / 10.5 at 380 x 126,
    26.5 / 26.5 / 34.3 at 668 x 638, 10.8 / 11.3 / 19.2 at 1788 x 254,
    39.3 / 39.3 / 51.1 at 1276 x 766, 46.7 / 46.7 / 63.2 at 2300 x 766,
    3.9 / 5.0 / 12.0 at 8204 x 14 and 10.6 / 10.6 / 21.0 at 32780 x 14;
    the README's memory model gives those of split operators, such as
    13.1 / 13.3 / 27.6 at demo-3d's 1279 x 1023."""
    m, columns = row_offsets(antenna, controls)[-1], _antenna_columns(antenna)
    shapes = ([(sum(map(len, rows)), len(cols)) for rows, cols in _keyed(antenna, controls)]
              if _axial(antenna, controls) else [(m, columns)])
    arrays = max(2 * r * c + 6 * min(r, c) ** 2 for r, c in shapes)
    if len(shapes) > 1:
        arrays += (m + sum(min(r, c) for r, c in shapes)) * columns + sum(r * c for r, c in shapes)
    need = 8 * arrays + TABLE_BYTES * 2 * (columns + 1 + m) + RUN_OVERHEAD_BYTES
    return need, max(r * c**2 for r, c in shapes)


def dump_operator(K: ForwardOperator, path) -> None:
    """Binary dump, version 3: int64 header (magic, version, rows m, columns M,
    n_sigma), then the m x M matrix row-major as float64, then the singular
    values, which are the matrix's own.  Rows are each control sphere's
    harmonic coefficients, regions first and the outer sphere last
    (:attr:`ForwardOperator.block_rows`), of the degrees of its
    :func:`_block_rows`: on a region's sphere the constant, then the
    harmonics of degrees 1 .. D; on the outer sphere, of the antenna's
    degree, those of degrees 1 .. L.  Columns are the antenna's harmonics.
    Both run in the order of :func:`fieldcast.geometry.surface_harmonics`,
    degree by degree from 1: in 2D cos then sin of each degree; in 3D the
    zonal harmonic of degree l, then cos and sin of each order m = 1 .. l.
    Both are the harmonics of the user's frame: an operator in a turned
    solve frame (:func:`fieldcast.geometry.solve_frame`) is written from
    its boundaries turned back (:meth:`fieldcast.geometry.Boundary.in_user_frame`),
    whose singular values are its own within rounding.
    The rows are written one row block at a time, from ``K.matrix`` while K
    holds it in the user's frame; else each row block is assembled
    again (:func:`_coefficient_block`), the same rows bit for bit, so the
    dump holds one row block, and each block costs time in proportion to
    its own rows."""
    svd = weighted_svd(K)
    m, columns = K.block_rows[-1].stop, _antenna_columns(K.antenna)
    antenna = K.antenna.in_user_frame()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<5q", _DUMP_MAGIC, _DUMP_VERSION, m, columns, svd.sigma.shape[0]))
        for sphere, block_rows in zip(K.controls, K.block_rows):
            for rows in row_blocks(block_rows.stop - block_rows.start, columns):
                if K.matrix is None or K.antenna.frame is not None:
                    block = _coefficient_block(antenna, sphere.in_user_frame(), rows)
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
