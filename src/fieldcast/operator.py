"""Forward operator from antenna densities to control-boundary traces.

The operator maps a density on the antenna boundary to the values of its
double-layer field on every control sphere (one block per region, then
the outer sphere).  It is built in closed form on an orthonormal basis of
antenna harmonics.  Outside the antenna sphere of radius delta, the double
layer of a surface harmonic of degree l is again that harmonic, times
l/(2l+1) (delta/r)^(l+1) in 3D and 1/2 (delta/r)^l in 2D (Kress, *Linear
Integral Equations*, ch. 6); degree 0 radiates nothing there (Gauss).  So
column j of the matrix is the trace of basis density j, and the operator
needs no antenna quadrature and no singular kernel.  The nodal Nystrom
quadrature of the double-layer kernel stays as the oracle :func:`apply`.

Norms on both sides are quadrature weighted, so discrepancy statements
are statements about the underlying function-space norms, not about raw
coefficient vectors.  The basis is orthonormal in the antenna rule's
weights, so a density's L2 norm is the norm of its coefficients, and the
cached SVD is taken of W^(1/2) A, whose singular values are the
operator's with respect to the true norms.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import (SEPARATION_RTOL, QuadratureRule, frozen_array, harmonic_count,
                       harmonic_degree, surface_harmonics)
from .kernels import dlp_kernel, row_blocks

_DUMP_MAGIC = 0x46434F50  # "FCOP"
_DUMP_VERSION = 2

# block_residuals, through the factors, agrees with A c - v, A the operator's
# own matrix and c the density's coefficients, within
# RESIDUAL_ROUNDING_C * u * (sigma_1 ||c|| + ||v||) per block, u = 2^-53.
# Largest ratio measured: 0.51 at the solved densities and 2.5 at random
# densities of the presets and 72 benchmark-pool scenarios, 13.1 over 4 500
# random small scenarios (64 x 14 to 288 x 35).
RESIDUAL_ROUNDING_C = 64.0


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
    """Thin SVD B = U diag(sigma) Vt of B = W^(1/2) A, with U kept factored as
    U = Q U_R: Q is the orthogonal factor of B's QR, held as its Householder
    reflectors, and U_R the left factor of the SVD of R.  U is never formed;
    :meth:`project` applies its transpose and :meth:`lift` U."""

    sigma: np.ndarray    # (k,) nonincreasing, k = min(m, M)
    vt: np.ndarray       # (k, M)
    sqrt_row_w: np.ndarray  # (m,)
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
        y = np.zeros(self.sqrt_row_w.shape[0])  # (m,)
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


@dataclass
class ForwardOperator:
    """Trace operator on the antenna's harmonic basis, with weighted-SVD cache.

    Column j of ``matrix`` holds, at every control node, the field radiated
    by basis density j, whose values at the antenna nodes are column j of
    ``basis``.  The basis is orthonormal in the antenna rule's weights,
    basis^T diag(w) basis = I, so coefficients c stand for the density
    ``basis @ c`` (:meth:`density`) of L2 norm ||c||.  ``matrix`` is None once
    ``weighted_svd(K, release=True)`` has consumed it; the factors then stand
    in for it (:func:`block_residuals`), and :func:`dump_operator` evaluates
    its rows again.
    """

    matrix: np.ndarray | None  # (m, M): control nodes x antenna harmonics
    basis: np.ndarray          # (n, M): antenna nodes x antenna harmonics
    antenna_rule: QuadratureRule
    control_rules: list[QuadratureRule]
    _svd: WeightedSVD | None = field(default=None, repr=False)

    def __post_init__(self):
        m = sum(r.node_count for r in self.control_rules)
        n = self.antenna_rule.node_count
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.basis = np.asarray(self.basis, dtype=float)
        if self.basis.ndim != 2 or self.basis.shape[0] != n:
            raise ValueError(f"basis shape {self.basis.shape} != ({n}, M)")
        if self.matrix.shape != (m, self.basis.shape[1]):
            raise ValueError(f"matrix shape {self.matrix.shape} != ({m}, {self.basis.shape[1]})")
        _check_finite(self.matrix, "matrix")
        _check_finite(self.basis, "basis")

    @property
    def row_weights(self) -> np.ndarray:
        return np.concatenate([r.weights for r in self.control_rules])

    @property
    def block_slices(self) -> list[slice]:
        out, start = [], 0
        for r in self.control_rules:
            out.append(slice(start, start + r.node_count))
            start += r.node_count
        return out

    def split(self, concatenated: np.ndarray) -> ControlTrace:
        return ControlTrace(
            blocks=[concatenated[sl] for sl in self.block_slices],
            rules=self.control_rules,
        )

    def density(self, c: np.ndarray) -> Density:
        """The nodal density of coefficients c: ``basis @ c``."""
        return Density(rule=self.antenna_rule, values=self.basis @ c)

    def coefficients(self, h: Density) -> np.ndarray:
        """The coefficients of h's projection onto the basis:
        basis^T diag(w) h, which recovers c from ``density(c)``."""
        _check_density(self, h)
        return self.basis.T @ (self.antenna_rule.weights * h.values)


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
    dim = antenna.boundary.dim
    center, delta = antenna.boundary.center, antenna.boundary.radius
    if np.shape(points)[-1] != dim:
        raise ValueError("antenna and points have mixed dimensions")
    x = np.asarray(points, dtype=float) - center  # (p, dim)
    r = np.linalg.norm(x, axis=-1)  # (p,)
    if np.any(r < delta * (1.0 + SEPARATION_RTOL)):
        raise ValueError("control boundary comes too close to the antenna boundary")
    degree = harmonic_degree(antenna)
    fields = surface_harmonics(x / r[:, None], degree)  # (p, M)
    q = delta / r
    radial = delta ** (-(dim - 1) / 2) * q ** (dim - 2)  # (delta/r)^(l+dim-2) at l = 0, scaled
    for l in range(1, degree + 1):
        radial = radial * q
        gain = 0.5 if dim == 2 else l / (2 * l + 1)
        cols = slice(harmonic_count(l - 1, dim), harmonic_count(l, dim))
        fields[:, cols] *= (gain * radial)[:, None]
    return fields


def assemble_forward(antenna: QuadratureRule, controls: list[QuadratureRule]) -> ForwardOperator:
    """The closed-form trace operator: the antenna's harmonic basis, and its
    :func:`basis_fields` at the control nodes, regions first, as the matrix."""
    basis = surface_harmonics(antenna.normals, harmonic_degree(antenna))
    basis *= antenna.boundary.radius ** (-(antenna.boundary.dim - 1) / 2)
    matrix = basis_fields(antenna, np.concatenate([r.nodes for r in controls]))
    return ForwardOperator(matrix=matrix, basis=basis, antenna_rule=antenna,
                           control_rules=list(controls))


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
    its matrix: W^(1/2) (A c - v) = Q [U_R diag(sigma) Vt c; 0] - W^(1/2) v,
    one reflector pass (:meth:`WeightedSVD.lift`).  Each norm agrees with
    that of ``A c - v`` within RESIDUAL_ROUNDING_C * u * (sigma_1 ||c|| +
    ||v||), u = 2^-53.
    """
    c = K.coefficients(h)
    _check_same_rules(K.control_rules, v.rules)
    svd = weighted_svd(K)
    image = svd.lift(svd.sigma * (svd.vt @ c))  # W^(1/2) A c
    res = image - svd.sqrt_row_w * v.concatenated  # (m,)
    return tuple(float(np.linalg.norm(res[sl])) for sl in K.block_slices)


def apply_adjoint(K: ForwardOperator, t: ControlTrace) -> Density:
    """Adjoint of :func:`apply` in the weighted inner products.

    Nystrom quadrature of the adjoint kernel over the control boundaries:
    value j is sum_i dlp_kernel(x_i, y_j, nu_j) W_i t_i, the exact discrete
    adjoint of :func:`apply`.  It stores no matrix.
    """
    _check_same_rules(K.control_rules, t.rules)
    weighted = K.row_weights * t.concatenated  # (m,)
    values = np.empty(K.antenna_rule.node_count)  # (n,)
    for cols, kernel in _kernel_blocks(K):
        values[cols] = kernel @ weighted
    return Density(rule=K.antenna_rule, values=values)


def weighted_svd(K: ForwardOperator, *, release: bool = False) -> WeightedSVD:
    """SVD of the operator with respect to the weighted norms (cached).

    Factorizes B = W^(1/2) A; the basis is orthonormal in the antenna's
    weights, so B's singular values are the operator's between the weighted
    spaces, and the compactness of the underlying integral operator shows up
    as their rapid decay.  B = QR by Householder reflectors, then
    R = U_R diag(sigma) Vt, and neither Q nor U is formed.  LAPACK's gesdd
    takes the same steps when m >= 11M/6; on both presets sigma and Vt equal
    ``np.linalg.svd(B)``'s bit for bit.  B is column-major, so numpy's raw QR
    hands back the reflectors as contiguous rows.

    By default B is a scaled copy and K keeps its matrix.  With
    ``release=True`` the matrix is scaled into B in place and K.matrix set
    to None, so B is freed when the QR returns and neither A nor B lives
    through the SVD of R.  Both paths scale alike and give bit-identical
    factors.  A cached call returns the factors and changes nothing.
    """
    if K._svd is not None:
        return K._svd
    sqrt_row = np.sqrt(K.row_weights)
    if release:
        b, K.matrix = np.asfortranarray(K.matrix), None
    else:
        b = np.array(K.matrix, order="F")
    b *= sqrt_row[:, None]
    try:
        reflectors, tau = np.linalg.qr(b, mode="raw")  # (M, m), rows contiguous
        del b
        k = tau.shape[0]
        u_r, sigma, vt = np.linalg.svd(np.triu(reflectors[:, :k].T), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"weighted SVD failed to converge: {exc}") from exc
    reflectors = reflectors[:k]
    np.fill_diagonal(reflectors, 1.0)
    K._svd = WeightedSVD(sigma=sigma, vt=vt, sqrt_row_w=sqrt_row, reflectors=reflectors,
                         tau=tau, u_r=u_r)
    return K._svd


# What a run holds beside the operator's arrays: per control node, about 32
# float64 of rules, target and assembly temporaries; and a fixed part for the
# probes' kernel blocks and the BLAS and module memory a run touches beyond
# ``import fieldcast.cli``.  A run at 64 x 15, where the arrays are
# negligible, grows by 9.0 MiB; at 1024 x 63 by 10.4 MiB more than its arrays.
RUN_OVERHEAD_BYTES_PER_ROW = 8 * 32
RUN_OVERHEAD_BYTES = 12 * 2**20


def factorization_bytes(m: int, n: int, columns: int) -> int:
    """Bytes a run holds at its peak, the QR in :func:`weighted_svd`, for m
    control nodes, n antenna nodes and M = ``columns`` antenna harmonics:
    three m x M float64 arrays (B, into which the matrix was released,
    numpy's copy of B that becomes the reflectors, and LAPACK's working
    copy), the n x M basis, three k x M, k = min(m, M), for the SVD of R, and
    the run's other arrays (RUN_OVERHEAD_BYTES_PER_ROW per control node plus
    RUN_OVERHEAD_BYTES).  Every command releases the matrix, ``run
    --dump-operator`` too.  Growth of peak RSS over a process that only
    imports the CLI, with BLAS loaded as ``python -m fieldcast`` loads it
    (ru_maxrss), in MiB, for ``run`` / ``run --dump-operator`` / this
    estimate: 28.1 / 28.2 / 39.7 at 2304 x 399 (n = 800), 28.5 / 28.5 / 39.4
    at 4096 x 255 (n = 512) and 41.7 / 41.9 / 55.5 at 2304 x 575 (n = 1152)."""
    arrays = 3 * m * columns + n * columns + 3 * min(m, columns) * columns
    return 8 * arrays + RUN_OVERHEAD_BYTES_PER_ROW * m + RUN_OVERHEAD_BYTES


def dump_operator(K: ForwardOperator, path) -> None:
    """Binary dump, version 2: int64 header (magic, version, rows m, columns M,
    n_sigma), then the m x M matrix row-major as float64, then the singular
    values.  Rows are the control nodes, regions first and the outer sphere
    last.  Columns are the antenna harmonics of
    :func:`fieldcast.geometry.surface_harmonics`, degree by degree from 1: in
    2D cos then sin of each degree; in 3D the zonal harmonic of degree l,
    then cos and sin of each order m = 1 .. l.  The rows are evaluated again
    by :func:`basis_fields` on K's rules, one block at a time: ``K.matrix``
    bit for bit, whether or not the SVD released it, for one more assembly
    (0.04 s at 3456 x 399) and no more memory."""
    svd = weighted_svd(K)
    nodes = np.concatenate([r.nodes for r in K.control_rules])  # (m, dim)
    m, columns = nodes.shape[0], K.basis.shape[1]
    with open(path, "wb") as fh:
        fh.write(struct.pack("<5q", _DUMP_MAGIC, _DUMP_VERSION, m, columns, svd.sigma.shape[0]))
        for rows in row_blocks(m, columns):
            block = basis_fields(K.antenna_rule, nodes[rows])
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())
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
