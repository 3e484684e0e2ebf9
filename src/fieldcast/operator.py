"""Discrete forward operator from antenna densities to control-boundary traces.

The operator maps a density on the antenna boundary to the values of its
double-layer field on every control sphere (one block per region, then
the outer sphere).  Assembly is plain Nystrom: entry (i, j) is the
double-layer kernel between control node i and antenna node j times the
antenna quadrature weight.

Norms on both sides are quadrature weighted, so discrepancy statements
are statements about the underlying function-space norms, not about raw
coefficient vectors.  The adjoint is the exact transpose in those
weighted inner products, and the cached SVD is taken of the similarity
W^(1/2) A w^(-1/2) whose singular values are the operator's with respect
to the true norms.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .geometry import SEPARATION_RTOL, QuadratureRule, frozen_array
from .kernels import dlp_kernel, row_blocks

_DUMP_MAGIC = 0x46434F50  # "FCOP"

# block_residuals, through the factors, agrees with the nodal A h - v within
# RESIDUAL_ROUNDING_C * u * (sigma_1 E + ||v||) per block, E = ||h||, u = 2^-53.
# Largest ratio measured: 2.6 on the presets and 28 benchmark-pool scenarios,
# 3.1 on a 24 x 64 operator, 24.6 over 4 500 random small scenarios (64 x 16
# to 288 x 72), where the nodal path stays within 0.6 of an extended-precision
# A h - v: the factors' rounding, seen through sigma_1 E, is the larger part.
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


def _check_same_rules(s: list[QuadratureRule], t: list[QuadratureRule]) -> None:
    if len(s) != len(t):
        raise ValueError("control traces have different block counts")
    for a, b in zip(s, t):
        if (
            a.node_count != b.node_count
            or a.boundary.dim != b.boundary.dim
            or abs(a.boundary.radius - b.boundary.radius) > 1e-14 * a.boundary.radius
            or np.max(np.abs(a.boundary.center - b.boundary.center)) > 1e-14
        ):
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
    """Thin SVD B = U diag(sigma) Vt of B = W^(1/2) A w^(-1/2), with U kept
    factored as U = Q U_R: Q is the orthogonal factor of B's QR, held as its
    Householder reflectors, and U_R the left factor of the SVD of R.  U is
    never formed; :meth:`project` applies its transpose and :meth:`lift` U."""

    sigma: np.ndarray    # (k,) nonincreasing, k = min(m, n)
    vt: np.ndarray       # (k, n)
    sqrt_row_w: np.ndarray  # (m,)
    sqrt_col_w: np.ndarray  # (n,)
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


@dataclass
class ForwardOperator:
    """Dense double-layer trace operator with weighted-SVD cache.

    ``matrix`` already contains the antenna quadrature weights, so
    applying it to nodal density values yields trace values directly.  It
    is None once ``weighted_svd(K, release=True)`` has consumed it; the
    factors then stand in for it (:func:`block_residuals`).
    """

    matrix: np.ndarray | None  # (m, n): control nodes x antenna nodes
    antenna_rule: QuadratureRule
    control_rules: list[QuadratureRule]
    _svd: WeightedSVD | None = field(default=None, repr=False)

    def __post_init__(self):
        m = sum(r.node_count for r in self.control_rules)
        n = self.antenna_rule.node_count
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.shape != (m, n):
            raise ValueError(f"matrix shape {self.matrix.shape} != ({m}, {n})")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("operator matrix contains non-finite entries")

    @property
    def row_weights(self) -> np.ndarray:
        return np.concatenate([r.weights for r in self.control_rules])

    @property
    def col_weights(self) -> np.ndarray:
        return self.antenna_rule.weights

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


def assemble_forward(antenna: QuadratureRule, controls: list[QuadratureRule]) -> ForwardOperator:
    """Assemble the dense double-layer trace matrix.

    Entry (i, j) = dlp_kernel(x_i, y_j, nu_j) * w_j with x_i running over
    all control nodes and y_j over antenna nodes.  Control nodes inside or
    touching the antenna sphere are rejected: the kernels are analytic
    only for separated boundaries, and a violation indicates a broken
    scenario rather than something to regularize.  The matrix is
    column-major, the layout :func:`weighted_svd` factors, and is filled one
    block of columns at a time, so assembly needs little memory beyond it.
    """
    dim = antenna.boundary.dim
    for rule in controls:
        if rule.boundary.dim != dim:
            raise ValueError("antenna and control rules have mixed dimensions")
        rho = np.linalg.norm(rule.nodes - antenna.boundary.center, axis=-1)
        if np.any(rho < antenna.boundary.radius * (1.0 + SEPARATION_RTOL)):
            raise ValueError(
                "control boundary comes too close to the antenna boundary"
            )
    x = np.concatenate([r.nodes for r in controls])[None]  # (1, m, dim)
    y, nu, w = antenna.nodes[:, None, :], antenna.normals[:, None, :], antenna.weights[:, None]
    matrix = np.empty((x.shape[1], antenna.node_count), order="F")
    for cols in row_blocks(antenna.node_count, x.shape[1]):
        kernel = dlp_kernel(x, y[cols], nu[cols], dim)  # (cols, m): the block's transpose
        np.multiply(kernel, w[cols], out=matrix[:, cols].T)
    return ForwardOperator(matrix=matrix, antenna_rule=antenna, control_rules=list(controls))


def _nodal(K: ForwardOperator) -> np.ndarray:
    """K's nodal matrix; a ValueError if ``weighted_svd`` has consumed it."""
    if K.matrix is None:
        raise ValueError("the operator's nodal matrix was released to its weighted SVD "
                         "(weighted_svd(K, release=True)); assemble it again to apply it")
    return K.matrix


def _check_density(K: ForwardOperator, h: Density) -> None:
    n = K.antenna_rule.node_count
    if h.values.shape[0] != n:
        raise ValueError(
            f"density length {h.values.shape[0]} does not match operator columns {n}"
        )


def apply(K: ForwardOperator, h: Density) -> ControlTrace:
    """Double-layer traces of a density on every control boundary."""
    _check_density(K, h)
    return K.split(_nodal(K) @ h.values)


def block_residuals(K: ForwardOperator, h: Density, v: ControlTrace) -> tuple[float, ...]:
    """Weighted L2 norm of K h - v on each control boundary, regions first.

    Computed through the factors, whether or not K still holds its matrix:
    W^(1/2) (K h - v) = Q [U_R diag(sigma) Vt w^(1/2) h; 0] - W^(1/2) v, one
    reflector pass (:meth:`WeightedSVD.lift`).  Each norm agrees with the
    nodal ``apply(K, h) - v`` within RESIDUAL_ROUNDING_C * u * (sigma_1
    ||h|| + ||v||), u = 2^-53.
    """
    _check_density(K, h)
    _check_same_rules(K.control_rules, v.rules)
    svd = weighted_svd(K)
    image = svd.lift(svd.sigma * (svd.vt @ (svd.sqrt_col_w * h.values)))  # W^(1/2) K h
    res = image - svd.sqrt_row_w * v.concatenated  # (m,)
    return tuple(float(np.linalg.norm(res[sl])) for sl in K.block_slices)


def apply_adjoint(K: ForwardOperator, t: ControlTrace) -> Density:
    """Adjoint of :func:`apply` in the weighted inner products.

    Computed as w^(-1) A^T W applied to the concatenated trace, which is
    the exact discrete adjoint; it coincides with Nystrom quadrature of
    the adjoint kernel over the control boundaries.
    """
    if len(t.blocks) != len(K.control_rules):
        raise ValueError("trace block count does not match the operator")
    for block, rule in zip(t.blocks, K.control_rules):
        if block.shape[0] != rule.node_count:
            raise ValueError(
                f"trace block length {block.shape[0]} does not match "
                f"{rule.node_count} control nodes"
            )
    weighted = K.row_weights * t.concatenated  # (m,)
    values = (_nodal(K).T @ weighted) / K.col_weights  # (n,)
    return Density(rule=K.antenna_rule, values=values)


def weighted_svd(K: ForwardOperator, *, release: bool = False) -> WeightedSVD:
    """SVD of the operator with respect to the weighted norms (cached).

    Factorizes B = W^(1/2) A w^(-1/2); B's singular values are the
    operator's between the weighted spaces, and the compactness of the
    underlying integral operator shows up as their rapid decay.  B = QR by
    Householder reflectors, then R = U_R diag(sigma) Vt, and neither Q nor
    U is formed.  LAPACK's gesdd takes the same steps when m >= 11n/6; on
    both presets sigma and Vt equal ``np.linalg.svd(B)``'s bit for bit.  B
    is column-major, so numpy's raw QR hands back the reflectors as
    contiguous rows.

    By default B is a scaled copy and K keeps its nodal matrix.  With
    ``release=True`` the matrix is scaled into B in place and K.matrix set
    to None, so B is freed when the QR returns and neither A nor B lives
    through the SVD of R.  Both paths scale in the same order and give
    bit-identical factors.  A cached call returns the factors and changes
    nothing.
    """
    if K._svd is not None:
        return K._svd
    sqrt_row = np.sqrt(K.row_weights)
    sqrt_col = np.sqrt(K.col_weights)
    if release:
        b, K.matrix = np.asfortranarray(_nodal(K)), None
    else:
        b = np.array(_nodal(K), order="F")
    b *= sqrt_row[:, None]
    b /= sqrt_col
    try:
        reflectors, tau = np.linalg.qr(b, mode="raw")  # (n, m), rows contiguous
        del b
        k = tau.shape[0]
        u_r, sigma, vt = np.linalg.svd(np.triu(reflectors[:, :k].T), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"weighted SVD failed to converge: {exc}") from exc
    reflectors = reflectors[:k]
    np.fill_diagonal(reflectors, 1.0)
    K._svd = WeightedSVD(sigma=sigma, vt=vt, sqrt_row_w=sqrt_row, sqrt_col_w=sqrt_col,
                         reflectors=reflectors, tau=tau, u_r=u_r)
    return K._svd


def factorization_bytes(m: int, n: int) -> int:
    """Bytes an m x n operator and its :func:`weighted_svd` hold at once, at
    the QR, when the operator keeps its matrix, as ``run --dump-operator``
    does: four m x n float64 arrays (the matrix, B, numpy's copy of B that
    becomes the reflectors and LAPACK's working copy), plus three k x n,
    k = min(m, n), for the SVD of R.  ``run`` and ``sweep`` release the
    matrix into B and hold three.  Growth of peak RSS over an import-only
    process (ru_maxrss, in m x n arrays) at 2304 x 800, 4096 x 512 and
    2304 x 1152: 3.63, 3.41 and 4.48 for ``run``; 4.61, 4.40 and 5.43 with
    ``--dump-operator``; 5.04, 4.38 and 5.5 counted here."""
    return 8 * (4 * m * n + 3 * min(m, n) * n)


def dump_operator(K: ForwardOperator, path) -> None:
    """Binary dump: int64 header (magic, version, rows, cols, n_sigma),
    then the matrix row-major as float64, then the singular values.  The
    matrix goes out one row block at a time, so only a block is copied."""
    matrix = _nodal(K)
    svd = weighted_svd(K)
    m, n = matrix.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<5q", _DUMP_MAGIC, 1, m, n, svd.sigma.shape[0]))
        for rows in row_blocks(m, n):
            fh.write(np.ascontiguousarray(matrix[rows], dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(svd.sigma, dtype="<f8").tobytes())


def load_operator_dump(path) -> tuple[np.ndarray, np.ndarray]:
    """Read back a dump written by :func:`dump_operator`: (matrix, sigma)."""
    with open(path, "rb") as fh:
        magic, version, m, n, k = struct.unpack("<5q", fh.read(40))
        if magic != _DUMP_MAGIC or version != 1:
            raise ValueError(f"not a version-1 operator dump: {path}")
        matrix = np.frombuffer(fh.read(8 * m * n), dtype="<f8").reshape(m, n)
        sigma = np.frombuffer(fh.read(8 * k), dtype="<f8")
    return matrix.copy(), sigma.copy()
