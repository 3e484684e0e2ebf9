"""Point kernels of potential theory and Poisson-formula Dirichlet solvers.

Free-space fundamental solution of the Laplacian

    Phi(x, y) = (1/2pi) ln(1/|x-y|)   in 2D
    Phi(x, y) = (1/4pi) / |x-y|       in 3D

its normal derivatives in the source and observation variables (the
double-layer and adjoint kernels), and Poisson-kernel quadrature for the
interior/exterior Dirichlet problem on a ball, all of them oracles: the
pipeline evaluates fields in closed form (:func:`fieldcast.operator.basis_fields`,
:func:`fieldcast.fields.radiated_field`), and the Poisson solvers reproduce
harmonic data without any layer potential.

All kernels broadcast over leading axes; points are arrays whose last
axis has length ``dim``.
"""

from __future__ import annotations

import numpy as np

from .geometry import UNIT_SPHERE_MEASURE, QuadratureRule

# Evaluations closer than this (relative) are treated as coincident-point
# bugs, never regularized: every boundary pair in scope is well separated.
COINCIDENT_RTOL = 1e-12

# Row-blocked callers (the radiated field's series, the Nystrom oracles'
# kernels, the sweep's sums, the operator's scans) take at most this many
# values per (rows, n) block, 512 KiB of float64, so a block's few live
# arrays stay in cache and small beside the arrays the caller holds.
BLOCK_PAIRS = 2**16


def row_blocks(m: int, n: int) -> list[slice]:
    """Slices covering m rows of an (m, n) pair array, BLOCK_PAIRS pairs or fewer each."""
    step = max(1, BLOCK_PAIRS // n)
    return [slice(start, min(start + step, m)) for start in range(0, m, step)]


def _dist_and_dot(x, y, nu, dim: int):
    """|x - y| and (x - y).nu, built one coordinate plane at a time.

    Both sums run in axis order, as numpy's norm and sum over a last axis
    do, so the results are bit-identical to the broadcast (..., dim) form
    without ever holding it.  ``nu=None`` skips the dot product.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != dim or y.shape[-1] != dim:
        raise ValueError(
            f"points must have trailing dimension {dim}, got {x.shape} and {y.shape}"
        )
    if nu is not None:
        nu = np.asarray(nu, dtype=float)
        if nu.shape[-1] != dim:
            raise ValueError(f"normals must have trailing dimension {dim}, got {nu.shape}")
    out = np.empty((4, *np.broadcast_shapes(x.shape[:-1], y.shape[:-1])))
    diff, sq, dot, term = (out[i, ...] for i in range(4))
    for k in range(dim):
        np.subtract(x[..., k], y[..., k], out=diff)
        np.multiply(diff, diff, out=term if k else sq)
        if k:
            sq += term
        if nu is not None:
            np.multiply(diff, nu[..., k], out=term if k else dot)
            if k:
                dot += term
    dist = np.sqrt(sq, out=sq)
    scale = np.maximum(1.0, np.linalg.norm(x, axis=-1))
    if np.any(dist < COINCIDENT_RTOL * scale):
        raise ValueError("coincident or near-coincident evaluation points")
    return dist, (None if nu is None else dot)


def phi(x, y, dim: int) -> np.ndarray | float:
    """Fundamental solution Phi(x, y) of the Laplacian.

    (1/2pi) ln(1/|x-y|) in 2D, (1/4pi)/|x-y| in 3D.
    """
    dist, _ = _dist_and_dot(x, y, None, dim)
    if dim == 2:
        out = -np.log(dist) / UNIT_SPHERE_MEASURE[2]
    elif dim == 3:
        out = 1.0 / (UNIT_SPHERE_MEASURE[3] * dist)
    else:
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    return out if out.ndim else float(out)


def dlp_kernel(x, y, nu_y, dim: int) -> np.ndarray | float:
    """Normal derivative of Phi in the source point: dPhi(x,y)/dnu_y.

    Differentiating the fundamental solution gives

        dPhi/dnu_y = (x - y).nu_y / (omega_d |x - y|^d)

    with omega_2 = 2pi and omega_3 = 4pi the unit-sphere surface measure.
    Integrated against a density over a closed boundary this is the
    double-layer field; for the unit density it evaluates to -1 inside and
    0 outside the boundary (Gauss identity), which pins the constant.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    dist, dot = _dist_and_dot(x, y, nu_y, dim)
    kernel = dot / (UNIT_SPHERE_MEASURE[dim] * dist**dim)
    return kernel if kernel.ndim else float(kernel)


def adjoint_kernel(x, nu_x, y, dim: int) -> np.ndarray | float:
    """Normal derivative of Phi in the observation point: dPhi(x,y)/dnu_x.

    Equal to (y - x).nu_x / (omega_d |x - y|^d); by the symmetry of Phi
    this is dlp_kernel with the roles of the two points swapped.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    dist, dot = _dist_and_dot(x, y, nu_x, dim)
    out = -dot / (UNIT_SPHERE_MEASURE[dim] * dist**dim)
    return out if out.ndim else float(out)


def poisson_solve(rule: QuadratureRule, data: np.ndarray, x, side: str) -> np.ndarray | float:
    """Dirichlet solution on either side of a sphere via Poisson-kernel quadrature.

    For boundary data f on the sphere of radius R* centred at y0,

        interior:  u(x) = (R*^2 - |x-y0|^2) / (omega_d R*) * sum_j w_j f_j / |x - y_j|^d
        exterior:  u(x) = (|x-y0|^2 - R*^2) / (omega_d R*) * sum_j w_j f_j / |x - y_j|^d

    The exterior solution is the one bounded at infinity in 2D and
    decaying in 3D.  The quadrature is spectrally accurate for smooth data
    when the evaluation point keeps a healthy distance from the sphere
    (radius ratio <= ~0.5 interior, >= ~2 exterior at default node counts).

    Parameters
    ----------
    rule : QuadratureRule
        Rule over the data sphere.
    data : ndarray, shape (n,)
        Boundary values at the rule's nodes.
    x : array-like, shape (dim,) or (p, dim)
        Evaluation point(s), strictly off the sphere and on the stated side.
    side : "interior" or "exterior"
    """
    if side not in ("interior", "exterior"):
        raise ValueError(f"side must be 'interior' or 'exterior', got {side!r}")
    dim = rule.boundary.dim
    data = np.asarray(data, dtype=float)
    if data.shape != (rule.node_count,):
        raise ValueError(
            f"data shape {data.shape} does not match {rule.node_count} nodes"
        )

    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    pts = np.atleast_2d(x)  # (p, dim)
    if pts.shape[-1] != dim:
        raise ValueError(f"points must have trailing dimension {dim}, got {x.shape}")

    r_star = rule.boundary.radius
    rho = np.linalg.norm(pts - rule.boundary.center, axis=-1)  # (p,)
    on_tol = 1e-12 * r_star
    if np.any(np.abs(rho - r_star) <= on_tol):
        raise ValueError("evaluation point lies on the data sphere")
    if side == "interior" and np.any(rho >= r_star):
        raise ValueError("interior evaluation requested at an exterior point")
    if side == "exterior" and np.any(rho <= r_star):
        raise ValueError("exterior evaluation requested at an interior point")

    diff = pts[:, None, :] - rule.nodes[None, :, :]  # (p, n, dim)
    dist = np.linalg.norm(diff, axis=-1)  # (p, n)
    kernel = 1.0 / dist**dim
    front = (r_star**2 - rho**2) / (UNIT_SPHERE_MEASURE[dim] * r_star)  # (p,)
    if side == "exterior":
        front = -front
    out = front * (kernel @ (rule.weights * data))  # (p,)
    return float(out[0]) if scalar else out
