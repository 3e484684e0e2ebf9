"""Row blocks of pair arrays, and the double-layer kernel.

:func:`row_blocks` splits an (m, n) array of pairs into blocks of rows.
:func:`dlp_kernel` is the normal derivative in the source point of the
Laplace fundamental solution Phi(x, y), (1/2pi) ln(1/|x-y|) in 2D and
(1/4pi) / |x-y| in 3D, whose integral against a density is the double
layer.  No pipeline path calls it: the operator and the radiated field are
closed forms (:mod:`fieldcast.operator`, :mod:`fieldcast.fields`).  It
stays as the kernel the tests' Nystrom oracles integrate, under the names
``operator.dlp_kernel`` and ``fields.dlp_kernel`` that the benchmark's
tracer wraps.  Points broadcast over leading axes; the last has length
``dim``.
"""

from __future__ import annotations

import numpy as np

from .geometry import UNIT_SPHERE_MEASURE

# Evaluations closer than this (relative) are treated as coincident-point
# bugs, never regularized: every boundary pair in scope is well separated.
COINCIDENT_RTOL = 1e-12

# Row-blocked callers (the radiated field's series, the sweep's sums, the
# operator's scans, its 2D translation and its dump) take at most this many
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
