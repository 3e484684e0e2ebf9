"""Region blocks of the forward operator by multipole-to-local translation.

Each basis density of the antenna (:class:`fieldcast.operator.HarmonicDensity`)
radiates a pure multipole, so its local expansion about a control centre is
known in closed form (Greengard & Rokhlin, J. Comput. Phys. 73 (1987)
325-348; Greengard, *The Rapid Evaluation of Potential Fields in Particle
Systems*, MIT Press 1988; Epton & Dembart, SIAM J. Sci. Comput. 16 (1995)
865-897).  :func:`translated_block` makes any rows of a region's block from
it, and of a target's sources, and :func:`region_share` the share of the
block's norm in the degrees above its rows, with no field evaluated at a
control node.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Boundary, legendre_table
from .kernels import row_blocks


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0 .. n."""
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])


def row_orders(rows: range, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(degree, order, sin) of each of a region block's rows: the constant,
    then the harmonics of :func:`fieldcast.geometry.surface_harmonics` in
    their order, cos (or zonal) before sin."""
    r = np.arange(rows.start, rows.stop)
    if dim == 2:
        return (r + 1) // 2, (r + 1) // 2, (r > 0) & (r % 2 == 0)
    degree = np.sqrt(r).astype(np.intp)
    degree += (degree + 1) ** 2 <= r
    degree -= degree**2 > r
    k = r - degree**2
    return degree, (k + 1) // 2, (k > 0) & (k % 2 == 0)


def antenna_gains(antenna: Boundary, sphere: Boundary) -> np.ndarray:
    """:func:`translated_block`'s gains for the antenna's basis columns,
    degrees 1 .. L: log g_l, in 2D log(g_l / sqrt(delta)) plus the rows'
    log sqrt(R), g_l the degree's gain of :func:`fieldcast.operator.degree_gains`."""
    if sphere.dim == 2:
        gain = 0.5 * math.log(sphere.radius / antenna.radius) - math.log(2.0)
        return np.full(antenna.degree, gain)
    l = np.arange(1, antenna.degree + 1)
    return np.log(l / (2.0 * l + 1))


def translated_block(center, radius: float, gains: np.ndarray, sphere: Boundary,
                     rows: range, out: np.ndarray, start: int = 1) -> None:
    """Rows ``rows``, of any degrees, of the local expansion about the
    control ``sphere``'s centre of multipole columns about ``center``,
    written into ``out`` in closed form.  Column (l, j), l = start .. start + len(gains)
    - 1 and j its harmonics in :func:`fieldcast.geometry.surface_harmonics`'
    order, is the field e^(gains[l - start]) radius^l Y_j(x^) / |x|^(l+dim-2),
    x the offset from ``center`` and Y_j orthonormal on the unit sphere (in
    2D from l = 1, the gains carrying the rows' scale sqrt(R)): the
    antenna's basis fields (:func:`antenna_gains`), a point source, a dipole.

    In 3D column (l, m) is a real combination
    of I_l^{+-m}(x) = C_l^{+-m}(x^) / |x|^(l+1), C_n^q = sqrt(4 pi / (2n + 1))
    Y_n^q with the Condon-Shortley phase, and about the control centre a
    I_l^m(a + w) = sum_{lam, mu} (-1)^(lam+mu) [C(n-q, lam+mu) C(n+q, lam-mu)]^(1/2)
    |w|^lam C_lam^mu(w^) I_n^q(a), n = l + lam, q = m - mu (the addition
    theorem).  Row (lam, nu) of a real column is a real combination of the
    terms mu = nu and mu = -nu, so each entry takes the table of I_n^q(a)
    at q = m - nu and q = m + nu, times the magnitude of its row, its column
    and that table, summed as logarithms (log-gamma for the factorials) and
    exponentiated once, so that none overflows.  In 2D column l is
    the real or imaginary part of (c + w)^(-l) = sum_k (-1)^k C(l+k-1, k)
    w^k / c^(l+k), with x = c + w as complex numbers.  An entry depends on
    its row and column alone, bit for bit, and the columns are made one
    order (in 2D a few degrees) at a time."""
    dim = sphere.dim
    offset = sphere.center - center
    dist, R = float(np.linalg.norm(offset)), sphere.radius
    degree = start + len(gains) - 1
    lam, nu, sin = row_orders(rows, dim)
    top = degree + int(lam.max(initial=0))
    near, far = math.log(radius / dist), math.log(R / dist)
    factorial = _log_factorials(2 * top)
    with np.errstate(under="ignore"):
        if dim == 2:
            _translated_2d(out, degree, top, lam, sin, near, far, factorial, offset, gains)
        else:
            _translated_3d(out, degree, start, gains, top, lam, nu, sin, near, far, factorial,
                           offset / dist)


def _translated_2d(out, degree, top, k, sin, near, far, factorial, offset, gains) -> None:
    """:func:`translated_block` in 2D.  Row degree k and column degree l
    take a = (-1)^k e^(gains[l - 1]) (radius/|c|)^l (R/|c|)^k C(l+k-1, k),
    sqrt(2) times that on the constant row, and t = (l + k) arg c: a cos
    column a cos(t) on the constant and cos rows and a sin(t) on the sin
    row, a sin column a sin(t) and -a cos(t)."""
    if offset[1] == 0.0:   # on the polar axis: e^(i n arg c) = (+-1)^n, and no sin term
        cos, sin_ = np.sign(float(offset[0])) ** np.arange(top + 1.0), np.zeros(top + 1)
    else:
        phase = np.arange(top + 1) * math.atan2(float(offset[1]), float(offset[0]))
        cos, sin_ = np.cos(phase), np.sin(phase)
    row = k * far - factorial[k] + np.where(k == 0, 0.5 * math.log(2.0), 0.0)
    sign = np.where(k % 2 == 1, -1.0, 1.0)
    for cols in row_blocks(degree, k.shape[0]):
        l = np.arange(cols.start + 1, cols.stop + 1)
        n = k[:, None] + l
        mag = np.exp(row[:, None] + (l * near - factorial[l - 1] + gains[l - 1]) + factorial[n - 1])
        mag *= sign[:, None]
        re, im = mag * cos[n], mag * sin_[n]
        out[:, 2 * cols.start: 2 * cols.stop: 2] = np.where(sin[:, None], im, re)
        out[:, 2 * cols.start + 1: 2 * cols.stop: 2] = np.where(sin[:, None], -re, im)


def _translated_3d(out, degree, start, gains, top, lam, nu, sin, near, far, factorial,
                   direction) -> None:
    """:func:`translated_block` in 3D, one column order m at a time.

    Tables over (q, n), q = -top .. top and n = 0 .. top: the log of
    sqrt((n-q)! (n+q)! / (2n + 1)), and C_n^q(a^) sqrt((2n + 1) / (4 pi))
    without its azimuthal factor: (-1)^q Pbar_n^q for q > 0 (the
    Condon-Shortley phase), Pbar_n^|q| for q <= 0.  A row pair (lam, nu)
    reads both along n = lam + l, so it takes a contiguous window of each."""
    q = np.arange(-top, top + 1)
    n = np.arange(top + 1)
    absq = np.minimum(np.abs(q)[:, None], n)
    logs = 0.5 * (factorial[n - absq] + factorial[n + absq] - np.log(2 * n + 1.0))
    values = legendre_table(direction, top).T[np.abs(q)]
    values[(q > 0) & (q % 2 == 1)] *= -1.0
    logs, values = logs.ravel(), values.ravel()
    azimuth = q * math.atan2(float(direction[1]), float(direction[0]))
    # The rows in pairs (lam, nu), the zonal or cos row and the sin row:
    # row i takes pair i's value, or pair i - P's for the sin rows after them.
    _, seen, pair = np.unique(lam * (lam + 1) // 2 + nu, return_index=True, return_inverse=True)
    lam, nu = lam[seen], nu[seen]
    taken = pair + np.where(sin, lam.shape[0], 0)
    # Row (lam, nu): (lam + 1) log(R/|a|) - log sqrt((lam+nu)! (lam-nu)! (2 lam + 1)).
    row = (lam + 1) * far - 0.5 * (factorial[lam + nu] + factorial[lam - nu]
                                    + np.log(2 * lam + 1.0))
    flip = np.where(nu % 2 == 1, -1.0, 1.0)
    parity = np.where(lam % 2 == 1, -flip, flip)   # (-1)^(lam+nu), the theorem's sign
    # Term mu = nu (q = m - nu) gives a + ic, mu = -nu (q = m + nu) b + id.
    # A column is sqrt(2) (-1)^m Re or Im of its complex one (Re at m = 0), a
    # cos row sqrt(2) (-1)^nu Re of a complex coefficient, a sin row
    # -sqrt(2) (-1)^nu Im, the zonal row Re.  So with each pair's weight and
    # the theorem's signs, a cos (or zonal) column takes a + b on the cos
    # (or zonal) row and d - c on the sin row, and a sin column c + d and
    # a - b.  The weights at m = 0, and at m > 0 times (-1)^m:
    signs = np.stack([parity, parity * flip])
    weights = (signs * np.where(nu == 0, 0.5, math.sqrt(0.5) * flip),
               signs * np.where(nu == 0, math.sqrt(0.5), 1.0) * flip)
    cos, sin_ = np.cos(azimuth), np.sin(azimuth)
    shifts = np.stack([-nu, nu]) + top
    starts = shifts * (top + 1) + lam
    # Column (l, m): gain + l log(radius/|a|) - log sqrt((l-m)! (l+m)! / (4 pi (2l + 1))).
    l, orders = np.arange(start, degree + 1), np.arange(degree + 1)[:, None]
    cols = (gains + l * near + 0.5 * np.log(4 * math.pi * (2 * l + 1.0))
            - 0.5 * (factorial[np.abs(l - orders)] + factorial[l + orders]))
    for m in range(degree + 1):
        l = np.arange(max(m, start), degree + 1)
        index = (starts + m * (top + 1))[..., None] + l
        e = np.exp(row[:, None] + cols[m, l - start] + logs[index])
        e *= values[index]
        weight = weights[min(m, 1)] * (-1.0 if m % 2 else 1.0)
        a, b = e * (weight * cos[shifts + m])[..., None]
        c, d = e * (weight * sin_[shifts + m])[..., None]
        # Column l*l - start^2 is degree l's zonal harmonic, 2m - 1 and 2m after it its order-m pair.
        first = l * l - start * start + max(2 * m - 1, 0)
        out[:, first] = np.concatenate([a + b, d - c])[taken]
        if m:
            out[:, first + 1] = np.concatenate([c + d, a - b])[taken]


def degree_norms(antenna: Boundary, sphere: Boundary, degrees: np.ndarray) -> np.ndarray:
    """(len(degrees),): the squared Frobenius norm of a region block's rows
    of each control degree lam in ``degrees``, in closed form.  A full
    multiplet's sum is unchanged by a rotation that takes the control
    centre a onto the z axis, where only mu = m survives; summed over the
    orders, antenna degree l adds g_l^2 (delta/|a|)^(2l) (R/|a|)^(2 lam + 2)
    C(2l + 2 lam, 2 lam) (2l + 1) / (2 lam + 1) in 3D, and in 2D twice the
    squared magnitude of :func:`_translated_2d`'s entries."""
    dim, degree = sphere.dim, antenna.degree
    dist = float(np.linalg.norm(sphere.center - antenna.center))
    near = math.log(antenna.radius / dist)
    far = math.log(sphere.radius / dist)
    factorial = _log_factorials(2 * (degree + int(degrees[-1])))
    lam, l = degrees[:, None], np.arange(1, degree + 1)
    if dim == 2:
        log = 2 * (lam * far + l * near
                   + factorial[l + lam - 1] - factorial[lam] - factorial[l - 1])
        log += math.log(sphere.radius / antenna.radius) - math.log(2.0)
    else:
        log = (2 * np.log(l / (2.0 * l + 1)) + 2 * l * near + (2 * lam + 2) * far
               + factorial[2 * (l + lam)] - factorial[2 * lam] - factorial[2 * l]
               + np.log((2.0 * l + 1) / (2 * lam + 1)))
    with np.errstate(under="ignore"):
        return np.sum(np.exp(log), axis=1)


def region_share(antenna: Boundary, sphere: Boundary) -> float:
    """The share of a region block's Frobenius norm, over all the degrees
    its basis fields hold on the control sphere, that lies in the degrees
    above the sphere's degree D, which run on without end: they are summed from
    D + 1 (:func:`degree_norms`), in runs that double up to 2^14 degrees,
    until what the rest can add is below rounding, as bounded by the
    geometric series of the ratio of successive terms at l = L (it falls
    with the degree and grows with l).  The sum stops after 2^18 degrees,
    which only a control sphere nearly touching the antenna's centre,
    R / |a| within about L 2^-18 of 1, would need."""
    dim, D = sphere.dim, sphere.degree
    kept = float(np.sum(degree_norms(antenna, sphere, np.arange(D + 1))))
    dist = float(np.linalg.norm(sphere.center - antenna.center))
    square, degree = (sphere.radius / dist) ** 2, antenna.degree
    tail, start, count = 0.0, D + 1, 64
    while start <= D + 2**18:
        norms = degree_norms(antenna, sphere, np.arange(start, start + count))
        tail += float(np.sum(norms))
        lam = start + count - 1
        if dim == 2:
            ratio = square * ((degree + lam) / (lam + 1.0)) ** 2
        else:
            ratio = square * (2 * (degree + lam) + 2.0) * (2 * (degree + lam) + 1) / (
                (2 * lam + 2) * (2 * lam + 3))
        if ratio < 1 and norms[-1] * ratio / (1 - ratio) <= 2.0**-53 * tail:
            break
        start, count = start + count, min(2 * count, 2**14)
    return math.sqrt(tail / (kept + tail))
