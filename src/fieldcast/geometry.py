"""Ball geometry, surface quadrature and admissibility checks.

The solver's geometry is a small source ball (the "antenna") centred at
the origin, one or more target balls in which a prescribed harmonic field
is wanted, a concentric control sphere slightly larger than each target
ball, and one large outer control sphere sitting strictly inside the
observation boundary.  Boundary data is matched on the control spheres;
sup-norm guarantees then propagate inward to the target balls and outward
past the observation boundary.

Surface integrals are discretized with spectrally accurate rules for
smooth integrands: equispaced trapezoid nodes on circles, and a
Gauss-Legendre (polar) x trapezoid (azimuth) product grid on spheres.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .fields import HarmonicField

# Relative tolerances for quadrature-rule self checks.
SURFACE_MEASURE_RTOL = 1e-12
NODE_ON_BOUNDARY_RTOL = 1e-14

# Default node counts per boundary rule: circle nodes in 2D, polar nodes in
# 3D.  Control rules use them; a defaulted antenna rule never exceeds them.
DEFAULT_NODES = {2: 128, 3: 24}
# Fewest nodes per boundary rule: circle nodes in 2D, polar nodes in 3D.
MIN_NODES = {2: 4, 3: 2}
# A defaulted antenna resolves a number of harmonic degrees that is a
# multiple of this.  Operators then come in a few shapes, so the largest
# shape a family of scenarios reaches, which sets peak memory, is one many
# of them share rather than one only a rare scenario reaches.
ANTENNA_DEGREE_STEP = 4
# Azimuth nodes per polar node in the 3D rules of make_rule.
AZIMUTH_PER_POLAR = 2

# Control nodes must clear the antenna sphere by this relative margin.
SEPARATION_RTOL = 1e-6

# Singular values below this fraction of sigma_1 count as unresolved when
# estimating the smallest residual the current discretization can reach.
RANK_CUTOFF_RTOL = 1e-12

# Surface measure of the unit sphere: the normalization that makes the
# mean-value property and the Gauss identity come out exact.
UNIT_SPHERE_MEASURE = {2: 2.0 * np.pi, 3: 4.0 * np.pi}


class ScenarioValidationError(ValueError):
    """A scenario violates one or more geometric admissibility conditions.

    Attributes
    ----------
    violations : list of str
        One entry per failed inequality, naming the region it concerns.
    """

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__(
            "scenario failed validation:\n  " + "\n  ".join(self.violations)
        )


def surface_measure(radius: float, dim: int) -> float:
    """Surface measure of a sphere: 2*pi*r in 2D, 4*pi*r^2 in 3D."""
    if dim not in UNIT_SPHERE_MEASURE:
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    return UNIT_SPHERE_MEASURE[dim] * radius ** (dim - 1)


def frozen_array(a) -> np.ndarray:
    """A float copy of ``a``, marked read-only: the holder and the caller
    can no longer change each other's values."""
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Boundary:
    """A circle (2D) or sphere (3D) boundary.

    Attributes
    ----------
    center : ndarray, shape (dim,)
    radius : float, > 0
    dim : int, 2 or 3
    """

    center: np.ndarray
    radius: float
    dim: int

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        center = frozen_array(self.center)
        if center.shape != (self.dim,):
            raise ValueError(f"expected a point of dimension {self.dim}, got shape {center.shape}")
        object.__setattr__(self, "center", center)

    @property
    def measure(self) -> float:
        """Surface measure of the boundary."""
        return surface_measure(self.radius, self.dim)


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature nodes, weights and outward normals on a ball boundary.

    Invariants (enforced by :meth:`validate`): weights sum to the surface
    measure to 1e-12 relative, every node lies on the boundary to
    1e-14 * radius, and every normal equals (node - center) / radius.
    """

    boundary: Boundary
    nodes: np.ndarray    # (n, dim)
    weights: np.ndarray  # (n,)
    normals: np.ndarray  # (n, dim)

    def __post_init__(self):
        for name in ("nodes", "weights", "normals"):
            object.__setattr__(self, name, frozen_array(getattr(self, name)))
        self.validate()

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum approximating the surface integral of the values."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.node_count,):
            raise ValueError(
                f"values shape {values.shape} does not match {self.node_count} nodes"
            )
        return float(self.weights @ values)

    def l2_norm(self, values: np.ndarray) -> float:
        """Quadrature-weighted L2 norm of nodal values."""
        values = np.asarray(values, dtype=float)
        return float(np.sqrt(self.weights @ values**2))

    def validate(self) -> None:
        """Check rule integrity. Raises ValueError on failure."""
        n, d = self.nodes.shape
        if d != self.boundary.dim:
            raise ValueError(f"node dimension {d} != boundary dim {self.boundary.dim}")
        if self.weights.shape != (n,):
            raise ValueError(f"weights shape {self.weights.shape} != ({n},)")
        if self.normals.shape != (n, d):
            raise ValueError(f"normals shape {self.normals.shape} != ({n}, {d})")
        if np.any(self.weights <= 0):
            raise ValueError("non-positive quadrature weights")

        total = float(np.sum(self.weights))
        measure = self.boundary.measure
        if abs(total - measure) > SURFACE_MEASURE_RTOL * measure:
            raise ValueError(
                f"weights sum {total!r} != surface measure {measure!r}"
            )
        # Tolerance: 1e-14 * radius plus the float representation error a
        # node "center + r * normal" necessarily carries from |center|.
        eps = np.finfo(float).eps
        center_norm = float(np.linalg.norm(self.boundary.center))
        tol = NODE_ON_BOUNDARY_RTOL * self.boundary.radius + 8 * eps * (center_norm + self.boundary.radius)
        radii = np.linalg.norm(self.nodes - self.boundary.center, axis=1)  # (n,)
        if np.max(np.abs(radii - self.boundary.radius)) > tol:
            raise ValueError("nodes do not lie on the boundary")
        expected = (self.nodes - self.boundary.center) / self.boundary.radius
        if np.max(np.abs(self.normals - expected)) > tol / self.boundary.radius:
            raise ValueError("normals are not outward unit radial vectors")


def make_circle_rule(center, radius: float, n: int) -> QuadratureRule:
    """Equispaced trapezoid rule on a circle.

    Nodes sit at angles 2*pi*j/n, every weight is 2*pi*r/n, normals point
    radially outward.  The rule integrates trigonometric polynomials of
    degree < n exactly, which makes it spectrally accurate for the
    analytic integrands that arise between well separated boundaries.

    Parameters
    ----------
    center : array-like, shape (2,)
    radius : float, > 0
    n : int, >= MIN_NODES[2]
        Node count.
    """
    if n < MIN_NODES[2]:
        raise ValueError(f"circle rule needs n >= {MIN_NODES[2]} nodes, got {n}")
    boundary = Boundary(center=center, radius=float(radius), dim=2)

    angles = 2.0 * np.pi * np.arange(n) / n  # (n,)
    normals = np.column_stack([np.cos(angles), np.sin(angles)])  # (n, 2)
    nodes = boundary.center + radius * normals  # (n, 2)
    weights = np.full(n, 2.0 * np.pi * radius / n)  # (n,)
    return QuadratureRule(boundary=boundary, nodes=nodes, weights=weights, normals=normals)


def make_sphere_rule(center, radius: float, n_polar: int, n_azimuth: int) -> QuadratureRule:
    """Gauss-Legendre (polar) x trapezoid (azimuth) product rule on a sphere.

    The polar direction uses Gauss-Legendre nodes in cos(theta), the
    azimuth an equispaced grid; weights are r^2 * w_GL * (2*pi/n_azimuth),
    so they sum to 4*pi*r^2 up to roundoff.  The azimuth grid is a circle
    rule, so it takes the circle minimum.
    """
    if n_polar < MIN_NODES[3]:
        raise ValueError(f"sphere rule needs n_polar >= {MIN_NODES[3]}, got {n_polar}")
    if n_azimuth < MIN_NODES[2]:
        raise ValueError(f"sphere rule needs n_azimuth >= {MIN_NODES[2]}, got {n_azimuth}")
    boundary = Boundary(center=center, radius=float(radius), dim=3)

    t, w_gl = np.polynomial.legendre.leggauss(n_polar)  # cos(theta) nodes, (n_polar,)
    phi = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth  # (n_azimuth,)
    sin_theta = np.sqrt(1.0 - t**2)  # (n_polar,)

    # Product grid flattened to (n_polar * n_azimuth, 3).
    st = np.repeat(sin_theta, n_azimuth)
    ct = np.repeat(t, n_azimuth)
    ph = np.tile(phi, n_polar)
    normals = np.column_stack([st * np.cos(ph), st * np.sin(ph), ct])
    nodes = boundary.center + radius * normals
    weights = radius**2 * np.repeat(w_gl, n_azimuth) * (2.0 * np.pi / n_azimuth)
    return QuadratureRule(boundary=boundary, nodes=nodes, weights=weights, normals=normals)


def make_rule(center, radius: float, n: int, dim: int) -> QuadratureRule:
    """The standard rule of a boundary: ``n`` circle nodes in 2D, or ``n``
    polar x ``AZIMUTH_PER_POLAR * n`` azimuth nodes in 3D."""
    if dim == 2:
        return make_circle_rule(center, radius, n)
    return make_sphere_rule(center, radius, n, AZIMUTH_PER_POLAR * n)


def rule_node_count(n: int, dim: int) -> int:
    """Node count of :func:`make_rule`'s rule, without building it."""
    return n if dim == 2 else AZIMUTH_PER_POLAR * n * n


def nodes_around(rule: QuadratureRule) -> int:
    """Nodes around the rule: all of them on a circle, and on a sphere those
    of the first polar ring, the nodes sharing the first node's z."""
    if rule.boundary.dim == 2:
        return rule.node_count
    return int(np.count_nonzero(rule.normals[:, 2] == rule.normals[0, 2]))


def harmonic_degree(rule: QuadratureRule) -> int:
    """Highest degree L at which the rule integrates the product of any two
    surface harmonics of degree <= L exactly, so that :func:`surface_harmonics`
    of degrees 1 .. L, scaled to the rule's radius, is orthonormal in its
    weights.  A circle rule of n nodes integrates trigonometric polynomials of
    degree < n, so L = (n - 1) // 2.  A product rule of n_polar Gauss-Legendre
    rings of n_azimuth nodes integrates polynomials of degree < 2 n_polar in
    cos(theta) and azimuthal frequencies below n_azimuth, so
    L = min(n_polar - 1, (n_azimuth - 1) // 2)."""
    n_around = nodes_around(rule)
    if rule.boundary.dim == 2:
        return (n_around - 1) // 2
    return min(rule.node_count // n_around - 1, (n_around - 1) // 2)


def rule_degree(n: int, dim: int) -> int:
    """:func:`harmonic_degree` of :func:`make_rule`'s rule, without building it."""
    return (n - 1) // 2 if dim == 2 else n - 1


def harmonic_count(degree: int, dim: int) -> int:
    """Surface harmonics of degrees 1 .. ``degree``: two per degree on a
    circle, 2l + 1 of degree l on a sphere."""
    return 2 * degree if dim == 2 else (degree + 1) ** 2 - 1


def order_width(degree: int, dim: int, m: int) -> int:
    """Harmonics of order m among the degrees 1 .. ``degree``: on a sphere
    the zonal one of each degree at m = 0, else a cos and a sin harmonic of
    each degree l >= m; on a circle the cos and sin of degree m, none at 0."""
    if dim == 2:
        return 2 if m else 0
    return degree if m == 0 else 2 * (degree - m + 1)


def order_columns(degree: int, dim: int, orders: range) -> tuple[np.ndarray, np.ndarray]:
    """(columns, degrees): the columns of :func:`surface_harmonics` of degrees
    1 .. ``degree`` that hold the harmonics of the given orders, order by
    order, then degree by degree, cos before sin, and the degree of each.
    On a circle a harmonic's order is its degree, and order 0 has none."""
    columns, degrees = [], []
    for m in orders:
        for l in range(max(m, 1), degree + 1) if dim == 3 else [m] if m else []:
            first = l * l - 1 + max(2 * m - 1, 0) if dim == 3 else 2 * l - 2
            count = 2 if m else 1
            columns += range(first, first + count)
            degrees += [l] * count
    return np.array(columns, dtype=np.intp), np.array(degrees, dtype=np.intp)


def surface_harmonics(directions, degree: int, orders: range | None = None) -> np.ndarray:
    """Real surface harmonics of degrees 1 .. ``degree`` at the unit vectors
    ``directions`` (p, dim), orthonormal on the unit circle or sphere: a
    column-major (p, M) array, M = harmonic_count(degree, dim).  With
    ``orders`` only the harmonics of those orders are made, as a (p, c)
    array in the order of :func:`order_columns`, each column bit for bit the
    one the whole array holds.

    Columns run degree by degree: degree l fills columns harmonic_count(l - 1)
    up to harmonic_count(l).  On the circle, degree n is cos(n theta) then
    sin(n theta), each over sqrt(pi).  On the sphere, degree l is the zonal
    Pbar_l^0(cos theta), then sqrt(2) Pbar_l^m(cos theta) cos(m phi) and
    sqrt(2) Pbar_l^m(cos theta) sin(m phi) for m = 1 .. l, where Pbar_l^m is
    the associated Legendre function normalized so that Pbar_l^m(cos theta)
    e^(i m phi) has unit norm (no Condon-Shortley phase).  Pbar_l^m comes from
    the normalized three-term recurrence in l at fixed m, run on
    Pbar_l^m / sin^m(theta), a polynomial in cos(theta); the factor
    sin^m(theta) e^(i m phi) is (x + i y)^m, so the poles need no special case
    (Atkinson & Han, *Spherical Harmonics and Approximations on the Unit
    Sphere*, ch. 2).  Degree 0 is left out.
    """
    u = np.asarray(directions, dtype=float)
    p, dim = u.shape
    if orders is None:
        orders = range(degree + 1)
        out = np.empty((p, harmonic_count(degree, dim)), order="F")
        place = iter(order_columns(degree, dim, orders)[0].tolist())
    else:
        out = np.empty((p, sum(order_width(degree, dim, m) for m in orders)), order="F")
        place = itertools.count()
    if dim == 2:
        z = u[:, 0] + 1j * u[:, 1]   # e^(i theta)
        zm = np.ones(p, dtype=complex)
        for n in range(1, min(degree, orders.stop - 1) + 1):
            zm = zm * z
            if n in orders:
                out[:, next(place)] = zm.real / math.sqrt(math.pi)
                out[:, next(place)] = zm.imag / math.sqrt(math.pi)
        return out
    for m, ring, legendre in legendre_orders(u, degree, orders):
        for cur in legendre:
            if m == 0:
                out[:, next(place)] = cur
            else:
                np.multiply(cur, ring[0], out=out[:, next(place)])
                np.multiply(cur, ring[1], out=out[:, next(place)])
    return out


def legendre_orders(directions, degree: int, orders: range):
    """The factors of :func:`surface_harmonics` on the sphere, order by order:
    yields (m, ring, legendre), ring sqrt(2) (Re z^m, Im z^m), z = x + i y
    (None at m = 0), and an iterator of Pbar_l^m(cos theta) / sin^m(theta),
    l = max(m, 1) .. ``degree``, each to be used before the next is drawn."""
    u = np.asarray(directions, dtype=float)
    t, z = u[:, 2], u[:, 0] + 1j * u[:, 1]   # cos(theta), sin(theta) e^(i phi)

    def legendre(m, start):   # from Pbar_m^m / sin^m(theta) = start
        prev, cur = np.zeros_like(t), np.full_like(t, start)
        for l in range(m, degree + 1):
            if l > m:
                a = math.sqrt((4 * l * l - 1) / (l * l - m * m))
                b = math.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1))
                prev, cur = cur, a * (t * cur - b * prev)
            if l:
                yield cur

    # z^m, multiplied out of place: numpy rounds an in-place product of one
    # element as a reduction, without the fused multiply-add of longer ones.
    zm = np.ones(u.shape[0], dtype=complex)
    start = 1.0 / math.sqrt(UNIT_SPHERE_MEASURE[3])
    for m in range(min(degree, orders.stop - 1) + 1):
        if m:
            zm = zm * z
            start *= math.sqrt((2 * m + 1) / (2 * m))
        if m in orders:
            ring = (math.sqrt(2.0) * zm.real, math.sqrt(2.0) * zm.imag) if m else None
            yield m, ring, legendre(m, start)


def _column_blocks(k: int, n: int) -> list[slice]:
    """Slices covering k columns of n values, 2^15 values or fewer each."""
    step = max(1, 2**15 // n)
    return [slice(start, min(start + step, k)) for start in range(0, k, step)]


@dataclass(frozen=True)
class _OrderTables:
    """The harmonics of a rule's rings, order by order (m = 0 .. L), with the
    degrees of each order padded to one length D (the degrees 0 .. L on a
    sphere, the one degree m on a circle), and where each lands."""

    table: np.ndarray        # (L + 1, rings, D): order-m cos harmonics at the rings, 0 padded
    table_t: np.ndarray      # (L + 1, D, rings): its transpose, contiguous
    counted: np.ndarray      # (around // 2 + 1,): a real mode counts twice, but for 0 and Nyquist
    cos: tuple               # (rows, orders, degrees) of the cos (zonal, constant) harmonics
    sin: tuple               # the same for the sin harmonics, orders >= 1


@functools.lru_cache(maxsize=8)
def _order_tables(directions: bytes, dim: int, degree: int, around: int) -> _OrderTables:
    """The tables of rules whose rings pass azimuth 0 at the unit vectors
    ``directions`` (float64 bytes, one per ring), whatever their radius and
    weights: every control rule of a run shares them, and in 2D every rule
    of a node count."""
    u = np.frombuffer(directions).reshape(-1, dim)
    meridian = np.empty((u.shape[0], harmonic_count(degree, dim) + 1))   # (rings, H)
    meridian[:, 0] = 1.0 / math.sqrt(UNIT_SPHERE_MEASURE[dim])
    meridian[:, 1:] = surface_harmonics(u, degree)
    counted = np.full(around // 2 + 1, 2.0)
    counted[0] = 1.0
    if around % 2 == 0:
        counted[-1] = 1.0
    # Order m holds the cos harmonic of each degree l >= m (the zonal or the
    # constant one at m = 0), each followed by its sin harmonic.
    if dim == 3:
        degrees, orders = np.tril_indices(degree + 1)
        rows = degrees**2 + 2 * orders - (orders > 0)
    else:
        orders = np.arange(degree + 1)
        degrees = np.zeros_like(orders)
        rows = 2 * orders - (orders > 0)
    table = np.zeros((degree + 1, u.shape[0], degrees.max() + 1))
    table[orders, :, degrees] = meridian[:, rows].T
    sin = orders > 0
    tables = _OrderTables(table=table, table_t=np.ascontiguousarray(table.transpose(0, 2, 1)),
                          counted=counted, cos=(rows, orders, degrees),
                          sin=(rows[sin] + 1, orders[sin], degrees[sin]))
    for a in (table, tables.table_t, counted, *tables.cos, *tables.sin):
        a.setflags(write=False)
    return tables


def harmonic_transform(rule: QuadratureRule, values) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of nodal values on the rule's orthonormal harmonics, and
    what the rule does not resolve.

    ``values`` holds one value per node, (n,) or (n, k) for k columns.
    Returns the coefficients, (H,) or (H, k), on the harmonics of degrees
    0 .. L (L = :func:`harmonic_degree`) scaled to the rule's radius, which
    are orthonormal in its weights: the constant first, then the columns of
    :func:`surface_harmonics` in their order, H = harmonic_count(L) + 1.
    Also returns, per column, the squared weighted norm of the remainder
    ``values`` minus its expansion on those harmonics.  That remainder is
    summed mode by mode, never as ||values||^2 - ||coefficients||^2, so a
    small remainder keeps its relative accuracy; and the two parts add up to
    the squared weighted norm of ``values`` (Parseval).

    The rule must have :func:`make_rule`'s layout: equispaced azimuths from
    angle 0 on a circle, or on each polar ring of a sphere, ring by ring.
    An ``rfft`` over the azimuth gives each ring's Fourier modes; mode m of
    the rings, weighted by the ring weights, meets the degree l >= m
    harmonics of order m through the normalized associated Legendre values
    at the rings, which :func:`surface_harmonics` computes along the meridian
    of azimuth 0 (on a circle there is one ring and one degree per order).
    Modes above L are left over whole; a mode m <= L leaves what its
    Legendre expansion misses (Atkinson & Han, ch. 2; Trefethen & Weideman,
    SIAM Rev. 56 (2014)).  All orders go through one batched product, a few
    columns at a time, so no array of the values' size is made beside them.
    """
    dim, radius = rule.boundary.dim, rule.boundary.radius
    degree = harmonic_degree(rule)
    around = nodes_around(rule)
    rings = rule.node_count // around
    f = np.asarray(values, dtype=float)
    columns = f.reshape(rule.node_count, -1)
    k = columns.shape[1]
    ring_weights = rule.weights[::around]                  # (rings,)
    t = _order_tables(rule.normals[::around].tobytes(), dim, degree, around)
    scale = radius ** (-(dim - 1) / 2)
    fit_scale = (around * scale / t.counted[: degree + 1])[:, None, None]
    mode_weights = (t.counted[: degree + 1, None] * ring_weights).ravel()
    coefficients = np.empty((harmonic_count(degree, dim) + 1, k))
    remainder = np.empty(k)
    for cols in _column_blocks(k, rule.node_count):
        # Node (ring i, azimuth j) is row i * around + j, so (c, rings,
        # around) views a column-major block with the azimuth last.
        spectrum = np.fft.rfft(columns[:, cols].T.reshape(-1, rings, around), axis=-1)
        above = spectrum[..., degree + 1:]
        left = np.einsum("kim,m,i->k", above.real**2 + above.imag**2, t.counted[degree + 1:],
                         ring_weights)
        # Modes 0 .. L as (mode, ring) rows of (re, im) pairs: real products.
        modes = np.ascontiguousarray(spectrum[..., : degree + 1].transpose(2, 1, 0)).view(float)
        del spectrum, above   # each chunk's arrays go before the next chunk's are made
        b = t.table_t @ (ring_weights[:, None] * modes)    # (L + 1, D, 2c): cos, -sin pairs
        b *= scale
        coefficients[t.cos[0], cols] = b[t.cos[1], t.cos[2], 0::2]
        coefficients[t.sin[0], cols] = -b[t.sin[1], t.sin[2], 1::2]
        missed = t.table @ b                               # (L + 1, rings, 2c)
        missed *= fit_scale
        np.subtract(modes, missed, out=missed)
        np.square(missed, out=missed)
        left += (mode_weights @ missed.reshape(-1, modes.shape[-1])).reshape(-1, 2).sum(1)
        remainder[cols] = left / around
        del modes, b, missed
    return coefficients.reshape(-1, *f.shape[1:]), remainder.reshape(f.shape[1:])


@dataclass(frozen=True)
class Discretization:
    """Node counts per boundary.

    In 2D both entries are circle node counts.  In 3D they are polar
    counts, and :func:`make_rule` sets the azimuth count from them.
    """

    antenna: int
    control: int


@dataclass(frozen=True)
class Region:
    """A target ball with its surrounding control sphere and wanted field.

    ``radius`` is the target-ball radius; ``control_radius`` (strictly
    larger) is the radius of the concentric sphere on which boundary data
    is matched.  ``control_radius=None`` means "fill in the default".
    """

    center: np.ndarray
    radius: float
    target: "HarmonicField"
    control_radius: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "center", frozen_array(self.center))

    @property
    def center_distance(self) -> float:
        return float(np.linalg.norm(self.center))


@dataclass(frozen=True)
class Scenario:
    """Full problem description.

    Attributes
    ----------
    dim : 2 or 3
    delta : float
        Antenna radius; the antenna ball is centred at the origin.
    regions : tuple of Region
    observation_radius : float
        Radius R of the ball outside which the field must match the
        exterior target.
    exterior_target : HarmonicField
        Field wanted outside the observation ball (bounded at infinity in
        2D, decaying in 3D).
    epsilon : float or "auto"
        Accuracy budget for the boundary mismatch; "auto" scales 1e-3 by
        the target-field norms (resolved at load time).
    outer_control_radius : float or None
        Radius R' of the outer control sphere; None means default.
    discretization : Discretization or None
        Node counts; None means default.
    seed : int
        Seed for the run's sampling diagnostics.
    """

    dim: int
    delta: float
    regions: tuple[Region, ...]
    observation_radius: float
    exterior_target: "HarmonicField"
    epsilon: float | str
    outer_control_radius: float | None = None
    discretization: Discretization | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))

    @property
    def n_regions(self) -> int:
        return len(self.regions)


def _antenna_nodes(s: Scenario, rho: float) -> int:
    """Antenna nodes that resolve every harmonic degree the control spheres,
    the nearest at distance ``rho`` from the origin, can see, in steps of
    ANTENNA_DEGREE_STEP degrees; see :func:`with_defaults`."""
    cap = DEFAULT_NODES[s.dim]
    decay = math.log(rho) - math.log(s.delta) if 0 < s.delta < rho < math.inf else 0.0
    if not decay > 0:
        return cap
    degree = math.ceil(-math.log(RANK_CUTOFF_RTOL) / decay)
    degrees = ANTENNA_DEGREE_STEP * math.ceil((degree + 1) / ANTENNA_DEGREE_STEP)
    nodes = 2 * degrees if s.dim == 2 else degrees
    return min(max(nodes, MIN_NODES[s.dim]), cap)


def with_defaults(s: Scenario) -> Scenario:
    """Fill in missing control radii and node counts.

    Each region's control radius defaults to

        a' = a + min(0.5*a, 0.25*(|x| - a - delta*(1 + SEPARATION_RTOL)), 0.5*(R - |x| - a))

    and the outer control radius to R' = (R + max_k(|x_k| + a'_k)) / 2.
    The increments are capped by the gaps to the antenna's clearance and
    to the observation boundary, so a scenario whose hard data admit any
    control radius stays admissible after defaulting, while the sup-norm
    constants on both sides of each control sphere remain moderate.

    Missing node counts are then read off those radii.  The control rules
    get ``DEFAULT_NODES[dim]``.  The antenna rule gets enough nodes to
    resolve the double layer's harmonic degrees up to

        L* = ceil(ln(RANK_CUTOFF_RTOL) / ln(delta / rho)),  rho = min(min_k(|x_k| - a'_k), R'):

    degree l decays like (delta/rho)^l from the antenna to the nearest
    control sphere, so no higher degree survives the rank cutoff.  The
    antenna resolves the D degrees 0 .. D - 1, with D = L* + 1 rounded up
    to a multiple of ANTENNA_DEGREE_STEP: 2 D circle nodes in 2D or D polar
    nodes in 3D, clamped to [MIN_NODES[dim], DEFAULT_NODES[dim]].  The
    rounding costs at most ANTENNA_DEGREE_STEP - 1 degrees and keeps a family of scenarios on
    a few operator shapes.  An inadmissible geometry
    (rho <= delta, or rho not finite) gets the cap, and
    :func:`validate_scenario` reports it.  Given counts are kept as they are.
    """
    regions = []
    for r in s.regions:
        if r.control_radius is not None:
            regions.append(r)
            continue
        dist = r.center_distance
        gap_in = dist - r.radius - s.delta * (1.0 + SEPARATION_RTOL)
        gap_out = s.observation_radius - dist - r.radius
        bump = min(0.5 * r.radius, 0.25 * gap_in, 0.5 * gap_out)
        regions.append(replace(r, control_radius=r.radius + bump))

    outer = s.outer_control_radius
    if outer is None:
        reach = max(r.center_distance + r.control_radius for r in regions)
        outer = 0.5 * (s.observation_radius + reach)

    disc = s.discretization
    if disc is None and s.dim in DEFAULT_NODES:
        rho = min([r.center_distance - r.control_radius for r in regions] + [outer])
        disc = Discretization(_antenna_nodes(s, rho), DEFAULT_NODES[s.dim])
    return replace(s, regions=tuple(regions), outer_control_radius=outer, discretization=disc)


def validate_scenario(s: Scenario) -> Scenario:
    """Check every admissibility inequality; report all violations together.

    Conditions, for every region k with center x_k, radius a_k and control
    radius a'_k, antenna radius delta, outer control radius R' and
    observation radius R:

        a_k < a'_k
        |x_k| > a'_k + delta * (1 + SEPARATION_RTOL)
        R' > |x_k| + a'_k
        R' < R
        closed target balls pairwise disjoint
        closed target balls disjoint from the closed antenna ball
        both node counts set and >= MIN_NODES[dim]

    and, for the fields: each region target harmonic on its closed control
    ball, the exterior target harmonic there too and outside the outer
    control sphere, bounded at infinity in 2D and decaying in 3D.

    Returns the scenario unchanged when all hold.
    """
    bad: list[str] = []
    if s.dim not in (2, 3):
        bad.append(f"dim must be 2 or 3, got {s.dim}")
    if not s.delta > 0:
        bad.append(f"antenna radius must be positive, got {s.delta}")
    if not s.regions:
        bad.append("at least one target region is required")
    if s.outer_control_radius is None:
        bad.append("outer control radius is unset (apply with_defaults first)")
    if isinstance(s.epsilon, str):
        if s.epsilon != "auto":
            bad.append(f"epsilon must be a positive number or 'auto', got {s.epsilon!r}")
    elif not 0 < s.epsilon < np.inf:
        bad.append(f"epsilon must be positive and finite, got {s.epsilon}")
    d = s.discretization
    if d is None:
        bad.append("node counts are unset (apply with_defaults first)")
    elif s.dim in MIN_NODES and min(d.antenna, d.control) < MIN_NODES[s.dim]:
        bad.append(f"node counts must be >= {MIN_NODES[s.dim]} in {s.dim}D, "
                   f"got {d.antenna}, {d.control}")

    for k, r in enumerate(s.regions, start=1):
        if r.center.shape != (s.dim,):
            bad.append(f"region {k}: center has shape {r.center.shape}, expected ({s.dim},)")
            continue
        if not r.radius > 0:
            bad.append(f"region {k}: radius must be positive, got {r.radius}")
        if r.control_radius is None:
            bad.append(f"region {k}: control radius is unset (apply with_defaults first)")
            continue
        dist = r.center_distance
        if not r.radius < r.control_radius:
            bad.append(
                f"region {k}: a < a' fails ({r.radius} >= {r.control_radius})"
            )
        clearance = r.control_radius + s.delta * (1.0 + SEPARATION_RTOL)
        if not dist > clearance:
            bad.append(
                f"region {k}: |x| > a' + delta fails ({dist} <= {clearance}, "
                f"with the relative clearance {SEPARATION_RTOL} on delta)"
            )
        if s.outer_control_radius is not None and not s.outer_control_radius > dist + r.control_radius:
            bad.append(
                f"region {k}: R' > |x| + a' fails "
                f"({s.outer_control_radius} <= {dist + r.control_radius})"
            )
        if not dist > r.radius + s.delta:
            bad.append(
                f"region {k}: target ball overlaps the antenna ball "
                f"({dist} <= {r.radius + s.delta})"
            )
        if not s.exterior_target.harmonic_on_ball(r.center, r.control_radius):
            bad.append(f"exterior target is singular inside region {k}'s control ball")
        if not r.target.harmonic_on_ball(r.center, r.control_radius):
            bad.append(f"region {k}: target field is singular inside the control ball "
                       f"(radius {r.control_radius})")

    if s.outer_control_radius is not None and not s.outer_control_radius < s.observation_radius:
        bad.append(
            f"R' < R fails ({s.outer_control_radius} >= {s.observation_radius})"
        )

    decay = s.exterior_target.decay_at_infinity()
    if s.dim == 2 and decay == "grows":
        bad.append("exterior target must stay bounded at infinity in 2D")
    if s.dim == 3 and decay != "zero":
        bad.append("exterior target must decay at infinity in 3D")
    s0 = s.exterior_target.singularity
    if (s0 is not None and s.outer_control_radius is not None
            and float(np.linalg.norm(s0)) >= s.outer_control_radius):
        bad.append("exterior target's singularity must lie strictly inside the "
                   "outer control sphere")

    for i in range(len(s.regions)):
        for j in range(i + 1, len(s.regions)):
            ri, rj = s.regions[i], s.regions[j]
            if ri.center.shape != rj.center.shape:
                continue
            sep = float(np.linalg.norm(ri.center - rj.center))
            if not sep > ri.radius + rj.radius:
                bad.append(
                    f"regions {i + 1} and {j + 1}: closed target balls intersect "
                    f"(center distance {sep} <= {ri.radius + rj.radius})"
                )

    if bad:
        raise ScenarioValidationError(bad)
    return s


def on_boundary(label: str, build, *args, **kwargs):
    """``build(*args, **kwargs)`` for one boundary of a scenario; a ValueError
    or OverflowError it raises is a fault of the scenario there, named ``label``."""
    try:
        return build(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        raise ScenarioValidationError([f"{label}: {exc}"]) from None


def control_labels(s: Scenario) -> list[str]:
    """The control boundaries' names, in the order of the control rules."""
    names = [f"region {k}" for k in range(1, s.n_regions + 1)] + ["outer"]
    return [f"{name} control sphere" for name in names]


def build_rules(s: Scenario) -> tuple[QuadratureRule, list[QuadratureRule]]:
    """Quadrature rules for a validated scenario.

    Returns the antenna rule and the control rules ordered region 1..N,
    then the outer control sphere; a rule the radii cannot give raises
    ScenarioValidationError (:func:`on_boundary`).
    """
    d = s.discretization
    origin = np.zeros(s.dim)
    antenna = on_boundary("antenna", make_rule, origin, s.delta, d.antenna, s.dim)
    spheres = [(r.center, r.control_radius) for r in s.regions] + [(origin, s.outer_control_radius)]
    controls = [on_boundary(label, make_rule, center, radius, d.control, s.dim)
                for label, (center, radius) in zip(control_labels(s), spheres)]
    return antenna, controls
