"""Ball geometry, surface harmonics and admissibility checks.

The solver's geometry is a small source ball (the "antenna") centred at
the origin, one or more target balls in which a prescribed harmonic field
is wanted, a concentric control sphere slightly larger than each target
ball, and one large outer control sphere sitting strictly inside the
observation boundary.  Boundary data is matched on the control spheres;
sup-norm guarantees then propagate inward to the target balls and outward
past the observation boundary.

Each boundary carries the harmonic degree its functions are resolved to,
which is all the solver reads of a discretization: a node count names
the degree (:func:`rule_degree`), and no node is built.  Functions on a
boundary are coefficients on its orthonormal surface harmonics
(:func:`surface_harmonics`).

The boundaries are placed in a solve frame (:func:`build_rules`).  When
every region centre lies on one line through the antenna centre, that
frame turns the line onto the polar axis of the harmonics, the z axis in
3D and the x axis in 2D, so the operator splits by harmonic order
(:func:`fieldcast.operator.factor_blocks`); otherwise it is the user's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .fields import HarmonicField

# Default node counts per boundary: circle nodes in 2D, polar nodes in 3D.
# Control spheres use them; a defaulted antenna never exceeds them.
DEFAULT_NODES = {2: 128, 3: 24}
# Fewest nodes per boundary: circle nodes in 2D, polar nodes in 3D.
MIN_NODES = {2: 4, 3: 2}
# A defaulted antenna resolves a number of harmonic degrees that is a
# multiple of this.  Operators then come in a few shapes, so the largest
# shape a family of scenarios reaches, which sets peak memory, is one many
# of them share rather than one only a rare scenario reaches.
ANTENNA_DEGREE_STEP = 4

# Control nodes must clear the antenna sphere by this relative margin.
SEPARATION_RTOL = 1e-6

# Region centres whose distance from the line through the antenna centre
# and the first region centre is within this fraction of their own
# distance lie on it; the solve frame puts them on its polar axis, which
# moves each by at most this fraction.  16 roundings of a unit vector.
AXIAL_RTOL = 2.0**-48

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
    """A circle (2D) or sphere (3D) boundary, and the degree L of the
    surface harmonics, 0 .. L, that functions on it are resolved to.

    Attributes
    ----------
    center : ndarray, shape (dim,), in the solve frame
    radius : float, > 0, whose surface measure is a normal float
    dim : int, 2 or 3
    degree : int
    frame : ndarray, shape (dim, dim), or None
        The solve frame: an orthogonal matrix whose rows are its axes in
        the user's coordinates, so a user point x is ``frame @ x`` there;
        None when the solve frame is the user's.  The centre and the
        harmonics of functions on the boundary are the solve frame's.
    """

    center: np.ndarray
    radius: float
    dim: int
    degree: int
    frame: np.ndarray | None = None

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        # A Python float, so that a measure that overflows raises OverflowError.
        object.__setattr__(self, "radius", float(self.radius))
        if not np.finfo(float).tiny <= self.measure < math.inf:
            raise ValueError(f"surface measure is not a positive, normal, finite float: "
                             f"{self.measure!r} at radius {self.radius!r}")
        center = frozen_array(self.center)
        if center.shape != (self.dim,):
            raise ValueError(f"expected a point of dimension {self.dim}, got shape {center.shape}")
        object.__setattr__(self, "center", center)
        if self.frame is not None:
            frame = frozen_array(self.frame)
            if frame.shape != (self.dim, self.dim):
                raise ValueError(f"frame has shape {frame.shape}, not ({self.dim}, {self.dim})")
            object.__setattr__(self, "frame", frame)

    @property
    def measure(self) -> float:
        """Surface measure of the boundary."""
        return surface_measure(self.radius, self.dim)

    def to_solve(self, x) -> np.ndarray:
        """User points or vectors x, (dim,) or (p, dim), in the solve frame;
        x itself when the frames agree."""
        return x if self.frame is None else np.asarray(x, dtype=float) @ self.frame.T

    def to_user(self, x) -> np.ndarray:
        """Solve-frame points or vectors x, (dim,) or (p, dim), in the
        user's frame; x itself when the frames agree."""
        return x if self.frame is None else np.asarray(x, dtype=float) @ self.frame

    def in_user_frame(self) -> "Boundary":
        """The same boundary with its centre in the user's frame."""
        return self if self.frame is None else replace(self, center=self.to_user(self.center),
                                                       frame=None)


def rule_degree(n: int, dim: int) -> int:
    """The degree L that ``n`` nodes name: that of a rule of ``n`` equispaced
    circle nodes in 2D, or of ``n`` Gauss-Legendre polar rings of 2 ``n``
    azimuth nodes each in 3D, whose weights integrate exactly the product
    of any two surface harmonics of degrees 0 .. L."""
    return (n - 1) // 2 if dim == 2 else n - 1


def harmonic_count(degree: int, dim: int) -> int:
    """Surface harmonics of degrees 1 .. ``degree``: two per degree on a
    circle, 2l + 1 of degree l on a sphere."""
    return 2 * degree if dim == 2 else (degree + 1) ** 2 - 1


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


def surface_harmonics(directions, degree: int) -> np.ndarray:
    """Real surface harmonics of degrees 1 .. ``degree`` at the unit vectors
    ``directions`` (p, dim), orthonormal on the unit circle or sphere: a
    column-major (p, M) array, M = harmonic_count(degree, dim).

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
    out = np.empty((p, harmonic_count(degree, dim)), order="F")
    if dim == 2:
        z = u[:, 0] + 1j * u[:, 1]   # e^(i theta)
        zm = np.ones(p, dtype=complex)
        for n in range(1, degree + 1):
            zm = zm * z
            out[:, 2 * n - 2] = zm.real / math.sqrt(math.pi)
            out[:, 2 * n - 1] = zm.imag / math.sqrt(math.pi)
        return out
    place = iter(order_columns(degree, dim, range(degree + 1))[0].tolist())
    for m, ring, legendre in legendre_orders(u, degree):
        for cur in legendre:
            if m == 0:
                out[:, next(place)] = cur
            else:
                np.multiply(cur, ring[0], out=out[:, next(place)])
                np.multiply(cur, ring[1], out=out[:, next(place)])
    return out


def legendre_orders(directions, degree: int):
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
    for m in range(degree + 1):
        if m:
            zm = zm * z
            start *= math.sqrt((2 * m + 1) / (2 * m))
        ring = (math.sqrt(2.0) * zm.real, math.sqrt(2.0) * zm.imag) if m else None
        yield m, ring, legendre(m, start)


def legendre_table(direction, degree: int) -> np.ndarray:
    """(degree + 1, degree + 1): at row l and column m <= l, Pbar_l^m(cos
    theta) of :func:`legendre_orders` times sin^m(theta), theta the unit
    vector ``direction``'s polar angle, and 0 for m > l.  The same
    normalized recurrence in l, run for every order at once at one
    direction, with sin^m folded into each order's start, so no factor
    overflows near a pole.  Drawing the table from :func:`legendre_orders`
    takes one Python step per (l, m): 2.3-2.8 ms against 0.17 ms at degree
    42, the table of each region of a run-3d job (Xeon, one thread)."""
    u = np.asarray(direction, dtype=float)
    t, s = float(u[2]), math.hypot(float(u[0]), float(u[1]))
    # Row l + 1 of ``table`` holds degree l; row 0 is the degree -1 of the recurrence.
    table = np.zeros((degree + 2, degree + 1))
    m = np.arange(1, degree + 1)
    table[1, 0] = 1.0 / math.sqrt(UNIT_SPHERE_MEASURE[3])
    table[m + 1, m] = table[1, 0] * np.cumprod(np.sqrt((2 * m + 1) / (2 * m)) * s)
    l, m = np.arange(degree + 1)[:, None], np.arange(degree + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.sqrt((4 * l * l - 1) / ((l - m) * (l + m)))
        b = np.sqrt(np.maximum((l - 1 - m) * (l - 1 + m), 0) / (4 * (l - 1) ** 2 - 1))
    for k in range(1, degree + 1):
        table[k + 1, :k] = a[k, :k] * (t * table[k, :k] - b[k, :k] * table[k - 1, :k])
    return table[1:]


@dataclass(frozen=True)
class Discretization:
    """Node counts, circle nodes in 2D and polar nodes in 3D: ``antenna``
    sets the antenna's degree and the outer control sphere's, ``control``
    each region's control sphere's (:func:`rule_degree`,
    :func:`build_rules`).  No node is built.
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
        Turns the lattice of the run's probes (see
        :func:`fieldcast.certify.sample_on_sphere`).
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

    Missing node counts are then read off those radii.  The control spheres
    get ``DEFAULT_NODES[dim]``.  The antenna gets enough nodes to
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
    """The control boundaries' names, in the order of the control spheres."""
    names = [f"region {k}" for k in range(1, s.n_regions + 1)] + ["outer"]
    return [f"{name} control sphere" for name in names]


def solve_frame(centers: Sequence[np.ndarray], dim: int) -> tuple[np.ndarray | None, list]:
    """(frame, centres): the solve frame of region centres about the antenna
    centre at the origin, and the centres in it.

    When every centre lies on one line through the origin (within
    AXIAL_RTOL, and always for one centre), of direction u, the frame is
    the Householder reflection that takes u to the polar axis e, the z
    axis in 3D and the x axis in 2D: I - 2 w w^T / w^T w with
    w = u + sign(u_e) e, so that w never cancels; None when u is e or -e
    already.  Each centre is then put on the axis at its own distance,
    exactly, with zero other coordinates, so the operator's entries between
    harmonics of different orders are exact zeros.  Any other set of
    centres keeps the user's frame (None) and its centres."""
    centers = [np.asarray(c, dtype=float) for c in centers]
    polar = np.eye(dim)[2 if dim == 3 else 0]
    u = centers[0] / np.linalg.norm(centers[0])
    along = [float(c @ u) for c in centers]
    if any(np.linalg.norm(c - t * u) > AXIAL_RTOL * np.linalg.norm(c)
           for c, t in zip(centers[1:], along[1:])):
        return None, centers
    side = math.copysign(1.0, float(u @ polar))
    if np.count_nonzero(u) == 1 and u @ polar != 0:
        frame, image = None, side   # u = side * e: no turn
    else:
        w = u + side * polar
        frame, image = np.eye(dim) - (2.0 / float(w @ w)) * np.outer(w, w), -side   # u -> -side e
    return frame, [np.where(polar, image * math.copysign(float(np.linalg.norm(c)), t), 0.0)
                   for c, t in zip(centers, along)]


def build_rules(s: Scenario) -> tuple[Boundary, list[Boundary]]:
    """The boundaries of a validated scenario, in its :func:`solve_frame`;
    no node is built.  The antenna and each region's control sphere take
    the :func:`rule_degree` of their node counts; the outer control sphere,
    concentric with the antenna, takes the antenna's degree L, as each
    antenna harmonic radiates only itself there.

    Returns the antenna and the control spheres ordered region 1..N, then
    the outer control sphere; a boundary the radii cannot give raises
    ScenarioValidationError (:func:`on_boundary`).
    """
    d, origin = s.discretization, np.zeros(s.dim)
    frame, centers = solve_frame([r.center for r in s.regions], s.dim)
    antenna = on_boundary("antenna", Boundary, origin, s.delta, s.dim,
                          rule_degree(d.antenna, s.dim), frame)
    spheres = ([(c, r.control_radius, rule_degree(d.control, s.dim))
                for c, r in zip(centers, s.regions)]
               + [(origin, s.outer_control_radius, antenna.degree)])
    return antenna, [on_boundary(label, Boundary, center, radius, s.dim, degree, frame)
                     for label, (center, radius, degree) in zip(control_labels(s), spheres)]
