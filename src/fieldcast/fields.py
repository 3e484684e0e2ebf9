"""Harmonic target fields, trace targets and radiated-field evaluation.

A small catalog of closed-form harmonic fields (point/log sources,
dipoles, harmonic polynomials) serves as targets; their traces on the
control spheres, with the exterior target subtracted, form the data the
forward operator must match.  The field the antenna actually radiates is
the double-layer potential of the solved density, evaluated here in the
operator's closed form from the density's coefficients
(:func:`radiated_field`), so the probes and the grid read the field the
certificate bounds.  The field norms that scale an automatic budget are
closed forms of the same coefficients (:func:`auto_epsilon`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

import numpy as np

from .geometry import (SEPARATION_RTOL, UNIT_SPHERE_MEASURE, Boundary, Scenario,
                       ScenarioValidationError, control_labels, harmonic_count, legendre_orders,
                       on_boundary, order_columns, rule_degree, surface_harmonics,
                       validate_scenario)
# dlp_kernel is unused here; the benchmark's tracer wraps this module's name for it.
from .kernels import dlp_kernel, row_blocks
from .operator import HarmonicDensity, HarmonicTrace, degree_gains
from .translation import row_orders, translated_block

# Evaluation closer than this to a field's singular point is rejected.
SINGULARITY_TOL = 1e-9

# Relative-mismatch denominators are floored at this fraction of the
# region's peak target magnitude (absolute mismatch when the peak is 0).
MISMATCH_FLOOR_REL = 1e-8

MAX_POLY_DEGREE = 3


@dataclass(frozen=True)
class HarmonicField:
    """A closed-form harmonic function.

    Use the module constructors (:func:`zero_field`, :func:`constant_field`,
    :func:`log_source`, :func:`point_source`, :func:`dipole`,
    :func:`harmonic_polynomial`) rather than building instances directly.

    kind is one of ``zero``, ``constant``, ``log-source`` (2D, value
    ln(1/|x-s|)), ``point-source`` (3D, value 1/|x-s|), ``dipole`` (value
    p.(x-s)/|x-s|^d) or ``polynomial``.
    """

    kind: str
    value: float = 0.0
    location: tuple[float, ...] | None = None
    direction: tuple[float, ...] | None = None
    terms: tuple[tuple[tuple[int, ...], float], ...] | None = None

    @property
    def singularity(self) -> np.ndarray | None:
        """The field's singular point, or None for entire fields."""
        if self.kind in ("log-source", "point-source", "dipole"):
            return np.asarray(self.location, dtype=float)
        return None

    def decay_at_infinity(self) -> str:
        """One of 'zero', 'bounded', 'grows' as |x| -> infinity."""
        if self.kind in ("point-source", "dipole"):
            return "zero"
        if self.kind == "zero":
            return "zero"
        if self.kind == "constant":
            return "zero" if self.value == 0.0 else "bounded"
        if self.kind == "log-source":
            return "grows"
        degree = max((sum(p) for p, c in self.terms if c != 0.0), default=-1)
        if degree <= -1:
            return "zero"
        return "bounded" if degree == 0 else "grows"

    def harmonic_on_ball(self, center, radius: float) -> bool:
        """True when the field is harmonic on the closed ball."""
        s = self.singularity
        if s is None:
            return True
        return float(np.linalg.norm(s - np.asarray(center, dtype=float))) > radius


def zero_field() -> HarmonicField:
    return HarmonicField(kind="zero")


def constant_field(value: float) -> HarmonicField:
    return HarmonicField(kind="constant", value=float(value))


def log_source(location) -> HarmonicField:
    """2D field ln(1/|x - s|), harmonic away from s."""
    s = tuple(float(v) for v in location)
    if len(s) != 2:
        raise ValueError(f"log source lives in 2D, got a point of length {len(s)}")
    return HarmonicField(kind="log-source", location=s)


def point_source(location) -> HarmonicField:
    """3D field 1/|x - s|, harmonic away from s and decaying at infinity."""
    s = tuple(float(v) for v in location)
    if len(s) != 3:
        raise ValueError(f"point source lives in 3D, got a point of length {len(s)}")
    return HarmonicField(kind="point-source", location=s)


def dipole(location, direction) -> HarmonicField:
    """Field p.(x - s)/|x - s|^d; works in both dimensions."""
    s = tuple(float(v) for v in location)
    p = tuple(float(v) for v in direction)
    if len(s) != len(p):
        raise ValueError(f"location length {len(s)} != direction length {len(p)}")
    if not any(p):
        raise ValueError("dipole direction must be nonzero")
    return HarmonicField(kind="dipole", location=s, direction=p)


def harmonic_polynomial(terms: Mapping[Iterable[int], float], dim: int) -> HarmonicField:
    """Polynomial field from monomial terms {exponents: coefficient}.

    The total degree must not exceed 3 and the Laplacian must vanish
    identically; both are checked exactly on the monomial coefficients.
    """
    clean: dict[tuple[int, ...], float] = {}
    for powers, coeff in terms.items():
        p = tuple(int(v) for v in powers)
        if len(p) != dim:
            raise ValueError(f"exponent tuple {p} does not have length {dim}")
        if any(v < 0 for v in p):
            raise ValueError(f"negative exponent in {p}")
        if sum(p) > MAX_POLY_DEGREE:
            raise ValueError(
                f"monomial {p} has degree {sum(p)} > {MAX_POLY_DEGREE}"
            )
        clean[p] = clean.get(p, 0.0) + float(coeff)

    # Laplacian of sum c * x^a is sum_i c * a_i (a_i - 1) x^(a - 2 e_i);
    # collect its coefficients and require them all zero.
    lap: dict[tuple[int, ...], float] = {}
    for p, c in clean.items():
        for i, a in enumerate(p):
            if a >= 2:
                q = tuple(v - 2 if j == i else v for j, v in enumerate(p))
                lap[q] = lap.get(q, 0.0) + c * a * (a - 1)
    scale = max((abs(c) for c in clean.values()), default=0.0)
    if any(abs(v) > 1e-12 * max(scale, 1.0) for v in lap.values()):
        raise ValueError("polynomial is not harmonic (its Laplacian does not vanish)")
    return HarmonicField(kind="polynomial", terms=tuple(sorted(clean.items())))


def _distance(pts: np.ndarray, center) -> np.ndarray:
    """|pts - center| per point, summed one coordinate at a time in axis
    order: bit-identical to ``np.linalg.norm(pts - center, axis=-1)``
    without its (p, dim) temporaries."""
    sq = np.zeros(pts.shape[0])
    for x, c in zip(pts.T, center):
        sq += (x - c) ** 2
    return np.sqrt(sq)


def eval_field(f: HarmonicField, x) -> np.ndarray | float:
    """Evaluate a catalog field at one point or a batch of points.

    Raises when any point comes within 1e-9 of the field's singularity.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    pts = np.atleast_2d(x)  # (p, dim)
    dim = pts.shape[-1]

    s = f.singularity
    if s is not None:
        if s.shape[0] != dim:
            raise ValueError(
                f"field lives in dimension {s.shape[0]}, points have dimension {dim}"
            )
        dist = _distance(pts, s)
        if np.any(dist < SINGULARITY_TOL):
            raise ValueError("evaluation at or near the field's singular point")

    if f.kind == "zero":
        out = np.zeros(pts.shape[0])
    elif f.kind == "constant":
        out = np.full(pts.shape[0], f.value)
    elif f.kind == "log-source":
        if dim != 2:
            raise ValueError("log source is a 2D field")
        out = -np.log(dist)
    elif f.kind == "point-source":
        if dim != 3:
            raise ValueError("point source is a 3D field")
        out = 1.0 / dist
    elif f.kind == "dipole":
        p = np.asarray(f.direction, dtype=float)
        out = ((pts - s) @ p) / dist**dim
    elif f.kind == "polynomial":
        out = np.zeros(pts.shape[0])
        for powers, coeff in f.terms:
            if len(powers) != dim:
                raise ValueError(
                    f"polynomial lives in dimension {len(powers)}, points have {dim}"
                )
            mono = np.ones(pts.shape[0])
            for i, a in enumerate(powers):
                if a:
                    mono *= pts[:, i] ** a
            out += coeff * mono
    else:
        raise ValueError(f"unknown field kind {f.kind!r}")
    return float(out[0]) if scalar else out


def scenario_difference_fields(s: Scenario):
    """The field the antenna must radiate at each control boundary, in the
    order of the control spheres: one callable of points per region giving
    u_k - u_0, then one for the outer sphere giving zero (the exterior
    requirement after subtracting the exterior target u_0)."""
    def difference(target):
        return lambda pts: eval_field(target, pts) - eval_field(s.exterior_target, pts)

    return [difference(r.target) for r in s.regions] + [lambda pts: np.zeros(len(pts))]


def build_target(s: Scenario, controls: list[Boundary]) -> HarmonicTrace:
    """Trace target on the control boundaries: block k holds the wanted
    field of :func:`scenario_difference_fields` on control sphere k by its
    coefficients on the sphere's harmonics and the norm of its higher degrees,
    in closed form (:func:`_wanted_block`): no field is evaluated at a
    control node.  The fields are the scenario's, in the user's frame, and
    the control spheres may lie in a turned solve frame
    (:attr:`fieldcast.geometry.Boundary.frame`); each field is taken into
    it (:func:`_field_rows`).  The scenario is validated first, field conditions
    included (:func:`fieldcast.geometry.validate_scenario`).  An identically
    zero trace raises ScenarioValidationError, as there is nothing to solve
    for, and so do a norm that overflows float64 or is not a number and a
    control sphere within SINGULARITY_TOL of a wanted field's singular point
    (named in the message).
    """
    if len(controls) != s.n_regions + 1:
        raise ValueError(
            f"expected {s.n_regions + 1} control spheres, got {len(controls)}"
        )

    validate_scenario(s)
    terms = [[(f, sign) for f, sign in ((r.target, 1.0), (s.exterior_target, -1.0))
              if f.kind != "zero" and r.target != s.exterior_target] for r in s.regions] + [[]]
    parts = [on_boundary(label, _wanted_block, wanted, sphere)
             for label, wanted, sphere in zip(control_labels(s), terms, controls)]
    v = HarmonicTrace(blocks=[b for b, _ in parts], outside=[rest for _, rest in parts],
                      boundaries=list(controls))
    norm = v.norm()
    if norm == 0.0:
        raise ScenarioValidationError(["target trace is identically zero; nothing to solve"])
    if not np.isfinite(norm):
        raise ScenarioValidationError([f"target trace norm is {norm}, not a finite number"])
    return v


def _first_row(degree: int, dim: int) -> int:
    """Rows of a control sphere's harmonics of degrees below ``degree``."""
    return harmonic_count(degree - 1, dim) + 1 if degree else 0


def _wanted_block(terms, sphere: Boundary) -> tuple[np.ndarray, float]:
    """(coefficients, outside) of sum sign f over the (f, sign) ``terms`` on
    the sphere: its coefficients on the harmonics of degrees 0 .. D, its degree,
    and the squared L2 norm of its degrees above D, summed from their rows
    in runs that double from 8 degrees until what the rest can add is below
    rounding of the block's squared norm, or up to degree D + 2^10 in 3D and
    D + 2^19 in 2D (about 2^20 rows), past which that bound is added, so it
    is never understated.  A source at c from the control centre holds at
    most n_lam x^(mu-lam) (mu+1) / lam in degree mu > lam, n_lam its squared
    norm in degree lam and x = (R/|c|)^2 (3D: n_mu ~ x^mu / (2mu+1) for a
    point, x^mu (mu+1)^2 / (2mu+1) for a dipole along c, x^mu mu (mu+1) /
    (2mu+1) across; 2D: x^mu / mu^2 for a log source, x^mu for a dipole), so
    at most n_lam x ((lam+1)(1-x) + 1) / (lam (1-x)^2) past lam; an entire
    field has no degree above 3."""
    dim, center, R = sphere.dim, sphere.center, sphere.radius
    dists = [math.inf if f.singularity is None
             else float(np.linalg.norm(sphere.to_solve(f.singularity) - center)) for f, _ in terms]
    if any(dist - R < SINGULARITY_TOL for dist in dists):
        raise ValueError("evaluation at or near the field's singular point")
    ratios = [(R / dist) ** 2 for dist in dists]

    def rows(start: int, stop: int) -> tuple[list[np.ndarray], np.ndarray]:
        """Each term's rows of degrees start .. stop - 1, and their sum."""
        parts = [sign * _field_rows(f, sphere, range(_first_row(start, dim), _first_row(stop, dim)))
                 for f, sign in terms]
        return parts, sum(parts, np.zeros(_first_row(stop, dim) - _first_row(start, dim)))

    D = sphere.degree
    cap, kept_rows = D + (2**19 if dim == 2 else 2**10), _first_row(D + 1, dim)
    parts, left = rows(0, D + 9)   # the block's degrees and the first run of 8 above them
    block, parts, left = left[:kept_rows], [p[kept_rows:] for p in parts], left[kept_rows:]
    kept, tail, start, stop = float(block @ block), 0.0, D + 1, D + 9
    while True:
        tail += float(left @ left)
        lam, last = stop - 1, _first_row(stop, dim) - _first_row(stop - 1, dim)
        rest = sum(math.sqrt(float(p[-last:] @ p[-last:]) * x * ((lam + 1) * (1 - x) + 1)
                             / (lam * (1 - x) ** 2)) for p, x in zip(parts, ratios)) ** 2
        small = rest <= 2.0**-53 * (kept + tail)
        if small or stop == cap:
            return block, tail if small else tail + rest
        start, stop = stop, min(stop + 2 * (stop - start), cap)
        parts, left = rows(start, stop)


def _field_rows(f: HarmonicField, sphere: Boundary, rows: range) -> np.ndarray:
    """A catalog field's coefficients on rows ``rows``, of any degrees, of
    the sphere's orthonormal harmonics, in closed form, the field given in
    the user's frame and the sphere in the solve frame: a source's location
    and a dipole's direction are turned into it, and an entire field is
    evaluated at the nodes turned back.  A point
    source is sqrt(4 pi) times the degree-0 column of
    :func:`fieldcast.translation.translated_block` about it, a dipole p the
    degree-1 columns times sqrt(4 pi / 3) (p_z, p_x, p_y) in 3D or sqrt(pi)
    (p_x, p_y) in 2D, a log source at c from the centre -log|c| + Re sum_k
    (-1)^k (w/c)^k / k.  An entire field (a polynomial of degree <= 3) has
    no higher degree, and its degree-k part is homogeneous in the offset
    from the centre: it is projected exactly on the sphere of radius R/2,
    times 2^k, by a rule that integrates the product of any two harmonics
    of degree <= 3: 8 equispaced circle nodes, or 4 Gauss-Legendre rings
    in cos(theta) of 8 equispaced nodes each."""
    dim, center, R = sphere.dim, sphere.center, sphere.radius
    if f.singularity is None:
        radius, angles = 0.5 * R, 2.0 * np.pi * np.arange(8) / 8
        if dim == 2:
            normals = np.column_stack([np.cos(angles), np.sin(angles)])
            weights = np.full(8, 2.0 * np.pi * radius / 8)
        else:
            t, w = np.polynomial.legendre.leggauss(4)
            st, ct, ph = np.repeat(np.sqrt(1.0 - t**2), 8), np.repeat(t, 8), np.tile(angles, 4)
            normals = np.column_stack([st * np.cos(ph), st * np.sin(ph), ct])
            weights = radius**2 * np.repeat(w, 8) * (2.0 * np.pi / 8)
        values = eval_field(f, sphere.to_user(center + radius * normals))
        values = np.asarray(values, dtype=float) * weights
        projected = np.append(values.sum() / math.sqrt(UNIT_SPHERE_MEASURE[dim]),
                              surface_harmonics(normals, 3).T @ values)
        scale = 2.0 ** row_orders(range(projected.shape[0]), dim)[0] * (4 / R) ** ((dim - 1) / 2)
        coefficients = np.concatenate([projected * scale, np.zeros(rows.stop)])
        return coefficients[rows.start: rows.stop]
    source = sphere.to_solve(f.singularity)
    c = center - source
    if f.kind == "log-source":
        dist, (k, _, sin) = float(np.linalg.norm(c)), row_orders(rows, 2)
        phase = k * math.atan2(float(c[1]), float(c[0]))
        trig = np.where(sin, np.sin(phase), np.cos(phase))
        with np.errstate(under="ignore"):
            out = (-R / dist) ** k / np.maximum(k, 1) * math.sqrt(math.pi * R) * trig
        return np.where(k == 0, -math.log(dist) * math.sqrt(2 * math.pi * R), out)
    if f.kind == "point-source":
        start, weights = 0, np.array([math.sqrt(4 * math.pi)])
    elif dim == 2:
        start, weights = 1, math.sqrt(math.pi) * sphere.to_solve(np.asarray(f.direction))
    else:
        p = sphere.to_solve(np.asarray(f.direction))
        start, weights = 1, math.sqrt(4 * math.pi / 3) * p[[2, 0, 1]]
    gains = np.full(1, 0.5 * math.log(R) if dim == 2 else 0.0)
    columns = np.empty((len(rows), weights.shape[0]))
    translated_block(source, 1.0, gains, sphere, rows, columns, start)
    return columns @ weights


def _points(dim: int, x) -> tuple[np.ndarray, bool]:
    """(p, dim) points of x, one point (dim,) or a batch, and whether it was one."""
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if pts.shape[-1] != dim:
        raise ValueError(f"points must have trailing dimension {dim}, got {x.shape}")
    return pts, x.ndim == 1


def radiated_field(h: HarmonicDensity, x) -> np.ndarray | float:
    """Field radiated by an antenna density, in closed form.

    The density's coefficients times their basis densities' fields, each a
    surface harmonic times its degree's radial factor
    (:func:`fieldcast.operator.degree_gains`), summed at each point
    (:func:`_series`): the double layer of the density at any point outside
    the clearance delta (1 + 1e-6) the operator demands of control nodes;
    points inside it are rejected.  The points are the user's, turned into
    the density's solve frame (:attr:`fieldcast.geometry.Boundary.frame`).
    A value depends on its point alone, bit for bit.

    Parameters
    ----------
    h : HarmonicDensity
        Antenna density (see the operator module).
    x : array-like, shape (dim,) or (p, dim)
    """
    antenna, a = h.boundary, h.coefficients  # (M,), degrees 1 .. L
    pts, scalar = _points(antenna.dim, x)
    pts = antenna.to_solve(pts)
    out = np.empty(pts.shape[0])
    # 8192 points a block: the series holds about 8 vectors of them, in 3D one more a degree.
    for rows in row_blocks(pts.shape[0], 8):
        offsets = pts[rows] - antenna.center
        r = _distance(offsets, np.zeros(antenna.dim))
        if np.any(r < antenna.radius * (1.0 + SEPARATION_RTOL)):
            raise ValueError("radiated-field evaluation too close to (or inside) the antenna boundary")
        out[rows] = _series(antenna, a, offsets, r)
    return float(out[0]) if scalar else out


def _series(antenna: Boundary, a: np.ndarray, offsets: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum_j a_j basis_j at the points ``offsets`` (p, dim) from the antenna
    centre, r their lengths.  In 2D degree by degree, as the real part of a
    power series in w = (delta/r) e^(i theta) summed by Horner's scheme in
    real arithmetic (numpy's complex product fuses multiply-adds, but not in
    place on one element); in 3D order by order, over
    :func:`fieldcast.geometry.legendre_orders`' recurrence in l weighted by
    :func:`fieldcast.operator.degree_gains`."""
    delta, degree = antenna.radius, antenna.degree
    acc = np.zeros(r.shape[0])
    if antenna.dim == 2:
        # g_n at r = delta, over the norm sqrt(pi) of cos(n theta) and sin(n theta).
        scale = degree_gains(antenna, np.array([delta]))[:, 0] / math.sqrt(math.pi)
        wr, wi = (delta / r) * (offsets[:, 0] / r), (delta / r) * (offsets[:, 1] / r)
        hr = hi = acc   # Horner: h = (h + cos - i sin) w, from the top degree down
        for cos, sin in (a.reshape(-1, 2) * scale[:, None])[::-1].tolist():
            hr, hi = hr + cos, hi - sin
            hr, hi = hr * wr - hi * wi, hr * wi + hi * wr
        return hr
    gains = degree_gains(antenna, r)  # (L, p)
    for m, ring, legendre in legendre_orders(offsets / r[:, None], degree):
        pairs = a[order_columns(degree, 3, range(m, m + 1))[0]].reshape(-1, 2 if m else 1)
        sums = np.zeros((pairs.shape[1], r.shape[0]))
        for l, (cur, coefficients) in enumerate(zip(legendre, pairs.tolist()), start=max(m, 1)):
            term = gains[l - 1] * cur
            for total, c in zip(sums, coefficients):
                total += c * term
        acc += sums[0] * ring[0] + sums[1] * ring[1] if m else sums[0]
    return acc


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned evaluation grid: per-axis counts and bounds."""

    shape: tuple[int, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def points(self) -> np.ndarray:
        """The (p, dim) grid points, the last axis' index varying fastest."""
        axes = [np.linspace(lo, hi, n) for n, lo, hi in zip(self.shape, self.lo, self.hi)]
        out = np.empty((*self.shape, len(axes)))
        for k, axis in enumerate(np.meshgrid(*axes, indexing="ij", sparse=True)):
            out[..., k] = axis
        return out.reshape(-1, len(axes))


def default_grid(s: Scenario, shape: tuple[int, ...]) -> GridSpec:
    """Grid covering the observation ball plus a 20% exterior margin."""
    if len(shape) != s.dim:
        raise ValueError(f"grid shape {shape} does not match dim {s.dim}")
    half = 1.2 * s.observation_radius
    return GridSpec(shape=tuple(shape), lo=(-half,) * s.dim, hi=(half,) * s.dim)


@dataclass(frozen=True)
class FieldGrid:
    """Sampled total field with per-point target, mismatch and region label.

    Labels: ``region-k`` inside target ball k, ``exterior`` outside the
    observation ball, ``annulus`` elsewhere.  Points where the total field
    cannot be evaluated are dropped: those inside the clearance
    delta (1 + 1e-6) around the antenna centre, the antenna ball included,
    and those within 2e-9 of the singularity of a field the point needs.
    ``cli.write_grid`` writes each number as its shortest round-trip
    ``repr`` (``-0.0`` keeps its sign) and each label as it is.
    """

    points: np.ndarray    # (p, dim)
    values: np.ndarray    # (p,) total field
    target: np.ndarray    # (p,) wanted field, NaN where undefined
    mismatch: np.ndarray  # (p,) relative mismatch, NaN where undefined
    labels: tuple[str, ...]

    def __post_init__(self):
        n = self.points.shape[0]
        if not (len(self.values) == len(self.target) == len(self.mismatch) == len(self.labels) == n):
            raise ValueError("field grid column lengths do not match")


def eval_on_grid(g: HarmonicDensity, s: Scenario, spec: GridSpec) -> FieldGrid:
    """Total field (exterior target + :func:`radiated_field`) over a grid.

    Inside target ball k the mismatch column holds
    |total - u_k| / max(|u_k|, floor); outside the observation ball it is
    the analogous mismatch against the exterior target.  The floor is
    1e-8 times the peak |target| over the points in that region, falling
    back to absolute mismatch for identically-zero targets.
    """
    pts = spec.points()
    rho = _distance(pts, np.zeros(s.dim))

    # Each point's label is a code into ``names``; region k has code exterior + k.
    annulus, exterior = range(2)
    names = ("annulus", "exterior", *(f"region-{k}" for k in range(1, s.n_regions + 1)))
    code = np.where(rho > s.observation_radius, exterior, annulus)
    for k, r in enumerate(s.regions, start=exterior + 1):
        code[(_distance(pts, r.center) <= r.radius) & (code == annulus)] = k

    # Drop the points radiated_field rejects (inside its clearance) and those
    # near the singularity of a field the point needs.
    keep = rho >= g.boundary.radius * (1.0 + SEPARATION_RTOL)
    del rho
    needed = [(s.exterior_target, True)] + [(r.target, code == k) for k, r
                                            in enumerate(s.regions, start=exterior + 1)]
    for field_, where in needed:
        if field_.singularity is not None:
            keep &= ~((_distance(pts, field_.singularity) < 2 * SINGULARITY_TOL) & where)
    # Whole-grid temporaries are deleted once used, so the evaluation peaks at
    # the columns it returns plus a few (p,) arrays.
    pts, code = pts[keep], code[keep]
    del keep, needed

    values = np.asarray(eval_field(s.exterior_target, pts), dtype=float)
    values += radiated_field(g, pts)

    target = np.full(pts.shape[0], np.nan)
    mismatch = np.full(pts.shape[0], np.nan)
    for k, field_ in enumerate((s.exterior_target, *(r.target for r in s.regions)), start=exterior):
        sel = code == k
        if not np.any(sel):
            continue
        t = np.asarray(eval_field(field_, pts[sel]), dtype=float)
        target[sel] = t
        peak = float(np.max(np.abs(t)))
        floor = MISMATCH_FLOOR_REL * peak if peak > 0 else 1.0
        mismatch[sel] = np.abs(values[sel] - t) / np.maximum(np.abs(t), floor)

    return FieldGrid(
        points=pts,
        values=values,
        target=target,
        mismatch=mismatch,
        labels=tuple(np.array(names, dtype=object)[code]),
    )


def _kelvin_image(f: HarmonicField, R: float) -> list[tuple[HarmonicField, float]]:
    """(field, weight) terms whose sum is harmonic on the closed ball
    |x| <= R and equals the exterior target f on its sphere, but for a
    dipole's mean there: the Kelvin transform of f, (R/|x|) f(R^2 x/|x|^2)
    in 3D and f(R^2 x/|x|^2) in 2D (Axler, Bourdon & Ramey, *Harmonic
    Function Theory*, 2nd ed., ch. 4).  With s* = R^2 s/|s|^2, a 3D point
    source at s is R/|s| times one at s*; a 3D dipole p at s is a point
    source at s* of weight -R (p.s)/|s|^3 plus a dipole at s* of moment
    (R/|s|)^3 (p - 2 (p.u) u), u = s/|s|, whose means cancel; a 2D dipole
    is a dipole at s* of complex moment -conj(p) s*/conj(s) plus the
    constant Re(-conj(p)/conj(s)), left out, which cancels its mean.  A
    source within rounding of the origin, |s| < 2^-53 R, is taken there:
    1/R or p.x/R^dim.  An entire field is its own image.  These are the
    exterior targets :func:`fieldcast.geometry.validate_scenario` admits."""
    s = f.singularity
    if s is None:
        return [(f, 1.0)]
    dim, dist = s.shape[0], float(np.linalg.norm(s))
    p = None if f.kind == "point-source" else np.asarray(f.direction)
    if dist < 2.0**-53 * R:   # within rounding of a source at the origin: |s|/R relative
        if p is None:
            return [(constant_field(1.0 / R), 1.0)]
        terms = {tuple(int(j == i) for j in range(dim)): float(p[i]) / R**dim for i in range(dim)}
        return [(harmonic_polynomial(terms, dim), 1.0)]
    q, u = R / dist, s / dist   # s* = R q u
    if p is None:
        return [(point_source(R * q * u), q)]
    if dim == 3:
        return [(point_source(R * q * u), -q * q * float(p @ u) / R),
                (dipole(R * q * u, q**3 * (p - 2 * float(p @ u) * u)), 1.0)]
    moment = -complex(*p).conjugate() * (q * complex(*u)) ** 2
    return [(dipole(R * q * u, (moment.real, moment.imag)), 1.0)]


def auto_epsilon(s: Scenario) -> float:
    """Accuracy budget scaled by the target fields: 1e-3 times the sum of
    the region targets' L2 norms over their target balls and the exterior
    target's L2 norm over the observation sphere, in closed form.

    Each norm is read off the field's coefficients on a sphere of the
    control degree D (:func:`_wanted_block`): its degrees 0 .. D and
    ``outside``, the squared norm of those above.  A field harmonic on a
    closed ball of radius a, with degree-l parts u_l on its sphere, has
    ||u||^2 over the ball = sum_l a/(2l + dim) ||u_l||^2 over the sphere
    (Axler, Bourdon & Ramey, ch. 5); ``outside`` takes the weight of degree
    D + 1, the largest above D, so it is never understated.  On the
    observation sphere the exterior target equals its Kelvin image
    (:func:`_kelvin_image`), harmonic on the closed ball, whose sphere norm
    is its block's and ``outside`` together.  No field is evaluated at a
    point unless it is entire.  A sphere that cannot be built, or a
    source on it, raises ScenarioValidationError naming it.
    """
    degree = rule_degree(s.discretization.control, s.dim)

    def norm(f, center, radius: float, ball: bool) -> float:
        sphere = Boundary(center, radius, s.dim, degree)
        terms = [(f, 1.0)] if ball else _kelvin_image(f, radius)
        block, outside = _wanted_block([(g, w) for g, w in terms if g.kind != "zero"], sphere)
        if not ball and f.kind == "dipole":
            block[0] = 0.0   # the mean of a dipole over a sphere about it
        degrees = np.append(row_orders(range(block.shape[0]), s.dim)[0], degree + 1)
        weights = radius / (2 * degrees + s.dim) if ball else np.ones(degrees.shape[0])
        return math.sqrt(float(weights @ np.append(block**2, outside)))

    total = sum(on_boundary(f"region {k} target ball", norm, r.target, r.center, r.radius, True)
                for k, r in enumerate(s.regions, start=1))
    total += on_boundary("observation sphere", norm, s.exterior_target, np.zeros(s.dim),
                         s.observation_radius, False)
    return 1e-3 * total


def resolve_epsilon(s: Scenario) -> Scenario:
    """Replace epsilon == 'auto' with its numeric value."""
    if s.epsilon == "auto":
        return replace(s, epsilon=auto_epsilon(s))
    return s
