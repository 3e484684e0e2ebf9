"""Harmonic target fields, trace targets and radiated-field evaluation.

A small catalog of closed-form harmonic fields (point/log sources,
dipoles, harmonic polynomials) serves as targets; their traces on the
control spheres, with the exterior target subtracted, form the data the
forward operator must match.  The field the antenna actually radiates is
the double-layer potential of the solved density, evaluated here in the
operator's closed form (:func:`radiated_field`), so the probes and the grid
read the field the certificate bounds; its Nystrom quadrature
(:func:`eval_double_layer`) stays as the tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

import numpy as np

from .geometry import (SEPARATION_RTOL, QuadratureRule, Scenario, ScenarioValidationError,
                       control_labels, harmonic_degree, harmonic_transform, legendre_orders,
                       make_rule, on_boundary, order_columns, validate_scenario)
from .kernels import dlp_kernel, row_blocks
from .operator import ControlTrace, degree_gains

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
    order of the control rules: one callable of points per region giving
    u_k - u_0, then one for the outer sphere giving zero (the exterior
    requirement after subtracting the exterior target u_0)."""
    def difference(target):
        return lambda pts: eval_field(target, pts) - eval_field(s.exterior_target, pts)

    return [difference(r.target) for r in s.regions] + [lambda pts: np.zeros(len(pts))]


def build_target(s: Scenario, controls: list[QuadratureRule]):
    """Trace target on the control boundaries: block k holds the wanted
    field of :func:`scenario_difference_fields` at the nodes of control
    rule k.  The scenario is validated first, field conditions included
    (:func:`fieldcast.geometry.validate_scenario`).  An identically zero
    trace raises ScenarioValidationError, as there is nothing to solve for,
    and so do a norm that overflows float64 or is not a number and a control
    sphere where the wanted field cannot be evaluated (named in the message).
    """
    if len(controls) != s.n_regions + 1:
        raise ValueError(
            f"expected {s.n_regions + 1} control rules, got {len(controls)}"
        )

    validate_scenario(s)
    blocks = [on_boundary(label, wanted, rule.nodes) for label, wanted, rule
              in zip(control_labels(s), scenario_difference_fields(s), controls)]
    v = ControlTrace(blocks=blocks, rules=list(controls))
    norm = v.norm()
    if norm == 0.0:
        raise ScenarioValidationError(["target trace is identically zero; nothing to solve"])
    if not np.isfinite(norm):
        raise ScenarioValidationError([f"target trace norm is {norm}, not a finite number"])
    return v


def _points(rule: QuadratureRule, x) -> tuple[np.ndarray, bool]:
    """(p, dim) points of x, one point (dim,) or a batch, and whether it was one."""
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if pts.shape[-1] != rule.boundary.dim:
        raise ValueError(f"points must have trailing dimension {rule.boundary.dim}, got {x.shape}")
    return pts, x.ndim == 1


def radiated_field(h, x) -> np.ndarray | float:
    """Field radiated by an antenna density, in closed form.

    The density's coefficients on its rule's orthonormal harmonics
    (:func:`fieldcast.geometry.harmonic_transform`, degree 0 dropped, as it
    radiates nothing outside the antenna) times their fields
    (:func:`fieldcast.operator.basis_fields`), summed at each point
    (:func:`_series`): the double layer of the density's projection at any
    point outside the clearance delta (1 + 1e-6) the operator demands of
    control nodes; points inside it are rejected.  A value depends on its
    point alone, bit for bit.

    Parameters
    ----------
    h : Density
        Antenna density (see the operator module).
    x : array-like, shape (dim,) or (p, dim)
    """
    rule = h.rule
    pts, scalar = _points(rule, x)
    a = harmonic_transform(rule, h.values)[0][1:]  # (M,), degrees 1 .. L
    out = np.empty(pts.shape[0])
    # 8192 points a block: the series holds about 8 vectors of them, in 3D one more a degree.
    for rows in row_blocks(pts.shape[0], 8):
        offsets = pts[rows] - rule.boundary.center
        r = _distance(offsets, np.zeros(rule.boundary.dim))
        if np.any(r < rule.boundary.radius * (1.0 + SEPARATION_RTOL)):
            raise ValueError("radiated-field evaluation too close to (or inside) the antenna boundary")
        out[rows] = _series(rule, a, offsets, r)
    return float(out[0]) if scalar else out


def _series(rule: QuadratureRule, a: np.ndarray, offsets: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum_j a_j basis_j at the points ``offsets`` (p, dim) from the antenna
    centre, r their lengths.  In 2D degree by degree, as the real part of a
    power series in w = (delta/r) e^(i theta) summed by Horner's scheme in
    real arithmetic (numpy's complex product fuses multiply-adds, but not in
    place on one element); in 3D order by order, over
    :func:`fieldcast.geometry.legendre_orders`' recurrence in l weighted by
    :func:`fieldcast.operator.degree_gains`."""
    delta, degree = rule.boundary.radius, harmonic_degree(rule)
    acc = np.zeros(r.shape[0])
    if rule.boundary.dim == 2:
        # g_n at r = delta, over the norm sqrt(pi) of cos(n theta) and sin(n theta).
        scale = degree_gains(rule, np.array([delta]))[:, 0] / math.sqrt(math.pi)
        wr, wi = (delta / r) * (offsets[:, 0] / r), (delta / r) * (offsets[:, 1] / r)
        hr = hi = acc   # Horner: h = (h + cos - i sin) w, from the top degree down
        for cos, sin in (a.reshape(-1, 2) * scale[:, None])[::-1].tolist():
            hr, hi = hr + cos, hi - sin
            hr, hi = hr * wr - hi * wi, hr * wi + hi * wr
        return hr
    gains = degree_gains(rule, r)  # (L, p)
    for m, ring, legendre in legendre_orders(offsets / r[:, None], degree, range(degree + 1)):
        pairs = a[order_columns(degree, 3, range(m, m + 1))[0]].reshape(-1, 2 if m else 1)
        sums = np.zeros((pairs.shape[1], r.shape[0]))
        for l, (cur, coefficients) in enumerate(zip(legendre, pairs.tolist()), start=max(m, 1)):
            term = gains[l - 1] * cur
            for total, c in zip(sums, coefficients):
                total += c * term
        acc += sums[0] * ring[0] + sums[1] * ring[1] if m else sums[0]
    return acc


def eval_double_layer(g, x) -> np.ndarray | float:
    """Field radiated by an antenna density: the double-layer potential, by
    Nystrom quadrature of its kernel over the antenna rule.

    The tests' oracle for :func:`radiated_field`, which it misses near the
    antenna, where the kernel is nearly singular.  Evaluation inside or
    within a 1e-6 relative ring of the antenna sphere is rejected.

    Parameters
    ----------
    g : Density
        Antenna density (see the operator module).
    x : array-like, shape (dim,) or (p, dim)
    """
    rule = g.rule
    pts, scalar = _points(rule, x)
    clearance = rule.boundary.radius * (1.0 + SEPARATION_RTOL)
    y, nu = rule.nodes[None, :, :], rule.normals[None, :, :]
    wg = rule.weights * g.values
    out = np.empty(pts.shape[0])
    for rows in row_blocks(pts.shape[0], rule.node_count):
        if np.any(_distance(pts[rows], rule.boundary.center) < clearance):
            raise ValueError(
                "double-layer evaluation too close to (or inside) the antenna boundary"
            )
        out[rows] = dlp_kernel(pts[rows, None, :], y, nu, rule.boundary.dim) @ wg
    return float(out[0]) if scalar else out


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


def eval_on_grid(g, s: Scenario, spec: GridSpec) -> FieldGrid:
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
    keep = rho >= g.rule.boundary.radius * (1.0 + SEPARATION_RTOL)
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


def surface_l2_norm(f: HarmonicField, rule: QuadratureRule) -> float:
    """L2 norm of a field over a sphere, by surface quadrature."""
    vals = np.asarray(eval_field(f, rule.nodes), dtype=float)
    return rule.l2_norm(vals)


def ball_l2_norm(f: HarmonicField, center, radius: float, dim: int,
                 n_shells: int = 32, n_surface: int = 128) -> float:
    """L2 norm of a field over a solid ball, by radial-shell quadrature.

    Gauss-Legendre in the shell radius, the standard surface rule on each
    shell; spectrally accurate for fields smooth on the closed ball.
    """
    t, w = np.polynomial.legendre.leggauss(n_shells)
    radii = 0.5 * radius * (t + 1.0)  # (n_shells,) in (0, radius)
    w = 0.5 * radius * w
    total = 0.0
    for r_shell, w_shell in zip(radii, w):
        rule = make_rule(center, r_shell, n_surface, dim)
        vals = np.asarray(eval_field(f, rule.nodes), dtype=float)
        total += w_shell * float(rule.weights @ vals**2)
    return float(np.sqrt(total))


def auto_epsilon(s: Scenario) -> float:
    """Accuracy budget scaled by the target fields.

    1e-3 times the sum of the region targets' L2 norms over their target
    balls plus the exterior target's L2 norm over the observation
    boundary.
    """
    n_surface = 128 if s.dim == 2 else 32
    total = 0.0
    for k, r in enumerate(s.regions, start=1):
        total += on_boundary(f"region {k} target ball", ball_l2_norm, r.target, r.center,
                             r.radius, s.dim, n_surface=n_surface)
    obs = on_boundary("observation sphere", make_rule, np.zeros(s.dim), s.observation_radius,
                      256 if s.dim == 2 else 32, s.dim)
    total += surface_l2_norm(s.exterior_target, obs)
    return 1e-3 * total


def resolve_epsilon(s: Scenario) -> Scenario:
    """Replace epsilon == 'auto' with its numeric value."""
    if s.epsilon == "auto":
        return replace(s, epsilon=auto_epsilon(s))
    return s
