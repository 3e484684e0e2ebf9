"""Sup-norm error certificates from boundary residual norms.

A harmonic function on a ball is its Poisson integral, so its sup over a
strictly smaller concentric ball is bounded by a geometry constant times
the L1 norm of its boundary data; the same holds outside a strictly
larger sphere for the exterior problem.  Applied to the difference
between the radiated field and the wanted field, whose boundary data on
each control sphere is exactly the solver's residual block, this turns
the achieved L2 residual norms (``SolveReport.block_residuals``, or
:func:`fieldcast.operator.block_residuals` for any density) into
machine-checkable sup-norm guarantees on every target ball and beyond
the observation boundary.

Each bound is the paper's conservative constant, normalized by the
unit-ball volume, times the L1 factor sqrt(|data sphere|) that turns the
L2 residual into an L1 norm by Cauchy-Schwarz, times the residual.

The seeded probes of :func:`empirical_mismatches` sample each certified sup
where it is attained, in the closed form (:func:`fieldcast.fields.radiated_field`)
whose residuals the bounds take.  The difference is harmonic on each closed target
ball, so by the maximum principle its sup there lies on the target sphere;
outside the observation ball it is harmonic and decays at infinity (in 2D
mode 0 radiates nothing outside the antenna), so its sup there lies on the
observation sphere.  A sampled maximum is a lower bound on the sup; the
bound is rigorous, so the two bracket it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import radiated_field
from .geometry import UNIT_SPHERE_MEASURE, Scenario, surface_measure
from .operator import Density

UNIT_BALL_VOLUME = {d: UNIT_SPHERE_MEASURE[d] / d for d in UNIT_SPHERE_MEASURE}


@dataclass(frozen=True)
class BoundaryBound:
    """The certificate entry for one control boundary."""

    label: str
    mismatch_l2: float
    l1_factor: float            # sqrt of the control sphere's surface measure
    constant_conservative: float
    bound_conservative: float


def _entry(label: str, mismatch: float, inner: float, outer: float, data_radius: float,
           dim: int) -> BoundaryBound:
    """The one bound between concentric spheres of radii inner < outer:
    constant x sqrt(|data sphere|) x L2 mismatch.  The data sphere is the
    control sphere, ``outer`` (interior: sup over the ball of radius
    ``inner``) or ``inner`` (exterior: sup outside radius ``outer``)."""
    if not 0 < inner < outer:
        raise ValueError(f"need 0 < inner < outer, got {inner}, {outer}")
    if mismatch < 0:
        raise ValueError(f"mismatch must be nonnegative, got {mismatch}")
    constant = (outer + inner) / (UNIT_BALL_VOLUME[dim] * data_radius * (outer - inner) ** (dim - 1))
    l1_factor = float(np.sqrt(surface_measure(data_radius, dim)))
    return BoundaryBound(label, mismatch, l1_factor, constant, constant * l1_factor * mismatch)


def certify_solution(residuals: Sequence[float], s: Scenario) -> tuple[BoundaryBound, ...]:
    """Sup-norm guarantees from the L2 residual norms of a solve.

    ``residuals`` holds one norm per control boundary, regions first and
    the outer sphere last, as in ``SolveReport.block_residuals``; the
    entries come back in that order.  Entry k of a region asserts sup over
    the closed target ball k of |radiated - (u_k - u_0)| <= bound; the
    last entry, labelled ``exterior``, asserts sup outside the observation
    ball of |radiated| <= bound.
    """
    if len(residuals) != s.n_regions + 1:
        raise ValueError(
            f"expected {s.n_regions + 1} residual norms, got {len(residuals)}"
        )
    return tuple(
        _entry(f"region-{k}", mismatch, r.radius, r.control_radius, r.control_radius, s.dim)
        for k, (r, mismatch) in enumerate(zip(s.regions, residuals), start=1)
    ) + (_entry("exterior", residuals[-1], s.outer_control_radius, s.observation_radius,
                s.outer_control_radius, s.dim),)


def sample_on_sphere(rng: np.random.Generator, center, radius: float, dim: int,
                     n: int) -> np.ndarray:
    """Uniform samples on a sphere: seeded Gaussian directions, normalized."""
    direction = rng.standard_normal((n, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return np.asarray(center, dtype=float) + radius * direction


def empirical_mismatches(h: Density, v_fields, s: Scenario, rng: np.random.Generator,
                         n_samples: int) -> list[float]:
    """Monte-Carlo sup-norm probes matching the certificate's claims.

    ``v_fields`` supplies the wanted field per control boundary
    (:func:`fieldcast.fields.scenario_difference_fields`).  Returns the
    sampled maximum of |radiated - wanted| on each target sphere and then
    on the observation sphere, in the certificate's order: the spheres on
    which, by the maximum principle, each sup is attained.  Each sampled
    maximum is a lower bound on its sup, which the certificate's bound
    rigorously caps.
    """
    spheres = [(r.center, r.radius) for r in s.regions] + [((0.0,) * s.dim, s.observation_radius)]
    points = [sample_on_sphere(rng, center, radius, s.dim, n_samples) for center, radius in spheres]
    radiated = np.split(radiated_field(h, np.concatenate(points)), len(points))
    return [float(np.max(np.abs(field - wanted(pts))))
            for wanted, pts, field in zip(v_fields, points, radiated, strict=True)]
