"""Sup-norm error certificates from boundary residual norms.

A harmonic function on a ball is its Poisson integral, so its sup over a
strictly smaller concentric ball is bounded by a geometry constant times
the L1 norm of its boundary data; the same holds outside a strictly
larger sphere for the exterior problem.  Applied to the difference
between the radiated field and the wanted field, whose boundary data on
each control sphere is exactly the solver's residual block, this turns
the achieved L2 residual norms (``SolveReport.block_residuals``, or
:func:`fieldcast.operator.block_residuals` for any density's coefficients)
into machine-checkable sup-norm guarantees on every target ball and beyond
the observation boundary.

Each bound is the paper's conservative constant, normalized by the
unit-ball volume, times the L1 factor sqrt(|data sphere|) that turns the
L2 residual into an L1 norm by Cauchy-Schwarz, times the residual.

The probes of :func:`empirical_mismatches` sample each certified sup where
it is attained, on a lattice the seed turns, in the closed form
(:func:`fieldcast.fields.radiated_field`) of the coefficients whose
residuals the bounds take.  The difference is harmonic on each closed target
ball, so by the maximum principle its sup there lies on the target sphere;
outside the observation ball it is harmonic and decays at infinity (in 2D
mode 0 radiates nothing outside the antenna), so its sup there lies on the
observation sphere.  A maximum over points of the sphere is a lower bound
on the sup; the bound is rigorous, so the two bracket it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import radiated_field
from .geometry import UNIT_SPHERE_MEASURE, Scenario, surface_measure
from .operator import HarmonicDensity

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


def sample_on_sphere(rotation: int, center, radius: float, dim: int, n: int) -> np.ndarray:
    """n points on a sphere, k = 0 .. n - 1: on a circle the angles
    2 pi (k + 1/2) / n + theta; on a sphere the Fibonacci lattice (Gonzalez,
    Math. Geosci. 42 (2010) 49-64) z_k = 1 - (2k + 1) / n, phi_k = k g + theta,
    g the golden angle.  theta is ``rotation`` times 1/golden ratio of a turn,
    reduced in integers to 64 bits beyond the rotation's own: any is exact."""
    bits = rotation.bit_length() + 64
    theta = 2 * math.pi * (rotation * (math.isqrt(5 << 2 * bits) - (1 << bits))
                           % (2 << bits) / (2 << bits))
    k = np.arange(n)
    if dim == 2:
        z, phi = np.zeros(n), 2 * math.pi * (k + 0.5) / n + theta
    else:
        z, phi = 1.0 - (2 * k + 1) / n, k * (math.pi * (3.0 - math.sqrt(5.0))) + theta
    rho = np.sqrt(1.0 - z * z)
    direction = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)[:, :dim]
    return np.asarray(center, dtype=float) + radius * direction


def empirical_mismatches(h: HarmonicDensity, v_fields, s: Scenario, rotation: int,
                         n_samples: int) -> list[float]:
    """Sup-norm probes matching the certificate's claims.

    ``v_fields`` supplies the wanted field per control boundary
    (:func:`fieldcast.fields.scenario_difference_fields`).  Returns the
    maximum of |radiated - wanted| over ``n_samples`` points of the lattice
    turned by ``rotation`` (:func:`sample_on_sphere`) on each target sphere
    and then on the observation sphere, in the certificate's order: the
    spheres on which, by the maximum principle, each sup is attained.  Each
    is a lower bound on its sup, which the certificate's bound caps.
    """
    spheres = [(r.center, r.radius) for r in s.regions] + [((0.0,) * s.dim, s.observation_radius)]
    points = [sample_on_sphere(rotation, c, r, s.dim, n_samples) for c, r in spheres]
    radiated = np.split(radiated_field(h, np.concatenate(points)), len(points))
    return [float(np.max(np.abs(field - wanted(pts))))
            for wanted, pts, field in zip(v_fields, points, radiated, strict=True)]
