"""Minimal-energy densities via Tikhonov filtering and discrepancy matching.

Among all densities whose traces miss the target by at most epsilon (in
the weighted product norm), the one of smallest antenna L2 norm solves
the regularized normal equations

    alpha * h + K*K h = K* v

at the unique alpha where the residual norm equals epsilon.  In the
weighted SVD basis the solution is diagonal: coefficient i of h is
sigma_i * beta_i / (alpha + sigma_i^2) with beta the singular-basis
coefficients of v.  The residual norm is monotone increasing in alpha, so
the matching alpha is found by bisection on log(alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import RANK_CUTOFF_RTOL, ScenarioValidationError
from .kernels import row_blocks
from .operator import (ForwardOperator, HarmonicDensity, HarmonicTrace, WeightedSVD,
                       block_residuals, weighted_svd)

# Relative tolerance on |residual - epsilon| at which the alpha search stops.
DISCREPANCY_RTOL = 1e-3

# Bisection bracket for alpha, in units of sigma_1^2, and iteration cap.
ALPHA_BRACKET_LO = 1e-14
ALPHA_BRACKET_HI = 1e4
MAX_BRACKET_ITERATIONS = 200


def rank_above_cutoff(sigma: np.ndarray) -> int:
    """Number of singular values at or above RANK_CUTOFF_RTOL * sigma_1.

    ``sigma`` is nonincreasing, as :func:`weighted_svd` returns it, so the
    counted values are its leading entries.
    """
    return int(np.count_nonzero(sigma >= RANK_CUTOFF_RTOL * sigma[0]))


class InfeasibleAccuracyError(ValueError):
    """The requested accuracy lies below the discretization's residual floor."""

    def __init__(self, epsilon: float, floor: float):
        self.epsilon = epsilon
        self.floor = floor
        super().__init__(
            f"requested accuracy {epsilon:.6g} is at or below the residual floor "
            f"{floor:.6g} of this discretization"
        )


@dataclass(frozen=True)
class SolveReport:
    """Diagnostics of one minimal-energy solve."""

    alpha_star: float
    discrepancy: float
    epsilon: float
    energy: float
    bracket_iterations: int
    block_residuals: tuple[float, ...]
    epsilon_floor: float
    degenerate: bool = False


@dataclass(frozen=True)
class _FilterData:
    """The target in the weighted singular basis: all a budget needs."""

    sigma: np.ndarray    # (k,)
    beta: np.ndarray     # (k,) singular-basis coefficients of the target
    perp_sq: float       # squared norm of the target outside the column span
    v_norm: float        # ||v||, as HarmonicTrace.norm gives it
    svd: WeightedSVD     # the factorization beta came from, for the floor

    def _sums_of_squares(self, alphas: np.ndarray, term) -> np.ndarray:
        """sum_i term(alpha, i)^2 for each alpha of a 1-D array, over
        bounded (alphas, k) blocks; ``term`` maps an (alphas, 1) column."""
        out = np.empty(len(alphas))
        for rows in row_blocks(len(alphas), self.sigma.size):
            out[rows] = np.sum(term(alphas[rows, None]) ** 2, axis=1)
        return out

    def discrepancy_sq(self, alphas: np.ndarray) -> np.ndarray:
        sigma_sq = self.sigma**2
        filtered = self._sums_of_squares(alphas, lambda a: a / (a + sigma_sq) * self.beta)
        return filtered + self.perp_sq

    def coefficients(self, alpha: float) -> np.ndarray:
        return self.sigma * self.beta / (alpha + self.sigma**2)

    def energies(self, alphas: np.ndarray) -> np.ndarray:
        """Antenna L2 norm of the density at each alpha, in one pass: ``vt``
        has orthonormal rows and the operator's basis is orthonormal."""
        sigma_sq, scaled = self.sigma**2, self.sigma * self.beta
        return np.sqrt(self._sums_of_squares(alphas, lambda a: scaled / (a + sigma_sq)))

    @cached_property
    def floor(self) -> float:
        """Residual at the bottom of the alpha bracket, see :func:`residual_floor`;
        computed once, however many budgets are matched.  The Tikhonov
        residual there comes from R (:meth:`WeightedSVD.tikhonov_residual_sq`);
        the singular values below the rank cutoff then add what their
        filter factors f < 1 left out, (1 - f^2) beta^2."""
        sigma_1 = float(self.sigma[0]) if self.sigma.size else 0.0
        if sigma_1 == 0.0:
            return math.sqrt(self.perp_sq + float(self.beta @ self.beta))
        alpha = ALPHA_BRACKET_LO * sigma_1**2
        rank = rank_above_cutoff(self.sigma)
        f = alpha / (alpha + self.sigma**2)
        residual_sq = self.svd.tikhonov_residual_sq(self.beta, alpha)
        dropped_sq = float(np.sum((1 - f[rank:] ** 2) * self.beta[rank:] ** 2))
        return math.sqrt(residual_sq + dropped_sq + self.perp_sq)

    def match(self, epsilons) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(alpha, residual norm, iterations) for each budget of a 1-D array.

        Bisects log10(alpha) over [1e-14, 1e4] * sigma_1^2, widening the top
        if needed, until the residual is within 1e-3 relative of epsilon.  At
        or above ||v|| the zero density (alpha = inf) meets the budget; at or
        below the residual floor the budget is infeasible at this resolution.
        The budgets are bisected in lockstep, each by the steps it takes alone.
        """
        eps = np.asarray(epsilons, dtype=float)
        if (bad := ~(eps > 0)).any():
            raise ValueError(f"epsilon must be positive, got {float(eps[bad][0])}")
        if self.v_norm == 0.0:
            raise ScenarioValidationError(["target trace is identically zero; nothing to solve"])
        alpha, disc = np.full(eps.shape, math.inf), np.full(eps.shape, self.v_norm)
        iterations = np.zeros(eps.shape, dtype=int)
        (act,) = np.nonzero(eps < self.v_norm)
        if act.size == 0:
            return alpha, disc, iterations
        if (smallest := float(eps[act].min())) <= self.floor:
            raise InfeasibleAccuracyError(smallest, self.floor)

        sigma_1 = float(self.sigma[0])
        ends = [[math.log10(x * sigma_1**2)] for x in (ALPHA_BRACKET_LO, ALPHA_BRACKET_HI)]
        lo, hi = bracket = np.repeat(ends, eps.size, axis=1)  # lo, hi: views of its rows
        target_lo, target_hi = eps * (1.0 - DISCREPANCY_RTOL), eps * (1.0 + DISCREPANCY_RTOL)

        # Residual at the top of the bracket approaches ||v|| from below; widen
        # if epsilon sits inside that last sliver.
        wide = act
        while (wide := wide[hi[wide] < 40]).size:
            wide = wide[np.sqrt(self.discrepancy_sq(_pow10(hi[wide]))) < target_lo[wide]]
            hi[wide] += 2.0

        log_alpha = 0.5 * (lo + hi)
        for rounds in range(MAX_BRACKET_ITERATIONS + 1):
            alpha[act] = _pow10(log_alpha[act])
            disc[act] = np.sqrt(self.discrepancy_sq(alpha[act]))
            iterations[act] = rounds
            act = act[~((target_lo[act] <= disc[act]) & (disc[act] <= target_hi[act]))]
            if act.size == 0:
                break
            bracket[(disc[act] > eps[act]).astype(int), act] = log_alpha[act]  # above: hi, else lo
            log_alpha[act] = 0.5 * (lo[act] + hi[act])
        return alpha, disc, iterations


def _pow10(x: np.ndarray) -> np.ndarray:  # Python's float power; numpy's may miss by an ulp
    return np.fromiter((10.0**t for t in x.tolist()), float, len(x))


def _filter_data(K: ForwardOperator, v: HarmonicTrace) -> _FilterData:
    """The target's coefficients projected on the singular basis; what lies
    outside the matrix's rows (:meth:`ForwardOperator.trace_coefficients`)
    adds to what lies outside its column span."""
    svd = weighted_svd(K)
    y, outside = K.trace_coefficients(v)
    beta, perp_sq = svd.project(y)
    return _FilterData(sigma=svd.sigma, beta=beta, perp_sq=perp_sq + float(np.sum(outside)),
                       v_norm=v.norm(), svd=svd)


def sweep_ladder(values, name: str) -> list[float]:
    """The sweep values sorted ascending; each must be positive and finite."""
    ladder = sorted(float(x) for x in values)
    if not ladder:
        raise ValueError(f"{name} ladder is empty; a sweep needs at least one value")
    if not all(0 < x < math.inf for x in ladder):
        raise ValueError(f"{name} ladder values must be positive and finite")
    return ladder


def residual_floor(K: ForwardOperator, v: HarmonicTrace) -> float:
    """Smallest residual the discretization can certify.

    Evaluated at the bottom of the alpha bracket with singular values
    below the rank cutoff treated as zero: the continuous operator has
    dense range, but a fixed set of antenna and control harmonics
    does not, and requests below this floor must be reported as
    infeasible rather than silently under-delivered.
    """
    return _filter_data(K, v).floor


def solve_min_energy(
    K: ForwardOperator, v: HarmonicTrace, epsilon: float
) -> tuple[HarmonicDensity, SolveReport]:
    """Minimal-energy density's coefficients at residual norm epsilon, found by
    ``_FilterData.match``; flagged ``degenerate`` when the zero density suffices."""
    data = _filter_data(K, v)
    alpha, disc, iterations = (x.item() for x in data.match([epsilon]))
    h = HarmonicDensity(K.antenna, weighted_svd(K).vt.T @ data.coefficients(alpha))
    report = SolveReport(
        alpha_star=alpha,
        discrepancy=disc,
        epsilon=epsilon,
        energy=data.energies(np.array([alpha])).item(),
        bracket_iterations=iterations,
        block_residuals=block_residuals(K, h, v),
        epsilon_floor=data.floor,
        degenerate=alpha == math.inf,
    )
    return h, report


def sweep_alpha(K: ForwardOperator, v: HarmonicTrace, alphas) -> list[tuple[float, float, float]]:
    """Rows (alpha, residual norm, energy), sorted by alpha ascending."""
    ladder = sweep_ladder(alphas, "alpha")
    data = _filter_data(K, v)
    alphas = np.array(ladder)
    return list(zip(ladder, np.sqrt(data.discrepancy_sq(alphas)).tolist(),
                    data.energies(alphas).tolist()))


def sweep_epsilon(K: ForwardOperator, v: HarmonicTrace, epsilons) -> list[tuple[float, float, float]]:
    """Rows (epsilon, residual norm, energy) of the minimal-energy solves,
    sorted by epsilon ascending; no density or residual block is formed."""
    ladder = sweep_ladder(epsilons, "epsilon")
    data = _filter_data(K, v)
    alphas, discs, _ = data.match(ladder)
    return list(zip(ladder, discs.tolist(), data.energies(alphas).tolist()))
