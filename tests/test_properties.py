"""Invariants over random admissible scenarios (hypothesis)."""

import math
from dataclasses import replace

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fieldcast import (
    Region,
    Scenario,
    assemble_forward,
    build_rules,
    build_target,
    log_source,
    sweep_epsilon,
    validate_scenario,
    with_default_radii,
    zero_field,
)
from fieldcast.geometry import SEPARATION_RTOL, Discretization
from fieldcast.solver import DISCREPANCY_RTOL, residual_floor

# Fixed example order and no example database: every run checks the same cases.
PROPERTY = settings(derandomize=True, deadline=None, database=None)


@st.composite
def hard_data(draw, dim=None, target=zero_field()):
    """A scenario with admissible hard data and no control radii: 1-3
    disjoint target balls spread round the antenna, each clear of it by an
    inward gap |x| - a - delta from just above delta * SEPARATION_RTOL up to
    10 delta, and the observation boundary beyond them all."""
    dim = dim or draw(st.sampled_from([2, 3]))
    delta = draw(st.floats(0.1, 2.0))
    n = draw(st.integers(1, 3))
    turn = draw(st.floats(0.0, 2.0 * math.pi))
    regions = []
    for k in range(n):
        radius = draw(st.floats(0.1, 3.0))
        gap = delta * SEPARATION_RTOL * (1.0 + 10.0 ** draw(st.floats(-3.0, 7.0)))
        theta = turn + 2.0 * math.pi * k / n
        direction = [math.cos(theta), math.sin(theta), 0.0][:dim]
        center = (radius + delta + gap) * np.array(direction)
        regions.append(Region(center=center, radius=radius, target=target))
    for i, ri in enumerate(regions):
        for rj in regions[i + 1:]:
            assume(np.linalg.norm(ri.center - rj.center) > ri.radius + rj.radius)
    reach = max(r.center_distance + r.radius for r in regions)
    margin = draw(st.floats(1e-3, 10.0))
    return Scenario(dim=dim, delta=delta, regions=tuple(regions),
                    observation_radius=reach + margin, exterior_target=zero_field(),
                    epsilon=1.0)


def _tight_clearance():
    # |x| - a - delta = 1.2e-6 sits 2e-7 beyond the clearance delta * 1e-6.
    return Scenario(dim=2, delta=1.0,
                    regions=(Region(center=(3.0 + 1.2e-6, 0.0), radius=2.0,
                                    target=zero_field()),),
                    observation_radius=20.0, exterior_target=zero_field(), epsilon=1.0)


@PROPERTY
@given(hard_data())
@example(_tight_clearance())
def test_default_radii_keep_admissible_hard_data_admissible(s):
    validate_scenario(with_default_radii(s))


@PROPERTY
@given(s=hard_data(dim=2, target=log_source((0.0, 0.0))),
       fractions=st.lists(st.floats(0.01, 0.99), min_size=2, max_size=6))
def test_sweep_energy_falls_as_the_achieved_discrepancy_grows(s, fractions):
    # Compare energies by the discrepancy reached, not by the budget asked:
    # within the DISCREPANCY_RTOL stop rule, two close budgets may swap.
    s = replace(with_default_radii(s), discretization=Discretization(16, 32))
    antenna, controls = build_rules(s)
    K = assemble_forward(antenna, controls)
    v = build_target(s, controls)
    floor, top = residual_floor(K, v), v.norm()
    budgets = [floor + f * (top - floor) for f in fractions]
    rows = sweep_epsilon(K, v, budgets)
    for eps, disc, _ in rows:
        assert abs(disc - eps) <= DISCREPANCY_RTOL * eps
    energies = [energy for _, _, energy in sorted(rows, key=lambda row: row[1])]
    for tighter, looser in zip(energies, energies[1:]):
        assert looser <= tighter * (1.0 + 1e-12)
