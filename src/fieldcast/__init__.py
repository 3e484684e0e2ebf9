"""Minimal-energy antenna source densities for harmonic field control.

Given a small source boundary and a set of disjoint target balls, the
package assembles the double-layer trace operator onto surrounding
control spheres, finds the smallest-energy density whose traces match the
wanted fields to a prescribed accuracy, and converts the achieved
boundary residuals into sup-norm guarantees on the target balls and
beyond the observation boundary.
"""

__version__ = "0.1.0"

from .certify import certify_solution
from .fields import (
    HarmonicField,
    auto_epsilon,
    build_target,
    constant_field,
    dipole,
    eval_double_layer,
    eval_field,
    eval_on_grid,
    harmonic_polynomial,
    log_source,
    point_source,
    zero_field,
)
from .geometry import (
    Boundary,
    Discretization,
    QuadratureRule,
    Region,
    Scenario,
    ScenarioValidationError,
    build_rules,
    make_circle_rule,
    make_sphere_rule,
    validate_scenario,
    with_defaults,
)
from .kernels import adjoint_kernel, dlp_kernel, phi, poisson_solve
from .operator import (
    ControlTrace,
    Density,
    ForwardOperator,
    apply,
    apply_adjoint,
    assemble_forward,
    weighted_svd,
    xi_inner,
)
from .scenario_io import ScenarioFormatError, load_scenario, parse_scenario
from .solver import (
    InfeasibleAccuracyError,
    SolveReport,
    solve_min_energy,
    sweep_alpha,
    sweep_epsilon,
)

__all__ = [
    "Boundary",
    "ControlTrace",
    "Density",
    "Discretization",
    "ForwardOperator",
    "HarmonicField",
    "InfeasibleAccuracyError",
    "QuadratureRule",
    "Region",
    "Scenario",
    "ScenarioFormatError",
    "ScenarioValidationError",
    "SolveReport",
    "adjoint_kernel",
    "apply",
    "apply_adjoint",
    "assemble_forward",
    "auto_epsilon",
    "build_rules",
    "build_target",
    "certify_solution",
    "constant_field",
    "dipole",
    "dlp_kernel",
    "eval_double_layer",
    "eval_field",
    "eval_on_grid",
    "harmonic_polynomial",
    "load_scenario",
    "log_source",
    "make_circle_rule",
    "make_sphere_rule",
    "parse_scenario",
    "phi",
    "point_source",
    "poisson_solve",
    "solve_min_energy",
    "sweep_alpha",
    "sweep_epsilon",
    "validate_scenario",
    "weighted_svd",
    "with_defaults",
    "xi_inner",
    "zero_field",
]
