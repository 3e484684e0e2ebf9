"""Minimal-energy antenna source densities for harmonic field control.

Given a small source boundary and a set of disjoint target balls, the
package assembles the double-layer trace operator onto surrounding
control spheres, finds the smallest-energy density whose traces match the
wanted fields to a prescribed accuracy, and converts the achieved
boundary residuals into sup-norm guarantees on the target balls and
beyond the observation boundary.

Each export below is imported from its module on first use, so
``import fieldcast`` imports no numpy: ``python -m fieldcast`` can choose
how BLAS loads before anything loads it (:mod:`fieldcast.blas`).
"""

import importlib

__version__ = "0.1.0"

# The module each exported name comes from.
_EXPORTS = {
    "certify": ["certify_solution"],
    "fields": ["HarmonicField", "auto_epsilon", "build_target", "constant_field", "dipole",
               "eval_field", "eval_on_grid", "harmonic_polynomial", "log_source", "point_source",
               "radiated_field", "zero_field"],
    "geometry": ["Boundary", "Discretization", "Region", "Scenario", "ScenarioValidationError",
                 "build_rules", "validate_scenario", "with_defaults"],
    "operator": ["ForwardOperator", "HarmonicDensity", "HarmonicTrace", "assemble_forward",
                 "weighted_svd"],
    "scenario_io": ["ScenarioFormatError", "load_scenario", "parse_scenario"],
    "solver": ["InfeasibleAccuracyError", "SolveReport", "solve_min_energy", "sweep_alpha",
               "sweep_epsilon"],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted([*globals(), *__all__])
