"""The package ships the pipeline; quadrature rules and Nystrom oracles are test code.

``tests/oracles.py`` holds the reference implementations that measure
fields from values at quadrature nodes.  The package measures every field
in closed form, so no module under ``src/fieldcast`` defines a class or
function of an oracle's name, and none builds a Gauss-Legendre rule but
the fixed one of harmonic degree 3 by which ``fields._field_rows``
projects an entire field.  The modules are parsed, not imported.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "fieldcast"

# Every name tests/oracles.py defines at module level: its classes,
# functions and constants.
ORACLE_NAMES = sorted(
    name
    for node in ast.parse((TESTS / "oracles.py").read_text()).body
    for name in ([node.name] if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                 else [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)])
)


def _package_trees():
    return [(path.name, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(PACKAGE.glob("*.py"))]


def test_oracle_names_are_read():
    assert {"QuadratureRule", "make_rule", "Density", "nodal", "apply", "ball_l2_norm",
            "poisson_solve", "AZIMUTH_PER_POLAR"} <= set(ORACLE_NAMES)


def test_no_module_defines_an_oracle():
    # Methods count too: HarmonicDensity has no nodal() or basis().
    found = [(name, node.name) for name, tree in _package_trees() for node in ast.walk(tree)
             if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in ORACLE_NAMES]
    assert found == []


def test_gauss_legendre_nodes_only_project_entire_fields():
    # Each leggauss call, by the module and the top-level definition it sits in.
    calls = [(name, getattr(top, "name", None)) for name, tree in _package_trees()
             for top in tree.body for node in ast.walk(top)
             if isinstance(node, ast.Call) and "leggauss" in ast.unparse(node.func)]
    assert set(calls) <= {("fields.py", "_field_rows")}
