"""Every relative tolerance in the tests holds as stated.

``pytest.approx(x, rel=r)`` with no ``abs`` also accepts pytest's default
absolute tolerance of 1e-12, so on values near 1 or below it the stated
``rel`` does not hold: ``c + 0.99e-12 == pytest.approx(c, rel=1e-15)`` is
true for c = 1.1459.  Every call that gives ``rel`` gives ``abs`` too.  The
test modules are parsed, not imported.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _approx_calls():
    """(file, line, keywords) of each ``approx(...)`` call under tests/."""
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "approx":
                yield path.name, node.lineno, {k.arg for k in node.keywords}


def test_calls_are_found():
    # 49 calls give ``rel`` today; none found would mean the walk misses them.
    assert sum("rel" in keywords for *_, keywords in _approx_calls()) >= 40


def test_every_relative_tolerance_gives_an_absolute_one():
    assert [(name, line) for name, line, keywords in _approx_calls()
            if "rel" in keywords and "abs" not in keywords] == []
