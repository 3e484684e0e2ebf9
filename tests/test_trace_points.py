"""The benchmark's trace points name functions the package still has.

``perfbench/spans.py`` wraps each ``(module, attribute)`` of its
``TRACE_POINTS`` by ``getattr``; a renamed function would only show up as
a crash of a traced benchmark run.  The module is loaded, not changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _trace_points():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans      # dataclasses look their module up here
    spec.loader.exec_module(spans)
    return [(module_name, attr) for module_name, attr, *_ in spans.TRACE_POINTS]


@pytest.mark.parametrize("module_name, attr", _trace_points())
def test_trace_point_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))
