"""The benchmark's trace points and imports name things the package still has.

``perfbench/spans.py`` wraps each ``(module, attribute)`` of its
``TRACE_POINTS`` by ``getattr``; a renamed function would only show up as
a crash of a traced benchmark run, and a function the pipeline no longer
calls by that name would silently read 0 in its per-layer metric.  Every
``from fieldcast... import name`` in ``perfbench/*.py`` must resolve too.
The benchmark's modules are read, not changed.
"""

import ast
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from fieldcast import cli

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans      # dataclasses look their module up here
    spec.loader.exec_module(spans)
    return spans


def _trace_points():
    return [(module_name, attr) for module_name, attr, *_ in _spans().TRACE_POINTS]


def _benchmark_imports():
    found = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "fieldcast"):
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


@pytest.mark.parametrize("path, module_name, name", _benchmark_imports())
def test_benchmark_import_resolves(path, module_name, name):
    # As ``from module import name`` does: an attribute, or else a submodule.
    module = importlib.import_module(module_name)
    assert (hasattr(module, name)
            or importlib.util.find_spec(f"{module_name}.{name}") is not None)


def test_benchmark_imports_include_the_cutoff():
    # The cutoff lives in geometry; the benchmark reads it through solver.
    assert ("spans.py", "fieldcast.solver", "RANK_CUTOFF_RTOL") in _benchmark_imports()


@pytest.mark.parametrize("module_name, attr", _trace_points())
def test_trace_point_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_cli_trace_points_are_called(tmp_path, monkeypatch):
    calls = Counter()
    names = [attr for module_name, attr in _trace_points() if module_name == "fieldcast.cli"]
    for name in names:
        def counted(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    assert cli.main(["run", str(ROOT / "presets" / "demo-2d"), "--epsilon", "6.5",
                     "--grid", "8,8", "--nodes", "32,32", "--out", str(tmp_path)]) == 0
    assert [name for name in names if not calls[name]] == []


def test_span_attributes_read_the_results(tmp_path):
    # The extractors read fields of what the traced calls return (the SVD's
    # sigma and vt, the solve report); a renamed field would crash or zero
    # the benchmark's per-layer metrics.
    spans = _spans()
    tracer = spans.Tracer()
    with tracer.installed(0), tracer.span("cli.main", 0) as root:
        assert cli.main(["run", str(ROOT / "presets" / "demo-2d"), "--epsilon", "6.5",
                         "--nodes", "32,32", "--out", str(tmp_path)]) == 0
    layers = spans.job_layers(tracer.spans, root)
    assert layers["operator.rank_above_cutoff"] > 0
    assert 0 < layers["operator.useful_rank_ratio"] <= 1
    assert layers["solver.solves"] == 1


def test_assemble_forward_returns_the_factored_matrix(tmp_path, monkeypatch):
    # The benchmark's _assemble_attrs reads ``.matrix`` of what
    # assemble_forward returns, before the SVD releases it: the matrix that
    # is factored, each control rule's harmonics by the antenna's.  On
    # demo-2d at 32 nodes that is two regions' 31 harmonics (degrees 0 .. 15)
    # and the outer sphere's 30 rows by 30 antenna harmonics.
    spans = _spans()
    shapes = []

    def recorded(*args, _fn=cli.assemble_forward, **kwargs):
        result = _fn(*args, **kwargs)
        shapes.append(None if result.matrix is None else result.matrix.shape)
        assert spans._assemble_attrs(args, result)["kernel_pairs"] == result.matrix.size
        return result

    monkeypatch.setattr(cli, "assemble_forward", recorded)
    assert cli.main(["run", str(ROOT / "presets" / "demo-2d"), "--epsilon", "6.5",
                     "--nodes", "32,32", "--out", str(tmp_path)]) == 0
    assert shapes == [(2 * 31 + 30, 30)]
