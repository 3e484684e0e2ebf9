"""The BLAS thread policy: lazy package imports, one-thread loading, the
choice by factorization size, and outputs that do not depend on the thread
environment below that size."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import FEASIBLE_EPS_2D, FEASIBLE_EPS_3D, PRESETS, load_preset
from fieldcast import Region, blas, cli, point_source, with_defaults
from fieldcast.geometry import Discretization, build_rules, harmonic_count
from fieldcast.operator import factorization_cost, row_offsets

SRC = Path(cli.__file__).resolve().parent.parent

needs_setter = pytest.mark.skipif(blas._functions() is None,
                                  reason="no bundled OpenBLAS with a thread setter")


def _run_python(args, threads=None):
    """``python <args>`` on the checkout's sources, with no thread variable
    set but ``OPENBLAS_NUM_THREADS=threads`` if given."""
    env = {k: v for k, v in os.environ.items() if k not in blas.THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True)


def test_import_fieldcast_imports_no_numpy():
    code = ("import sys, fieldcast; print('numpy' in sys.modules); "
            "print(fieldcast.load_scenario is fieldcast.scenario_io.load_scenario)")
    assert _run_python(["-c", code]).stdout.split() == ["False", "True"]


def test_unknown_names_are_attribute_errors():
    import fieldcast
    with pytest.raises(AttributeError, match="no_such_name"):
        fieldcast.no_such_name
    assert set(fieldcast.__all__) <= set(dir(fieldcast))
    assert all(callable(getattr(fieldcast, name)) for name in fieldcast.__all__)


# Starts the CLI's entry point on ``--help`` (which exits once the CLI is
# imported), with ``library_path`` patched to find nothing when argv[1] says
# so; prints OPENBLAS_NUM_THREADS as the CLI left it and the thread count
# the library loaded with.
_ENTRY = """
import os, sys
from fieldcast import blas, __main__ as entry
find = blas.library_path
if sys.argv[1] == "hidden":
    blas.library_path = lambda: None
sys.argv = ["fieldcast", "--help"]
try:
    entry.main()
except SystemExit:
    pass
blas.library_path = find
print(os.environ.get("OPENBLAS_NUM_THREADS"), blas._functions()[1](), file=sys.stderr)
"""


@needs_setter
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="OpenBLAS starts one thread on one CPU")
@pytest.mark.parametrize("lookup, loaded", [("found", "1"), ("hidden", "2")])
def test_entry_point_loads_one_thread_and_gives_the_environment_back(lookup, loaded):
    err = _run_python(["-c", _ENTRY, lookup], threads=2).stderr
    assert err.split() == ["2", loaded]


@needs_setter
def test_in_process_main_gives_the_callers_thread_count_back(tmp_path):
    set_threads, get_threads = blas._functions()
    before = get_threads()
    try:
        set_threads(3)
        assert cli.main(["run", str(PRESETS / "demo-2d"), "--epsilon", str(FEASIBLE_EPS_2D),
                         "--nodes", "32,32", "--out", str(tmp_path / "run")]) == 0
        assert get_threads() == 3
        code = cli.main(["run", str(PRESETS / "demo-2d"), "--epsilon", "1.0",
                         "--nodes", "32,32", "--out", str(tmp_path / "bad")])
        assert code == cli.EXIT_INFEASIBLE
        assert get_threads() == 3
    finally:
        set_threads(before)
    assert "\nblas-threads: 1\n" in (tmp_path / "run" / "report.txt").read_text()


@needs_setter
def test_an_axial_operator_takes_threads_by_its_largest_block(tmp_path, monkeypatch):
    # demo-3d at 32 nodes is 2047 x 1023, m M^2 = 2.1e9, above
    # PARALLEL_MIN_FLOPS; but its one region lies on the solve frame's polar
    # axis, so the SVD factors one block per order, the largest 63 x 31.
    monkeypatch.setattr(blas, "ceiling", lambda: 2)
    set_threads, get_threads = blas._functions()
    before = get_threads()
    try:
        assert cli.main(["run", str(PRESETS / "demo-3d"), "--epsilon", str(FEASIBLE_EPS_3D),
                         "--nodes", "32,32", "--out", str(tmp_path)]) == 0
    finally:
        set_threads(before)
    assert factorization_cost(*build_rules(replace(load_preset("demo-3d"),
                                                   discretization=Discretization(32, 32))))[1] \
        == 63 * 31**2
    assert "\nblas-threads: 1\n" in (tmp_path / "report.txt").read_text()


def _two_regions_3d():
    """demo-3d with a second region off the first one's line: not axial."""
    s = load_preset("demo-3d")
    second = Region(center=np.array([0.0, 10.0, 0.0]), radius=2.0, target=point_source((0, 0, 0)))
    return with_defaults(replace(s, regions=(*s.regions, second)))


@pytest.mark.parametrize("scenario, nodes, threads", [
    (lambda: load_preset("demo-2d"), (32, 32), 1),
    (lambda: load_preset("demo-2d"), (768, 768), 2),   # 2300 x 766: 1.35e9
    (_two_regions_3d, (12, 12), 1),
    (_two_regions_3d, (32, 32), 2),                     # 3071 x 1023: 3.2e9
], ids=["2d-32", "2d-768", "3d-12", "3d-32"])
def test_an_operator_of_one_block_takes_threads_by_the_whole_matrix(scenario, nodes, threads):
    antenna, controls = build_rules(replace(scenario(), discretization=Discretization(*nodes)))
    flops = factorization_cost(antenna, controls)[1]
    columns = harmonic_count(antenna.degree, antenna.dim)
    assert flops == row_offsets(antenna, controls)[-1] * columns**2
    assert blas.threads_for(flops, 2) == threads


@pytest.mark.parametrize("flops, limit, expected", [
    (0, 8, 1),
    (blas.PARALLEL_MIN_FLOPS * (1 - 1e-12), 8, 1),
    (blas.PARALLEL_MIN_FLOPS, 8, 8),
    (blas.PARALLEL_MIN_FLOPS * 1e6, 2, 2),
    (blas.PARALLEL_MIN_FLOPS, 1, 1),
    (0, 1, 1),
])
def test_threads_for_the_factorization_size(flops, limit, expected):
    assert blas.threads_for(flops, limit) == expected


@pytest.mark.parametrize("env, expected", [
    ({}, 4),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "3"}, 2),
    ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 3),
    ({"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "1"}, 1),
    ({"GOTO_NUM_THREADS": "-1"}, 4),
    ({"OMP_NUM_THREADS": "64"}, 4),
])
def test_ceiling_is_the_count_openblas_starts_with(monkeypatch, env, expected):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    for name in blas.THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert blas.ceiling() == expected


def _outputs(out: Path) -> dict[str, str]:
    """Every file a command wrote, with report.txt cut at [timings]."""
    files = {p.name: p.read_text() for p in sorted(out.iterdir())}
    files["report.txt"] = files["report.txt"].split("[timings]")[0]
    return files


@pytest.mark.skipif(blas.library_path() is None, reason="no bundled OpenBLAS to load")
@pytest.mark.parametrize("command", [
    ["run", "demo-2d", "--epsilon", str(FEASIBLE_EPS_2D)],
    ["run", "demo-3d", "--epsilon", str(FEASIBLE_EPS_3D)],
    ["sweep", "demo-3d", "--epsilons", "0.5,0.6,0.8"],
], ids=["run-2d", "run-3d", "sweep-3d"])
def test_outputs_do_not_depend_on_the_thread_environment(tmp_path, command):
    verb, preset, *rest = command
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"threads-{threads}"
        _run_python(["-m", "fieldcast", verb, str(PRESETS / preset), *rest, "--out", str(out)],
                    threads=threads)
        outputs.append(_outputs(out))
    assert "sweep.tsv" in outputs[0] or "empirical" in outputs[0]["report.txt"]
    assert outputs[0] == outputs[1]
