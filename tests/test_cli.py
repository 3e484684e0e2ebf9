"""Command-line pipeline: exit codes, outputs, determinism."""

import copy
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FEASIBLE_EPS_2D, PRESETS
from fieldcast import cli
from fieldcast.cli import main
from fieldcast.operator import factorization_bytes, load_operator_dump

DEMO_2D = str(PRESETS / "demo-2d.scn")
SRC = Path(cli.__file__).resolve().parent.parent


def _run(args):
    return main(args)


def _section(report: str, name: str) -> str:
    """The lines of one report section, each ending in a newline."""
    return report.split(f"[{name}]\n")[1].split("\n\n")[0].rstrip("\n") + "\n"


def _never_called(*args, **kwargs):
    raise AssertionError("this stage must not run")


def _report_body(path: Path) -> str:
    """Report text with the (timing-bearing) tail stripped."""
    text = path.read_text()
    return text.split("[timings]")[0]


class TestRun:
    def test_feasible_run_succeeds(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = _run(["run", DEMO_2D, "--out", str(out),
                     "--epsilon", str(FEASIBLE_EPS_2D), "--grid", "24,24"])
        assert code == 0
        report = (out / "report.txt").read_text()
        assert report.startswith("format-version: 4\n")
        for section in ("[scenario]", "[spectrum]", "[solve]", "[certificate]",
                        "[empirical]", "[outputs]", "[timings]"):
            assert section in report
        assert "relative-gap" in report
        assert (out / "grid.tsv").exists()
        assert (out / "spectrum.tsv").exists()
        # Every within-bound line of the empirical section must say yes.
        for line in report.splitlines():
            if "within-bound" in line:
                assert line.endswith("yes")

    def test_spectrum_reports_each_blocks_unresolved_share(self, tmp_path):
        # Regions first, then the outer sphere, after the spectrum summary.
        # demo-2d's circles resolve its fields to rounding, and the outer
        # sphere resolves every antenna degree, so its share is exactly 0.
        out = tmp_path / "out"
        assert _run(["run", DEMO_2D, "--out", str(out), "--epsilon", str(FEASIBLE_EPS_2D)]) == 0
        lines = _section((out / "report.txt").read_text(), "spectrum").splitlines()
        keys = [line.split(": ")[0] for line in lines]
        assert keys == ["sigma-1", "sigma-min", "count", "rank-above-cutoff", "decay-slope-log10",
                        "unresolved-region-1", "unresolved-region-2", "unresolved-outer"]
        shares = [float(line.split(": ")[1]) for line in lines[5:]]
        assert all(0.0 <= share <= 1e-14 for share in shares) and shares[-1] == 0.0

    def test_certificate_has_one_bound_per_boundary(self, tmp_path):
        out = tmp_path / "out"
        assert _run(["run", DEMO_2D, "--out", str(out),
                     "--epsilon", str(FEASIBLE_EPS_2D)]) == 0
        report = (out / "report.txt").read_text()
        assert "sharp" not in report
        body = report.split("[certificate]\n")[1].split("\n\n")[0]
        keys = {line.split(":")[0].split(".", 1)[1] for line in body.splitlines()}
        assert keys == {"residual-l2", "l1-factor", "constant-conservative",
                        "bound-conservative"}

    def test_suffix_may_be_omitted(self, tmp_path):
        code = _run(["run", str(PRESETS / "demo-2d"), "--out", str(tmp_path / "o"),
                     "--epsilon", "7.0"])
        assert code == 0

    def test_3d_preset_runs(self, tmp_path):
        out = tmp_path / "out"
        code = _run(["run", str(PRESETS / "demo-3d.scn"), "--out", str(out),
                     "--epsilon", "0.6", "--grid", "12,12,12"])
        assert code == 0
        report = (out / "report.txt").read_text()
        assert "region-1.center: 10.0,0.0,0.0" in report
        for line in report.splitlines():
            if "within-bound" in line:
                assert line.endswith("yes")
        grid_lines = (out / "grid.tsv").read_text().splitlines()
        assert grid_lines[1].split("\t")[:3] == ["x", "y", "z"]

    def test_auto_budget_reports_infeasible(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = _run(["run", DEMO_2D, "--out", str(out)])
        assert code == 4
        assert "residual floor" in capsys.readouterr().err
        assert not (out / "report.txt").exists()

    def test_invalid_scenario_exits_with_validation_status(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(Path(DEMO_2D).read_text().replace(
            "observation-radius: 15.0", "observation-radius: 11.0"))
        out = tmp_path / "out"
        code = _run(["run", str(bad), "--out", str(out)])
        assert code == 3
        assert not out.exists()

    def test_malformed_file_exits_with_validation_status(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("format-version: 1\ndim: [2\n")
        assert _run(["run", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert "line" in capsys.readouterr().err

    def test_non_finite_epsilon_exits_with_validation_status(self, tmp_path, capsys):
        code = _run(["run", DEMO_2D, "--out", str(tmp_path / "o"), "--epsilon", "inf"])
        assert code == 3
        assert "epsilon must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("preset, old, new, message", [
        ("demo-2d", "log-source, location: [0.0, 0.0]", "log-source, location: [0.0, 12.0]",
         "target field is singular inside the control ball"),
        ("demo-3d", "  field: {kind: zero}", "  field: {kind: constant, value: 1.0}",
         "exterior target must decay at infinity in 3D"),
        ("demo-2d", "antenna: 128", "antenna: 3", "node counts must be >= 4 in 2D, got 3, 128"),
        ("demo-2d", "antenna: 128", "antenna: 1", "node counts must be >= 4 in 2D, got 1, 128"),
    ], ids=["singular-region-target", "non-decaying-3d-exterior", "circle-below-4",
            "count-below-2"])
    def test_inadmissible_scenario_content_exits_with_validation_status(
            self, tmp_path, capsys, preset, old, new, message):
        text = (PRESETS / f"{preset}.scn").read_text()
        assert old in text
        bad = tmp_path / "bad.scn"
        bad.write_text(text.replace(old, new))
        out = tmp_path / "out"
        assert _run(["run", str(bad), "--out", str(out), "--epsilon", "0.6"]) == 3
        assert message in capsys.readouterr().err
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize("preset, nodes, code", [
        ("demo-2d", "5", 2), ("demo-2d", "a,b", 2), ("demo-2d", "1,1", 3),
        ("demo-2d", "3,3", 3), ("demo-3d", "1,24", 3), ("demo-2d", "", 2),
    ], ids=["one-count", "not-integers", "2d-below-2", "2d-below-4", "3d-below-2", "empty"])
    def test_nodes_exit_codes(self, tmp_path, preset, nodes, code):
        # Text that is not two integers, empty text included, is a bad flag;
        # counts below the minimum fail validation, as they do in a scenario file.
        out = tmp_path / "out"
        assert _run(["run", str(PRESETS / f"{preset}.scn"), "--out", str(out),
                     "--epsilon", "0.6", "--nodes", nodes]) == code
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--epsilon=", "--epsilon=abc"])
    def test_bad_epsilon_is_usage_error_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                         flag):
        # An empty value is not the scenario's own budget: it is text that is
        # not a number.
        monkeypatch.setattr(cli, "build_rules", _never_called)
        out = tmp_path / "out"
        assert _run(["run", DEMO_2D, "--out", str(out), flag]) == 2
        assert "usage error: could not convert string to float" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("preset, nodes, message", [
        ("demo-2d", "1,1", "node counts must be >= 4 in 2D, got 1, 1"),
        ("demo-2d", "3,3", "node counts must be >= 4 in 2D, got 3, 3"),
        ("demo-3d", "1,24", "node counts must be >= 2 in 3D, got 1, 24"),
    ], ids=["2d-below-2", "2d-below-4", "3d-below-2"])
    def test_nodes_below_minimum_give_the_file_message(self, tmp_path, capsys, preset,
                                                       nodes, message):
        # --nodes and the scenario file pass through one gate, so a count
        # below the minimum reads the same from either source.
        assert _run(["run", str(PRESETS / f"{preset}.scn"), "--out", str(tmp_path / "out"),
                     "--epsilon", "0.6", "--nodes", nodes]) == 3
        err = capsys.readouterr().err
        assert err.count("node counts must be") == 1
        assert message in err

    def test_zero_target_exits_with_validation_status(self, tmp_path, capsys, monkeypatch):
        # Every region asks for the exterior field: nothing to control.
        text = Path(DEMO_2D).read_text()
        for field in ("{kind: log-source, location: [0.0, 0.0]}",
                      "{kind: dipole, location: [0.0, 0.0], direction: [1.0, 0.0]}"):
            assert field in text
            text = text.replace(field, "{kind: zero}")
        zero = tmp_path / "zero.scn"
        zero.write_text(text)
        # The zero trace is caught before assembly and the output directory.
        monkeypatch.setattr(cli, "assemble_forward", _never_called)
        assert _run(["run", str(zero), "--out", str(tmp_path / "out"),
                     "--epsilon", "1.0"]) == 3
        assert "target trace is identically zero" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflowing_target_exits_with_validation_status(self, tmp_path, capsys,
                                                              monkeypatch):
        # A log source this far off overflows |x - s| at every control node,
        # so the trace is not finite: nothing after it can give a number.
        text = Path(DEMO_2D).read_text()
        old = "log-source, location: [0.0, 0.0]"
        assert old in text
        bad = tmp_path / "bad.scn"
        bad.write_text(text.replace(old, "log-source, location: [1.3407807929942597e+154, 0.0]"))
        monkeypatch.setattr(cli, "assemble_forward", _never_called)
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            assert _run(["run", str(bad), "--out", str(out), "--epsilon", "6.5"]) == 3
        assert "target trace norm is inf, not a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("old, new, path", [
        ("  field: {kind: zero}", "  field: {kind: constant, value: .nan}", "outer.field.value"),
        ("    radius: 2.0", "    radius: .nan", "regions[0].radius"),
        ("delta: 1.0", "delta: .inf", "delta"),
        ("center: [10.0, 0.0]", "center: [10.0, -.inf]", "regions[1].center[1]"),
        ("seed: 7", "seed: -7", "seed"),
    ], ids=["nan-constant", "nan-radius", "inf-delta", "inf-center", "negative-seed"])
    def test_bad_numbers_fail_at_parse(self, tmp_path, capsys, monkeypatch, old, new, path):
        text = Path(DEMO_2D).read_text()
        assert old in text
        bad = tmp_path / "bad.scn"
        bad.write_text(text.replace(old, new, 1))
        monkeypatch.setattr(cli, "build_rules", _never_called)
        out = tmp_path / "out"
        assert _run(["run", str(bad), "--out", str(out), "--epsilon", "6.5"]) == 3
        assert f"scenario field '{path}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("old, new, message", [
        ("    radius: 2.0\n", "    radius: 2.0\n    control_radius: 2.2\n",
         "regions[0]: unknown key 'control_radius'"),
        ("seed: 7\n", "seed: 7\nbogus: 1\n", "scenario: unknown key 'bogus'"),
        ("seed: 7\n", "seed: 7\nseed: 8\n", "at line 15: found repeated key 'seed'"),
        ("    radius: 2.0\n", "    radius: 2.0\n    radius: 3.0\n",
         "at line 19: found repeated key 'radius'"),
    ], ids=["misspelt-control-radius", "top-level-bogus", "repeated-top-level",
            "repeated-nested"])
    def test_unknown_key_exits_with_validation_status(self, tmp_path, capsys, monkeypatch,
                                                      old, new, message):
        # Each would run with a default or with the last of the repeated
        # values, and exit 0, unless keys are checked at parse.
        text = Path(DEMO_2D).read_text()
        assert old in text
        bad = tmp_path / "bad.scn"
        bad.write_text(text.replace(old, new, 1))
        monkeypatch.setattr(cli, "build_rules", _never_called)
        out = tmp_path / "out"
        assert _run(["run", str(bad), "--out", str(out), "--epsilon", "6.5"]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("preset, old, new, epsilon, message", [
        ("demo-3d", "    radius: 2.0", "    radius: 2.2e-309", "0.6",
         "region 1 control sphere: non-positive quadrature weights"),
        ("demo-3d", "    radius: 2.0", "    radius: 2.2e-309", None,
         "region 1 target ball: non-positive quadrature weights"),
        ("demo-2d", "    radius: 2.0\n    field: {kind: dipole, location: [0.0, 0.0], "
         "direction: [1.0, 0.0]}", "    radius: 2.0\n    control-radius: 2.5\n"
         "    field: {kind: log-source, location: [12.5000000000001, 0.0]}", "6.5",
         "region 2 control sphere: evaluation at or near the field's singular point"),
        ("demo-3d", "observation-radius: 15.0", "observation-radius: 1.0e+200", "0.6",
         "outer control sphere: (34, 'Numerical result out of range')"),
        ("demo-3d", "observation-radius: 15.0", "observation-radius: 1.0e+200", None,
         "observation sphere: (34, 'Numerical result out of range')"),
    ], ids=["subnormal-radius", "subnormal-radius-auto-epsilon", "source-at-a-control-node",
            "overflowing-radius", "overflowing-radius-auto-epsilon"])
    def test_boundary_that_cannot_be_built_exits_with_validation_status(
            self, tmp_path, capsys, monkeypatch, preset, old, new, epsilon, message):
        # Validation passes: the radii are positive and finite and the source
        # lies 1e-13 outside its control sphere.  But the sphere weights
        # 4 pi r^2 underflow to 0 or overflow, and a control node lies within
        # the evaluation tolerance of the source.
        text = (PRESETS / f"{preset}.scn").read_text()
        assert old in text
        bad = tmp_path / "bad.scn"
        bad.write_text(text.replace(old, new, 1))
        monkeypatch.setattr(cli, "assemble_forward", _never_called)
        out = tmp_path / "out"
        flags = ["--epsilon", epsilon] if epsilon else []
        assert _run(["run", str(bad), "--out", str(out), *flags]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_value_error_inside_the_pipeline_is_numerical_failure(self, tmp_path, capsys,
                                                                 monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("density values must be finite")

        monkeypatch.setattr(cli, "solve_min_energy", fail)
        assert _run(["run", DEMO_2D, "--out", str(tmp_path / "out"), "--epsilon", "6.5"]) == 5
        assert "error [numerical]: density values must be finite" in capsys.readouterr().err

    def test_oversized_discretization_exits_before_any_rule(self, tmp_path, capsys,
                                                            monkeypatch):
        # 3D at 5000 polar nodes: the region's 5000^2 control harmonics and
        # the outer sphere's 5000^2 - 1 rows by 5000^2 - 1 antenna harmonics,
        # far beyond any machine's memory; the counts alone decide, so
        # nothing is allocated.
        monkeypatch.setattr(cli, "build_rules", _never_called)
        out = tmp_path / "out"
        t0 = time.perf_counter()
        code = _run(["run", str(PRESETS / "demo-3d.scn"), "--out", str(out),
                     "--epsilon", "0.6", "--nodes", "5000,5000"])
        assert time.perf_counter() - t0 < 1.0
        assert code == 3
        err = capsys.readouterr().err
        assert "a 49999999 x 24999999 operator" in err and "GiB of physical memory" in err
        assert not out.exists()

    def test_control_sphere_inside_antenna_reach_fails_validation(self, tmp_path, capsys):
        # |x| - a' = 0.5 < delta: no antenna count can be read off this
        # geometry, so the default applies and validation names the fault.
        near = tmp_path / "near.scn"
        near.write_text(
            "format-version: 1\ndim: 3\ndelta: 1.0\nepsilon: 1.0\n"
            "regions:\n"
            "  - center: [10.0, 0.0, 0.0]\n    radius: 8.9\n    control-radius: 9.5\n"
            "    field: {kind: point-source, location: [0.0, 0.0, 0.0]}\n"
            "outer:\n  observation-radius: 30.0\n  field: {kind: zero}\n")
        out = tmp_path / "out"
        assert _run(["run", str(near), "--out", str(out)]) == 3
        assert "|x| > a' + delta fails" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("preset, file_counts, flags, expected", [
        ("demo-2d", False, [], (32, 128)), ("demo-3d", False, [], (16, 24)),
        ("demo-2d", False, ["--nodes", "20,40"], (20, 40)), ("demo-2d", True, [], (128, 128)),
    ], ids=["2d-from-geometry", "3d-from-geometry", "nodes-flag", "file-counts"])
    def test_antenna_count_from_the_geometry_unless_given(self, tmp_path, preset, file_counts,
                                                          flags, expected):
        # Both demos have delta = 1 and rho = 7, so L* = 15: 32 circle or 16
        # polar nodes.  Counts from --nodes or the file are used as given.
        text = (PRESETS / f"{preset}.scn").read_text()
        if not file_counts:
            text = re.sub(r"discretization: .*\n", "", text)
        scn = tmp_path / "s.scn"
        scn.write_text(text)
        epsilon = "6.5" if preset == "demo-2d" else "0.6"
        out = tmp_path / "out"
        assert _run(["run", str(scn), "--out", str(out), "--epsilon", epsilon, *flags]) == 0
        scenario = _section((out / "report.txt").read_text(), "scenario")
        assert f"nodes-antenna: {expected[0]}\nnodes-control: {expected[1]}\n" in scenario

    @pytest.mark.parametrize("preset, epsilon, grid, memory", [
        ("demo-3d", "0.6", "5", None), ("demo-3d", "0.6", "a,b,c", None),
        ("demo-3d", "0.6", "-3,4,4", None), ("demo-2d", "6.5", "0,8", None),
        ("demo-2d", "6.5", "", None), ("demo-2d", "6.5", "100000,100000", None),
        ("demo-2d", "6.5", "1024,1025", 128 * 2**20),
    ], ids=["too-few-counts", "not-integers", "negative-count", "zero-count", "empty",
            "beyond-physical-memory", "one-row-beyond-physical-memory"])
    def test_bad_grid_is_usage_error_before_any_work(self, tmp_path, monkeypatch, preset,
                                                     epsilon, grid, memory):
        monkeypatch.setattr(cli, "build_rules", _never_called)
        if memory is not None:
            # At 128 bytes a point, 1024 x 1024 points fill the memory exactly.
            monkeypatch.setattr(cli, "_physical_memory", lambda: memory)
            assert cli._grid_shape("1024,1024", 2) == (1024, 1024)
        out = tmp_path / "out"
        assert _run(["run", str(PRESETS / f"{preset}.scn"), "--out", str(out),
                     "--epsilon", epsilon, f"--grid={grid}"]) == 2
        assert not out.exists()

    def test_control_sphere_within_antenna_clearance_fails_validation(self, tmp_path, capsys):
        # |x| - a' - delta = 1e-7 passes a bare |x| > a' + delta but is inside
        # the clearance that assembly demands of control nodes.
        near = tmp_path / "near.scn"
        near.write_text(
            "format-version: 1\ndim: 2\ndelta: 1.0\nepsilon: 1.0\n"
            "regions:\n"
            "  - center: [10.0, 0.0]\n    radius: 8.9\n    control-radius: 8.9999999\n"
            "    field: {kind: dipole, location: [0.0, 0.0], direction: [1.0, 0.0]}\n"
            "outer:\n  observation-radius: 30.0\n  field: {kind: zero}\n")
        out = tmp_path / "out"
        assert _run(["run", str(near), "--out", str(out)]) == 3
        assert "|x| > a' + delta fails" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exits_with_validation_status(self, tmp_path):
        assert _run(["run", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("scenario", [str(PRESETS), "."], ids=["presets", "dot"])
    def test_directory_is_not_a_scenario_file(self, tmp_path, capsys, scenario):
        # A directory is not opened as a scenario, named or with ".scn" added.
        out = tmp_path / "out"
        assert _run(["run", scenario, "--out", str(out)]) == 3
        assert "scenario file not found" in capsys.readouterr().err
        assert not out.exists()

    def test_file_that_is_not_utf8_exits_with_validation_status(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_bytes(Path(DEMO_2D).read_bytes().replace(b"seed: 7", b"seed: \xff7"))
        out = tmp_path / "out"
        assert _run(["run", str(bad), "--out", str(out), "--epsilon", "6.5"]) == 3
        assert "scenario is not valid YAML" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
    def test_out_that_cannot_be_a_directory_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                            under):
        # An existing file, or a path under one, cannot hold the outputs.
        taken = tmp_path / "taken"
        taken.write_text("")
        monkeypatch.setattr(cli, "assemble_forward", _never_called)
        out = taken / "out" if under else taken
        assert _run(["run", DEMO_2D, "--out", str(out), "--epsilon", "6.5"]) == 2
        assert f"--out {str(out)!r} cannot be made a directory" in capsys.readouterr().err

    def test_report_body_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert _run(["run", DEMO_2D, "--out", str(out),
                         "--epsilon", str(FEASIBLE_EPS_2D)]) == 0
        assert _report_body(out1 / "report.txt") == _report_body(out2 / "report.txt")
        assert (out1 / "spectrum.tsv").read_bytes() == (out2 / "spectrum.tsv").read_bytes()

    def test_nodes_override(self, tmp_path):
        out = tmp_path / "out"
        code = _run(["run", DEMO_2D, "--out", str(out),
                     "--epsilon", str(FEASIBLE_EPS_2D), "--nodes", "64,64"])
        assert code == 0
        body = (out / "report.txt").read_text()
        assert "nodes-antenna: 64" in body
        # Spectrum row count equals the smaller matrix dimension: the 62
        # harmonics of degrees 1 .. 31 that 64 circle nodes resolve.
        rows = (out / "spectrum.tsv").read_text().splitlines()
        assert len(rows) == 2 + 62

    def test_dump_operator_round_trip(self, tmp_path):
        out = tmp_path / "out"
        code = _run(["run", DEMO_2D, "--out", str(out),
                     "--epsilon", str(FEASIBLE_EPS_2D), "--dump-operator",
                     "--nodes", "64,64"])
        assert code == 0
        matrix, sigma = load_operator_dump(out / "operator.bin")
        assert matrix.shape == (2 * 63 + 62, 62)   # two regions' 63 harmonics, the outer 62
        assert sigma.shape == (62,)
        assert np.all(np.diff(sigma) <= 0)


# Starts ``argv`` and prints its exit code and ru_maxrss (KiB on Linux), read
# through os.wait4.  A child's ru_maxrss counts the RSS of the process that
# spawned it, so the child is started from this bare process, not from pytest.
_LAUNCH = ("import os, subprocess, sys; "
           "p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
           "_, status, usage = os.wait4(p.pid, 0); "
           "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")


def _child_peak_bytes(argv) -> int:
    """Peak RSS of ``python <argv>`` in a fresh process."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _LAUNCH, sys.executable, *argv],
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                         text=True, check=True).stdout
    code, kib = (int(x) for x in out.split())
    assert code == 0
    return kib * 1024


def test_run_peak_stays_under_the_estimate_and_dump_adds_nothing(tmp_path):
    # 2304 control by 800 antenna nodes, a 975 x 399 operator (1152 nodes a
    # control rule): the run grows by about 21.6 MiB over an import-only
    # child.  Every command releases the matrix to the factorization, so the
    # size guard's estimate bounds the run, and the dump, which assembles the
    # rows again one control rule at a time, peaks about where the run does.
    run = ["-m", "fieldcast", "run", str(PRESETS / "demo-3d.scn"),
           "--epsilon", "0.6", "--nodes", "20,24"]
    base = _child_peak_bytes(["-c", "from fieldcast.blas import loading_single_threaded\n"
                                    "with loading_single_threaded(): import fieldcast.cli"])
    peak = _child_peak_bytes([*run, "--out", str(tmp_path / "run")])
    dump = _child_peak_bytes([*run, "--out", str(tmp_path / "dump"), "--dump-operator"])
    assert peak - base <= factorization_bytes(975, 1152, 800, 399)
    assert dump - peak <= 2 * 2**20
    # One residual path for every command: the bodies above [outputs] agree.
    bodies = [(tmp_path / d / "report.txt").read_text().split("\n[outputs]\n")[0]
              for d in ("run", "dump")]
    assert "residual-region-1: " in bodies[0]
    assert bodies[0] == bodies[1]


# Scenario mutation property: each preset at small node counts and a budget
# it meets, as parsed YAML, mutated at any path of its tree.
SMALL_RUNS = {"demo-2d": ("16,16", "6.5"), "demo-3d": ("4,4", "0.6")}
TREES = {name: yaml.safe_load((PRESETS / f"{name}.scn").read_text()) for name in SMALL_RUNS}


def _paths(node, prefix=()):
    """Every key or index path into a parsed YAML tree."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield prefix + (key,)
            yield from _paths(child, prefix + (key,))


VALUES = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.integers(-3, 40),
                   st.floats(), st.sampled_from([math.nan, math.inf, -math.inf]),
                   st.lists(st.floats(-20.0, 20.0), max_size=4),
                   st.sampled_from([{}, {"kind": "zero"}, {"kind": "constant", "value": 1.0}]))


@st.composite
def mutated_presets(draw):
    """A preset name and 1-3 mutations ``(path, op, value)``: drop the key or
    list item, rename the key, grow the list, or set the value (rename and
    grow fall back to set where there is no key or list)."""
    name = draw(st.sampled_from(sorted(TREES)))
    mutation = st.tuples(st.sampled_from(list(_paths(TREES[name]))),
                         st.sampled_from(["drop", "rename", "grow", "set"]), VALUES)
    return name, draw(st.lists(mutation, min_size=1, max_size=3))


def _mutate(tree, path, op, value):
    *parents, last = path
    node = tree
    for key in parents:
        node = node[key]
    if op == "drop":
        del node[last]
    elif op == "rename" and isinstance(last, str):
        node[last.replace("-", "_") if "-" in last else last + "s"] = node.pop(last)
    elif op == "grow" and isinstance(node[last], list) and node[last]:
        node[last].append(copy.deepcopy(node[last][-1]))
    else:
        node[last] = value


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(mutated_presets())
# The contract holes of the ROADMAP Baseline: unknown keys, a negative seed,
# non-finite numbers and an identically zero target.
@example(("demo-2d", [(("regions", 0, "control_radius"), "set", 2.2),
                      (("bogus",), "set", 1)]))
@example(("demo-2d", [(("seed",), "set", -7)]))
@example(("demo-2d", [(("outer", "field"), "set", {"kind": "constant", "value": math.nan})]))
@example(("demo-2d", [(("regions", 0, "radius"), "set", math.nan)]))
@example(("demo-2d", [(("delta",), "set", math.inf)]))
@example(("demo-2d", [(("regions", 0, "field"), "set", {"kind": "zero"}),
                      (("regions", 1, "field"), "set", {"kind": "zero"})]))
def test_mutated_scenario_exits_with_a_documented_code(case):
    name, mutations = case
    tree = copy.deepcopy(TREES[name])
    for path, op, value in mutations:
        try:
            _mutate(tree, path, op, value)
        except (AttributeError, KeyError, IndexError, TypeError):
            pass                # an earlier mutation removed or retyped the path
    nodes, epsilon = SMALL_RUNS[name]
    with tempfile.TemporaryDirectory() as tmp:
        scn, out = Path(tmp) / "s.scn", Path(tmp) / "out"
        scn.write_text(yaml.safe_dump(tree, sort_keys=False))
        with np.errstate(all="ignore"):     # huge mutated numbers overflow on purpose
            code = main(["run", str(scn), "--out", str(out), "--nodes", nodes,
                         "--epsilon", epsilon])
        assert code in (0, 2, 3, 4, 5)
        if code in (2, 3):
            assert not out.exists()


# Floats whose text is easy to get wrong: both zeros, a NaN with the sign bit
# set, both infinities, subnormals, and the edges of repr's exponent form.
EDGE_FLOATS = [0.0, -0.0, math.copysign(math.nan, -1.0), math.nan, math.inf, -math.inf,
               5e-324, 2.5e-310, 1e16, 1e-5, 9999999999999998.0, 0.0001]


def _table_cells(header, columns):
    """The cells ``write_table`` writes, read back line by line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tsv"
        cli.write_table(path, header, columns)
        lines = path.read_text().split("\n")
    assert lines[:2] == ["format-version: 1", "\t".join(header)]
    assert lines[-1] == ""
    return [line.split("\t") for line in lines[2:-1]]


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(st.lists(st.tuples(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()),
                          st.integers(-2**63, 2**63 - 1)), max_size=30))
@example([(x, k) for k, x in enumerate(EDGE_FLOATS)])
@example([])
def test_write_table_cells_are_reprs(rows):
    # Each row twice, so every value repeats.
    rows = rows + rows
    floats = np.array([x for x, _ in rows], dtype=np.float64)
    ints = np.array([k for _, k in rows], dtype=np.int64)
    labels = tuple(f"row-{i}" for i in range(len(rows)))
    cells = _table_cells(["x", "k", "label"], [floats, ints, labels])
    assert cells == [[repr(float(x)), repr(int(k)), label]
                     for x, k, label in zip(floats, ints, labels)]


def test_write_table_rows_span_blocks():
    n = 2 * cli.TABLE_BLOCK_ROWS + 3
    values = np.linspace(-1.0, 1.0, n)
    # The edge floats end the first block and start the second, so each is
    # formatted in both blocks.
    edge = cli.TABLE_BLOCK_ROWS
    values[edge - len(EDGE_FLOATS): edge + len(EDGE_FLOATS)] = EDGE_FLOATS * 2
    cells = _table_cells(["index", "value"], [np.arange(n), values])
    assert cells == [[str(i), repr(v)] for i, v in enumerate(values.tolist())]


@pytest.mark.parametrize("header, columns, message", [
    (["a", "b"], [np.arange(2), np.array([1.5])], "column 'b' has 1 rows, not 2"),
    (["a", "b"], [np.arange(2), np.array([1.5, 2.5, 3.5])], "column 'b' has 3 rows, not 2"),
    (["a", "b"], [np.arange(2), np.array([1.5, 2.5], dtype=np.float32)],
     "column 'b' is float32, not float64 or int64"),
    (["a", "b", "c"], [np.arange(2), np.arange(2)], "3 column names for 2 columns"),
], ids=["length-1", "longer-than-first", "float32", "names-without-column"])
def test_write_table_rejects_columns_it_cannot_write_as_given(tmp_path, header, columns,
                                                               message):
    path = tmp_path / "t.tsv"
    with pytest.raises(ValueError, match=re.escape(message)):
        cli.write_table(path, header, columns)
    assert not path.exists()


def test_write_table_holds_one_block_of_text():
    def traced_peak(blocks):
        n = blocks * cli.TABLE_BLOCK_ROWS
        columns = [*np.random.default_rng(blocks).normal(size=(4, n)),
                   tuple(("annulus", "exterior", "region-1")[i % 3] for i in range(n))]
        with tempfile.TemporaryDirectory() as tmp:
            tracemalloc.start()
            try:
                cli.write_table(Path(tmp) / "t.tsv", ["a", "b", "c", "d", "label"], columns)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    assert traced_peak(16) < 2 * traced_peak(1)


# One run per delimited output: a 2D and a 3D grid.tsv, each with its
# spectrum.tsv, and a sweep.tsv.
TABLE_RUNS = {
    "grid-2d": ["run", DEMO_2D, "--epsilon", "6.5", "--grid", "24,24"],
    "grid-3d": ["run", str(PRESETS / "demo-3d.scn"), "--epsilon", "0.6", "--grid", "6,6,6"],
    "sweep": ["sweep", DEMO_2D, "--epsilons", "6.0,6.5,7.0,8.0,9.0"],
}


def test_tables_do_not_depend_on_the_block_size(tmp_path, monkeypatch):
    def tables(block_rows):
        monkeypatch.setattr(cli, "TABLE_BLOCK_ROWS", block_rows)
        files = {}
        for name, argv in TABLE_RUNS.items():
            out = tmp_path / f"{name}-{block_rows}"
            assert _run([*argv, "--out", str(out)]) == 0
            files.update({f"{name}/{p.name}": p.read_bytes() for p in out.glob("*.tsv")})
        return files

    default = tables(cli.TABLE_BLOCK_ROWS)
    assert sorted(default) == ["grid-2d/grid.tsv", "grid-2d/spectrum.tsv", "grid-3d/grid.tsv",
                               "grid-3d/spectrum.tsv", "sweep/spectrum.tsv", "sweep/sweep.tsv"]
    assert tables(1) == default
    assert tables(7) == default


class TestSweep:
    def test_epsilon_ladder_energies_nonincreasing(self, tmp_path):
        out = tmp_path / "out"
        code = _run(["sweep", DEMO_2D, "--out", str(out),
                     "--epsilons", "6.0,6.5,7.0,8.0,9.0"])
        assert code == 0
        lines = (out / "sweep.tsv").read_text().splitlines()
        assert lines[0] == "format-version: 1"
        assert lines[1].split("\t") == ["epsilon", "discrepancy", "energy"]
        energies = [float(l.split("\t")[2]) for l in lines[2:]]
        assert energies == sorted(energies, reverse=True)

    def test_alpha_ladder(self, tmp_path):
        out = tmp_path / "out"
        code = _run(["sweep", DEMO_2D, "--out", str(out),
                     "--alphas", "1e-8,1e-6,1e-4,1e-2"])
        assert code == 0
        lines = (out / "sweep.tsv").read_text().splitlines()
        discs = [float(l.split("\t")[1]) for l in lines[2:]]
        assert discs == sorted(discs)

    def test_spectrum_file_row_count(self, tmp_path):
        out = tmp_path / "out"
        assert _run(["sweep", DEMO_2D, "--out", str(out),
                     "--epsilons", "6.5"]) == 0
        rows = (out / "spectrum.tsv").read_text().splitlines()
        assert len(rows) == 2 + 126   # degrees 1 .. 63 of 128 circle nodes

    def test_empty_ladder_is_usage_error(self, tmp_path, capsys):
        code = _run(["sweep", DEMO_2D, "--out", str(tmp_path / "o"),
                     "--epsilons", ""])
        assert code == 2
        assert "empty" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_empty_alpha_ladder_is_usage_error(self, tmp_path, capsys):
        code = _run(["sweep", DEMO_2D, "--out", str(tmp_path / "o"), "--alphas", ""])
        assert code == 2
        assert "empty" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("ladder", [["--alphas", "nan"], ["--alphas", "inf"],
                                        ["--epsilons", "inf"], ["--epsilons", "nan"]])
    def test_non_finite_ladder_is_usage_error(self, tmp_path, capsys, ladder):
        out = tmp_path / "out"
        assert _run(["sweep", DEMO_2D, "--out", str(out), *ladder]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (out / "sweep.tsv").exists()
        assert not (out / "report.txt").exists()
        assert not out.exists()

    @pytest.mark.parametrize("ladder, message", [
        (["--epsilons", "abc"], "could not convert string to float: 'abc'"),
        (["--epsilons", "-1"], "epsilon ladder values must be positive and finite"),
        (["--alphas", ","], "alpha ladder is empty"),
        (["--epsilons", "0.6", "--nodes="], "--nodes expects '<antenna>,<control>', got ''"),
    ], ids=["not-a-number", "negative", "only-commas", "empty-nodes"])
    def test_bad_ladder_is_usage_error_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                        ladder, message):
        monkeypatch.setattr(cli, "build_rules", _never_called)
        out = tmp_path / "out"
        assert _run(["sweep", str(PRESETS / "demo-3d.scn"), "--out", str(out), *ladder]) == 2
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_infeasible_ladder_leaves_no_table(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert _run(["sweep", DEMO_2D, "--out", str(out), "--epsilons", "1.0,7.0"]) == 4
        assert "residual floor" in capsys.readouterr().err
        assert not (out / "sweep.tsv").exists()
        assert not (out / "report.txt").exists()

    def test_report_shares_run_sections(self, tmp_path, capsys):
        run_out, sweep_out = tmp_path / "run", tmp_path / "sweep"
        assert _run(["run", DEMO_2D, "--out", str(run_out), "--nodes", "64,64",
                     "--epsilon", str(FEASIBLE_EPS_2D)]) == 0
        capsys.readouterr()
        assert _run(["sweep", DEMO_2D, "--out", str(sweep_out), "--nodes", "64,64",
                     "--epsilons", "6.5,7.0"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"report: {sweep_out / 'report.txt'}"
        report = (sweep_out / "report.txt").read_text()
        assert re.findall(r"^\[(.*)\]$", report, re.M) == ["scenario", "spectrum", "outputs",
                                                          "timings"]
        assert _section(report, "spectrum") == _section((run_out / "report.txt").read_text(),
                                                        "spectrum")
        assert _section(report, "outputs") == "spectrum: spectrum.tsv\nsweep: sweep.tsv\n"
        timed = [line.split(":")[0] for line in _section(report, "timings").splitlines()]
        assert timed == ["blas-threads", "target-seconds", "assemble-seconds", "svd-seconds",
                         "sweep-seconds"]

    def test_epsilon_is_not_an_abbreviation_of_epsilons(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            _run(["sweep", DEMO_2D, "--out", str(tmp_path / "o"),
                  "--epsilon", "6.5", "--epsilons", "7.0"])
        assert exc.value.code == 2
