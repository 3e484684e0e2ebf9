"""Scenario file parsing: schema, defaults, and error reporting."""

import importlib
from pathlib import Path

import pytest
import yaml

from conftest import load_preset
from fieldcast import ScenarioFormatError, parse_scenario

ROOT = Path(__file__).resolve().parent.parent

GOOD = """\
format-version: 1
dim: 2
delta: 1.0
epsilon: auto
seed: 7
discretization: {antenna: 64, control: 64}
regions:
  - center: [0.0, 12.0]
    radius: 2.0
    field: {kind: log-source, location: [0.0, 0.0]}
  - center: [10.0, 0.0]
    radius: 2.0
    control-radius: 2.75
    field: {kind: dipole, location: [0.0, 0.0], direction: [1.0, 0.0]}
outer:
  observation-radius: 15.0
  field: {kind: zero}
"""


def test_parse_good_scenario():
    s = parse_scenario(GOOD)
    assert s.dim == 2 and s.delta == 1.0 and s.seed == 7
    assert s.epsilon == "auto"
    assert s.discretization.antenna == 64
    # Explicit control radius kept, missing one defaulted.
    assert s.regions[1].control_radius == 2.75
    assert s.regions[0].control_radius is not None
    assert s.outer_control_radius is not None
    assert s.regions[0].target.kind == "log-source"


def test_syntax_error_cites_line():
    with pytest.raises(ScenarioFormatError, match="line"):
        parse_scenario("format-version: 1\ndim: [2\n")


def test_missing_field_cites_path():
    bad = GOOD.replace("    radius: 2.0\n", "", 1)
    with pytest.raises(ScenarioFormatError, match=r"regions\[0\]\.radius"):
        parse_scenario(bad)


def test_wrong_type_cites_field():
    with pytest.raises(ScenarioFormatError, match="delta"):
        parse_scenario(GOOD.replace("delta: 1.0", "delta: wide"))


def test_unknown_field_kind_rejected():
    with pytest.raises(ScenarioFormatError, match="kind"):
        parse_scenario(GOOD.replace("kind: zero", "kind: vortex"))


def test_format_version_checked():
    with pytest.raises(ScenarioFormatError, match="format-version"):
        parse_scenario(GOOD.replace("format-version: 1", "format-version: 2"))


def test_harmonic_polynomial_field_parses():
    text = GOOD.replace(
        "field: {kind: zero}",
        "field: {kind: harmonic-polynomial, terms: [{powers: [2, 0], coeff: 1.0}, "
        "{powers: [0, 2], coeff: -1.0}]}",
    )
    s = parse_scenario(text)
    assert s.exterior_target.kind == "polynomial"


def test_non_harmonic_polynomial_rejected():
    text = GOOD.replace(
        "field: {kind: zero}",
        "field: {kind: harmonic-polynomial, terms: [{powers: [2, 0], coeff: 1.0}]}",
    )
    with pytest.raises(ScenarioFormatError, match="harmonic"):
        parse_scenario(text)


def test_missing_discretization_sizes_the_antenna_from_the_geometry():
    # The nearest control sphere is region 2's: rho = 10 - 2.75 = 7.25, so
    # L* = ceil(ln 1e-12 / ln(1 / 7.25)) = 14; its 15 degrees round up to
    # 16 and the antenna gets 32 nodes.
    s = parse_scenario(GOOD.replace("discretization: {antenna: 64, control: 64}\n", ""))
    assert (s.discretization.antenna, s.discretization.control) == (32, 128)


@pytest.mark.parametrize("old, new, path", [
    ("delta: 1.0", "delta: .nan", "delta"),
    ("delta: 1.0", "delta: 1" + "0" * 400, "delta"),
    ("epsilon: auto", "epsilon: .inf", "epsilon"),
    ("radius: 2.0", "radius: -.inf", r"regions\[0\]\.radius"),
    ("center: [0.0, 12.0]", "center: [.nan, 12.0]", r"regions\[0\]\.center\[0\]"),
    ("control-radius: 2.75", "control-radius: .nan", r"regions\[1\]\.control-radius"),
    ("observation-radius: 15.0", "observation-radius: .inf", "outer.observation-radius"),
    ("{kind: zero}", "{kind: constant, value: .nan}", r"outer\.field\.value"),
], ids=["nan-delta", "huge-delta", "inf-epsilon", "inf-radius", "nan-center", "nan-control-radius",
        "inf-observation", "nan-constant"])
def test_non_finite_number_cites_its_field(old, new, path):
    assert old in GOOD
    with pytest.raises(ScenarioFormatError, match=rf"'{path}': expected a finite number"):
        parse_scenario(GOOD.replace(old, new, 1))


def test_negative_seed_rejected():
    with pytest.raises(ScenarioFormatError, match="'seed': expected a non-negative integer"):
        parse_scenario(GOOD.replace("seed: 7", "seed: -7"))


POLY = ("{kind: harmonic-polynomial, terms: [{powers: [1, 0], coeff: 1.0}, "
        "{powers: [0, 1], coeff: 2.0, power: 3}]}")


@pytest.mark.parametrize("old, new, message", [
    ("seed: 7", "seed: 7\nbogus: 1",
     "scenario: unknown key 'bogus' (allowed: format-version, dim, delta, epsilon, seed, "
     "discretization, regions, outer)"),
    ("{antenna: 64, control: 64}", "{antenna: 64, control: 64, outer: 64}",
     "discretization: unknown key 'outer' (allowed: antenna, control)"),
    ("    radius: 2.0\n    field: {kind: log", "    radius: 2.0\n    control_radius: 2.2\n"
     "    field: {kind: log",
     "regions[0]: unknown key 'control_radius' (allowed: center, radius, control-radius, field)"),
    ("  observation-radius: 15.0", "  observation-radius: 15.0\n  radius: 15.0",
     "outer: unknown key 'radius' (allowed: observation-radius, control-radius, field)"),
    ("{kind: zero}", "{kind: zero, value: 0.0}",
     "outer.field: unknown key 'value' (allowed: kind)"),
    ("location: [0.0, 0.0], direction", "location: [0.0, 0.0], strength: 2.0, direction",
     "regions[1].field: unknown key 'strength' (allowed: kind, location, direction)"),
    ("{kind: zero}", POLY,
     "outer.field.terms[1]: unknown key 'power' (allowed: powers, coeff)"),
], ids=["top-level", "discretization", "region", "outer", "zero-field", "dipole-field",
        "polynomial-term"])
def test_unknown_key_names_its_path_and_the_allowed_keys(old, new, message):
    # A misspelt optional key would otherwise be dropped and its default used.
    assert old in GOOD
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(GOOD.replace(old, new, 1))
    assert str(info.value) == message


@pytest.mark.parametrize("old, new, message", [
    ("discretization: {antenna: 64, control: 64}", "discretization: ~",
     "scenario field 'discretization': expected a mapping, got NoneType"),
    ("control-radius: 2.75", "control-radius: ~",
     "scenario field 'regions[1].control-radius': expected a number, got None"),
    ("  observation-radius: 15.0\n", "  observation-radius: 15.0\n  control-radius: ~\n",
     "scenario field 'outer.control-radius': expected a number, got None"),
], ids=["discretization", "region-control-radius", "outer-control-radius"])
def test_explicit_null_is_not_an_absent_key(old, new, message):
    # Only an absent optional key takes its default.
    assert old in GOOD
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(GOOD.replace(old, new, 1))
    assert str(info.value) == message


@pytest.mark.parametrize("faults, message", [
    ([("seed: 7", "bogus: 1"), ("dim: 2\n", ""), ("delta: 1.0", "delta: wide")],
     "scenario: unknown key 'bogus'"),
    ([("format-version: 1", "format-version: 2"), ("epsilon: auto\n", "")],
     "scenario field 'epsilon': missing"),
    ([("format-version: 1", "format-version: 2"), ("delta: 1.0", "delta: wide")],
     "scenario field 'format-version': expected 1, got 2"),
    ([("delta: 1.0", "delta: wide"), ("observation-radius: 15.0\n", "")],
     "scenario field 'delta': expected a number"),
    ([("{kind: zero}", "{location: [0.0, 0.0]}")], "scenario field 'outer.field.kind': missing"),
], ids=["unknown-first", "then-missing", "then-values-in-order", "nested-mapping-is-one-value",
        "kind-before-other-keys"])
def test_several_faults_report_in_schema_order(faults, message):
    # An unknown key, then a missing key, then the values in schema order,
    # where a nested mapping's faults are those of one value.
    text = GOOD
    for old, new in faults:
        assert old in text
        text = text.replace(old, new, 1)
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(text)
    assert str(info.value).startswith(message)


def test_merged_key_may_be_overridden():
    # Repeated keys are rejected, but a YAML merge's own keys override the
    # merged ones.
    text = GOOD.replace("field: {kind: log-source", "field: &log {kind: log-source")
    text = text.replace("{kind: dipole, location: [0.0, 0.0], direction: [1.0, 0.0]}",
                        "{<<: *log, location: [1.0, 0.0]}")
    target = parse_scenario(text).regions[1].target
    assert target.kind == "log-source" and list(target.singularity) == [1.0, 0.0]


@pytest.mark.parametrize("name", ["demo-2d", "demo-3d"])
def test_presets_parse(name):
    assert load_preset(name).regions


def test_benchmark_scenarios_parse(monkeypatch):
    # Every document the benchmark generates, ids 0..95 of each workload's
    # shape (the benchmark's modules are read, not changed).
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    scenarios = importlib.import_module("scenarios")
    for workload in workloads.WORKLOADS.values():
        for scenario_id in range(workloads.POOL):
            doc = scenarios.generate(workload.shape, scenario_id)
            parse_scenario(yaml.safe_dump(doc, sort_keys=False))
