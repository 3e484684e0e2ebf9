"""Scenario file parsing: schema, defaults, and error reporting."""

from pathlib import Path

import numpy as np
import pytest

from fieldcast import ScenarioFormatError, load_scenario, parse_scenario, save_scenario
from fieldcast.presets import make_demo_2d, make_demo_3d

PRESETS = Path(__file__).resolve().parent.parent / "presets"

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


def test_round_trip(tmp_path):
    s = make_demo_2d()
    path = tmp_path / "demo.scn"
    save_scenario(s, path)
    loaded = load_scenario(path)
    assert loaded.dim == s.dim
    assert loaded.epsilon == s.epsilon
    assert loaded.outer_control_radius == pytest.approx(s.outer_control_radius, rel=1e-15)
    for a, b in zip(loaded.regions, s.regions):
        assert np.allclose(a.center, b.center)
        assert a.radius == b.radius
        assert a.control_radius == pytest.approx(b.control_radius, rel=1e-15)
        assert a.target == b.target


@pytest.mark.parametrize("name, make", [("demo-2d", make_demo_2d), ("demo-3d", make_demo_3d)])
def test_preset_file_and_function_agree(tmp_path, name, make):
    from_file, from_code = tmp_path / "file.scn", tmp_path / "code.scn"
    save_scenario(load_scenario(PRESETS / f"{name}.scn"), from_file)
    save_scenario(make(), from_code)
    assert from_file.read_text() == from_code.read_text()
