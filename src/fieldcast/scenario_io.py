"""Scenario files: YAML documents carrying exactly the Scenario fields.

Schema (see README for the full description)::

    format-version: 1
    dim: 2
    delta: 1.0
    epsilon: auto            # or a positive number
    seed: 7                  # a non-negative integer; optional, 0 when absent
    discretization: {antenna: 128, control: 128}   # optional; see below
    regions:
      - center: [0.0, 12.0]
        radius: 2.0
        control-radius: 2.5  # optional; defaulted when absent
        field: {kind: log-source, location: [0.0, 0.0]}
    outer:
      observation-radius: 15.0
      control-radius: 14.75  # optional; defaulted when absent
      field: {kind: zero}

Without ``discretization`` the antenna count is read off the geometry and
the control count is the default (:func:`fieldcast.geometry.with_defaults`);
given counts are kept.  Every number must be finite.  A key the schema does
not list, at any level, is an error naming its path and the allowed keys, so
a misspelt optional key (``control_radius``) cannot fall back to its default
unnoticed; nor can a repeated key, which YAML would let override the
first.  Each field kind takes ``kind`` and the keys of ``FIELD_KEYS``.
Parse errors cite the offending line (syntax, repeated keys) or field path
(schema).
"""

from __future__ import annotations

import sys
from collections.abc import Hashable

import yaml

from .fields import (
    HarmonicField,
    constant_field,
    dipole,
    harmonic_polynomial,
    log_source,
    point_source,
    zero_field,
)
from .geometry import Discretization, Region, Scenario, with_defaults

FORMAT_VERSION = 1

# The keys each field kind takes.
FIELD_KEYS = {
    "zero": ("kind",),
    "constant": ("kind", "value"),
    "log-source": ("kind", "location"),
    "point-source": ("kind", "location"),
    "dipole": ("kind", "location", "direction"),
    "harmonic-polynomial": ("kind", "terms"),
}


class ScenarioFormatError(ValueError):
    """A scenario file is syntactically or structurally invalid."""


class _UniqueKeyLoader(yaml.SafeLoader):
    """The safe loader, except that a key repeated in one mapping is an error
    (PyYAML would keep the last value)."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue            # merged keys may be overridden
            key = self.construct_object(key_node, deep=deep)
            if not isinstance(key, Hashable):
                continue            # the safe loader rejects it
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"found repeated key {key!r}", key_node.start_mark)
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def _fail(path: str, message: str):
    raise ScenarioFormatError(f"scenario field '{path}': {message}")


def _check_keys(mapping, allowed, path):
    """Reject any key of ``mapping`` that is not in ``allowed``; a value that
    is not a mapping is left for :func:`_get` to report."""
    if not isinstance(mapping, dict):
        return
    for key in mapping:
        if key not in allowed:
            raise ScenarioFormatError(
                f"{path}: unknown key {key!r} (allowed: {', '.join(allowed)})")


def _get(mapping, key, path, required=True, default=None):
    if not isinstance(mapping, dict):
        _fail(path or key, f"expected a mapping, got {type(mapping).__name__}")
    if key not in mapping:
        if required:
            _fail(f"{path}.{key}" if path else key, "missing")
        return default
    return mapping[key]

def _number(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        _fail(path, f"expected a finite number, got {value!r}")
    return float(value)


def _integer(value, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _point(value, path, dim) -> list[float]:
    if not isinstance(value, list) or len(value) != dim:
        _fail(path, f"expected a list of {dim} numbers, got {value!r}")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _parse_field(raw, path, dim) -> HarmonicField:
    kind = _get(raw, "kind", path)
    if not isinstance(kind, str) or kind not in FIELD_KEYS:
        _fail(f"{path}.kind", f"unknown field kind {kind!r}")
    _check_keys(raw, FIELD_KEYS[kind], path)
    try:
        if kind == "zero":
            return zero_field()
        if kind == "constant":
            return constant_field(_number(_get(raw, "value", path), f"{path}.value"))
        if kind == "log-source":
            return log_source(_point(_get(raw, "location", path), f"{path}.location", dim))
        if kind == "point-source":
            return point_source(_point(_get(raw, "location", path), f"{path}.location", dim))
        if kind == "dipole":
            return dipole(
                _point(_get(raw, "location", path), f"{path}.location", dim),
                _point(_get(raw, "direction", path), f"{path}.direction", dim),
            )
        if kind == "harmonic-polynomial":
            terms_raw = _get(raw, "terms", path)
            if not isinstance(terms_raw, list) or not terms_raw:
                _fail(f"{path}.terms", "expected a nonempty list of terms")
            terms = {}
            for i, term in enumerate(terms_raw):
                _check_keys(term, ("powers", "coeff"), f"{path}.terms[{i}]")
                powers = _get(term, "powers", f"{path}.terms[{i}]")
                coeff = _number(_get(term, "coeff", f"{path}.terms[{i}]"),
                                f"{path}.terms[{i}].coeff")
                if not isinstance(powers, list) or len(powers) != dim:
                    _fail(f"{path}.terms[{i}].powers", f"expected {dim} integers")
                terms[tuple(_integer(p, f"{path}.terms[{i}].powers") for p in powers)] = coeff
            return harmonic_polynomial(terms, dim)
    except ScenarioFormatError:
        raise
    except ValueError as exc:
        _fail(path, str(exc))


def parse_scenario(text: str | bytes) -> Scenario:
    """Parse scenario YAML text; control radii and node counts are defaulted
    when absent (:func:`fieldcast.geometry.with_defaults`)."""
    try:
        raw = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ScenarioFormatError(f"scenario is not valid YAML{where}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioFormatError("scenario must be a YAML mapping at top level")
    _check_keys(raw, ("format-version", "dim", "delta", "epsilon", "seed", "discretization",
                      "regions", "outer"), "scenario")

    version = _get(raw, "format-version", "")
    if version != FORMAT_VERSION:
        _fail("format-version", f"expected {FORMAT_VERSION}, got {version!r}")

    dim = _integer(_get(raw, "dim", ""), "dim")
    if dim not in (2, 3):
        _fail("dim", f"must be 2 or 3, got {dim}")
    delta = _number(_get(raw, "delta", ""), "delta")

    eps_raw = _get(raw, "epsilon", "")
    if eps_raw == "auto":
        epsilon: float | str = "auto"
    else:
        epsilon = _number(eps_raw, "epsilon")

    seed = _integer(_get(raw, "seed", "", required=False, default=0), "seed")
    if seed < 0:
        _fail("seed", f"expected a non-negative integer, got {seed}")

    disc = None
    disc_raw = _get(raw, "discretization", "", required=False)
    if disc_raw is not None:
        _check_keys(disc_raw, ("antenna", "control"), "discretization")
        antenna = _integer(_get(disc_raw, "antenna", "discretization"), "discretization.antenna")
        control = _integer(_get(disc_raw, "control", "discretization"), "discretization.control")
        disc = Discretization(antenna, control)

    regions_raw = _get(raw, "regions", "")
    if not isinstance(regions_raw, list) or not regions_raw:
        _fail("regions", "expected a nonempty list")
    regions = []
    for i, reg in enumerate(regions_raw):
        path = f"regions[{i}]"
        _check_keys(reg, ("center", "radius", "control-radius", "field"), path)
        control_radius = _get(reg, "control-radius", path, required=False)
        regions.append(
            Region(
                center=_point(_get(reg, "center", path), f"{path}.center", dim),
                radius=_number(_get(reg, "radius", path), f"{path}.radius"),
                control_radius=None if control_radius is None
                else _number(control_radius, f"{path}.control-radius"),
                target=_parse_field(_get(reg, "field", path), f"{path}.field", dim),
            )
        )

    outer_raw = _get(raw, "outer", "")
    _check_keys(outer_raw, ("observation-radius", "control-radius", "field"), "outer")
    observation = _number(_get(outer_raw, "observation-radius", "outer"),
                          "outer.observation-radius")
    outer_control = _get(outer_raw, "control-radius", "outer", required=False)

    scenario = Scenario(
        dim=dim,
        delta=delta,
        regions=tuple(regions),
        observation_radius=observation,
        exterior_target=_parse_field(_get(outer_raw, "field", "outer"), "outer.field", dim),
        epsilon=epsilon,
        outer_control_radius=None if outer_control is None
        else _number(outer_control, "outer.control-radius"),
        discretization=disc,
        seed=seed,
    )
    return with_defaults(scenario)


def load_scenario(path) -> Scenario:
    """Load and parse a scenario file.  YAML's reader decodes its bytes, so a
    file that is not UTF-8 (or UTF-16 with a byte-order mark) is a format error."""
    with open(path, "rb") as fh:
        return parse_scenario(fh.read())

