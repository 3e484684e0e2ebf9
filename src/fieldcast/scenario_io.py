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
unnoticed; nor can a repeated key, which YAML would let override the first,
nor an explicit null: only an absent optional key takes its default.  Each
field kind takes ``kind`` and the keys ``_KINDS`` lists for it.  Errors cite
the offending line (syntax, repeated keys) or field path (schema).  In a
mapping with several faults the first reported is an unknown key, then a
missing key, then a bad value in schema order (a field's ``kind`` first).
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


def _entries(raw, path: str, keys: tuple[str, ...], optional: tuple[str, ...] = ()) -> list:
    """The entries of the mapping ``raw`` at ``path`` (``""`` at top level):
    one ``(value, path)`` pair per key of ``keys``, in that order, or None
    for an absent optional key.  A present null is a value like any other,
    for its parser to reject."""
    if not isinstance(raw, dict):
        _fail(path, f"expected a mapping, got {type(raw).__name__}")
    for key in raw:
        if key not in keys:
            raise ScenarioFormatError(
                f"{path or 'scenario'}: unknown key {key!r} (allowed: {', '.join(keys)})")
    entries = []
    for key in keys:
        where = f"{path}.{key}" if path else key
        if key not in raw and key not in optional:
            _fail(where, "missing")
        entries.append((raw[key], where) if key in raw else None)
    return entries


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


def _terms(value, path, dim) -> dict[tuple[int, ...], float]:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty list of terms")
    terms = {}
    for i, term in enumerate(value):
        (powers, where), coeff = _entries(term, f"{path}[{i}]", ("powers", "coeff"))
        if not isinstance(powers, list) or len(powers) != dim:
            _fail(where, f"expected {dim} integers")
        powers = tuple(_integer(p, where) for p in powers)
        terms[powers] = _number(*coeff)
    return terms


# The parser of each field key, and each field kind's constructor with the
# keys it takes besides ``kind``, in the constructor's argument order.
_FIELD_VALUES = {"value": lambda value, path, dim: _number(value, path), "location": _point,
                 "direction": _point, "terms": _terms}
_KINDS = {
    "zero": (zero_field, ()),
    "constant": (constant_field, ("value",)),
    "log-source": (log_source, ("location",)),
    "point-source": (point_source, ("location",)),
    "dipole": (dipole, ("location", "direction")),
    # Every term's powers have length dim, and there is at least one term.
    "harmonic-polynomial": (lambda terms: harmonic_polynomial(terms, len(next(iter(terms)))),
                            ("terms",)),
}


def _field(raw, path, dim) -> HarmonicField:
    # The kind names the other keys, so it is checked before any of them.
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if isinstance(raw, dict) and not (isinstance(kind, str) and kind in _KINDS):
        _fail(f"{path}.kind", f"unknown field kind {kind!r}" if "kind" in raw else "missing")
    make, keys = _KINDS.get(kind, (None, ()))
    _, *entries = _entries(raw, path, ("kind", *keys))
    values = [_FIELD_VALUES[key](*entry, dim) for key, entry in zip(keys, entries)]
    try:
        return make(*values)
    except ValueError as exc:
        _fail(path, str(exc))


def _region(raw, path, dim) -> Region:
    center, radius, control, field = _entries(
        raw, path, ("center", "radius", "control-radius", "field"), optional=("control-radius",))
    return Region(center=_point(*center, dim), radius=_number(*radius),
                  control_radius=None if control is None else _number(*control),
                  target=_field(*field, dim))


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
    version, dim, delta, epsilon, seed, disc, regions, outer = _entries(
        raw, "", ("format-version", "dim", "delta", "epsilon", "seed", "discretization",
                  "regions", "outer"), optional=("seed", "discretization"))

    if version[0] != FORMAT_VERSION:
        _fail(version[1], f"expected {FORMAT_VERSION}, got {version[0]!r}")
    dim = _integer(*dim)
    if dim not in (2, 3):
        _fail("dim", f"must be 2 or 3, got {dim}")
    delta = _number(*delta)
    epsilon = "auto" if epsilon[0] == "auto" else _number(*epsilon)
    seed = _integer(*seed) if seed else 0
    if seed < 0:
        _fail("seed", f"expected a non-negative integer, got {seed}")
    if disc:
        disc = Discretization(*(_integer(*e) for e in _entries(*disc, ("antenna", "control"))))

    regions_raw, where = regions
    if not isinstance(regions_raw, list) or not regions_raw:
        _fail(where, "expected a nonempty list")
    regions = tuple(_region(reg, f"{where}[{i}]", dim) for i, reg in enumerate(regions_raw))

    observation, outer_control, exterior = _entries(
        *outer, ("observation-radius", "control-radius", "field"), optional=("control-radius",))
    scenario = Scenario(
        dim=dim,
        delta=delta,
        regions=regions,
        observation_radius=_number(*observation),
        outer_control_radius=None if outer_control is None else _number(*outer_control),
        exterior_target=_field(*exterior, dim),
        epsilon=epsilon,
        discretization=disc,
        seed=seed,
    )
    return with_defaults(scenario)


def load_scenario(path) -> Scenario:
    """Load and parse a scenario file.  YAML's reader decodes its bytes, so a
    file that is not UTF-8 (or UTF-16 with a byte-order mark) is a format error."""
    with open(path, "rb") as fh:
        return parse_scenario(fh.read())
