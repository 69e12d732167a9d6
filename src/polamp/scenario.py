"""Scenario files: JSON documents describing an analyzer chain.

Schema (angles in degrees, as humans write them)::

    {
      "initial": {"theta_deg": 0, "alpha_deg": 0, "branch": "+"},
      "stages": [{"theta_deg": 45, "alpha_deg": 0}, {"theta_deg": 90}]
    }

A document is the chain alone: the seed and trial count of a run are flags.
One reader (:func:`_read`) applies every object rule, in this order: an
object, no key repeated (e.g. ``stages[1].alpha_deg``), none unknown (e.g.
``stages[1].phi_deg`` or ``seed``), then each key in schema order, one object
after another; a fault is named by its path. ``alpha_deg`` defaults to 0. The
angles and the branch pass the checks of :mod:`polamp.directions`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .directions import Branch, BranchLabel, Direction, check_angle
from .simulate import MeasurementScenario


class ScenarioError(ValueError):
    """Invalid scenario file; the message names the file and key path."""


class _Object(dict):
    """A decoded JSON object; ``json`` alone would keep the last value of a repeated key."""

    duplicate = None


def _unique_keys(pairs: list) -> _Object:
    document = _Object()
    for key, value in pairs:
        if key in document and document.duplicate is None:
            document.duplicate = key
        document[key] = value
    return document


#: The ``default`` of a key that must be present.
_REQUIRED = object()


def _read(value, where: str, keys: dict) -> list:
    """The values of object ``value``'s keys, named by their paths from ``where``.

    ``keys`` maps each allowed key to ``(check, default)``. ``value`` must be an object
    with no key repeated and none unknown. Then, in the order of ``keys``, each key's value
    is ``check(value, path)``, or its ``default`` if it is absent; a check's ``ValueError``
    is a :class:`ScenarioError`.
    """
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}: expected an object, got {type(value).__name__}")
    duplicate = getattr(value, "duplicate", None)  # a document decoded elsewhere has none
    if duplicate is not None:
        raise ScenarioError(f"{where}.{duplicate}: duplicate key")
    for key in value:
        if key not in keys:
            raise ScenarioError(f"{where}.{key}: unknown key")
    values = []
    for key, (check, default) in keys.items():
        if key not in value and default is _REQUIRED:  # a present null is checked, and rejected
            raise ScenarioError(f"{where}.{key}: missing required key")
        try:
            values.append(check(value[key], f"{where}.{key}") if key in value else default)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
    return values


#: The keys of a stage; the initial object has a branch too.
_ANGLES = {"theta_deg": (check_angle, _REQUIRED), "alpha_deg": (check_angle, 0.0)}
_INITIAL = {**_ANGLES, "branch": (Branch.from_token, _REQUIRED)}


def _direction(value, where: str, keys: dict = _ANGLES) -> list:
    """The direction of object ``value``, then the values of its keys after the angles."""
    theta, alpha, *rest = _read(value, where, keys)  # degrees, bounded as radians are
    return [Direction(math.radians(theta), math.radians(alpha)), *rest]


def _initial(value, where: str) -> BranchLabel:
    return BranchLabel(*_direction(value, where, _INITIAL))


def _stages(value, where: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"{where}: expected a non-empty list")
    return tuple(_direction(stage, f"{where}[{k}]")[0] for k, stage in enumerate(value))


def parse_scenario(document: dict) -> MeasurementScenario:
    """Validate a decoded scenario document; diagnostics start ``scenario.``."""
    keys = {"initial": (_initial, _REQUIRED), "stages": (_stages, _REQUIRED)}
    return MeasurementScenario(*_read(document, "scenario", keys))


def load_scenario_file(path: str | Path) -> MeasurementScenario:
    """Read and validate a scenario file; diagnostics name the file."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc.strerror or exc}") from None
    try:
        document = json.loads(data, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except (RecursionError, ValueError) as exc:
        # nesting deeper than the decoder's recursion limit, bytes that are
        # not UTF-8, or an integer literal longer than Python converts
        raise ScenarioError(f"{path}: {exc}") from None
    try:
        return parse_scenario(document)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
