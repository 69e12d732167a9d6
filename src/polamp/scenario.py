"""Scenario files: JSON documents describing an analyzer chain.

Schema (angles in degrees, as humans write them)::

    {
      "initial": {"theta_deg": 0, "alpha_deg": 0, "branch": "+"},
      "stages": [{"theta_deg": 45, "alpha_deg": 0}, {"theta_deg": 90}]
    }

A document is the chain alone: the seed and trial count of a run are flags.
Unknown keys are rejected by path, e.g. ``stages[1].phi_deg`` or ``seed``,
and so is a key repeated in one object, e.g. ``stages[1].alpha_deg``.
``alpha_deg`` defaults to 0. The angles and the branch pass the checks of
:mod:`polamp.directions`, named by their path.
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


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}: expected an object, got {type(value).__name__}")
    duplicate = getattr(value, "duplicate", None)  # a document decoded elsewhere has none
    if duplicate is not None:
        raise ScenarioError(f"{where}.{duplicate}: duplicate key")
    return value


def _reject_unknown(mapping: dict, allowed: set[str], where: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ScenarioError(f"{where}.{key}: unknown key")


#: The ``default`` of a key that must be present.
_REQUIRED = object()


def _checked(mapping: dict, key: str, where: str, check, default=_REQUIRED):
    """``mapping[key]`` through ``check``, named by its path; ``default`` if absent."""
    if key not in mapping:  # a present null is checked, and rejected
        if default is _REQUIRED:
            raise ScenarioError(f"{where}.{key}: missing required key")
        return default
    try:
        return check(mapping[key], f"{where}.{key}")
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def _direction(mapping: dict, where: str, extra: frozenset = frozenset()) -> Direction:
    """The direction of ``mapping``, whose keys besides the angles are ``extra``."""
    _require_mapping(mapping, where)
    _reject_unknown(mapping, {"theta_deg", "alpha_deg"} | extra, where)
    theta = _checked(mapping, "theta_deg", where, check_angle)  # degrees, bounded as radians are
    alpha = _checked(mapping, "alpha_deg", where, check_angle, default=0.0)
    return Direction(math.radians(theta), math.radians(alpha))


def parse_scenario(document: dict) -> MeasurementScenario:
    """Validate a decoded scenario document; diagnostics start ``scenario.``."""
    where = "scenario"
    _require_mapping(document, where)
    _reject_unknown(document, {"initial", "stages"}, where)

    if "initial" not in document:
        raise ScenarioError(f"{where}.initial: missing required key")
    initial_map = document["initial"]
    direction = _direction(initial_map, f"{where}.initial", extra=frozenset({"branch"}))
    branch = _checked(initial_map, "branch", f"{where}.initial", Branch.from_token)
    initial = BranchLabel(direction, branch)

    if "stages" not in document:
        raise ScenarioError(f"{where}.stages: missing required key")
    stages_raw = document["stages"]
    if not isinstance(stages_raw, list) or not stages_raw:
        raise ScenarioError(f"{where}.stages: expected a non-empty list")
    stages = tuple(
        _direction(stage, f"{where}.stages[{k}]") for k, stage in enumerate(stages_raw)
    )
    return MeasurementScenario(initial, stages)


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
