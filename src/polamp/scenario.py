"""Scenario files: JSON documents describing an analyzer chain.

Schema (angles in degrees, as humans write them)::

    {
      "initial": {"theta_deg": 0, "alpha_deg": 0, "branch": "+"},
      "stages": [{"theta_deg": 45, "alpha_deg": 0}, {"theta_deg": 90}],
      "seed": 42,          // optional
      "trials": 1000000    // optional
    }

Unknown keys are rejected by path, e.g. ``stages[1].phi_deg``, and a
repeated key by name at any depth. ``alpha_deg`` defaults to 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .directions import Branch, BranchLabel, Direction
from .simulate import MeasurementScenario


class ScenarioError(ValueError):
    """Invalid scenario file; the message names the file and key path."""


@dataclass(frozen=True)
class ScenarioFile:
    scenario: MeasurementScenario
    seed: int | None = None
    trials: int | None = None


def _unique_keys(pairs: list) -> dict:
    """A decoded JSON object; ``json`` alone would keep the last value of a repeated key."""
    document = {}
    for key, value in pairs:
        if key in document:
            raise ScenarioError(f"duplicate key {key!r}")
        document[key] = value
    return document


def _shown(value) -> str:
    """``value`` for a diagnostic; a list or object is named by its type only."""
    return type(value).__name__ if isinstance(value, (dict, list)) else repr(value)


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: dict, allowed: set[str], where: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ScenarioError(f"{where}.{key}: unknown key")


def _number(mapping: dict, key: str, where: str, default=None) -> float:
    if key not in mapping:
        if default is not None:
            return default
        raise ScenarioError(f"{where}.{key}: missing required key")
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}.{key}: expected a number, got {_shown(value)}")
    try:
        number = float(value)
    except OverflowError:
        raise ScenarioError(f"{where}.{key}: integer too large for a float") from None
    if not math.isfinite(number):
        raise ScenarioError(f"{where}.{key}: must be finite, got {value!r}")
    return number


def _integer(mapping: dict, key: str, where: str, low: int, high: int, what: str) -> int | None:
    """``mapping[key]``, an integer in ``[low, high)`` described as ``what``; None if absent."""
    if key not in mapping:  # a present null is no integer
        return None
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value < high:
        raise ScenarioError(f"{where}.{key}: expected {what}, got {_shown(value)}")
    return value


def _direction(mapping: dict, where: str, extra: frozenset = frozenset()) -> Direction:
    """The direction of ``mapping``, whose keys besides the angles are ``extra``."""
    _require_mapping(mapping, where)
    _reject_unknown(mapping, {"theta_deg", "alpha_deg"} | extra, where)
    theta = _number(mapping, "theta_deg", where)
    alpha = _number(mapping, "alpha_deg", where, default=0.0)
    return Direction(math.radians(theta), math.radians(alpha))


def parse_scenario(document: dict) -> ScenarioFile:
    """Validate a decoded scenario document; diagnostics start ``scenario.``."""
    where = "scenario"
    _require_mapping(document, where)
    _reject_unknown(document, {"initial", "stages", "seed", "trials"}, where)

    if "initial" not in document:
        raise ScenarioError(f"{where}.initial: missing required key")
    initial_map = document["initial"]
    direction = _direction(initial_map, f"{where}.initial", extra=frozenset({"branch"}))
    if "branch" not in initial_map:
        raise ScenarioError(f"{where}.initial.branch: missing required key")
    token = initial_map["branch"]
    if not isinstance(token, str):
        raise ScenarioError(f"{where}.initial.branch: expected '+' or '-', got {_shown(token)}")
    try:
        branch = Branch.from_token(token)
    except ValueError as exc:
        raise ScenarioError(f"{where}.initial.branch: {exc}") from None
    initial = BranchLabel(direction, branch)

    if "stages" not in document:
        raise ScenarioError(f"{where}.stages: missing required key")
    stages_raw = document["stages"]
    if not isinstance(stages_raw, list) or not stages_raw:
        raise ScenarioError(f"{where}.stages: expected a non-empty list")
    stages = tuple(
        _direction(stage, f"{where}.stages[{k}]") for k, stage in enumerate(stages_raw)
    )

    seed = _integer(document, "seed", where, 0, 2**64, "an unsigned 64-bit integer")
    trials = _integer(document, "trials", where, 1, 2**63, "a positive integer below 2**63")
    return ScenarioFile(MeasurementScenario(initial, stages), seed=seed, trials=trials)


def load_scenario_file(path: str | Path) -> ScenarioFile:
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
        # not UTF-8, an integer literal longer than Python converts, or a
        # repeated key (a ScenarioError from ``_unique_keys``)
        raise ScenarioError(f"{path}: {exc}") from None
    try:
        return parse_scenario(document)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
