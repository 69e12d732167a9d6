"""Scenario files: JSON documents describing an analyzer chain.

Schema (angles in degrees, as humans write them)::

    {
      "initial": {"theta_deg": 0, "alpha_deg": 0, "branch": "+"},
      "stages": [{"theta_deg": 45, "alpha_deg": 0}, {"theta_deg": 90}],
      "seed": 42,          // optional
      "trials": 1000000    // optional
    }

Unknown keys are rejected by path, e.g. ``stages[1].phi_deg``, and so is
a key repeated in one object, e.g. ``stages[1].alpha_deg``. ``alpha_deg``
defaults to 0. ``seed`` and ``trials`` pass the checks of
:mod:`polamp.directions`, named by their path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .directions import Branch, BranchLabel, Direction, check_angle, check_count, check_seed
from .simulate import MeasurementScenario


class ScenarioError(ValueError):
    """Invalid scenario file; the message names the file and key path."""


@dataclass(frozen=True)
class ScenarioFile:
    scenario: MeasurementScenario
    seed: int | None = None
    trials: int | None = None


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


def _checked(mapping: dict, key: str, where: str, check, default=None):
    """``mapping[key]`` through ``check``, named by its path; ``default`` if absent."""
    if key not in mapping:  # a present null is checked, and rejected
        return default
    try:
        return check(mapping[key], f"{where}.{key}")
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def _direction(mapping: dict, where: str, extra: frozenset = frozenset()) -> Direction:
    """The direction of ``mapping``, whose keys besides the angles are ``extra``."""
    _require_mapping(mapping, where)
    _reject_unknown(mapping, {"theta_deg", "alpha_deg"} | extra, where)
    if "theta_deg" not in mapping:
        raise ScenarioError(f"{where}.theta_deg: missing required key")
    theta = _checked(mapping, "theta_deg", where, check_angle)  # degrees, bounded as radians are
    alpha = _checked(mapping, "alpha_deg", where, check_angle, default=0.0)
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
    try:
        branch = Branch.from_token(initial_map["branch"])
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

    seed = _checked(document, "seed", where, check_seed)
    trials = _checked(document, "trials", where, check_count)
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
        # not UTF-8, or an integer literal longer than Python converts
        raise ScenarioError(f"{path}: {exc}") from None
    try:
        return parse_scenario(document)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
