"""Scenario-file parsing and validation diagnostics."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polamp import Branch, ScenarioError, load_scenario_file, parse_scenario

VALID = {
    "initial": {"theta_deg": 30.0, "alpha_deg": 10.0, "branch": "+"},
    "stages": [{"theta_deg": 45.0, "alpha_deg": 0.0}, {"theta_deg": 90.0}],
    "seed": 7,
    "trials": 5000,
    "tolerance": 1e-10,
}


def test_parse_valid_document():
    loaded = parse_scenario(VALID)
    scenario = loaded.scenario
    assert scenario.initial.branch is Branch.PLUS
    assert scenario.initial.theta == pytest.approx(math.radians(30.0))
    assert scenario.initial.alpha == pytest.approx(math.radians(10.0))
    assert scenario.n_stages == 2
    assert scenario.stages[0].theta == pytest.approx(math.radians(45.0))
    assert scenario.stages[1].alpha == 0.0
    assert loaded.seed == 7
    assert loaded.trials == 5000
    assert loaded.tolerance == 1e-10


def test_optional_keys_absent():
    doc = {"initial": {"theta_deg": 0, "branch": "-"}, "stages": [{"theta_deg": 1}]}
    loaded = parse_scenario(doc)
    assert loaded.seed is None and loaded.trials is None and loaded.tolerance is None
    assert loaded.scenario.initial.branch is Branch.MINUS


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(extra=1), "scenario.extra"),
        (lambda d: d["initial"].update(phi_deg=3), "initial.phi_deg"),
        (lambda d: d["stages"][1].update(branch="+"), "stages[1].branch"),
        (lambda d: d["initial"].pop("theta_deg"), "initial.theta_deg"),
        (lambda d: d["initial"].pop("branch"), "initial.branch"),
        (lambda d: d.pop("stages"), "scenario.stages"),
        (lambda d: d.update(stages=[]), "stages"),
        (lambda d: d["initial"].update(branch="x"), "initial.branch"),
        (lambda d: d["initial"].update(theta_deg="ten"), "initial.theta_deg"),
        (lambda d: d.update(seed=-3), "seed"),
        (lambda d: d.update(trials=0), "trials"),
        (lambda d: d.update(trials=2**63), "trials"),
        (lambda d: d.update(tolerance=0.0), "tolerance"),
    ],
)
def test_rejections_name_the_key(mutate, fragment):
    doc = json.loads(json.dumps(VALID))
    mutate(doc)
    with pytest.raises(ScenarioError, match=fragment.replace("[", r"\[").replace("]", r"\]")):
        parse_scenario(doc)


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("seed", None, "an unsigned 64-bit integer, got None"),
        ("seed", 2**64, f"an unsigned 64-bit integer, got {2**64}"),
        ("seed", True, "an unsigned 64-bit integer, got True"),
        ("trials", None, "a positive integer below 2**63, got None"),
        ("trials", 10.0, "a positive integer below 2**63, got 10.0"),
        ("trials", [1], "a positive integer below 2**63, got list"),
    ],
)
def test_seed_and_trials_messages(key, value, expected):
    # a present null is rejected like any other value that is no integer
    with pytest.raises(ScenarioError) as exc:
        parse_scenario({**VALID, key: value})
    assert str(exc.value) == f"scenario.{key}: expected {expected}"


def test_trials_up_to_int64_max_accepted():
    assert parse_scenario({**VALID, "trials": 2**63 - 1}).trials == 2**63 - 1


def test_load_from_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(VALID))
    loaded = load_scenario_file(path)
    assert loaded.scenario.n_stages == 2


def test_missing_file_names_path(tmp_path):
    path = tmp_path / "nope.json"
    with pytest.raises(ScenarioError, match="nope.json"):
        load_scenario_file(path)


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"initial": {\n  "theta_deg": }\n}')
    with pytest.raises(ScenarioError, match="line 2"):
        load_scenario_file(path)


def test_file_errors_include_path(tmp_path):
    path = tmp_path / "bad.json"
    doc = json.loads(json.dumps(VALID))
    doc["stages"][0]["oops"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match="bad.json"):
        load_scenario_file(path)


@pytest.mark.parametrize("key", ["theta_deg", "branch"])
def test_deeply_nested_values_are_named_by_type(key):
    # deeper than repr() can recurse: the diagnostic names the type instead
    deep = []
    for _ in range(5000):
        deep = [deep]
    doc = json.loads(json.dumps(VALID))
    doc["initial"][key] = deep
    with pytest.raises(ScenarioError, match=f"initial.{key}: .* got list"):
        parse_scenario(doc)


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)  # beyond any float
    | st.floats()  # nan and the infinities included, as json.loads accepts them
    | st.sampled_from(["+", "-", "x"])
    | st.text(max_size=4)
)

JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=20,
)

#: Scenario-shaped documents: the schema's keys with any JSON value, so that
#: every inner check is reached, not only the top-level type check (unknown
#: keys come from the text-keyed objects of JSON_VALUES).
NUMBERS = st.integers(min_value=-(10**400), max_value=10**400) | st.floats() | JSON_VALUES
DIRECTIONS = st.fixed_dictionaries(
    {},
    optional={"theta_deg": NUMBERS, "alpha_deg": NUMBERS, "branch": st.just("+") | JSON_VALUES},
)
DOCUMENTS = st.fixed_dictionaries(
    {},
    optional={
        "initial": DIRECTIONS,
        "stages": st.lists(DIRECTIONS, max_size=3) | JSON_VALUES,
        **{key: NUMBERS for key in ("seed", "trials", "tolerance")},
    },
)


@given(DOCUMENTS | JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_any_json_value_parses_or_raises_scenario_error(document):
    try:
        parse_scenario(document)
    except ScenarioError:
        pass
