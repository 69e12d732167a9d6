"""Scenario-file parsing and validation diagnostics."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polamp import Branch, MeasurementScenario, ScenarioError, load_scenario_file, parse_scenario

VALID = {
    "initial": {"theta_deg": 30.0, "alpha_deg": 10.0, "branch": "+"},
    "stages": [{"theta_deg": 45.0, "alpha_deg": 0.0}, {"theta_deg": 90.0}],
}


def test_parse_valid_document():
    scenario = parse_scenario(VALID)
    assert type(scenario) is MeasurementScenario
    assert scenario.initial.branch is Branch.PLUS
    assert scenario.initial.direction.theta == pytest.approx(math.radians(30.0))
    assert scenario.initial.direction.alpha == pytest.approx(math.radians(10.0))
    assert scenario.n_stages == 2
    assert scenario.stages[0].theta == pytest.approx(math.radians(45.0))
    assert scenario.stages[1].alpha == 0.0


def test_optional_keys_absent():
    doc = {"initial": {"theta_deg": 0, "branch": "-"}, "stages": [{"theta_deg": 1}]}
    scenario = parse_scenario(doc)
    assert scenario.initial.direction.alpha == 0.0
    assert scenario.initial.branch is Branch.MINUS


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
        # a document is the chain alone: the run's seed and trial count are flags
        (lambda d: d.update(seed=7), "scenario.seed: unknown key"),
        (lambda d: d.update(trials=5000), "scenario.trials: unknown key"),
        (lambda d: d.update(tolerance=1e-12), "scenario.tolerance: unknown key"),
    ],
)
def test_rejections_name_the_key(mutate, fragment):
    doc = json.loads(json.dumps(VALID))
    mutate(doc)
    with pytest.raises(ScenarioError, match=fragment.replace("[", r"\[").replace("]", r"\]")):
        parse_scenario(doc)


@pytest.mark.parametrize(
    "branch, shown",
    [("x", "'x'"), (None, "None"), (1, "1"), (["+"], "list"), ({"+": 1}, "dict")],
)
def test_branch_message(branch, shown):
    # a present null is rejected like any other value that is no branch
    with pytest.raises(ScenarioError) as exc:
        parse_scenario({**VALID, "initial": {**VALID["initial"], "branch": branch}})
    assert str(exc.value) == f"scenario.initial.branch: must be '+' or '-', got {shown}"


def test_load_from_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(VALID))
    scenario = load_scenario_file(path)
    assert type(scenario) is MeasurementScenario and scenario.n_stages == 2


def test_an_object_in_place_of_a_number_is_named_dict(tmp_path):
    # the reader builds each object as a dict subclass; a diagnostic names a dict
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({**VALID, "initial": {**VALID["initial"], "theta_deg": {"a": 1}}}))
    with pytest.raises(ScenarioError, match=r"scenario\.initial\.theta_deg: must be .*, got dict$"):
        load_scenario_file(path)


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
    with pytest.raises(ScenarioError, match=f"initial.{key}: must be .*, got list$"):
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
#: every inner check is reached, not only the top-level type check, and the
#: run settings a document does not hold (other unknown keys come from the
#: text-keyed objects of JSON_VALUES).
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


#: A valid ``initial`` object, as JSON text.
OK = '{"theta_deg": 0, "branch": "+"}'
#: The start of check_angle's message after a key's path.
ANGLE = "must be a finite number below 2**1023 in magnitude, got"


@pytest.mark.parametrize(
    "text, message",
    [
        # within one object: the object, then repeated keys, then unknown ones, then each key
        ("[]", "scenario: expected an object, got list"),
        ('{"initial": null, "stages": null}', "scenario.initial: expected an object, got NoneType"),
        ('{"initial": ' + OK + ', "extra": 1}', "scenario.extra: unknown key"),
        ('{"initial": {"branch": "+", "phi_deg": 0}, "stages": []}',
         "scenario.initial.phi_deg: unknown key"),
        ('{"initial": {"theta_deg": 0, "theta_deg": 1, "phi_deg": 0}}',
         "scenario.initial.theta_deg: duplicate key"),
        # initial before stages, whatever the document's order
        ('{"stages": "no"}', "scenario.initial: missing required key"),
        ('{"stages": [], "initial": {"branch": "+"}}', "scenario.initial.theta_deg: missing required key"),
        ('{"initial": ' + OK + ', "stages": []}', "scenario.stages: expected a non-empty list"),
        # theta_deg, then alpha_deg, then branch
        ('{"initial": {"branch": "x", "alpha_deg": "y", "theta_deg": "z"}}',
         f"scenario.initial.theta_deg: {ANGLE} 'z'"),
        ('{"initial": {"branch": "x", "alpha_deg": "y", "theta_deg": 0}}',
         f"scenario.initial.alpha_deg: {ANGLE} 'y'"),
        ('{"initial": {"branch": "x", "theta_deg": 0}}',
         "scenario.initial.branch: must be '+' or '-', got 'x'"),
        ('{"initial": {"alpha_deg": 0}}', "scenario.initial.theta_deg: missing required key"),
        ('{"initial": {"theta_deg": 0}}', "scenario.initial.branch: missing required key"),
        # stages[0] before stages[1]
        ('{"initial": ' + OK + ', "stages": [{"alpha_deg": 0}, {"phi_deg": 1}]}',
         "scenario.stages[0].theta_deg: missing required key"),
        ('{"initial": ' + OK + ', "stages": [{"theta_deg": 0}, {"phi_deg": 1, "theta_deg": "x"}]}',
         "scenario.stages[1].phi_deg: unknown key"),
        ('{"initial": ' + OK + ', "stages": [null, {"theta_deg": "x"}]}',
         "scenario.stages[0]: expected an object, got NoneType"),
    ],
)
def test_a_document_with_several_faults_reports_the_first_in_reading_order(tmp_path, text, message):
    path = tmp_path / "chain.json"
    path.write_text(text)
    with pytest.raises(ScenarioError) as exc:
        load_scenario_file(path)
    assert str(exc.value) == f"{path}: {message}"
