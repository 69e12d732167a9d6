"""Every layer takes the same values for each input range.

Each range is stated once, in :mod:`polamp.directions`. For a value at or
near a bound, the CLI flag, the scenario key (an angle's only) and the
library call must either all accept it with the same result or all reject
it with the same ``must be ...`` phrase. The CLI receives the value as text,
``str(value)``; a scenario file as JSON holds it. An angle is checked in its own unit,
before the conversion to radians, so a scenario's degrees and a radian
argument take the same numbers.
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polamp import (
    Direction,
    MeasurementScenario,
    exact_distribution,
    observable_matrix,
    parse_scenario,
    plus,
    run_all,
    sample,
)
from polamp.cli import EXIT_USAGE, run
from polamp.directions import check_angle, check_count, check_seed

SCENARIO_FILE = str(Path(__file__).parent / "data" / "simulate_two_stage.json")
SCENARIO = {"initial": {"theta_deg": 0, "branch": "+"}, "stages": [{"theta_deg": 30}]}
ONE_STAGE = MeasurementScenario(plus(0.0), (Direction(0.5),))
DISTRIBUTION = exact_distribution(ONE_STAGE)


class Kept(Exception):
    """Raised by a patched call with the value that reached it."""


def keeping(target: str, pick):
    """Patch ``target`` to raise :class:`Kept` with ``pick(*args, **kwargs)``."""

    def keep(*args, **kwargs):
        raise Kept(pick(*args, **kwargs))

    return mock.patch(target, side_effect=keep)


def command(argv, target, pick):
    """The CLI layer: ``polamp <argv>`` with each ``{}`` replaced by the value's
    text; what reaches ``target`` is kept."""

    def call(value):
        words = [word.replace("{}", str(value)) for word in argv]
        with keeping(target, pick):
            return run(words)

    return call


def scenario_key(key):
    """The scenario layer: ``key`` of the document's ``initial`` object, set to
    the value as JSON decodes it."""

    def call(value):
        plain = value.item() if isinstance(value, np.generic) else value  # JSON has no numpy types
        initial = {**SCENARIO["initial"], key: plain}
        parse_scenario(json.loads(json.dumps({**SCENARIO, "initial": initial})))

    return call


def patched(call, target, pick):
    """A library layer ``call``, with ``target`` patched to keep what reaches it."""

    def layer(value):
        with keeping(target, pick):
            return call(value)

    return layer


#: Every range's layers. A layer returns the value it kept, or None where the
#: value leaves no trace (``run_all``'s seed) or is converted (a scenario's
#: degrees).
LAYERS = {
    "seed": [
        command(["simulate", SCENARIO_FILE, "--seed={}"], "polamp.simulate.sample",
                lambda *a, **k: k["seed"]),
        command(["verify", "--seed={}"], "polamp.verify.run_all", lambda **k: k["seed"]),
        lambda v: sample(DISTRIBUTION, seed=v, trials=4).seed,
        lambda v: run_all(draws=0, seed=v) and None,
    ],
    "trials": [
        command(["simulate", SCENARIO_FILE, "--trials={}"], "polamp.simulate.sample",
                lambda *a, **k: k["trials"]),
        patched(lambda v: sample(DISTRIBUTION, seed=0, trials=v),
                "polamp.simulate.map_in_order", lambda fn, blocks: blocks.stop),
    ],
    "draws": [
        command(["verify", "--draws={}"], "polamp.verify.run_all", lambda **k: k["draws"]),
        patched(lambda v: run_all(draws=v), "polamp.verify._worst", lambda jobs, n: n),
    ],
    "tolerance": [
        command(["verify", "--tolerance={}"], "polamp.verify.run_all", lambda **k: k["tolerance"]),
        lambda v: run_all(draws=0, tolerance=v).suites[0].tolerance,
    ],
    "angle": [
        command(["amp", "--rad", "--", "{}", "0", "+", "0", "0", "+"], "polamp.cli.amplitude",
                lambda a, b: a.direction.theta),
        scenario_key("theta_deg"),
        lambda v: Direction(v).theta,
    ],
    "eigenvalue": [
        command(["operator", "30", "0", "0", "0", "--r-plus={}"], "polamp.cli.observable_matrix",
                lambda m, c, r_plus, r_minus: r_plus),
        lambda v: observable_matrix(Direction(0.5), Direction(0.0), v, -1.0).r_plus,
    ],
}


def outcome(layer, value):
    """``("accepted", kept)`` or ``("rejected", <what>)`` from ``must be <what>, got ...``."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            return "accepted", layer(value)
    except Kept as kept:
        return "accepted", kept.args[0]
    except SystemExit as exc:
        assert exc.code == EXIT_USAGE, err.getvalue()
        message = err.getvalue()
    except ValueError as exc:  # the library's own, and a scenario's ScenarioError
        message = str(exc)
    match = re.search(r": must be (.*?), got ", message)
    assert match, message
    return "rejected", match.group(1)


def near(bound: float) -> list:
    return [math.nextafter(bound, 0.0), bound, math.nextafter(bound, math.copysign(math.inf, bound))]


#: Values at and around every bound, and values of the wrong kind.
EDGES = [
    -1, 0, 1,
    *(bound + step for bound in (2**63, 2**64) for step in (-1, 0, 1)),
    2**511, 2**1023, -(2**1023), 2**1024,
    *(x for bound in (2.0**511, 2.0**1023) for x in near(bound) + near(-bound)),
    0.0, -0.0, 5e-324, 1.5, 10.0, math.inf, -math.inf, math.nan,
    True, False, None, [1],
    np.uint64(2**64 - 1), np.uint64(7), np.int64(-1), np.float64(2.0**1023), np.True_,
]


def with_edges(test):
    for value in EDGES:
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("name", LAYERS)
@settings(max_examples=40, deadline=None)
@with_edges
@given(value=st.one_of(st.integers(), st.floats(), st.sampled_from(EDGES)))
def test_every_layer_takes_the_same_values(name, value):
    outcomes = [outcome(layer, value) for layer in LAYERS[name]]
    kinds = {kind for kind, _ in outcomes}
    assert len(kinds) == 1, outcomes
    results = {result for _, result in outcomes if result is not None}
    assert len(results) == 1, outcomes  # one value kept, or one phrase


@pytest.mark.parametrize(
    "check, what",
    [
        (check_seed, "an integer from 0 to 2**64 - 1"),
        (lambda v: check_count(v, "trials"), "an integer from 1 to 2**63 - 1"),
        (check_angle, "a finite number below 2**1023 in magnitude"),
    ],
    ids=["seed", "count", "angle"],
)
@pytest.mark.parametrize("value", [10**5000, -(10**5000)], ids=["positive", "negative"])
def test_an_int_too_long_for_repr_is_named_by_its_size(check, what, value):
    # Python refuses ``repr`` of an int of more than 4300 digits by default
    with pytest.raises(ValueError, match=re.escape(f"must be {what}, got an int of 16610 bits")):
        check(value)
