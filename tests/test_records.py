"""The value records (``Direction``, ``BranchLabel``, ``StateVector2``,
``Observable2``) are checked tuples that behave as immutable values.

Each is one ``tuple`` built after its constructor's checks. A ``Direction``
is ``(theta, alpha, cos(theta), sin(theta))``: its cos and sin are taken once,
at construction, and every label block reads them. The properties below pin
what a caller sees: a record equals only a record of its own type, hashes as
it compares, prints its fields only, cannot be changed, pickles and copies
through its constructor's checks, and has no method that builds an unchecked
record. The public constructors of the state and observable records check
every field, as ``Direction`` and ``BranchLabel`` do. No record stores a value
that its other fields fix: an ``Observable2`` computes its elements from its
directions and eigenvalues, and the result records of :mod:`polamp.simulate`
and :mod:`polamp.verify` read such a value as a property that no constructor
takes. Every record that ``polamp`` exports is in one of the tables below. The
two records that hold arrays equal a record of their own type whose fields are
equal, and do not hash.
"""

import copy
import dataclasses
import enum
import math
import operator
import pickle
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polamp
from polamp import (
    Branch,
    BranchLabel,
    Direction,
    Observable2,
    StateVector2,
    observable_matrix,
)
from polamp.simulate import MeasurementScenario, OutcomeDistribution, SampleReport, sample
from polamp.verify import ErrataRecord, SuiteResult, VerifyReport

#: Angles where the cached trig is most fragile: signed zeros, subnormals, the
#: smallest normal and the largest powers of two a ``Direction`` takes.
EDGES = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
    2.0**1022, -(2.0**1022), math.nextafter(2.0**1023, 0.0), -math.nextafter(2.0**1023, 0.0),
)

#: Every finite angle a ``Direction`` takes, with the edges drawn often.
angles = (
    st.floats(-(2.0**1023), 2.0**1023, exclude_min=True, exclude_max=True, allow_subnormal=True)
    | st.sampled_from(EDGES)
)
directions = st.builds(Direction, angles, angles)
labels = st.builds(BranchLabel, directions, st.sampled_from(Branch))
parts = st.complex_numbers(max_magnitude=1e150, allow_nan=False, allow_infinity=False)
states = st.builds(StateVector2, parts, parts)
eigenvalues = st.floats(-1e6, 1e6, allow_nan=False)
observables = st.builds(observable_matrix, directions, directions, eigenvalues, eigenvalues)
records = st.one_of(directions, labels, states, observables)

#: Each record type's named fields, in constructor order.
FIELDS = {
    Direction: ("theta", "alpha"),
    BranchLabel: ("direction", "branch"),
    StateVector2: ("c_plus", "c_minus"),
    Observable2: ("measure_dir", "basis_dir", "r_plus", "r_minus"),
}

#: Each record type's public attributes besides its fields: read-only
#: properties, and the ``count``/``index`` every tuple has.
DERIVED = {
    Direction: set(),
    BranchLabel: set(),
    StateVector2: {"norm"},
    Observable2: {"m11", "m12", "m21", "m22", "trace", "determinant"},
}


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


@given(angles, angles)
@settings(max_examples=500, deadline=None)
def test_a_direction_holds_its_angles_and_their_trig_bit_for_bit(theta, alpha):
    d = Direction(theta, alpha)
    assert [x.hex() for x in (d.theta, d.alpha)] == [theta.hex(), alpha.hex()]
    assert tuple(x.hex() for x in d) == tuple(
        x.hex() for x in (theta, alpha, math.cos(theta), math.sin(theta))
    )


@given(records)
@settings(max_examples=300, deadline=None)
def test_a_record_equals_only_a_record_of_its_own_type(record):
    twin = type(record)(*fields(record))
    assert record == twin and not record != twin
    for plain in (tuple(record), fields(record)):
        assert record != plain and plain != record
        assert not record == plain and not plain == record


@given(records)
@settings(max_examples=300, deadline=None)
def test_hashing_agrees_with_equality(record):
    twin = type(record)(*fields(record))
    assert hash(twin) == hash(record)
    assert len({record, twin}) == 1


def test_signed_zero_angles_are_one_value():
    assert Direction(0.0, -0.0) == Direction(-0.0, 0.0)
    assert hash(Direction(0.0, -0.0)) == hash(Direction(-0.0, 0.0))


@given(records)
@settings(max_examples=300, deadline=None)
def test_repr_names_the_fields_only(record):
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in FIELDS[type(record)])
    assert repr(record) == f"{type(record).__name__}({shown})"


def test_repr_of_a_direction_and_a_label():
    assert repr(Direction(0.3, 0.2)) == "Direction(theta=0.3, alpha=0.2)"
    label = BranchLabel(Direction(0.3), Branch.MINUS)
    assert repr(label) == "BranchLabel(direction=Direction(theta=0.3, alpha=0.0), branch=<Branch.MINUS: '-'>)"


@given(records)
@settings(max_examples=100, deadline=None)
def test_attributes_are_read_only(record):
    for name in (*FIELDS[type(record)], *DERIVED[type(record)], "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
        if name != "other":
            with pytest.raises(AttributeError):
                delattr(record, name)


@given(records)
@settings(max_examples=100, deadline=None)
def test_pickle_and_copy_round_trip_through_the_constructor(record):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert record.__reduce_ex__(protocol) == (type(record), fields(record))
        again = pickle.loads(pickle.dumps(record, protocol))
        assert type(again) is type(record) and again == record
    for again in (copy.copy(record), copy.deepcopy(record)):
        assert type(again) is type(record) and again == record


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_pickled_direction_passes_the_checks_when_loaded(protocol):
    data = pickle.dumps(Direction(1.5, 0.25), protocol)
    good, bad = (
        (b"1.5", b"nan") if protocol == 0 else (struct.pack(">d", 1.5), struct.pack(">d", math.nan))
    )
    assert data.count(good) == 1
    with pytest.raises(ValueError, match="theta: must be a finite number"):
        pickle.loads(data.replace(good, bad))


@pytest.mark.parametrize("cls", list(FIELDS))
def test_no_method_builds_an_unchecked_record(cls):
    public = {name for name in dir(cls) if not name.startswith("_")}
    assert public == set(FIELDS[cls]) | DERIVED[cls] | {"count", "index"}
    for name in ("_make", "_replace", "__replace__", "_asdict"):
        assert not hasattr(cls, name), name


#: A valid argument list of each checked constructor.
VALID = {
    StateVector2: (0.6 + 0j, 0.8j),
    Observable2: (Direction(0.3), Direction(0.0), 1.0, -1.0),
}

#: What a field of each kind takes, and values it rejects.
COMPLEX = ("a complex number", ["x", None, True, (1.0, 0.0)])
EIGENVALUE = ("a finite number below 2**511 in magnitude", [math.nan, 2.0**511, "1", False])
DIRECTION = ("a Direction", [(0.3, 0.0), 0.3, Direction(0.3) * 1])
KINDS = {
    StateVector2: [COMPLEX] * 2,
    Observable2: [DIRECTION] * 2 + [EIGENVALUE] * 2,
}


@pytest.mark.parametrize(
    "cls, index, bad, what",
    [
        (cls, index, bad, what)
        for cls, kinds in KINDS.items()
        for index, (what, rejected) in enumerate(kinds)
        for bad in rejected
    ],
)
def test_public_constructors_check_every_field(cls, index, bad, what):
    args = list(VALID[cls])
    args[index] = bad
    name = FIELDS[cls][index]
    with pytest.raises(ValueError, match=f"^{name}: must be {re.escape(what)}, got {re.escape(repr(bad))}$"):
        cls(*args)


def test_public_constructors_take_any_complex_number_and_real_eigenvalues():
    state = StateVector2(1, 0.0)
    assert state == StateVector2(1 + 0j, 0j) and state.norm == 1.0
    obs = Observable2(Direction(0.3), Direction(0.0), 3, -2)
    assert (type(obs.r_plus), obs.r_plus, obs.r_minus) == (float, 3.0, -2.0)


@pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
def test_no_constructor_takes_a_derived_value(cls):
    for name in DERIVED[cls]:
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            cls(*VALID[cls], **{name: 0})


@pytest.mark.parametrize(
    "build",
    [
        # an observable whose trace, 2, is not the sum of its eigenvalues, 12
        lambda: Observable2(1, 0, 0, 1, 5.0, 7.0, Direction(0.3), Direction(0.0)),
        # a report of 10 trials whose counts sum to 2
        lambda: SampleReport(0, 10, [1, 1], [99.0, 99.0], [0.0, 0.0]),
    ],
    ids=["Observable2", "SampleReport"],
)
def test_a_record_that_contradicts_itself_cannot_be_built(build):
    with pytest.raises(TypeError, match=r"positional arguments but \d were given"):
        build()


@given(records)
@settings(max_examples=100, deadline=None)
def test_tuple_operations_give_plain_tuples(record):
    for made in (record[:], record[: len(record)], record * 1, record + (), 1 * record):
        assert type(made) is tuple


@given(records)
@settings(max_examples=50, deadline=None)
def test_records_have_no_order(record):
    twin = type(record)(*fields(record))
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(record, twin)


#: Each result record's stored fields, and the values it derives from them.
RESULT_FIELDS = {
    OutcomeDistribution: (("probs",), {"n_stages"}),
    SampleReport: (
        ("distribution", "seed", "counts"),
        {"trials", "expected", "sigma", "max_abs_deviation_sigma"},
    ),
    MeasurementScenario: (("initial", "stages"), {"n_stages"}),
    SuiteResult: (("name", "draws", "max_residual", "tolerance"), {"passed"}),
    VerifyReport: (("suites", "errata"), {"passed"}),
    ErrataRecord: (("equation", "element", "paper_value", "derived_value", "max_abs_diff"), set()),
}


@pytest.mark.parametrize("cls", list(RESULT_FIELDS), ids=lambda cls: cls.__name__)
def test_a_derived_value_is_no_field(cls):
    names, derived = RESULT_FIELDS[cls]
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    for name in derived:
        assert isinstance(getattr(cls, name), property)
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            cls(**dict.fromkeys(names), **{name: None})


def test_every_exported_record_is_in_a_table():
    exported = {getattr(polamp, name) for name in polamp.__all__}
    records = {
        obj for obj in exported
        if isinstance(obj, type) and not issubclass(obj, (enum.Enum, Exception))
    }
    assert records == set(FIELDS) | set(RESULT_FIELDS)


TABLE = [0.25, 0.25, 0.5, 0.0]


def array_records():
    """(record, a twin built anew, a record that differs in one field) of each array record."""
    distribution = OutcomeDistribution(TABLE)
    report = sample(distribution, 0, 10)
    return [
        (distribution, OutcomeDistribution(list(TABLE)), OutcomeDistribution([0.25, 0.25, 0.0, 0.5])),
        (distribution, OutcomeDistribution(TABLE), OutcomeDistribution([0.5, 0.5])),
        (report, sample(OutcomeDistribution(TABLE), 0, 10), dataclasses.replace(report, seed=1)),
        (report, report, sample(distribution, 0, 11)),
    ]


@pytest.mark.parametrize(
    "record, twin, other", array_records(), ids=["table", "shape", "seed", "trials"]
)
def test_array_records_compare_by_value(record, twin, other):
    assert record == twin and not record != twin
    assert record != other and not record == other
    for stranger in (None, tuple(getattr(record, f.name) for f in dataclasses.fields(record)), 0.25):
        assert record != stranger and not record == stranger
    assert OutcomeDistribution(TABLE) != sample(OutcomeDistribution(TABLE), 0, 10)


def test_array_records_do_not_hash():
    distribution = OutcomeDistribution(TABLE)
    for record in (distribution, sample(distribution, 0, 10)):
        assert type(record).__hash__ is None
        with pytest.raises(TypeError, match=f"unhashable type: '{type(record).__name__}'"):
            hash(record)


def test_array_records_pickle_and_copy_through_their_checks():
    distribution = OutcomeDistribution(TABLE)
    for record, array in ((distribution, "probs"), (sample(distribution, 0, 10), "counts")):
        for again in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(again) is type(record) and again == record
            assert not getattr(again, array).flags.writeable
