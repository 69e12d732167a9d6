"""The verification layer itself: suites, determinism, discrimination."""

import functools
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polamp import _pool, verify
from polamp.amplitudes import amp_matrix
from polamp.directions import DEFAULT_TOLERANCE
from polamp.verify import DEFAULT_DRAWS, EIGENSOLVER_TOLERANCE, run_all


def test_run_all_passes_at_default_tolerance():
    report = run_all(draws=2000, seed=1)
    assert report.passed
    assert len(report.suites) == 11
    for suite in report.suites:
        assert suite.max_residual < suite.tolerance


def test_run_all_is_deterministic():
    assert run_all(draws=500, seed=4) == run_all(draws=500, seed=4)


def test_zero_draws_trivial():
    report = run_all(draws=0, seed=0)
    assert report.passed
    assert report.errata == ()
    assert all(s.draws == 0 and s.max_residual == 0.0 for s in report.suites)


#: Residuals and tolerances with the edges of ``<``: nan, inf, 0 and equal values.
EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=True), st.sampled_from([0.0, DEFAULT_TOLERANCE, EIGENSOLVER_TOLERANCE])
)


@given(st.lists(st.tuples(EDGE_FLOATS, EDGE_FLOATS), max_size=4), st.booleans())
@example([(5.0, 1e-12)], False)  # a residual far above its tolerance
@example([(float("nan"), 1.0), (1.0, float("inf")), (2.0, 2.0)], False)
@settings(max_examples=200, deadline=None)
def test_verdict_is_read_from_the_residual_and_tolerance(pairs, equal):
    if equal and pairs:
        pairs[0] = (pairs[0][1], pairs[0][1])  # a residual equal to its tolerance fails
    suites = tuple(verify.SuiteResult("s", 1, r, t) for r, t in pairs)
    for suite, (residual, tolerance) in zip(suites, pairs):
        assert suite.passed == (residual < tolerance)
    assert verify.VerifyReport(suites, ()).passed == all(s.passed for s in suites)


@pytest.mark.parametrize(
    "key, value",
    [
        ("draws", -5),
        ("draws", 2**63),
        ("draws", 10**26),
        ("tolerance", 0.0),
        ("tolerance", -1e-12),
        ("tolerance", float("inf")),
        ("tolerance", float("nan")),
        ("seed", -1),
        ("seed", 2**64),
        ("seed", 1.5),
        ("seed", None),
    ],
)
def test_run_all_rejects_out_of_range_inputs(key, value):
    # negative draws would pass vacuously, an infinite tolerance would pass
    # every suite and hide every erratum, and a None seed would draw from OS
    # entropy, so that no two reports agree
    with pytest.raises(ValueError, match=key):
        run_all(**{key: value})


def test_run_all_accepts_the_largest_u64_seed():
    assert run_all(draws=5, seed=np.uint64(2**64 - 1)) == run_all(draws=5, seed=2**64 - 1)


@pytest.mark.parametrize("draws", [1.5, 2.0])
def test_run_all_rejects_a_float_draw_count(draws):
    # a float count would pass the range check and fail deep in PCG64 advance
    with pytest.raises(ValueError, match="draws: must be an integer"):
        run_all(draws=draws)


def test_run_all_accepts_a_numpy_integer_draw_count():
    report = run_all(draws=np.int64(5), seed=3)
    assert report == run_all(draws=5, seed=3)
    assert all(type(s.draws) is int for s in report.suites)


def test_errata_discriminate():
    records = run_all(draws=2000, seed=12).errata
    by_equation = {r.equation for r in records}
    assert {"Eq58", "Eq59", "Eq72"} <= by_equation
    assert not by_equation & {"Eq53", "Eq54", "Eq55", "Eq56", "Eq57", "Eq60"}
    for record in records:
        # the misprints are O(1) errors, not rounding noise
        assert record.max_abs_diff > 1e-3
        assert abs(record.paper_value - record.derived_value) <= record.max_abs_diff + 1e-15


def test_errata_elements_are_off_diagonal():
    records = run_all(draws=1000, seed=13).errata
    assert {r.element for r in records} == {"m12", "m21"}


def suite(report, name):
    """The named suite of a report."""
    (result,) = [s for s in report.suites if s.name == name]
    return result


def test_suites_actually_measure():
    # a residual of exactly zero everywhere would suggest a vacuous check;
    # the amplitude oracle compares two different float paths, so rounding
    # noise must appear at large draw counts
    result = suite(run_all(draws=50_000, seed=3), "amplitude_oracle")
    assert 0.0 < result.max_residual < 1e-12


def test_triangle_uses_wider_tolerance():
    triangle = "operator_oracle_triangle"
    report = run_all(draws=1000, seed=5)
    assert suite(report, triangle).tolerance == EIGENSOLVER_TOLERANCE
    assert report.passed
    # the suite raises a tighter tolerance to its floor itself, and only it does
    report = run_all(draws=1000, seed=5, tolerance=1e-12)
    assert suite(report, triangle).tolerance == EIGENSOLVER_TOLERANCE
    assert {s.tolerance for s in report.suites if s.name != triangle} == {1e-12}
    assert report.passed
    assert suite(run_all(draws=10, seed=5, tolerance=1e-9), triangle).tolerance == 1e-9


@pytest.mark.parametrize("s, t", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_periodicity_checks_every_element(monkeypatch, s, t):
    # a kernel whose element (s, t) drifts with theta_a is not 2 pi periodic
    def drifting(theta_a, alpha_a, theta_b, alpha_b):
        block = [list(row) for row in amp_matrix(theta_a, alpha_a, theta_b, alpha_b)]
        block[s][t] = block[s][t] + 1e-6 * theta_a
        return block

    monkeypatch.setattr(verify, "amp_matrix", drifting)
    assert not suite(run_all(draws=100, seed=8), "periodicity").passed


def test_default_draw_count():
    assert DEFAULT_DRAWS >= 100_000


# ---------------------------------------------------------------------------
# lane blocks: the block partition and the thread count never show
# ---------------------------------------------------------------------------

BLOCK_DRAWS = (0, 3, 1001)


@pytest.fixture(scope="module")
def unblocked_reports():
    """``run_all`` at the shipped block size and thread count, per draw count."""
    return {draws: run_all(draws=draws, seed=21) for draws in BLOCK_DRAWS}


@pytest.mark.parametrize("one_worker", [False, True], ids=["default_workers", "one_worker"])
@pytest.mark.parametrize("lane_block", [1, 5, 64, 8192])
@pytest.mark.parametrize("draws", BLOCK_DRAWS)
def test_results_do_not_depend_on_blocks_or_workers(
    monkeypatch, unblocked_reports, draws, lane_block, one_worker
):
    monkeypatch.setattr(verify, "LANE_BLOCK", lane_block)
    if one_worker:
        monkeypatch.setattr(_pool.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run_all(draws=draws, seed=21) == unblocked_reports[draws]


@pytest.mark.parametrize("draws", [*BLOCK_DRAWS, 20001])
def test_run_all_is_the_public_suites_then_the_errata(draws):
    for tol in (DEFAULT_TOLERANCE, 1e-300):
        # one block stream for the whole run gives what its jobs give one at a time, in
        # run order: every suite, then the polarization and standard-limit tables
        jobs = verify._jobs(draws, np.random.default_rng(21), tol)
        *suites, polarization, standard = [verify._worst([job], draws) for job in jobs]
        names = [result.name for result, *_ in suites]
        assert names == [s.__name__.removeprefix("suite_") for s in verify.ALL_SUITES]
        # the Eq53-Eq56 records come from the observable suite's own job and its worst lanes
        k = verify.ALL_SUITES.index(verify.suite_observable_closed_forms)
        _, *records = suites[k]
        assert all(len(results) == 1 for i, results in enumerate(suites) if i != k)
        flagged = ["Eq53", "Eq54", "Eq55", "Eq56"] if draws and tol == 1e-300 else []
        assert [r.equation for r in records] == flagged
        expected = verify.VerifyReport(
            tuple(result for result, *_ in suites), tuple(records + polarization + standard)
        )
        assert run_all(draws=draws, seed=21, tolerance=tol) == expected


def test_run_all_maps_every_block_in_one_stream(monkeypatch):
    # one pool per run: no thread waits at a barrier between suites
    calls = []

    def counted(fn, items):
        calls.append(len(items))
        return _pool.map_in_order(fn, items)

    monkeypatch.setattr(verify, "LANE_BLOCK", 512)
    monkeypatch.setattr(verify, "map_in_order", counted)
    run_all(draws=1001, seed=21)
    assert calls == [2 * (len(verify.ALL_SUITES) + 2)]


def test_more_workers_than_cores_under_fast_thread_switching(monkeypatch, unblocked_reports):
    # blocks share only read-only inputs; switching threads every microsecond
    # must still give the serial result
    monkeypatch.setattr(verify, "LANE_BLOCK", 16)
    monkeypatch.setattr(_pool.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run_all(draws=1001, seed=21) == unblocked_reports[1001]
    finally:
        sys.setswitchinterval(interval)


def test_errata_take_the_first_lane_of_equal_maxima(monkeypatch):
    # blocks of two lanes: lanes 0 and 2 sit in different blocks
    monkeypatch.setattr(verify, "LANE_BLOCK", 2)
    ids = (("Eq11", "Eq12"), ("Eq21", "Eq22"))
    tie = np.array([1.0, 0.0, -1.0, 0.0], dtype=complex)  # |diff| 1 at lanes 0 and 2
    later = np.array([1.0, 0.0, 0.0, -2j])  # a strictly larger diff in the last block
    zero = np.zeros(4, dtype=complex)

    def forms(zero, tie, later):
        return ((zero, zero), (zero, zero)), ((tie, later), (zero, zero))

    def lanes(lo, hi):
        return zero[lo:hi], tie[lo:hi], later[lo:hi]

    def results():
        # a suite that is an errata table too, over these lanes instead of drawn ones
        monkeypatch.setattr(verify, "_draws", lambda rng, n, *ranges: lanes)
        return verify._worst([verify._job(4, None, 0.5, (), forms, "ties", ids)], 4)

    suite, *records = results()
    assert suite == verify.SuiteResult("ties", 4, 2.0, 0.5) and not suite.passed
    assert [(r.equation, r.element) for r in records] == [("Eq11", "m11"), ("Eq12", "m12")]
    first, larger = records
    assert (first.paper_value, first.derived_value, first.max_abs_diff) == (0j, 1 + 0j, 1.0)
    assert (larger.paper_value, larger.derived_value, larger.max_abs_diff) == (0j, -2j, 2.0)
    # the same records as np.argmax over all lanes, in one block
    monkeypatch.setattr(verify, "LANE_BLOCK", 4)
    assert results() == [suite, *records]


# ---------------------------------------------------------------------------
# each suite: a residual function whose job ``run_all`` reduces over blocks
# ---------------------------------------------------------------------------

SUITE_IDS = [s.__name__.removeprefix("suite_") for s in verify.ALL_SUITES]


def lane_count(suite) -> int:
    """The number of lane arrays the suite's residual function takes."""
    _, lanes, _ = suite.job(0, np.random.default_rng(0), DEFAULT_TOLERANCE)
    return len(lanes(0, 0))


@pytest.mark.parametrize("draws", [0, 1, 64, 200])
@pytest.mark.parametrize("suite", verify.ALL_SUITES, ids=SUITE_IDS)
def test_a_suite_is_the_largest_residual_over_all_its_lanes_at_once(monkeypatch, suite, draws):
    # blocks of 64 lanes, the last one partial, reduce to what one call over every lane gives:
    # each residual's largest value and its first lane; no draws call it never and give 0
    monkeypatch.setattr(verify, "LANE_BLOCK", 64)
    residuals, lanes, _ = suite.job(draws, np.random.default_rng(17), DEFAULT_TOLERANCE)
    arrays = [np.asarray(a) for a in residuals(*lanes(0, draws))] if draws else []
    assert all(a.shape == (draws,) for a in arrays)
    if draws:
        (worst,) = verify._worst([(residuals, lanes, lambda worst: [worst])], draws)
        assert worst == [(a.max(), a.argmax()) for a in arrays]
    expected = max((float(a.max()) for a in arrays), default=0.0)
    job = suite.job(draws, np.random.default_rng(17), DEFAULT_TOLERANCE)
    (result,) = verify._worst([job], draws)
    name = suite.__name__.removeprefix("suite_")
    floor = EIGENSOLVER_TOLERANCE if suite is verify.suite_operator_oracle_triangle else 0.0
    assert result == verify.SuiteResult(name, draws, expected, max(DEFAULT_TOLERANCE, floor))
    assert result.passed


@pytest.mark.parametrize("suite", verify.ALL_SUITES, ids=SUITE_IDS)
def test_a_suite_draws_its_lanes_where_the_suites_before_it_end(unblocked_reports, suite):
    # a run's stream holds each suite's lane arrays in ALL_SUITES order, so a suite's job
    # alone, from a generator advanced past the arrays before it, gives its entry in the report
    k = verify.ALL_SUITES.index(suite)
    rng = np.random.default_rng(21)
    rng.bit_generator.advance(1001 * sum(lane_count(s) for s in verify.ALL_SUITES[:k]))
    (result,) = verify._worst([suite.job(1001, rng, DEFAULT_TOLERANCE)], 1001)
    assert result == unblocked_reports[1001].suites[k]


@pytest.mark.parametrize("suite", verify.ALL_SUITES, ids=SUITE_IDS)
def test_a_wrapped_suite_keeps_its_job_and_its_blocks_call_it_unwrapped(
    monkeypatch, unblocked_reports, suite
):
    # a tracer puts a functools.wraps wrapper in place of each public function, ALL_SUITES
    # entries included: the job survives as an attribute, and the blocks, which run in worker
    # threads, still call the residual function itself and never the wrapper
    calls = []

    @functools.wraps(suite)
    def wrapper(*lanes):
        calls.append(len(lanes))
        return suite(*lanes)

    k = verify.ALL_SUITES.index(suite)
    monkeypatch.setattr(verify, suite.__name__, wrapper)
    wrapped = (*verify.ALL_SUITES[:k], wrapper, *verify.ALL_SUITES[k + 1 :])
    monkeypatch.setattr(verify, "ALL_SUITES", wrapped)
    assert wrapper.job is suite.job
    assert run_all(draws=1001, seed=21) == unblocked_reports[1001]
    assert calls == []


# ---------------------------------------------------------------------------
# per-block draws: each block draws its own lanes, by PCG64 counter advance
# ---------------------------------------------------------------------------


def full_draws(rng, n):
    """The arrays of an eigenvalue suite, drawn in full as one thread would."""
    angles = [rng.uniform(-2 * np.pi, 2 * np.pi, n) for _ in range(4)]
    r_plus = rng.uniform(-3.0, 3.0, n)
    r_minus = r_plus - rng.uniform(0.5, 3.0, n) * np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return [*angles, r_plus, r_minus]


@pytest.mark.parametrize("lane_block", [1, 64, 8192])
@pytest.mark.parametrize("n", [0, 1, 5, 8193])
def test_block_draws_are_slices_of_the_full_arrays(n, lane_block):
    expected_rng = np.random.default_rng(31)
    expected = full_draws(expected_rng, n)
    rng = np.random.default_rng(31)
    lanes = verify._draws(rng, n, *[verify._ANGLE] * 4, *verify._EIGENVALUES)

    def block(*draws):
        return (*draws[:4], *verify._eigenvalues(*draws[4:]))

    blocks = [block(*lanes(lo, min(lo + lane_block, n))) for lo in range(0, n, lane_block)]
    assert len(blocks) == -(-n // lane_block)
    for k, arrays in enumerate(blocks):
        lo = k * lane_block
        for got, full in zip(arrays, expected, strict=True):
            assert np.array_equal(got, full[lo : lo + lane_block])
    # the caller's generator continues where the full draws left off
    assert rng.random() == expected_rng.random()


def test_memory_does_not_grow_with_draws(monkeypatch):
    monkeypatch.setattr(verify, "LANE_BLOCK", 1024)
    monkeypatch.setattr(_pool.os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def peak(draws):
        tracemalloc.start()
        try:
            run_all(draws=draws, seed=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20_000)  # warm up: imports and caches
    growth = peak(80_000) - peak(20_000)
    # one full-size array of the 60,000 extra draws would be 480,000 B
    assert growth < 60_000 * 8


# ---------------------------------------------------------------------------
# 2x2 helpers: the hand-expanded residual expressions, lane for lane
# ---------------------------------------------------------------------------

#: A lane's real or imaginary part: signed zeros, subnormals and magnitudes
#: whose products overflow, besides any finite double.
PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def lane_arrays(pool, seed, n):
    """Ten complex arrays of ``n`` lanes. Each lane's twenty parts are twenty
    slots of ``pool``, no slot twice, picked by a generator seeded with ``seed``."""
    slots = np.random.default_rng(seed).random((n, len(pool))).argsort(axis=1)[:, :20]
    parts = np.array(pool)[slots].reshape(n, 10, 2).transpose(1, 0, 2).copy()
    return parts.view(np.complex128)[..., 0]


#: Ten lane arrays of one length: a SIMD loop's body and its tail. hypothesis
#: draws a pool of 40 parts per example: several times faster than drawing
#: each of up to 340 parts, with about as many distinct parts in a lane. An
#: array that ``hypothesis.extra.numpy.arrays`` fills would be faster still,
#: but most of its lanes would repeat one value in all twenty parts.
LANES = st.builds(
    lane_arrays, st.lists(PARTS, min_size=40, max_size=40), st.integers(0, 2**32 - 1),
    st.integers(1, 17),
)


def uint64_lanes(arrays):
    return np.array(arrays).view(np.uint64)


@given(LANES, st.booleans())
@settings(max_examples=200, deadline=None)
def test_block_helpers_keep_the_bits_of_the_hand_expanded_residuals(lanes, real_diagonal):
    # the goldens pin only each suite's largest residual; this pins every lane
    x11, x12, x21, x22, y11, y12, y21, y22, v1, v2 = lanes
    if real_diagonal:  # as in an operator's elements
        x11, x22 = x11.real.copy(), x22.real.copy()
    x, y, v = ((x11, x12), (x21, x22)), ((y11, y12), (y21, y22)), (v1, v2)
    with np.errstate(all="ignore"):
        pairs = [
            (
                verify._diff(x, y),
                [np.abs(x11 - y11), np.abs(x12 - y12), np.abs(x21 - y21), np.abs(x22 - y22)],
            ),
            (verify._matvec(x, v), [x11 * v1 + x12 * v2, x21 * v1 + x22 * v2]),
            (
                verify._matmul(x, y),
                [
                    [x11 * y11 + x12 * y21, x11 * y12 + x12 * y22],
                    [x21 * y11 + x22 * y21, x21 * y12 + x22 * y22],
                ],
            ),
            (verify._vdot(y[0], v), np.conj(y11) * v1 + np.conj(y12) * v2),
            # as suite_expectation_consistency and suite_eigen_residual compose them
            (
                verify._vdot(v, verify._matvec(x, v)),
                np.conj(v1) * (x11 * v1 + x12 * v2) + np.conj(v2) * (x21 * v1 + x22 * v2),
            ),
            (
                verify._diff(verify._matmul(x, x), ((1.0, 0.0), (0.0, 1.0))),
                [
                    np.abs(x11 * x11 + x12 * x21 - 1.0),
                    np.abs(x11 * x12 + x12 * x22),
                    np.abs(x21 * x11 + x22 * x21),
                    np.abs(x21 * x12 + x22 * x22 - 1.0),
                ],
            ),
        ]
    for got, expected in pairs:
        assert np.array_equal(uint64_lanes(got), uint64_lanes(expected))
