"""The verification layer itself: suites, determinism, discrimination."""

import sys
import tracemalloc

import numpy as np
import pytest

from polamp import _pool, verify
from polamp.amplitudes import amp_matrix
from polamp.verify import (
    DEFAULT_DRAWS,
    EIGENSOLVER_TOLERANCE,
    collect_errata,
    run_all,
    suite_amplitude_oracle,
    suite_operator_oracle_triangle,
    suite_periodicity,
)


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
    ],
)
def test_run_all_rejects_out_of_range_inputs(key, value):
    # negative draws would pass vacuously, and an infinite tolerance would
    # pass every suite and hide every erratum
    with pytest.raises(ValueError, match=key):
        run_all(**{key: value})


@pytest.mark.parametrize("draws", [1.5, 2.0])
def test_run_all_rejects_a_float_draw_count(draws):
    # a float count would pass the range check and fail deep in PCG64 advance
    with pytest.raises(ValueError, match="draws must be an integer"):
        run_all(draws=draws)


def test_run_all_accepts_a_numpy_integer_draw_count():
    report = run_all(draws=np.int64(5), seed=3)
    assert report == run_all(draws=5, seed=3)
    assert all(type(s.draws) is int for s in report.suites)


def test_errata_discriminate():
    rng = np.random.default_rng(12)
    records = collect_errata(2000, rng)
    by_equation = {r.equation for r in records}
    assert {"Eq58", "Eq59", "Eq72"} <= by_equation
    assert not by_equation & {"Eq53", "Eq54", "Eq55", "Eq56", "Eq57", "Eq60"}
    for record in records:
        # the misprints are O(1) errors, not rounding noise
        assert record.max_abs_diff > 1e-3
        assert abs(record.paper_value - record.derived_value) <= record.max_abs_diff + 1e-15


def test_errata_elements_are_off_diagonal():
    rng = np.random.default_rng(13)
    records = collect_errata(1000, rng)
    assert {r.element for r in records} == {"m12", "m21"}


def test_suites_actually_measure():
    # a residual of exactly zero everywhere would suggest a vacuous check;
    # the amplitude oracle compares two different float paths, so rounding
    # noise must appear at large draw counts
    rng = np.random.default_rng(3)
    result = suite_amplitude_oracle(50_000, rng)
    assert 0.0 < result.max_residual < 1e-12


def test_triangle_uses_wider_tolerance():
    rng = np.random.default_rng(5)
    result = suite_operator_oracle_triangle(1000, rng)
    assert result.tolerance == EIGENSOLVER_TOLERANCE
    assert result.passed
    # the suite raises a tighter tolerance to its floor itself
    result = suite_operator_oracle_triangle(1000, rng, tol=1e-12)
    assert result.tolerance == EIGENSOLVER_TOLERANCE
    assert result.passed
    assert suite_operator_oracle_triangle(10, rng, tol=1e-9).tolerance == 1e-9


@pytest.mark.parametrize("s, t", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_periodicity_checks_every_element(monkeypatch, s, t):
    # a kernel whose element (s, t) drifts with theta_a is not 2 pi periodic
    def drifting(theta_a, alpha_a, theta_b, alpha_b):
        block = [list(row) for row in amp_matrix(theta_a, alpha_a, theta_b, alpha_b)]
        block[s][t] = block[s][t] + 1e-6 * theta_a
        return block

    monkeypatch.setattr(verify, "amp_matrix", drifting)
    assert not suite_periodicity(100, np.random.default_rng(8)).passed


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
    # one block stream for the whole run draws every lane as the entry points do
    rng = np.random.default_rng(21)
    suites = tuple(suite(draws, rng) for suite in verify.ALL_SUITES)
    expected = verify.VerifyReport(suites, tuple(collect_errata(draws, rng)))
    assert run_all(draws=draws, seed=21) == expected


def test_run_all_maps_every_block_in_one_stream(monkeypatch):
    # one pool per run: no thread waits at a barrier between suites
    calls = []

    def counted(fn, *sequences):
        calls.append(len(sequences[0]))
        return _pool.map_in_order(fn, *sequences)

    monkeypatch.setattr(verify, "LANE_BLOCK", 512)
    monkeypatch.setattr(verify, "map_in_order", counted)
    run_all(draws=1001, seed=21)
    assert calls == [2 * (len(verify.ALL_SUITES) + 3)]


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

    def errata():
        return verify._worst([verify._errata_for(ids, 0.5, forms, lanes)], 4)[0]

    records = errata()
    assert [(r.equation, r.element) for r in records] == [("Eq11", "m11"), ("Eq12", "m12")]
    first, larger = records
    assert (first.paper_value, first.derived_value, first.max_abs_diff) == (0j, 1 + 0j, 1.0)
    assert (larger.paper_value, larger.derived_value, larger.max_abs_diff) == (0j, -2j, 2.0)
    # the same records as np.argmax over all lanes, in one block
    monkeypatch.setattr(verify, "LANE_BLOCK", 4)
    assert errata() == records


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
def test_block_draws_are_slices_of_the_full_arrays(monkeypatch, n, lane_block):
    monkeypatch.setattr(verify, "LANE_BLOCK", lane_block)
    expected_rng = np.random.default_rng(31)
    expected = full_draws(expected_rng, n)
    rng = np.random.default_rng(31)
    lanes = verify._draws(rng, n, *[verify._ANGLE] * 4, *verify._EIGENVALUES)

    def block(*draws):
        return (*draws[:4], *verify._eigenvalues(*draws[4:]))

    blocks = list(verify._map_blocks([(block, lanes)], n))
    assert len(blocks) == -(-n // lane_block)
    for k, arrays in enumerate(blocks):
        lo = k * lane_block
        for got, full in zip(arrays, expected, strict=True):
            assert np.array_equal(got, full[lo : lo + lane_block])
    # the caller's generator continues where the full draws left off
    assert rng.random() == expected_rng.random()


def test_draws_advance_the_caller_as_drawing_would():
    # a buffered 32-bit half survives, as it does when doubles are drawn
    rng, expected = np.random.default_rng(9), np.random.default_rng(9)
    for g in (rng, expected):
        g.integers(0, 2**31, dtype=np.int32)
    verify._draws(rng, 1000, verify._ANGLE, None)
    expected.uniform(*verify._ANGLE, 1000), expected.random(1000)
    assert rng.bit_generator.state == expected.bit_generator.state


def test_draws_need_pcg64():
    with pytest.raises(TypeError, match="PCG64"):
        verify._draws(np.random.Generator(np.random.Philox(0)), 10, verify._ANGLE)


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
