"""Analyzer-chain simulation: exact distributions and seeded sampling."""

import itertools
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polamp import _pool, simulate
from polamp import (
    Branch,
    Direction,
    MeasurementScenario,
    StageCapError,
    exact_distribution,
    plus,
    probability,
    sample,
)
from polamp.directions import BranchLabel
from polamp.simulate import DEFAULT_BLOCK_SIZE, OutcomeDistribution, sequence_labels

TOL = 1e-12

#: The largest double below 1: the top of the sampling stream's range.
LAST_UNIFORM = np.nextafter(1.0, 0.0)

P, M = Branch.PLUS, Branch.MINUS


def malus_chain():
    """Initial x polarization through analyzers at 45 and 90 degrees."""
    return MeasurementScenario(
        initial=plus(0.0, 0.0),
        stages=(Direction(math.pi / 4, 0.0), Direction(math.pi / 2, 0.0)),
    )


def tail_chain():
    """First stage equal to the preparation: every sequence that starts with
    '-' has p = 0 exactly, and the cumulative probabilities end below 1."""
    return MeasurementScenario(
        initial=plus(2.11, 1.37),
        stages=(Direction(2.11, 1.37), Direction(2.69, 2.51), Direction(1.16, 2.92)),
    )


def stream_of(uniforms):
    """Stand-in for the Philox stream that yields ``uniforms`` in trial order."""
    uniforms = np.asarray(uniforms, dtype=float)
    return lambda seed, start, count: uniforms[start : start + count]


def random_chain(angles, n_stages, first_is_initial):
    """A chain from (theta, alpha) pairs: the preparation, then ``n_stages``
    stages; with ``first_is_initial`` the first stage equals the preparation."""
    pairs = list(zip(angles[::2], angles[1::2]))
    stages = [Direction(t, a) for t, a in pairs[1 : n_stages + 1]]
    if first_is_initial:
        stages[0] = Direction(*pairs[0])
    return MeasurementScenario(initial=plus(*pairs[0]), stages=tuple(stages))


def per_trial_counts(dist, uniforms):
    """Reference counts: classify every double on its own by inverse CDF,
    the rounding tail clamped to the last sequence with nonzero probability."""
    idx = np.searchsorted(np.cumsum(dist.probs), uniforms, side="right")
    idx = np.minimum(idx, np.flatnonzero(dist.probs)[-1])
    return np.bincount(idx, minlength=len(dist.probs))


class TestSequenceIndexing:

    def test_round_trip(self):
        # index <-> sequence is a bijection: every +/- string of n stages once
        for n in range(1, 7):
            every = {"".join(s) for s in itertools.product("+-", repeat=n)}
            labels = list(sequence_labels(n))
            assert len(labels) == 2**n and set(labels) == every

    def test_first_stage_is_most_significant(self):
        labels = list(sequence_labels(3))
        assert labels[4] == "-++"
        assert labels[1] == "++-"

    def test_string_round_trip(self):
        for n in range(1, 6):
            for i, label in enumerate(sequence_labels(n)):
                assert int(label.translate(str.maketrans("+-", "01")), 2) == i

    def test_labels_in_index_order(self):
        for n in range(1, 11):
            expected = [
                "".join("-" if (i >> (n - 1 - k)) & 1 else "+" for k in range(n))
                for i in range(2**n)
            ]
            assert list(sequence_labels(n)) == expected


class TestExactDistribution:

    def test_repeated_direction_is_certain(self):
        d = Direction(0.4, 1.7)
        dist = exact_distribution(MeasurementScenario(initial=BranchLabel(d, P), stages=(d,)))
        assert dist.probs[0] == pytest.approx(1.0, abs=TOL)
        assert dist.probs[1] == pytest.approx(0.0, abs=TOL)

    def test_single_stage_matches_probability(self):
        initial = plus(0.3, 0.8)
        stage = Direction(1.4, 2.1)
        dist = exact_distribution(MeasurementScenario(initial=initial, stages=(stage,)))
        assert dist.probs[0] == pytest.approx(probability(initial, BranchLabel(stage, P)), abs=TOL)
        assert dist.probs[1] == pytest.approx(probability(initial, BranchLabel(stage, M)), abs=TOL)

    def test_malus_chain(self):
        dist = exact_distribution(malus_chain())
        assert abs(dist.probs[0] - 0.25) < 1e-15

    def test_repeated_stage_never_flips(self):
        d1 = Direction(0.9, 0.3)
        scenario = MeasurementScenario(initial=plus(0.2, 1.1), stages=(d1, d1))
        dist = exact_distribution(scenario)
        assert dist.probs[1] == pytest.approx(0.0, abs=TOL)  # +-
        assert dist.probs[2] == pytest.approx(0.0, abs=TOL)  # -+

    def test_normalization_and_size(self):
        rng = np.random.default_rng(5)
        stages = tuple(Direction(t, a) for t, a in rng.uniform(-3, 3, (6, 2)))
        dist = exact_distribution(MeasurementScenario(initial=plus(0.5, 0.5), stages=stages))
        assert len(dist.probs) == 2 ** 6
        assert dist.total() == pytest.approx(1.0, abs=TOL)

    def test_marginalizing_last_stage(self):
        rng = np.random.default_rng(6)
        stages = tuple(Direction(t, a) for t, a in rng.uniform(-3, 3, (4, 2)))
        scenario = MeasurementScenario(initial=plus(1.0, 0.2), stages=stages)
        full = exact_distribution(scenario)
        shorter = exact_distribution(
            MeasurementScenario(initial=scenario.initial, stages=stages[:-1])
        )
        np.testing.assert_allclose(full.probs.reshape(-1, 2).sum(axis=1), shorter.probs, atol=TOL)

    def test_stage_cap(self):
        stages = tuple(Direction(0.1 * k) for k in range(5))
        scenario = MeasurementScenario(initial=plus(0.0), stages=stages)
        with pytest.raises(StageCapError, match="cap"):
            exact_distribution(scenario, stage_cap=4)
        exact_distribution(scenario, stage_cap=5)

    def test_empty_stages_rejected(self):
        with pytest.raises(ValueError, match="stage"):
            MeasurementScenario(initial=plus(0.0), stages=())

    @given(
        thetas=st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=11),
        initial_branch=st.sampled_from([P, M]),
    )
    @settings(max_examples=200, deadline=None)
    def test_chained_malus_law(self, thetas, initial_branch):
        # at alpha = 0 each stage keeps the sign with probability q and flips
        # it with f, q - f = cos 2(theta_k - theta_{k-1}), so the last stage's
        # sign has E[s_n] = s_0 prod_k cos 2(theta_k - theta_{k-1}); summing out
        # the last stage gives the same law for every shorter chain
        initial = BranchLabel(Direction(thetas[0]), initial_branch)
        stages = tuple(Direction(t) for t in thetas[1:])
        probs = exact_distribution(MeasurementScenario(initial=initial, stages=stages)).probs
        steps = [math.cos(2 * (b - a)) for a, b in zip(thetas, thetas[1:])]
        s_0 = 1.0 if initial_branch is P else -1.0
        for n in range(len(stages), 0, -1):
            signs = [1.0 if label[-1] == "+" else -1.0 for label in sequence_labels(n)]
            assert float(probs @ signs) == pytest.approx(s_0 * math.prod(steps[:n]), abs=TOL)
            probs = probs.reshape(-1, 2).sum(axis=1)


class TestSample:

    def test_certain_outcome(self):
        d = Direction(0.7, 0.1)
        scenario = MeasurementScenario(initial=BranchLabel(d, P), stages=(d,))
        report = sample(exact_distribution(scenario), seed=3, trials=5000)
        assert report.counts.tolist() == [5000, 0]
        assert report.max_abs_deviation_sigma == 0.0

    def test_determinism(self):
        dist = exact_distribution(malus_chain())
        r1 = sample(dist, seed=123, trials=20000)
        r2 = sample(dist, seed=123, trials=20000)
        assert np.array_equal(r1.counts, r2.counts)
        assert r1.max_abs_deviation_sigma == r2.max_abs_deviation_sigma

    def test_seed_changes_counts(self):
        dist = exact_distribution(malus_chain())
        r1 = sample(dist, seed=1, trials=20000)
        r2 = sample(dist, seed=2, trials=20000)
        assert not np.array_equal(r1.counts, r2.counts)

    def test_block_partitioning_is_bit_identical(self):
        # the stream-split rule: any 4-aligned partition of the trial space,
        # the default one included, which splits runs above DEFAULT_BLOCK_SIZE
        dist = exact_distribution(malus_chain())
        for trials, blocks in ((12345, (4, 64, 1000, 4096)), (DEFAULT_BLOCK_SIZE + 12345, (4096,))):
            whole = sample(dist, seed=99, trials=trials, block_size=trials + (-trials % 4))
            assert np.array_equal(whole.counts, sample(dist, seed=99, trials=trials).counts)
            for block in blocks:
                split = sample(dist, seed=99, trials=trials, block_size=block)
                assert np.array_equal(whole.counts, split.counts)

    def test_misaligned_block_rejected(self):
        with pytest.raises(ValueError, match="multiple of 4"):
            sample(exact_distribution(malus_chain()), seed=0, trials=100, block_size=10)

    def test_counts_sum_to_trials(self):
        report = sample(exact_distribution(malus_chain()), seed=11, trials=33333)
        assert int(report.counts.sum()) == 33333

    def test_malus_frequencies_within_five_sigma(self):
        report = sample(exact_distribution(malus_chain()), seed=2024, trials=1_000_000)
        assert report.max_abs_deviation_sigma <= 5.0

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            sample(exact_distribution(malus_chain()), seed=0, trials=0)

    @pytest.mark.parametrize("trials", [2**63, 10**25])
    def test_trials_beyond_int64_rejected(self, trials):
        # counts are int64; rejected before a block is drawn
        dist = exact_distribution(malus_chain())
        with mock.patch.object(simulate, "map_in_order", side_effect=AssertionError("sampled")):
            with pytest.raises(ValueError, match="trials"):
                sample(dist, seed=0, trials=trials)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            sample(exact_distribution(malus_chain()), seed=-1, trials=10)

    @pytest.mark.parametrize("name", ["seed", "trials", "block_size"])
    @pytest.mark.parametrize("value", [1.5, 10.5, 8.0])
    def test_non_integer_argument_rejected_by_name(self, name, value):
        # a float seed used to be truncated silently, and a float trial count
        # failed with a TypeError that did not name it
        args = {"seed": 1, "trials": 12, "block_size": 8, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            sample(exact_distribution(malus_chain()), **args)

    def test_numpy_integer_arguments_accepted(self):
        dist = exact_distribution(malus_chain())
        report = sample(dist, seed=np.int64(3), trials=np.int64(1000), block_size=np.int64(64))
        assert type(report.seed) is int and type(report.trials) is int
        assert np.array_equal(report.counts, sample(dist, seed=3, trials=1000).counts)

    def test_distribution_without_a_possible_outcome_rejected(self):
        with pytest.raises(ValueError, match="every outcome has probability 0"):
            sample(OutcomeDistribution(1, np.zeros(2)), 0, 10)

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf], ids=["negative", "nan", "inf"])
    def test_probability_not_finite_and_non_negative_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            dist = OutcomeDistribution(2, np.array([0.5, bad, 0.5, 0.0]))
            sample(dist, 0, 1000)


class TestOutcomeDistribution:
    """A distribution checks its table on construction, so ``sample`` can trust it."""

    @pytest.mark.parametrize(
        "n_stages, probs",
        [(2, [0.1] * 4), (1, [0.9, 0.9])],
        ids=["sum_0.4", "sum_1.8"],
    )
    def test_table_that_does_not_sum_to_one_rejected(self, n_stages, probs):
        with pytest.raises(ValueError, match="sum to 1"):
            OutcomeDistribution(n_stages, probs)

    @pytest.mark.parametrize(
        "n_stages, probs",
        [(3, np.full(4, 0.25)), (1, np.full(4, 0.25)), (2, np.full((2, 2), 0.25))],
        ids=["too_short", "too_long", "two_dimensional"],
    )
    def test_table_of_the_wrong_shape_rejected(self, n_stages, probs):
        with pytest.raises(ValueError, match=f"{n_stages} stages need {2**n_stages} probabilities"):
            OutcomeDistribution(n_stages, probs)

    def test_list_is_stored_as_a_float64_array(self):
        dist = OutcomeDistribution(2, [0.25, 0, 0.5, 0.25])
        assert isinstance(dist.probs, np.ndarray) and dist.probs.dtype == np.float64
        assert dist.probs.tolist() == [0.25, 0.0, 0.5, 0.25]
        report = sample(dist, seed=3, trials=1000)
        assert report.counts.sum() == 1000 and report.counts[1] == 0

    def test_table_is_a_read_only_copy(self):
        source = np.array([0.5, 0.5])
        dist = OutcomeDistribution(1, source)
        source[:] = [0.9, 0.9]  # would not pass the sum check
        assert dist.probs.tolist() == [0.5, 0.5]
        fair = OutcomeDistribution(1, [0.5, 0.5])
        counts = sample(dist, seed=4, trials=10_000).counts
        assert counts.tolist() == sample(fair, seed=4, trials=10_000).counts.tolist()
        with pytest.raises(ValueError, match="read-only"):
            dist.probs[0] = 0.9

    def test_rounding_bound_is_linear_in_the_stage_count(self):
        eps = np.finfo(np.float64).eps
        # 8 * (n_stages + 1) eps: 32 eps at 3 stages, 24 eps at 2
        OutcomeDistribution(3, [0.125 + 30 * eps] + [0.125] * 7)
        with pytest.raises(ValueError, match="sum to 1"):
            OutcomeDistribution(2, [0.25 + 30 * eps] + [0.25] * 3)

    @given(
        angles=st.lists(st.floats(-1e8, 1e8), min_size=26, max_size=26),
        n_stages=st.integers(1, 12),
        first_is_initial=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_distribution_passes_its_own_check(self, angles, n_stages, first_is_initial):
        # the check runs on construction: an exact table never trips the rounding bound
        dist = exact_distribution(random_chain(angles, n_stages, first_is_initial))
        assert dist.probs.shape == (2**n_stages,)


class TestSampleTail:

    def test_rounding_tail_maps_to_a_possible_sequence(self):
        dist = exact_distribution(tail_chain())
        probs = dist.probs
        assert probs[-1] == 0.0 and np.cumsum(probs)[-1] <= LAST_UNIFORM
        with mock.patch.object(simulate, "_uniform_block", stream_of([LAST_UNIFORM] * 8)):
            report = sample(dist, seed=0, trials=8)
        assert report.counts[np.flatnonzero(probs)[-1]] == 8
        assert report.counts.sum() == 8
        assert np.isfinite(report.max_abs_deviation_sigma)

    @given(
        angles=st.lists(st.floats(-4.0, 4.0), min_size=14, max_size=14),
        n_stages=st.integers(1, 6),
        first_is_initial=st.booleans(),
        uniforms=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_zero_probability_is_never_sampled(self, angles, n_stages, first_is_initial, uniforms):
        pairs = list(zip(angles[::2], angles[1::2]))
        stages = [Direction(t, a) for t, a in pairs[1 : n_stages + 1]]
        if first_is_initial:
            stages[0] = Direction(*pairs[0])
        scenario = MeasurementScenario(initial=plus(*pairs[0]), stages=tuple(stages))
        uniforms = [*uniforms, LAST_UNIFORM]
        dist = exact_distribution(scenario)
        with mock.patch.object(simulate, "_uniform_block", stream_of(uniforms)):
            report = sample(dist, seed=0, trials=len(uniforms))
        assert not report.counts[dist.probs == 0.0].any()
        assert report.counts.sum() == len(uniforms)


class TestSampleCounting:
    """Counting blocks, by comparison or by sorting, gives exactly the
    per-trial inverse-CDF counts. A block of n doubles compares a table of at
    most n.bit_length() entries and sorts against a longer one."""

    @given(
        angles=st.lists(st.floats(-4.0, 4.0), min_size=18, max_size=18),
        n_stages=st.integers(1, 8),
        first_is_initial=st.booleans(),
        seed=st.integers(0, 2**64 - 1),
        trials=st.integers(1, 6000).filter(lambda t: t % 4 != 0),
        block_size=st.integers(1, 1024).map(lambda k: 4 * k),
    )
    @settings(max_examples=150, deadline=None)
    def test_counts_match_per_trial_reference(
        self, angles, n_stages, first_is_initial, seed, trials, block_size
    ):
        dist = exact_distribution(random_chain(angles, n_stages, first_is_initial))
        report = sample(dist, seed=seed, trials=trials, block_size=block_size)
        reference = per_trial_counts(dist, simulate._uniform_block(seed, 0, trials))
        assert np.array_equal(report.counts, reference)

    def test_ties_go_to_the_next_possible_sequence(self):
        # cum = (0.25, 0.25, 0.75, 1): a double equal to cum[k] belongs to the
        # first sequence whose cum exceeds it, so the p = 0 sequence 1 is skipped
        dist = OutcomeDistribution(n_stages=2, probs=np.array([0.25, 0.0, 0.5, 0.25]))
        under_quarter, under_three_quarters = np.nextafter([0.25, 0.75], 0.0)
        uniforms = [0.0, 0.25, 0.25, under_quarter, 0.75, 0.75, under_three_quarters, 0.5]
        uniforms.append(LAST_UNIFORM)
        # 4 entries: blocks of 4 (4, 4, 1) sort; of 8, 8 compares and the last 1 sorts;
        # of 12, one block of 9 compares
        for block_size in (4, 8, 12):
            with mock.patch.object(simulate, "_uniform_block", stream_of(uniforms)):
                report = sample(dist, seed=0, trials=len(uniforms), block_size=block_size)
            assert report.counts.tolist() == [2, 0, 4, 3]

    def test_repeated_and_boundary_doubles_match_reference(self):
        dist = exact_distribution(tail_chain())
        cum = np.cumsum(dist.probs)
        edges = [np.nextafter(c, d) for c in cum for d in (0.0, 1.0)]
        uniforms = [0.0, *cum, *cum, *edges, *cum[::-1], LAST_UNIFORM, LAST_UNIFORM, 0.0] * 4
        # 8 entries against 176 doubles: blocks of 4, 12 and 64 sort; 128 compares
        # and its last 48 sort; 256 (one block of 176) compares
        for block_size in (4, 12, 64, 128, 256):
            with mock.patch.object(simulate, "_uniform_block", stream_of(uniforms)):
                report = sample(dist, seed=0, trials=len(uniforms), block_size=block_size)
            assert np.array_equal(report.counts, per_trial_counts(dist, np.array(uniforms)))

    @pytest.mark.parametrize(
        "n_stages, block_size, trials",
        [
            (3, 124, 1000),  # 8 entries: 124 doubles sort (bit length 7)
            (3, 128, 1000),  # 128 compare (bit length 8), the last 104 sort
            (3, 256, 1000),  # every block compares, the last 232 too
            (4, 32764, 70000),  # 16 entries: 32764 doubles sort (bit length 15)
            (4, 32768, 70000),  # 32768 compare (bit length 16), the last 4464 sort
            (5, 4100, 10003),  # 32 entries sort below 2^31 doubles: every block sorts
        ],
    )
    @given(
        angles=st.lists(st.floats(-4.0, 4.0), min_size=12, max_size=12),
        first_is_initial=st.booleans(),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_both_routes_match_per_trial_reference(
        self, n_stages, block_size, trials, angles, first_is_initial, seed
    ):
        dist = exact_distribution(random_chain(angles, n_stages, first_is_initial))
        report = sample(dist, seed=seed, trials=trials, block_size=block_size)
        reference = per_trial_counts(dist, simulate._uniform_block(seed, 0, trials))
        assert np.array_equal(report.counts, reference)


#: CPU sets for the thread pool: one worker, the machine's own, more than it has.
WORKERS = {"one_worker": {0}, "default_workers": None, "eight_workers": set(range(8))}


class TestSampleThreads:
    """Blocks run on one thread per available CPU; counts do not depend on it."""

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("block_size", [4, 64, DEFAULT_BLOCK_SIZE])
    def test_counts_match_per_trial_reference(self, monkeypatch, block_size, workers):
        cpus = WORKERS[workers]
        if cpus is not None:
            monkeypatch.setattr(_pool.os, "sched_getaffinity", lambda pid: cpus, raising=False)
        dist = exact_distribution(tail_chain())
        trials = 9 * block_size + 3  # ten blocks, the last one partial
        report = sample(dist, seed=77, trials=trials, block_size=block_size)
        reference = per_trial_counts(dist, simulate._uniform_block(77, 0, trials))
        assert np.array_equal(report.counts, reference)

    def test_one_block_starts_no_pool(self):
        # one block is one call, made on the caller's thread: the pool module is never imported
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from polamp.simulate import OutcomeDistribution, sample\n"
            "report = sample(OutcomeDistribution(1, np.array([0.25, 0.75])), 3, 100_000)\n"
            "assert report.counts.sum() == 100_000\n"
            "print(sorted(m for m in sys.modules if m.startswith('concurrent')))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(simulate.__file__))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_more_workers_than_cores_under_fast_thread_switching(self, monkeypatch):
        # 1001 blocks of 4 trials, a thread switch every microsecond (about 0.1 s)
        monkeypatch.setattr(_pool.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        dist = exact_distribution(tail_chain())
        reference = per_trial_counts(dist, simulate._uniform_block(5, 0, 4003))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = sample(dist, seed=5, trials=4003, block_size=4)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(report.counts, reference)
