"""Sequential analyzer chains: exact outcome distributions and Monte Carlo.

A scenario is an initial branch label followed by one or more analyzer
directions. The single-step law is the transition probability between
branch labels; chains use the projective collapse convention: after a stage
at direction d yields branch s, the photon's state is exactly the label
(d, s). The single-step law itself makes no statement about sequences; the
collapse convention is the standard completion and is an extension.

Outcome sequences are indexed big-endian: the first stage is the most
significant bit, Plus = 0 and Minus = 1, so sequence (+,-) of a two-stage
chain has index 0b01 = 1.

Randomness contract
-------------------
Sampling uses the counter-based Philox-4x64-10 generator (numpy), keyed by
the user seed, which is platform-independent and seedable. Trial ``i``
consumes exactly the ``i``-th double of that stream, so results are
deterministic in (scenario, seed, trials). Stream-split rule for parallel
or blocked execution: partition the trial index space into contiguous
ranges whose boundaries are multiples of 4 (the Philox output block is
four 64-bit words); a worker owning [lo, hi) reconstructs its uniforms by
advancing the counter ``lo / 4`` blocks. :func:`sample` applies the rule
across threads: its blocks run on one thread per available CPU, each block
draws its own doubles and counts those below each cumulative probability,
and the per-sequence sums are bit-identical for every partition and every
thread count. A block of n doubles counts a table of at most
``n.bit_length()`` entries by one comparison pass per entry, and a longer
table by sorting (about log2 n passes) and ``searchsorted``; both give the
same exact counts.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields

import numpy as np

from ._pool import map_in_order
from .amplitudes import _block, _probability_of, _read_label
from .directions import (
    DEFAULT_STAGE_CAP,
    BranchLabel,
    Direction,
    _instance,
    check_count,
    check_seed,
)

#: Trials per sampling block by default (a multiple of 4). A block is drawn
#: inside the thread that counts it, so the uniforms held at once are 2 MB
#: (8 B per trial) per thread, one thread per available CPU, for any trial count.
DEFAULT_BLOCK_SIZE = 1 << 18


class StageCapError(ValueError):
    """Scenario has more stages than ``DEFAULT_STAGE_CAP`` allows."""


def sequence_labels(n_stages: int) -> Iterator[str]:
    """Every sequence's label, one at a time in index order: ``++ +- -+ --`` at 2 stages."""
    return map("".join, itertools.product("+-", repeat=n_stages))


@dataclass(frozen=True)
class MeasurementScenario:
    """An initial branch label followed by an ordered list of analyzers.

    ``initial`` must be a :class:`BranchLabel` and ``stages`` an iterable of one or more
    :class:`Direction`; a field of another type is a ``ValueError`` that names it.
    """

    initial: BranchLabel
    stages: tuple[Direction, ...]

    def __post_init__(self):
        _instance(self.initial, BranchLabel, "initial")
        _instance(self.stages, Iterable, "stages")
        stages = tuple(_instance(d, Direction, f"stages[{i}]") for i, d in enumerate(self.stages))
        if not stages:
            raise ValueError("scenario needs at least one stage")
        object.__setattr__(self, "stages", stages)

    @property
    def n_stages(self) -> int:
        return len(self.stages)


class _ArrayRecord:
    """A record of arrays: equal to a record of its type with equal fields, and unhashable."""

    __hash__ = None

    def __eq__(self, other):
        return type(other) is type(self) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )


@dataclass(frozen=True, eq=False)
class OutcomeDistribution(_ArrayRecord):
    """Probability of every outcome sequence of a scenario: the table alone.

    ``probs[i]`` is the probability of sequence ``i`` (module docstring),
    whose label is the ``i``-th of :func:`sequence_labels`. Summing out the
    last stage is ``probs.reshape(-1, 2).sum(axis=1)``. ``probs`` is stored as a
    read-only float64 copy, so the checks hold for its life: it is 1-D, with ``2**n``
    finite, non-negative entries (``n = n_stages >= 1``, read from its length), not all 0,
    summing to 1 within ``8 * (n + 1)`` eps (5x :func:`exact_distribution`'s worst rounding).
    """

    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        probs = np.array(self.probs, dtype=np.float64)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        n = self.n_stages
        if probs.ndim != 1 or n < 1 or probs.size != 1 << n:
            raise ValueError(f"need 2**n probabilities for n >= 1 stages, not shape {probs.shape}")
        if not np.all(np.isfinite(probs) & (probs >= 0)):
            raise ValueError("probabilities must be finite and non-negative")
        if not probs.any():
            raise ValueError("every outcome has probability 0: there is nothing to sample")
        deviation = float(probs.sum()) - 1.0
        if abs(deviation) > 8 * (n + 1) * np.finfo(np.float64).eps:
            raise ValueError(f"probabilities sum to 1 {deviation:+.3e}, beyond rounding")

    @property
    def n_stages(self) -> int:
        return self.probs.size.bit_length() - 1


@dataclass(frozen=True, eq=False)
class SampleReport(_ArrayRecord):
    """Counts per outcome sequence from a seeded Monte Carlo run."""

    seed: int
    trials: int
    #: Count of every sequence, indexed as ``OutcomeDistribution.probs``.
    counts: np.ndarray = field(repr=False)
    #: Expected count of every sequence, trials * p.
    expected: np.ndarray = field(repr=False)
    #: |count - expected| of every sequence in binomial standard deviations;
    #: 0 where p is 0 or 1 and the count matches, inf where it does not.
    sigma: np.ndarray = field(repr=False)

    @property
    def max_abs_deviation_sigma(self) -> float:
        return float(self.sigma.max())


def _stage_transition(prev: Direction, stage: Direction) -> np.ndarray:
    """2x2 matrix T[s, t] = P(prev branch s -> stage branch t)."""
    return np.array([[_probability_of(z) for z in row] for row in _block(prev, stage)])


def exact_distribution(scenario: MeasurementScenario) -> OutcomeDistribution:
    """Exact probability of every outcome sequence.

    The probability of (s_1 ... s_n) is the product of the stage-wise
    transition probabilities under the collapse convention. Refuses
    scenarios beyond ``DEFAULT_STAGE_CAP`` stages (2^n sequences).
    """
    n = scenario.n_stages
    if n > DEFAULT_STAGE_CAP:
        raise StageCapError(f"{n} stages exceeds the cap of {DEFAULT_STAGE_CAP} (2^n outcome blowup)")

    (direction, row), stages = _read_label(scenario.initial), scenario.stages
    probs = _stage_transition(direction, stages[0])[int(row)]
    for prev, stage in zip(stages, stages[1:]):
        # sequence 2i + t extends sequence i, whose last branch is i & 1
        t = _stage_transition(prev, stage)
        probs = (probs.reshape(-1, 2)[:, :, None] * t).reshape(-1)
    return OutcomeDistribution(probs)


def _uniform_block(seed: int, start: int, count: int) -> np.ndarray:
    """Doubles ``start .. start+count`` of the Philox(key=seed) stream.

    ``start`` must be a multiple of 4: Philox emits four 64-bit words per
    counter block and one double consumes one word.
    """
    if start % 4 != 0:
        raise ValueError("block start must be a multiple of 4 (Philox block alignment)")
    bg = np.random.Philox(key=seed)
    if start:
        bg.advance(start // 4)
    return np.random.Generator(bg).random(count)


def sample(
    distribution: OutcomeDistribution,
    seed: int,
    trials: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> SampleReport:
    """Monte Carlo realization of ``distribution`` (see :func:`exact_distribution`).

    Trial ``i`` draws sequence ``j`` iff ``cum[j-1] <= u < cum[j]``, with
    ``u`` its stream double (module docstring) and ``cum`` the cumulative
    probabilities. Trials run in blocks of ``block_size`` (a multiple of 4),
    on one thread per available CPU. A block of n doubles counts those below
    each ``cum[j]`` by comparison when ``cum`` has at most ``n.bit_length()``
    entries, else by sorting them and ``searchsorted``; the differences of
    these numbers are its counts (bit-identical for any block size and
    thread count). A double in the rounding tail, at or above ``cum[-1]``,
    maps to the last sequence with nonzero probability, so p = 0 is never
    drawn. ``distribution`` must be an :class:`OutcomeDistribution`, which has
    checked its probabilities on construction.
    ``seed``, ``trials`` and ``block_size`` pass the checks of :mod:`polamp.directions`.

    The report's ``max_abs_deviation_sigma``, the largest of its ``sigma``, is the largest
    per-sequence deviation from the expected count in binomial standard deviations.
    """
    distribution = _instance(distribution, OutcomeDistribution, "distribution")
    seed, trials = check_seed(seed), check_count(trials, "trials")
    block_size = check_count(block_size, "block_size")
    if block_size % 4 != 0:
        raise ValueError(f"block_size: must be a multiple of 4, got {block_size}")

    probs = distribution.probs
    cum = np.cumsum(probs)
    last_possible = int(np.flatnonzero(probs)[-1])

    def below_cum(lo):
        u = _uniform_block(seed, lo, min(block_size, trials - lo))
        # one pass per entry against the sort's ~log2(n) passes
        if cum.size <= u.size.bit_length():
            return np.array([np.count_nonzero(u < c) for c in cum])
        u.sort()
        return np.searchsorted(u, cum, side="left")

    below = sum(map_in_order(below_cum, range(0, trials, block_size)))
    counts = np.diff(below, prepend=0)
    counts[last_possible] += trials - below[-1]

    expected = trials * probs
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma = np.abs(counts - expected) / np.sqrt(trials * probs * (1.0 - probs))
    sigma[np.isnan(sigma)] = 0.0  # 0/0: p is 0 or 1 and the count matches
    return SampleReport(
        seed=seed,
        trials=trials,
        counts=counts,
        expected=expected,
        sigma=sigma,
    )
