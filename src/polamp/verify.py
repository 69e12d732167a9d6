"""Randomized verification suites and closed-form adjudication.

Every algebraic law the package relies on is checked here against an
independent route over seeded random parameter draws:

* amplitudes against the inner-product oracle built from the reference
  states (cos t, sin t e^{ia}) / (-sin t, cos t e^{ia});
* reversal symmetry, orthonormality, chaining, periodicity;
* probabilities: squared moduli against the closed trig forms and the
  stated symmetries;
* observables: amplitude-product construction against the closed trig
  forms, the spectral decomposition, and a generic Hermitian eigensolver
  (numpy.linalg.eigh), which lives only here, never in the core API;
* eigenvalue equation and involution of the polarization operator;
* expectation values: matrix route against the probability route for
  random basis directions (basis independence);
* standard-limit reductions.

The adjudication half compares the verbatim transcriptions in
:mod:`polamp.closedforms` element by element, in three errata tables, and
emits an :class:`ErrataRecord` wherever a stated form disagrees with the
derived value beyond tolerance. The observable closed-form suite is the
Eq53-Eq56 table: one job, whose worst lanes give both its result and its
records. The expected outcome: records for Eq58, Eq59 and Eq72, none for
Eq53-Eq56.

:func:`run_all` is the one entrance, and alone checks its inputs. A suite,
``suite_<name>``, is its residual function, declared by :func:`_suite` with
the ranges of its draws; ``suite.job`` builds its job.

A suite or table is one kind of job (:func:`_job`) over arrays of ``draws``
doubles from the run's PCG64 stream, but no such array exists: each block
of ``LANE_BLOCK`` lanes draws its own slice of them in its worker thread by
counter advance (:func:`_draws`), so memory does not grow with the draw
count. A run's jobs (:func:`_jobs`) draw the lanes of every suite and then
of the other two tables first; then one function (:func:`_worst`) maps all
their blocks as one stream (no barrier between suites) and reduces them:
each residual's largest value and the first lane holding it. An erratum reads its stated
and derived values by drawing that lane again. ``polamp verify`` keeps freed blocks in
glibc's heap (:func:`polamp.cli._keep_heap_resident`).

The residuals' 2x2 algebra is :func:`_diff`, :func:`_matvec`, :func:`_matmul` and
:func:`_vdot`, in the operand order of the sums they replaced: numpy's SIMD complex
product may fuse a multiply into the add, so a swapped operand moves a residual's bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closedforms
from ._pool import map_in_order
from .amplitudes import amp_matrix
from .directions import DEFAULT_DRAWS, DEFAULT_TOLERANCE, check_count, check_seed, check_tolerance
from .operators import observable_elements_product

#: Lanes per block. Every suite and errata table draws its inputs and evaluates
#: its residuals over blocks of this many lanes, one thread per available CPU,
#: and reduces them in block order: results do not depend on the block size or
#: the thread count, and a block's draws and temporaries stay cache-sized.
LANE_BLOCK = 8192

#: Wider tolerance for the legs involving the generic eigensolver.
EIGENSOLVER_TOLERANCE = 1e-10


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one invariant suite over N random draws: it passes below its tolerance."""

    name: str
    draws: int
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tolerance  # so a nan residual fails


@dataclass(frozen=True)
class ErrataRecord:
    """A stated closed form that disagrees with its derived value.

    ``paper_value``/``derived_value`` are the values at the draw where the
    disagreement is largest; records exist only for diffs above tolerance.
    """

    equation: str
    element: str
    paper_value: complex
    derived_value: complex
    max_abs_diff: float


@dataclass(frozen=True)
class VerifyReport:
    suites: tuple[SuiteResult, ...]
    errata: tuple[ErrataRecord, ...]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)


#: The (low, high) of an angle draw, broad enough to exercise periodicity.
_ANGLE = (-2 * np.pi, 2 * np.pi)
#: The draws behind one eigenvalue pair (see :func:`_eigenvalues`): r_plus, the
#: gap to r_minus, and the gap's sign coin.
_EIGENVALUES = ((-3.0, 3.0), (0.5, 3.0), (0.0, 1.0))


def _draws(rng: np.random.Generator, n: int, *ranges):
    """Stand in for ``len(ranges)`` arrays of ``n`` draws from ``rng``, one after the other.

    Array ``k`` is ``rng.uniform(*ranges[k], n)``. ``rng`` is advanced past
    them all, as if they had been drawn. The returned ``lanes(lo, hi)`` draws
    lanes ``lo .. hi`` of each array from a PCG64 rebuilt at the recorded
    state and moved by counter advance, so a block draws only its own lanes,
    in its own thread. ``uniform`` takes one 64-bit output per double, so the
    lanes equal the slices of the full arrays: the stream-split rule of
    ``sample`` (Philox), here for PCG64, the new generator of ``run_all``,
    which holds no buffered 32-bit half for ``advance`` to drop.
    """
    state = rng.bit_generator.state
    rng.bit_generator.advance(n * len(ranges))

    def lanes(lo: int, hi: int) -> list:
        block = np.random.PCG64()
        block.state = state
        block.advance(lo)
        gen, out = np.random.Generator(block), []
        for bounds in ranges:
            out.append(gen.uniform(*bounds, hi - lo))
            block.advance(n - (hi - lo))  # to the same lanes of the next array
        return out

    return lanes


def _worst(jobs, n: int) -> list:
    """The results of ``(fn, lanes, finish)`` jobs, in job order, all blocks mapped as one stream.

    A job's results are ``finish(worst)``, where ``worst`` holds the largest value of each lane
    array ``fn(*lanes(lo, hi))`` returns and its first lane: ``max`` over the blocks' ``argmax``
    in block order keeps the first of equal maxima.
    """
    blocks = -(-n // LANE_BLOCK)

    def block_worst(i):
        (fn, lanes, _), lo = jobs[i // blocks], i % blocks * LANE_BLOCK
        residuals = fn(*lanes(lo, min(lo + LANE_BLOCK, n)))
        return [(a[k], lo + int(k)) for a in residuals for k in [a.argmax()]]

    worst = [[] for _ in jobs]
    for i, block in enumerate(map_in_order(block_worst, range(len(jobs) * blocks))):
        job, b = divmod(i, blocks)
        worst[job] = [max(p, key=lambda w: w[0]) for p in zip(worst[job], block)] if b else block
    return [result for (*_, finish), w in zip(jobs, worst) for result in finish(w)]


def _records(equation_ids, forms, lanes, tol, worst) -> list[ErrataRecord]:
    """A record per element whose largest difference in ``worst`` exceeds tol, where
    ``forms(*block) = (stated, derived)``, with their values at its first lane.
    """
    return [
        ErrataRecord(equation_ids[i][j], closedforms.ELEMENT_NAMES[i][j],
                     complex(stated[i][j][0]), complex(derived[i][j][0]), float(diff))
        for (i, j), (diff, k) in zip(_PAIRS, worst)
        if diff > tol
        for stated, derived in [forms(*lanes(k, k + 1))]
    ]


def _job(n, rng, tol, ranges, fn, name=None, equation_ids=None) -> tuple:
    """A :func:`_worst` job over ``n`` lanes drawn from ``ranges``.

    With ``name`` it is a suite, whose residuals ``fn`` returns;
    with ``equation_ids`` an errata table, where ``fn`` returns ``(stated, derived)`` blocks
    and the residuals are their element differences; or both. Its results are the
    :class:`SuiteResult`, then the :func:`_records` of the same worst lanes.
    """
    lanes = _draws(rng, n, *ranges)
    residuals = fn if equation_ids is None else lambda *block: _diff(*fn(*block))

    def finish(worst) -> list:
        max_res = float(max((value for value, _ in worst), default=0.0))
        suite = [SuiteResult(name, n, max_res, tol)] if name else []
        return suite + (_records(equation_ids, fn, lanes, tol, worst) if equation_ids else [])

    return residuals, lanes, finish


def _suite(*ranges, floor: float = 0.0, equation_ids=None):
    """Declare a suite: its residual function, by the ranges of its lanes (see :func:`_job`).

    It passes below ``max(tol, floor)``; ``suite.job(n, rng, tol)`` draws its lanes for
    :func:`_worst`, and its blocks call the residual function itself.
    """

    def declare(fn):
        name = fn.__name__.removeprefix("suite_")
        fn.job = lambda n, rng, tol: _job(n, rng, max(tol, floor), ranges, fn, name, equation_ids)
        return fn

    return declare


def _reference_state(theta, alpha):
    """Components of the textbook (plus, minus) states the amplitude oracle is built from."""
    c, s = np.cos(theta), np.sin(theta)
    phase = np.exp(1j * np.asarray(alpha))
    return (c + 0j, s * phase), (-s + 0j, c * phase)


def _oracle_amplitude(initial, final):
    """Inner product conj(final state) . initial state."""
    (a1, a2), (b1, b2) = initial, final
    return np.conj(b1) * a1 + np.conj(b2) * a2


#: Block indices of the four (initial, final) branch pairs, row-major (0 = plus).
_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


# Products of 2x2 blocks and 2-vectors of lane arrays, in the operand order of the residuals
# they replaced (see the module docstring). The oracle, the spectral leg and the diagonals
# squared as ``np.abs(x) ** 2`` stay written out: the oracle shares no code with what it
# checks, and ``np.abs(x) ** 2`` rounds unlike ``x * conj(x)``.


def _diff(x, y) -> list:
    """``|x - y|`` per element of two blocks, in ``_PAIRS`` order."""
    return [np.abs(x[i][j] - y[i][j]) for i, j in _PAIRS]


def _matvec(m, v) -> list:
    return [row[0] * v[0] + row[1] * v[1] for row in m]


def _matmul(x, y) -> list:
    return [[row[0] * y[0][t] + row[1] * y[1][t] for t in (0, 1)] for row in x]


def _vdot(u, v):
    """``conj(u) . v``."""
    return np.conj(u[0]) * v[0] + np.conj(u[1]) * v[1]


@_suite(*[_ANGLE] * 4)
def suite_amplitude_oracle(ta, aa, tb, ab):
    block = amp_matrix(ta, aa, tb, ab)
    states_a, states_b = _reference_state(ta, aa), _reference_state(tb, ab)
    return [
        np.abs(block[s][t] - _oracle_amplitude(states_a[s], states_b[t])) for s, t in _PAIRS
    ]


@_suite(*[_ANGLE] * 4)
def suite_hermiticity(ta, aa, tb, ab):
    forward = amp_matrix(ta, aa, tb, ab)
    reverse = amp_matrix(tb, ab, ta, aa)
    return [np.abs(forward[s][t] - np.conj(reverse[t][s])) for s, t in _PAIRS]


@_suite(*[_ANGLE] * 4)
def suite_orthonormality(ta, aa, tb, ab):
    (pp, pm), (mp, mm) = amp_matrix(ta, aa, tb, ab)
    return [
        np.abs(np.abs(pp) ** 2 + np.abs(pm) ** 2 - 1.0),
        np.abs(np.abs(mp) ** 2 + np.abs(mm) ** 2 - 1.0),
        np.abs(pp * np.conj(mp) + pm * np.conj(mm)),
    ]


@_suite(*[_ANGLE] * 6)
def suite_chaining(ta, aa, tb, ab, tc, ac):
    chained = _matmul(amp_matrix(ta, aa, tc, ac), amp_matrix(tc, ac, tb, ab))
    return _diff(chained, amp_matrix(ta, aa, tb, ab))


@_suite(*[_ANGLE] * 4)
def suite_probability_forms(ta, aa, tb, ab):
    (pp, pm), (mp, mm) = amp_matrix(ta, aa, tb, ab)
    equal = closedforms.prob_equal_closed(ta, aa, tb, ab)
    mixed = closedforms.prob_mixed_closed(ta, aa, tb, ab)
    return [
        np.abs(np.abs(pp) ** 2 - equal),
        np.abs(np.abs(mm) ** 2 - equal),
        np.abs(np.abs(pm) ** 2 - mixed),
        np.abs(np.abs(mp) ** 2 - mixed),
        # stated symmetries, via the squared-modulus route
        np.abs(np.abs(mm) ** 2 - np.abs(pp) ** 2),
        np.abs(np.abs(mp) ** 2 - np.abs(pm) ** 2),
    ]


@_suite(*[_ANGLE] * 4)
def suite_periodicity(ta, aa, tb, ab):
    two_pi = 2 * np.pi
    base = amp_matrix(ta, aa, tb, ab)
    shifted = (
        (ta + two_pi, aa, tb, ab),
        (ta, aa + two_pi, tb, ab),
        (ta, aa, tb - two_pi, ab),
        (ta, aa, tb, ab - two_pi),
        (ta + two_pi, aa - two_pi, tb, ab),
    )
    # lazy, so that one shifted block and one residual are held at a time
    return (
        np.abs(block[s][t] - base[s][t])
        for block in (amp_matrix(*angles) for angles in shifted)
        for s, t in _PAIRS
    )


def _eigenvalues(r_plus, gap, coin):
    """Well-separated eigenvalue pairs (separation >= 0.5 keeps eigenvectors stable)."""
    return r_plus, r_plus - gap * np.where(coin < 0.5, 1.0, -1.0)


@_suite(*[_ANGLE] * 4, *_EIGENVALUES, equation_ids=closedforms.OBSERVABLE_ELEMENT_IDS)
def suite_observable_closed_forms(tc, ac, tb, ab, *eigenvalue_draws):
    """The stated observable elements (Eq53-Eq56) against the amplitude products."""
    r_plus, r_minus = _eigenvalues(*eigenvalue_draws)
    return (
        closedforms.observable_elements(tc, ac, tb, ab, r_plus, r_minus),
        observable_elements_product(tc, ac, tb, ab, r_plus, r_minus),
    )


@_suite(*[_ANGLE] * 4, *_EIGENVALUES, floor=EIGENSOLVER_TOLERANCE)
def suite_operator_oracle_triangle(tc, ac, tb, ab, *eigenvalue_draws):
    """Amplitude products vs spectral form vs numpy.linalg.eigh.

    Runs at no less than EIGENSOLVER_TOLERANCE, since one leg is a generic
    eigensolver.
    """
    r_plus, r_minus = _eigenvalues(*eigenvalue_draws)
    m = len(r_plus)
    product = observable_elements_product(tc, ac, tb, ab, r_plus, r_minus)

    # eigenvector components chi(b^s, c^i)
    (xp1, xp2), (xm1, xm2) = amp_matrix(tb, ab, tc, ac)
    spectral = (
        (
            r_plus * np.abs(xp1) ** 2 + r_minus * np.abs(xm1) ** 2,
            r_plus * xp1 * np.conj(xp2) + r_minus * xm1 * np.conj(xm2),
        ),
        (
            r_plus * xp2 * np.conj(xp1) + r_minus * xm2 * np.conj(xm1),
            r_plus * np.abs(xp2) ** 2 + r_minus * np.abs(xm2) ** 2,
        ),
    )

    out = _diff(product, spectral)
    eigvals, eigvecs = np.linalg.eigh(np.moveaxis(np.array(product), -1, 0))
    lo = np.minimum(r_plus, r_minus)
    hi = np.maximum(r_plus, r_minus)
    out.append(np.abs(eigvals[:, 0] - lo))
    out.append(np.abs(eigvals[:, 1] - hi))
    # eigenvector comparison is phase-free: match projectors v v^dag
    plus_col = np.where(r_plus > r_minus, 1, 0)
    v = eigvecs[np.arange(m), :, plus_col]
    proj_solver = v[:, :, None] * np.conj(v[:, None, :])
    xi = np.stack([xp1, xp2], axis=1)
    proj_product = xi[:, :, None] * np.conj(xi[:, None, :])
    out.append(np.abs(proj_solver - proj_product).reshape(m, -1).max(axis=1))
    return out


@_suite(*[_ANGLE] * 4)
def suite_eigen_residual(tc, ac, tb, ab):
    p = observable_elements_product(tc, ac, tb, ab, 1.0, -1.0)
    plus, minus = amp_matrix(tb, ab, tc, ac)
    return [
        *(np.abs(y - x) for y, x in zip(_matvec(p, plus), plus)),
        *(np.abs(y + x) for y, x in zip(_matvec(p, minus), minus)),
        # involution p @ p = identity
        *_diff(_matmul(p, p), ((1.0, 0.0), (0.0, 1.0))),
    ]


@_suite(*[_ANGLE] * 6)
def suite_expectation_consistency(ta, aa, tb, ab, tc, ac):
    p = observable_elements_product(tc, ac, tb, ab, 1.0, -1.0)
    # initial states over the same basis, both branches
    matrix_plus, matrix_minus = (_vdot(v, _matvec(p, v)) for v in amp_matrix(ta, aa, tc, ac))
    (pp, pm), (mp, mm) = amp_matrix(ta, aa, tb, ab)
    prob_plus = np.abs(pp) ** 2 - np.abs(pm) ** 2
    prob_minus = np.abs(mp) ** 2 - np.abs(mm) ** 2
    closed = np.cos(2 * ta) * np.cos(2 * tb) + np.sin(2 * ta) * np.sin(2 * tb) * np.cos(aa - ab)
    return [
        np.abs(matrix_plus.imag),
        np.abs(matrix_minus.imag),
        np.abs(matrix_plus.real - prob_plus),
        np.abs(matrix_minus.real - prob_minus),
        np.abs(matrix_plus.real - closed),
        np.abs(matrix_minus.real + closed),
    ]


@_suite(*[_ANGLE] * 4)
def suite_standard_limits(ta, aa, tb, ab):
    """Generalized formulas at the (0, 0) boundary match the textbook forms."""
    phase = np.exp(1j * np.asarray(aa))
    (pp, pm), (mp, mm) = amp_matrix(ta, aa, 0.0, 0.0)
    (pp_turned, pm_turned), _ = amp_matrix(ta + np.pi / 2, aa, 0.0, 0.0)
    out = [
        np.abs(pp - np.cos(ta)),
        np.abs(pm - np.sin(ta) * phase),
        np.abs(mp + np.sin(ta)),
        np.abs(mm - np.cos(ta) * phase),
        # perpendicular forms are the parallel ones at theta + pi/2
        np.abs(mp - pp_turned),
        np.abs(mm - pm_turned),
    ]

    # standard operator: basis fixed at (0, 0), measured direction random
    ((p11, p12), (p21, p22)) = observable_elements_product(0.0, 0.0, tb, ab, 1.0, -1.0)
    out += [
        np.abs(p11 - np.cos(2 * tb)),
        np.abs(p12 - np.sin(2 * tb) * np.exp(-1j * np.asarray(ab))),
        np.abs(p11 + p22),  # traceless
        np.abs(p11 * p11 + p12 * p21 - 1.0),  # involutory
    ]

    # eigenvectors reduce to the stated standard pair
    (xp1, xp2), (xm1, xm2) = amp_matrix(tb, ab, 0.0, 0.0)
    (e_p1, e_p2), (e_m1, e_m2) = closedforms.standard_eigvec_components(tb, ab)
    out += [
        np.abs(xp1 - e_p1),
        np.abs(xp2 - e_p2),
        np.abs(xm1 - e_m1),
        np.abs(xm2 - e_m2),
    ]
    return out


ALL_SUITES = (
    suite_amplitude_oracle,
    suite_hermiticity,
    suite_orthonormality,
    suite_chaining,
    suite_probability_forms,
    suite_periodicity,
    suite_observable_closed_forms,
    suite_operator_oracle_triangle,
    suite_eigen_residual,
    suite_expectation_consistency,
    suite_standard_limits,
)


def _jobs(n, rng, tol) -> list:
    """The jobs of a run: every suite's, then the polarization and standard-limit errata
    tables', their lanes drawn in that order."""

    # the polarization operator has fixed eigenvalues: its lanes stand for the eigenvalue arrays
    # of an observable too, which it does not read, so that each table's draws keep their place
    def polarization(tc, ac, tb, ab, *_):
        return (
            closedforms.polarization_elements_literal(tc, ac, tb, ab),
            observable_elements_product(tc, ac, tb, ab, 1.0, -1.0),
        )

    # standard-limit operator: the stated form drags in an initial-state phase
    def standard(tb, ab, aa):
        return (
            closedforms.standard_operator_literal(tb, ab, aa),
            observable_elements_product(0.0, 0.0, tb, ab, 1.0, -1.0),
        )

    return [suite.job(n, rng, tol) for suite in ALL_SUITES] + [
        _job(n, rng, tol, [*[_ANGLE] * 4, *_EIGENVALUES], polarization,
             equation_ids=closedforms.POLARIZATION_ELEMENT_IDS),
        _job(n, rng, tol, [_ANGLE] * 3, standard,
             equation_ids=((closedforms.STANDARD_OPERATOR_ID,) * 2,) * 2),
    ]


def run_all(
    draws: int = DEFAULT_DRAWS, seed: int = 0, tolerance: float = DEFAULT_TOLERANCE
) -> VerifyReport:
    """Run every suite and errata table, deterministically, as one block stream."""
    draws, seed = check_count(draws, "draws", low=0), check_seed(seed)
    tolerance = check_tolerance(tolerance)
    results = _worst(_jobs(draws, np.random.default_rng(seed), tolerance), draws)
    suites = tuple(r for r in results if isinstance(r, SuiteResult))
    return VerifyReport(suites, tuple(r for r in results if isinstance(r, ErrataRecord)))
