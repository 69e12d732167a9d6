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
:mod:`polamp.closedforms` element by element and emits an
:class:`ErrataRecord` wherever a stated form disagrees with the derived
value beyond tolerance. The expected outcome: records for Eq58, Eq59 and
Eq72, none for Eq53-Eq56.

A suite is its residual function (:func:`_suite`) over arrays of ``draws``
doubles from the run's PCG64 stream, but no such array exists: each block
of ``LANE_BLOCK`` lanes draws its own slice of them in its worker thread by
counter advance (:func:`_draws`), so memory does not grow with the draw
count. A run draws the lanes of every suite and errata table first, then
maps all their blocks as one stream (no barrier between suites) through
one reduction (:func:`_worst`): each residual's largest value and the
first lane holding it. An erratum reads its stated and derived values by
drawing that lane again. ``polamp verify`` keeps freed blocks in glibc's
heap (:func:`polamp.cli._keep_heap_resident`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closedforms
from ._pool import map_in_order
from .amplitudes import amp_matrix
from .directions import DEFAULT_DRAWS, DEFAULT_TOLERANCE
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
    """Outcome of one invariant suite over N random draws."""

    name: str
    draws: int
    max_residual: float
    tolerance: float
    passed: bool


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
#: gap to r_minus, and the gap's sign coin (``None``: ``random()``).
_EIGENVALUES = ((-3.0, 3.0), (0.5, 3.0), None)


def _draws(rng: np.random.Generator, n: int, *ranges):
    """Stand in for ``len(ranges)`` arrays of ``n`` draws from ``rng``, one after the other.

    Array ``k`` is ``rng.uniform(*ranges[k], n)``, or ``rng.random(n)`` where
    ``ranges[k]`` is None. ``rng`` is advanced past them all, as if they had
    been drawn. The returned ``lanes(lo, hi)`` draws lanes ``lo .. hi`` of
    each array from a PCG64 rebuilt at the recorded state and moved by
    counter advance, so a block draws only its own lanes, in its own thread.
    ``uniform`` and ``random`` both take one 64-bit output per double, so the
    lanes equal the slices of the full arrays: the stream-split rule of
    ``sample`` (Philox), here for PCG64, the generator of ``run_all``.
    """
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64:
        raise TypeError(f"verify draws need a PCG64 generator, not {type(bitgen).__name__}")
    state = bitgen.state
    bitgen.advance(n * len(ranges))
    # advance drops a buffered 32-bit half that drawing doubles would have kept
    buffered = {key: state[key] for key in ("has_uint32", "uinteger")}
    bitgen.state = {**bitgen.state, **buffered}

    def lanes(lo: int, hi: int) -> list:
        block = np.random.PCG64()
        block.state = state
        block.advance(lo)
        gen, out = np.random.Generator(block), []
        for bounds in ranges:
            out.append(gen.random(hi - lo) if bounds is None else gen.uniform(*bounds, hi - lo))
            block.advance(n - (hi - lo))  # to the same lanes of the next array
        return out

    return lanes


def _map_blocks(jobs, n: int):
    """Yield ``fn(*lanes(lo, hi))`` per ``(fn, lanes)`` job and ``LANE_BLOCK``-lane block."""
    blocks = -(-n // LANE_BLOCK)

    def block(i):
        (fn, lanes), lo = jobs[i // blocks], i % blocks * LANE_BLOCK
        return fn(*lanes(lo, min(lo + LANE_BLOCK, n)))

    return map_in_order(block, range(len(jobs) * blocks))


def _worst(jobs, n: int) -> list:
    """``finish(worst)`` per ``(fn, lanes, finish)`` job, all blocks mapped as one stream.

    ``worst`` holds the largest value of each lane array ``fn(*block)`` returns and its first
    lane: ``max`` over the blocks' ``argmax`` in block order keeps the first of equal maxima.
    """

    def block_worst(fn):
        return lambda *block: [(a[k], int(k)) for a in fn(*block) for k in [a.argmax()]]

    worst = [[] for _ in jobs]
    for i, block in enumerate(_map_blocks([(block_worst(fn), lanes) for fn, lanes, _ in jobs], n)):
        job, b = divmod(i, -(-n // LANE_BLOCK))
        block = [(value, b * LANE_BLOCK + k) for value, k in block]
        worst[job] = [max(p, key=lambda w: w[0]) for p in zip(worst[job], block)] if b else block
    return [finish(w) for (*_, finish), w in zip(jobs, worst)]


def _suite(*ranges, floor: float = 0.0):
    """Declare a suite ``(n, rng, tol)`` by its draw ranges and its residual function.

    It passes below ``max(tol, floor)``; ``suite.job(n, rng, tol)`` draws lanes for :func:`_worst`.
    """

    def declare(residuals):
        name = residuals.__name__.removeprefix("suite_")

        def job(n, rng, tol):
            tol = max(tol, floor)

            def finish(worst) -> SuiteResult:
                max_res = float(max((value for value, _ in worst), default=0.0))
                return SuiteResult(name, n, max_res, tol, passed=max_res < tol)

            return residuals, _draws(rng, n, *ranges), finish

        def suite(n, rng, tol=DEFAULT_TOLERANCE) -> SuiteResult:
            return _worst([job(n, rng, tol)], n)[0]

        suite.__name__ = suite.__qualname__ = residuals.__name__
        suite.__doc__ = residuals.__doc__
        suite.job = job
        return suite

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
    direct = amp_matrix(ta, aa, tb, ab)
    to_c = amp_matrix(ta, aa, tc, ac)
    from_c = amp_matrix(tc, ac, tb, ab)
    return [
        np.abs(to_c[s][0] * from_c[0][t] + to_c[s][1] * from_c[1][t] - direct[s][t])
        for s, t in _PAIRS
    ]


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


@_suite(*[_ANGLE] * 4, *_EIGENVALUES)
def suite_observable_closed_forms(tc, ac, tb, ab, *eigenvalue_draws):
    r_plus, r_minus = _eigenvalues(*eigenvalue_draws)
    derived = observable_elements_product(tc, ac, tb, ab, r_plus, r_minus)
    stated = closedforms.observable_elements(tc, ac, tb, ab, r_plus, r_minus)
    return [np.abs(stated[i][j] - derived[i][j]) for i, j in _PAIRS]


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

    out = [np.abs(product[i][j] - spectral[i][j]) for i, j in _PAIRS]

    matrices = np.empty((m, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            matrices[:, i, j] = product[i][j]
    eigvals, eigvecs = np.linalg.eigh(matrices)
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
    ((p11, p12), (p21, p22)) = observable_elements_product(tc, ac, tb, ab, 1.0, -1.0)
    (xp1, xp2), (xm1, xm2) = amp_matrix(tb, ab, tc, ac)
    return [
        np.abs(p11 * xp1 + p12 * xp2 - xp1),
        np.abs(p21 * xp1 + p22 * xp2 - xp2),
        np.abs(p11 * xm1 + p12 * xm2 + xm1),
        np.abs(p21 * xm1 + p22 * xm2 + xm2),
        # involution p @ p = identity
        np.abs(p11 * p11 + p12 * p21 - 1.0),
        np.abs(p11 * p12 + p12 * p22),
        np.abs(p21 * p11 + p22 * p21),
        np.abs(p21 * p12 + p22 * p22 - 1.0),
    ]


@_suite(*[_ANGLE] * 6)
def suite_expectation_consistency(ta, aa, tb, ab, tc, ac):
    ((p11, p12), (p21, p22)) = observable_elements_product(tc, ac, tb, ab, 1.0, -1.0)
    # initial states over the same basis, both branches
    v_plus, v_minus = amp_matrix(ta, aa, tc, ac)

    def quad_form(v):
        v1, v2 = v
        return (
            np.conj(v1) * (p11 * v1 + p12 * v2) + np.conj(v2) * (p21 * v1 + p22 * v2)
        )

    matrix_plus = quad_form(v_plus)
    matrix_minus = quad_form(v_minus)
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


def _errata_for(equation_ids, tol, forms, lanes):
    """The job of a table: a record per element where ``forms(*block) = (stated, derived)``
    differ beyond tol, with their values at the first lane of the largest difference.
    """

    def diffs(*block):
        stated, derived = forms(*block)
        return [np.abs(stated[i][j] - derived[i][j]) for i, j in _PAIRS]

    def finish(worst) -> list[ErrataRecord]:
        return [
            ErrataRecord(
                equation=equation_ids[i][j],
                element=closedforms.ELEMENT_NAMES[i][j],
                paper_value=complex(stated[i][j][0]),
                derived_value=complex(derived[i][j][0]),
                max_abs_diff=float(diff),
            )
            for (i, j), (diff, k) in zip(_PAIRS, worst)
            if diff > tol
            for stated, derived in [forms(*lanes(k, k + 1))]
        ]

    return diffs, lanes, finish


def _errata_jobs(n, rng, tol) -> list:
    """The jobs of the three errata tables, their lanes drawn in table order."""

    def observable(tc, ac, tb, ab, *eigenvalue_draws):
        r_plus, r_minus = _eigenvalues(*eigenvalue_draws)
        return (
            closedforms.observable_elements(tc, ac, tb, ab, r_plus, r_minus),
            observable_elements_product(tc, ac, tb, ab, r_plus, r_minus),
        )

    # the polarization operator over the same angle draws; it has fixed eigenvalues
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

    shared = _draws(rng, n, *[_ANGLE] * 4, *_EIGENVALUES)
    tables = (
        (closedforms.OBSERVABLE_ELEMENT_IDS, observable, shared),
        (closedforms.POLARIZATION_ELEMENT_IDS, polarization, shared),
        (((closedforms.STANDARD_OPERATOR_ID,) * 2,) * 2, standard, _draws(rng, n, *[_ANGLE] * 3)),
    )
    return [_errata_for(ids, tol, forms, lanes) for ids, forms, lanes in tables]


def collect_errata(n, rng, tol=DEFAULT_TOLERANCE) -> list[ErrataRecord]:
    """Adjudicate every verbatim transcription against the derived values."""
    return [r for records in _worst(_errata_jobs(n, rng, tol), n) for r in records]


def run_all(
    draws: int = DEFAULT_DRAWS, seed: int = 0, tolerance: float = DEFAULT_TOLERANCE
) -> VerifyReport:
    """Run every suite plus the errata adjudication, deterministically, as one block stream."""
    if not isinstance(draws, (int, np.integer)) or not 0 <= draws < 2**63:
        raise ValueError("draws must be an integer from 0 to 2**63 - 1")
    if not 0 < tolerance < np.inf:
        raise ValueError("tolerance must be positive and finite")
    draws, rng = int(draws), np.random.default_rng(seed)
    jobs = [s.job(draws, rng, tolerance) for s in ALL_SUITES] + _errata_jobs(draws, rng, tolerance)
    *suites, observable, polarization, standard = _worst(jobs, draws)
    return VerifyReport(tuple(suites), tuple(observable + polarization + standard))
