"""Acceptance criteria, one test per criterion.

Each test pins the criterion's stated draw count, tolerance and (where
stated) runtime budget. The terminal summary prints one PASS/FAIL line per
criterion (see conftest.py).
"""

import math
import time

import numpy as np

from polamp import Direction, MeasurementScenario, exact_distribution, plus, sample
from polamp.amplitudes import amp_matrix
from polamp import closedforms
from polamp.operators import observable_elements_product
from polamp.verify import (
    collect_errata,
    run_all,
    suite_amplitude_oracle,
    suite_chaining,
    suite_eigen_residual,
    suite_expectation_consistency,
    suite_hermiticity,
    suite_orthonormality,
    suite_probability_forms,
    suite_standard_limits,
)

DRAWS = 100_000
TRIANGLE_DRAWS = 10_000
TOL = 1e-12
TRIANGLE_TOL = 1e-10

def _angles(rng, n, groups):
    return [rng.uniform(-2 * np.pi, 2 * np.pi, n) for _ in range(2 * groups)]


def test_criterion_01_amplitude_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    result = suite_amplitude_oracle(DRAWS, rng, TOL)
    elapsed = time.perf_counter() - start
    assert result.draws == DRAWS
    assert result.max_residual < TOL

    # independent re-statement of the oracle for one branch pair
    ta, aa, tb, ab = _angles(rng, 1000, 2)
    oracle = (
        np.conj(np.cos(tb)) * np.cos(ta)
        + np.conj(np.sin(tb) * np.exp(1j * ab)) * np.sin(ta) * np.exp(1j * aa)
    )
    assert np.max(np.abs(amp_matrix(ta, aa, tb, ab)[0][0] - oracle)) < TOL
    assert elapsed < 5.0


def test_criterion_02_chaining():
    rng = np.random.default_rng(102)
    result = suite_chaining(DRAWS, rng, TOL)
    assert result.draws == DRAWS
    assert result.max_residual < TOL


def test_criterion_03_hermiticity_orthonormality():
    rng = np.random.default_rng(103)
    hermiticity = suite_hermiticity(DRAWS, rng, TOL)
    orthonormality = suite_orthonormality(DRAWS, rng, TOL)
    assert hermiticity.max_residual < TOL
    assert orthonormality.max_residual < TOL


def test_criterion_04_probability_closed_forms():
    rng = np.random.default_rng(104)
    result = suite_probability_forms(DRAWS, rng, TOL)
    assert result.max_residual < TOL

    # the stated symmetries are shared expressions in the closed route,
    # hence exact; spot-check the squared-modulus route agrees too
    ta, aa, tb, ab = _angles(rng, DRAWS, 2)
    (pp, pm), (mp, mm) = amp_matrix(ta, aa, tb, ab)
    equal = np.abs(pp) ** 2
    assert np.max(np.abs(np.abs(mm) ** 2 - equal)) < TOL
    mixed = np.abs(pm) ** 2
    assert np.max(np.abs(np.abs(mp) ** 2 - mixed)) < TOL


def test_criterion_05_operator_oracle_triangle():
    rng = np.random.default_rng(105)
    n = TRIANGLE_DRAWS
    tc, ac, tb, ab = _angles(rng, n, 2)
    r_plus = rng.uniform(-3.0, 3.0, n)
    r_minus = r_plus - rng.uniform(0.5, 3.0, n)

    product = observable_elements_product(tc, ac, tb, ab, r_plus, r_minus)
    closed = closedforms.observable_elements(tc, ac, tb, ab, r_plus, r_minus)

    xp, xm = amp_matrix(tb, ab, tc, ac)
    spectral = [[None, None], [None, None]]
    for i in range(2):
        for j in range(2):
            spectral[i][j] = r_plus * xp[i] * np.conj(xp[j]) + r_minus * xm[i] * np.conj(xm[j])

    matrices = np.empty((n, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            matrices[:, i, j] = product[i][j]
    eigvals, eigvecs = np.linalg.eigh(matrices)
    reconstructed = eigvecs @ (eigvals[:, :, None] * np.swapaxes(eigvecs, 1, 2).conj())

    for i in range(2):
        for j in range(2):
            p = np.asarray(product[i][j])
            # the triangle: product, spectral, generic eigensolver, within 1e-10
            assert np.max(np.abs(p - spectral[i][j])) < TRIANGLE_TOL
            assert np.max(np.abs(p - reconstructed[:, i, j])) < TRIANGLE_TOL
            # the closed forms agree with all three within 1e-12
            c = np.asarray(closed[i][j])
            assert np.max(np.abs(c - p)) < TOL
            assert np.max(np.abs(c - spectral[i][j])) < TOL
            assert np.max(np.abs(c - reconstructed[:, i, j])) < TOL

    # eigenpair-wise: sorted eigenvalues match the defining pair
    assert np.max(np.abs(eigvals[:, 0] - r_minus)) < TRIANGLE_TOL
    assert np.max(np.abs(eigvals[:, 1] - r_plus)) < TRIANGLE_TOL


def test_criterion_06_eigenvalue_equation():
    rng = np.random.default_rng(106)
    result = suite_eigen_residual(DRAWS, rng, TOL)
    assert result.draws == DRAWS
    assert result.max_residual < TOL


def test_criterion_07_expectation_consistency():
    rng = np.random.default_rng(107)
    result = suite_expectation_consistency(DRAWS, rng, TOL)
    assert result.draws == DRAWS
    assert result.max_residual < TOL


def test_criterion_08_standard_limit_reductions():
    rng = np.random.default_rng(108)
    result = suite_standard_limits(DRAWS, rng, TOL)
    assert result.draws == DRAWS
    assert result.max_residual < TOL


def test_criterion_09_errata_detection():
    rng = np.random.default_rng(109)
    records = collect_errata(TRIANGLE_DRAWS, rng, TOL)
    flagged = {r.equation for r in records}
    # the misprinted transcriptions are detected ...
    assert {"Eq58", "Eq59", "Eq72"} <= flagged
    for r in records:
        assert r.max_abs_diff > TOL
    # ... and the consistent ones are not: the oracle discriminates
    assert not flagged & {"Eq53", "Eq54", "Eq55", "Eq56"}
    # full verify run agrees and stays green
    report = run_all(draws=2000, seed=109, tolerance=TOL)
    assert report.passed
    assert {r.equation for r in report.errata} == {"Eq58", "Eq59", "Eq72"}


def test_criterion_10_simulation_statistics():
    start = time.perf_counter()
    scenario = MeasurementScenario(
        initial=plus(0.0, 0.0),
        stages=(Direction(math.radians(45), 0.0), Direction(math.radians(90), 0.0)),
    )
    dist = exact_distribution(scenario)
    closed_form = math.cos(math.radians(45)) ** 2 * math.cos(math.radians(45)) ** 2
    pp = dist.probs[0]
    assert abs(pp - closed_form) < 1e-15
    assert abs(pp - 0.25) < 1e-15

    report = sample(dist, seed=20240810, trials=1_000_000)
    assert report.max_abs_deviation_sigma <= 5.0

    again = sample(exact_distribution(scenario), seed=20240810, trials=1_000_000)
    assert np.array_equal(report.counts, again.counts)
    assert report.max_abs_deviation_sigma == again.max_abs_deviation_sigma
    assert (report.seed, report.trials) == (again.seed, again.trials)
    assert time.perf_counter() - start < 10.0
