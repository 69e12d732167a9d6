"""Acceptance criteria, one test per criterion.

Each test pins the criterion's stated draw count, tolerance and (where
stated) runtime budget. A criterion on a verify suite reads it from one
``run_all`` report at that draw count and tolerance, made once for the module.
The terminal summary prints one PASS/FAIL line per criterion (see conftest.py).
"""

import math
import time

import numpy as np
import pytest

from polamp import Direction, MeasurementScenario, exact_distribution, plus, sample
from polamp.amplitudes import amp_matrix
from polamp import closedforms
from polamp.operators import observable_elements_product
from polamp.verify import run_all

DRAWS = 100_000
TRIANGLE_DRAWS = 10_000
TOL = 1e-12
TRIANGLE_TOL = 1e-10

def _angles(rng, n, groups):
    return [rng.uniform(-2 * np.pi, 2 * np.pi, n) for _ in range(2 * groups)]


@pytest.fixture(scope="module")
def run():
    """One ``run_all`` at the criteria's draw count and tolerance, and its wall time."""
    start = time.perf_counter()
    report = run_all(draws=DRAWS, seed=100, tolerance=TOL)
    return report, time.perf_counter() - start


def suite(run, name):
    """The named suite of the run, which must have covered every draw at the criteria's tolerance."""
    (result,) = [s for s in run[0].suites if s.name == name]
    assert (result.draws, result.tolerance) == (DRAWS, TOL)
    return result


def test_criterion_01_amplitude_oracle_equivalence(run):
    start = time.perf_counter()
    assert suite(run, "amplitude_oracle").max_residual < TOL

    # independent re-statement of the oracle for one branch pair
    ta, aa, tb, ab = _angles(np.random.default_rng(101), 1000, 2)
    oracle = (
        np.conj(np.cos(tb)) * np.cos(ta)
        + np.conj(np.sin(tb) * np.exp(1j * ab)) * np.sin(ta) * np.exp(1j * aa)
    )
    assert np.max(np.abs(amp_matrix(ta, aa, tb, ab)[0][0] - oracle)) < TOL
    # the budget covers the whole run, every other suite and table included
    assert run[1] + (time.perf_counter() - start) < 5.0


def test_criterion_02_chaining(run):
    assert suite(run, "chaining").max_residual < TOL


def test_criterion_03_hermiticity_orthonormality(run):
    assert suite(run, "hermiticity").max_residual < TOL
    assert suite(run, "orthonormality").max_residual < TOL


def test_criterion_04_probability_closed_forms(run):
    assert suite(run, "probability_forms").max_residual < TOL

    # the stated symmetries are shared expressions in the closed route,
    # hence exact; spot-check the squared-modulus route agrees too
    ta, aa, tb, ab = _angles(np.random.default_rng(104), DRAWS, 2)
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


def test_criterion_06_eigenvalue_equation(run):
    assert suite(run, "eigen_residual").max_residual < TOL


def test_criterion_07_expectation_consistency(run):
    assert suite(run, "expectation_consistency").max_residual < TOL


def test_criterion_08_standard_limit_reductions(run):
    assert suite(run, "standard_limits").max_residual < TOL


def test_criterion_09_errata_detection():
    records = run_all(draws=TRIANGLE_DRAWS, seed=109, tolerance=TOL).errata
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
