"""Tests for observable construction, eigenvectors and expectation values."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polamp import (
    Branch,
    BranchLabel,
    Direction,
    Observable2,
    eigenvector_states,
    expectation,
    expectation_closed,
    minus,
    observable_matrix,
    plus,
    polarization_operator,
    probability,
    state_vector,
)
from polamp.amplitudes import StateVector2
from polamp.closedforms import observable_elements
from polamp.directions import DEFAULT_TOLERANCE, _new

TOL = 1e-12

angles = st.floats(min_value=-7.0, max_value=7.0, allow_nan=False)
values = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
#: Eigenvalues as ``check_eigenvalue`` bounds them: below 2**511 in magnitude.
eigenvalues = st.floats(-(2.0**511), 2.0**511, exclude_min=True, exclude_max=True)
#: Any angle a ``Direction`` takes: below 2**1023 in magnitude.
any_angles = st.floats(-(2.0**1023), 2.0**1023, exclude_min=True, exclude_max=True)
#: Any float, and every float at and beside the eigenvalue bound.
any_values = st.one_of(
    st.floats(),
    st.sampled_from([
        x for bound in (2.0**511, -(2.0**511))
        for x in (math.nextafter(bound, 0.0), bound, math.nextafter(bound, 2 * bound))
    ]),
)

RNG = np.random.default_rng(20250810)


def random_directions(n):
    draws = RNG.uniform(-2 * math.pi, 2 * math.pi, (n, 4))
    return [(Direction(t1, a1), Direction(t2, a2)) for t1, a1, t2, a2 in draws]


def vector(state) -> np.ndarray:
    """A state's components as a numpy vector."""
    return np.array([state.c_plus, state.c_minus], dtype=complex)


def matrix(obs) -> np.ndarray:
    """An observable's elements as a 2x2 numpy array."""
    return np.array([[obs.m11, obs.m12], [obs.m21, obs.m22]], dtype=complex)


def closed_matrix(measure, basis, r_plus, r_minus):
    """The observable via the closed trig forms Eq53-Eq56."""
    m = observable_elements(basis.theta, basis.alpha, measure.theta, measure.alpha, r_plus, r_minus)
    return np.array(m, dtype=complex)


# ---------------------------------------------------------------------------
# observable_matrix
# ---------------------------------------------------------------------------

class TestObservableMatrix:

    def test_same_direction_is_diagonal(self):
        d = Direction(0.8, 2.2)
        obs = observable_matrix(d, d, 2.5, -0.5)
        np.testing.assert_allclose(matrix(obs), np.diag([2.5, -0.5]), atol=TOL)

    def test_equal_values_give_identity_multiple(self):
        obs = observable_matrix(Direction(1.3, 0.2), Direction(-0.4, 2.8), 1.7, 1.7)
        np.testing.assert_allclose(matrix(obs), 1.7 * np.eye(2), atol=TOL)

    def test_matches_spectral_oracle(self):
        for measure, basis in random_directions(50):
            obs = observable_matrix(measure, basis, 2.0, -3.0)
            xi_p, xi_m = eigenvector_states(measure, basis)
            vp, vm = vector(xi_p), vector(xi_m)
            spectral = 2.0 * np.outer(vp, vp.conj()) - 3.0 * np.outer(vm, vm.conj())
            np.testing.assert_allclose(matrix(obs), spectral, atol=TOL)

    @given(angles, angles, angles, angles, values, values)
    @settings(max_examples=150, deadline=None)
    def test_structural_invariants(self, tb, ab, tc, ac, rp, rm):
        obs = observable_matrix(Direction(tb, ab), Direction(tc, ac), rp, rm)
        m = matrix(obs)
        np.testing.assert_allclose(m, m.conj().T, rtol=0, atol=TOL)
        assert obs.trace == pytest.approx(rp + rm, abs=1e-11)
        assert obs.determinant == pytest.approx(rp * rm, abs=1e-10)


class TestObservableMatrixClosed:

    def test_same_direction_is_diagonal(self):
        d = Direction(-1.9, 0.6)
        np.testing.assert_allclose(closed_matrix(d, d, 4.0, 1.0), np.diag([4.0, 1.0]), atol=TOL)

    def test_agrees_with_product_construction(self):
        for measure, basis in random_directions(100):
            product = matrix(observable_matrix(measure, basis, 1.4, -2.2))
            closed = closed_matrix(measure, basis, 1.4, -2.2)
            np.testing.assert_allclose(closed, product, atol=TOL)

    def test_top_left_in_standard_basis(self):
        # basis (0, 0): m11 = cos^2(tb) r_plus + sin^2(tb) r_minus
        rp, rm = 2.5, -0.5
        m11 = closed_matrix(Direction(0.9, 1.1), Direction(0.0, 0.0), rp, rm)[0, 0]
        assert m11 == pytest.approx(0.6591968579603693, abs=TOL)
        assert m11 == pytest.approx(math.cos(0.9) ** 2 * rp + math.sin(0.9) ** 2 * rm, abs=TOL)


# ---------------------------------------------------------------------------
# polarization operator
# ---------------------------------------------------------------------------

class TestPolarizationOperator:

    def test_same_direction(self):
        d = Direction(2.7, 1.8)
        np.testing.assert_allclose(
            matrix(polarization_operator(d, d)), np.diag([1.0, -1.0]), atol=TOL
        )

    def test_standard_basis_elements(self):
        tb, ab = 0.8, 1.3
        p = polarization_operator(Direction(tb, ab), Direction(0.0, 0.0))
        assert p.m11 == pytest.approx(math.cos(2 * tb), abs=TOL)
        assert p.m12 == pytest.approx(math.sin(2 * tb) * np.exp(-1j * ab), abs=TOL)

    def test_involution_and_spectrum(self):
        for measure, basis in random_directions(50):
            m = matrix(polarization_operator(measure, basis))
            np.testing.assert_allclose(m @ m, np.eye(2), atol=TOL)
            assert abs(np.trace(m)) < TOL
            assert np.linalg.det(m).real == pytest.approx(-1.0, abs=TOL)


# ---------------------------------------------------------------------------
# eigenvectors
# ---------------------------------------------------------------------------

class TestEigenvectorStates:

    def test_same_direction_is_standard_basis(self):
        d = Direction(0.4, 0.9)
        xi_p, xi_m = eigenvector_states(d, d)
        np.testing.assert_allclose(vector(xi_p), [1.0, 0.0], atol=TOL)
        np.testing.assert_allclose(vector(xi_m), [0.0, 1.0], atol=TOL)

    def test_standard_basis_components(self):
        tb, ab = 1.4, 0.6
        xi_p, _ = eigenvector_states(Direction(tb, ab), Direction(0.0, 0.0))
        assert xi_p.c_plus == pytest.approx(math.cos(tb), abs=TOL)
        assert xi_p.c_minus == pytest.approx(math.sin(tb) * np.exp(1j * ab), abs=TOL)

    def test_eigenvalue_equation_and_orthonormality(self):
        for measure, basis in random_directions(100):
            p = matrix(polarization_operator(measure, basis))
            xi_p, xi_m = eigenvector_states(measure, basis)
            vp, vm = vector(xi_p), vector(xi_m)
            assert np.max(np.abs(p @ vp - vp)) < TOL
            assert np.max(np.abs(p @ vm + vm)) < TOL
            assert abs(np.vdot(vp, vm)) < TOL
            assert xi_p.norm == pytest.approx(1.0, abs=TOL)
            assert xi_m.norm == pytest.approx(1.0, abs=TOL)


# ---------------------------------------------------------------------------
# expectation values
# ---------------------------------------------------------------------------

class TestExpectation:

    @pytest.mark.parametrize("bad", [None, (1.0, 0.0), [1.0, 0.0], np.array([1.0, 0.0])])
    def test_arguments_must_be_records(self, bad):
        obs = polarization_operator(Direction(0.0), Direction(0.0))
        state = state_vector(plus(0.0), Direction(0.0))
        shown = re.escape(repr(bad)) if not isinstance(bad, list) else "list"
        with pytest.raises(ValueError, match=f"^state: must be a StateVector2, got {shown}$"):
            expectation(bad, obs)
        with pytest.raises(ValueError, match=f"^obs: must be an Observable2, got {shown}$"):
            expectation(state, bad)
        # an observable's matrix is not the observable, nor are its values a state
        with pytest.raises(ValueError, match="^obs: must be an Observable2, got "):
            expectation(state, state)

    def test_eigenstate_expectation_is_eigenvalue(self):
        measure, basis = Direction(1.2, 0.3), Direction(0.5, 2.0)
        obs = observable_matrix(measure, basis, 3.5, 0.5)
        xi_p, xi_m = eigenvector_states(measure, basis)
        assert expectation(xi_p, obs) == pytest.approx(3.5, abs=TOL)
        assert expectation(xi_m, obs) == pytest.approx(0.5, abs=TOL)

    def test_closed_trig_form(self):
        ta, aa, tb, ab = 0.3, 0.2, 1.0, 0.9
        basis = Direction(1.9, 0.4)
        value = expectation(
            state_vector(plus(ta, aa), basis),
            polarization_operator(Direction(tb, ab), basis),
        )
        closed = math.cos(2 * ta) * math.cos(2 * tb) + math.sin(2 * ta) * math.sin(
            2 * tb
        ) * math.cos(aa - ab)
        assert value == pytest.approx(closed, abs=TOL)

    def test_perpendicular_initial_flips_sign(self):
        ta, aa, tb, ab = 0.7, 1.5, -0.9, 0.2
        basis = Direction(0.1, 0.1)
        v_plus = expectation(
            state_vector(plus(ta, aa), basis),
            polarization_operator(Direction(tb, ab), basis),
        )
        v_minus = expectation(
            state_vector(minus(ta, aa), basis),
            polarization_operator(Direction(tb, ab), basis),
        )
        assert v_minus == pytest.approx(-v_plus, abs=TOL)

    def test_bounded_by_eigenvalues(self):
        for measure, basis in random_directions(30):
            obs = observable_matrix(measure, basis, 1.25, -0.75)
            v = state_vector(plus(0.3, 2.2), basis)
            value = expectation(v, obs)
            assert -0.75 - TOL <= value <= 1.25 + TOL

    def test_rejects_non_normalized_state(self):
        obs = polarization_operator(Direction(0.4), Direction(0.0))
        with pytest.raises(ValueError, match="normalized"):
            expectation(StateVector2(0.5 + 0j, 0.5 + 0j), obs)

    @pytest.mark.parametrize("c_plus", [1e200 + 0j, math.nan + 0j], ids=["overflow", "nan"])
    def test_rejects_states_without_a_finite_norm(self, c_plus):
        # 1e200 squared overflows: the norm is inf, not an OverflowError
        obs = polarization_operator(Direction(0.4), Direction(0.0))
        with pytest.raises(ValueError, match="normalized"):
            expectation(StateVector2(c_plus, 0j), obs)

    @given(angles, angles, st.sampled_from(Branch), angles, angles, angles, angles,
           eigenvalues, eigenvalues)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_branch_probabilities_at_any_eigenvalues(
        self, ta, aa, branch, tm, am, tc, ac, r_plus, r_minus
    ):
        # the imaginary residue and the rounding both scale with the eigenvalues
        a, m, c = BranchLabel(Direction(ta, aa), branch), Direction(tm, am), Direction(tc, ac)
        value = expectation(state_vector(a, c), observable_matrix(m, c, r_plus, r_minus))
        weighted = r_plus * probability(a, plus(tm, am)) + r_minus * probability(a, minus(tm, am))
        bound = DEFAULT_TOLERANCE * max(1.0, abs(r_plus), abs(r_minus))
        assert abs(value - weighted) <= bound

    @given(any_angles, any_angles, any_angles, any_angles, any_angles, any_angles,
           any_values, any_values)
    @settings(max_examples=300, deadline=None)
    def test_any_eigenvalues_give_finite_results_or_a_value_error(
        self, ta, aa, tm, am, tc, ac, r_plus, r_minus
    ):
        m, c = Direction(tm, am), Direction(tc, ac)
        try:
            obs = observable_matrix(m, c, r_plus, r_minus)
        except ValueError:
            assert not (abs(r_plus) < 2.0**511 and abs(r_minus) < 2.0**511)
            return
        numbers = (obs.m11, obs.m12, obs.m21, obs.m22, obs.trace, obs.determinant)
        assert all(map(cmath.isfinite, numbers)), numbers
        assert math.isfinite(expectation(state_vector(plus(ta, aa), c), obs))

    def test_rejects_non_hermitian_matrix(self):
        # the constructor computes only Hermitian elements, so the check, which guards
        # rounding, is reached by a record built past it, with m21 not conj(m12)
        d = Direction(0.0)
        obs = _new(Observable2, (d, d, 1.0, -1.0, 1 + 0j, 1j, 1j, -1 + 0j))
        state = StateVector2(math.sqrt(0.5) + 0j, math.sqrt(0.5) + 0j)
        with pytest.raises(ValueError, match="not Hermitian"):
            expectation(state, obs)


class TestExpectationClosed:

    def test_matching_direction_is_one(self):
        d = Direction(0.9, 2.4)
        assert expectation_closed(BranchLabel(d, Branch.PLUS), d) == pytest.approx(1.0, abs=TOL)

    def test_frozen_value(self):
        value = expectation_closed(plus(0.3, 0.2), Direction(1.0, 0.9))
        assert value == pytest.approx(0.0492305496298967, abs=TOL)

    def test_minus_branch_negates(self):
        a, b = Direction(0.3, 0.2), Direction(1.0, 0.9)
        v_plus = expectation_closed(BranchLabel(a, Branch.PLUS), b)
        v_minus = expectation_closed(BranchLabel(a, Branch.MINUS), b)
        assert v_minus == pytest.approx(-v_plus, abs=TOL)

    @given(angles, angles, angles, angles, angles, angles)
    @settings(max_examples=150, deadline=None)
    def test_basis_independence(self, ta, aa, tb, ab, tc, ac):
        initial = plus(ta, aa)
        measure = Direction(tb, ab)
        basis = Direction(tc, ac)
        matrix_route = expectation(
            state_vector(initial, basis), polarization_operator(measure, basis)
        )
        assert matrix_route == pytest.approx(expectation_closed(initial, measure), abs=TOL)
