"""Unit and property tests for the transition-amplitude layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polamp import (
    Branch,
    BranchLabel,
    Direction,
    StateVector2,
    amplitude,
    chain,
    minus,
    plus,
    probability,
    state_vector,
)
from polamp.amplitudes import amp_matrix
from polamp.closedforms import prob_equal_closed, prob_mixed_closed

TOL = 1e-12

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
branches = st.sampled_from([Branch.PLUS, Branch.MINUS])


def ref_state(theta, alpha, branch):
    """Independent oracle: the textbook state pair."""
    if branch is Branch.PLUS:
        return np.array([math.cos(theta), math.sin(theta) * np.exp(1j * alpha)])
    return np.array([-math.sin(theta), math.cos(theta) * np.exp(1j * alpha)])


def oracle_amplitude(a: BranchLabel, b: BranchLabel) -> complex:
    return complex(np.vdot(ref_state(b.theta, b.alpha, b.branch), ref_state(a.theta, a.alpha, a.branch)))


# ---------------------------------------------------------------------------
# amp_matrix, the batched kernel behind every amplitude
# ---------------------------------------------------------------------------

def unitarity_residual(block):
    """Largest deviation of the 2x2 block from U U^dag = U^dag U = I."""
    (pp, pm), (mp, mm) = block
    return max(
        np.max(np.abs(np.abs(pp) ** 2 + np.abs(pm) ** 2 - 1.0)),
        np.max(np.abs(np.abs(mp) ** 2 + np.abs(mm) ** 2 - 1.0)),
        np.max(np.abs(pp * np.conj(mp) + pm * np.conj(mm))),
        np.max(np.abs(np.abs(pp) ** 2 + np.abs(mp) ** 2 - 1.0)),
        np.max(np.abs(np.abs(pm) ** 2 + np.abs(mm) ** 2 - 1.0)),
        np.max(np.abs(np.conj(pp) * pm + np.conj(mp) * mm)),
    )


class TestAmpMatrix:

    @given(angles, angles, branches, angles, angles, branches)
    @settings(max_examples=200, deadline=None)
    def test_amplitude_is_exactly_a_block_element(self, ta, aa, ba, tb, ab, bb):
        row, column = int(ba is Branch.MINUS), int(bb is Branch.MINUS)
        a, b = BranchLabel(Direction(ta, aa), ba), BranchLabel(Direction(tb, ab), bb)
        assert amplitude(a, b) == complex(amp_matrix(ta, aa, tb, ab)[row][column])

    @given(angles, angles, angles, angles)
    @settings(max_examples=200, deadline=None)
    def test_unitary_for_scalars(self, ta, aa, tb, ab):
        assert unitarity_residual(amp_matrix(ta, aa, tb, ab)) < TOL

    def test_unitary_for_arrays_and_broadcasting(self):
        rng = np.random.default_rng(17)
        ta, aa, tb, ab = rng.uniform(-10.0, 10.0, (4, 1000))
        block = amp_matrix(ta, aa, tb, ab)
        assert all(np.shape(element) == (1000,) for row in block for element in row)
        assert unitarity_residual(block) < TOL
        # a scalar final direction broadcasts against array initial angles
        (pp, pm), _ = amp_matrix(ta, aa, 0.0, 0.0)
        assert np.max(np.abs(pp - np.cos(ta))) < TOL
        assert np.max(np.abs(pm - np.sin(ta) * np.exp(1j * aa))) < TOL


# ---------------------------------------------------------------------------
# amplitude
# ---------------------------------------------------------------------------

class TestAmplitude:

    def test_same_label_is_one(self):
        a = plus(0.37, 2.1)
        assert amplitude(a, a) == pytest.approx(1.0 + 0.0j, abs=TOL)

    def test_standard_limit_is_cosine(self):
        # final direction (0, 0): the textbook parallel amplitude
        for theta in (0.0, 0.3, 1.2, -2.5):
            a = plus(theta, 0.8)
            assert amplitude(a, plus(0.0, 0.0)) == pytest.approx(math.cos(theta), abs=TOL)

    def test_frozen_oracle_value(self):
        # value computed with the inner-product oracle before implementation
        z = amplitude(plus(0.7, 0.3), minus(1.1, 1.9))
        assert z.real == pytest.approx(-0.6901655146159794, abs=TOL)
        assert z.imag == pytest.approx(-0.2920900448492216, abs=TOL)

    @given(angles, angles, branches, angles, angles, branches)
    @settings(max_examples=200, deadline=None)
    def test_matches_inner_product_oracle(self, ta, aa, ba, tb, ab, bb):
        a = BranchLabel(Direction(ta, aa), ba)
        b = BranchLabel(Direction(tb, ab), bb)
        assert amplitude(a, b) == pytest.approx(oracle_amplitude(a, b), abs=TOL)

    @given(angles, angles, branches, angles, angles, branches)
    @settings(max_examples=200, deadline=None)
    def test_hermiticity(self, ta, aa, ba, tb, ab, bb):
        a = BranchLabel(Direction(ta, aa), ba)
        b = BranchLabel(Direction(tb, ab), bb)
        assert amplitude(a, b) == pytest.approx(np.conj(amplitude(b, a)), abs=TOL)

    @given(angles, angles, branches, angles, angles)
    @settings(max_examples=200, deadline=None)
    def test_normalization(self, ta, aa, ba, tb, ab):
        a = BranchLabel(Direction(ta, aa), ba)
        d = Direction(tb, ab)
        total = sum(abs(amplitude(a, BranchLabel(d, s))) ** 2 for s in Branch)
        assert total == pytest.approx(1.0, abs=TOL)

    @given(angles, angles, angles, angles)
    @settings(max_examples=200, deadline=None)
    def test_orthogonality(self, ta, aa, tb, ab):
        d = Direction(tb, ab)
        total = sum(
            amplitude(plus(ta, aa), BranchLabel(d, s))
            * np.conj(amplitude(minus(ta, aa), BranchLabel(d, s)))
            for s in Branch
        )
        assert abs(total) < TOL

    @given(angles, angles, branches, angles, angles, branches)
    @settings(max_examples=200, deadline=None)
    def test_modulus_at_most_one(self, ta, aa, ba, tb, ab, bb):
        a = BranchLabel(Direction(ta, aa), ba)
        b = BranchLabel(Direction(tb, ab), bb)
        assert abs(amplitude(a, b)) <= 1.0 + TOL

    @given(angles, angles, branches, angles, angles, branches)
    @settings(max_examples=100, deadline=None)
    def test_periodicity(self, ta, aa, ba, tb, ab, bb):
        b = BranchLabel(Direction(tb, ab), bb)
        base = amplitude(BranchLabel(Direction(ta, aa), ba), b)
        shifted = amplitude(BranchLabel(Direction(ta + 2 * math.pi, aa - 2 * math.pi), ba), b)
        assert shifted == pytest.approx(base, abs=TOL)


# ---------------------------------------------------------------------------
# probability
# ---------------------------------------------------------------------------

class TestProbability:

    def test_orthogonal_branches_vanish(self):
        assert probability(plus(0.9, 1.4), minus(0.9, 1.4)) == pytest.approx(0.0, abs=TOL)

    def test_equal_phase_reduces_to_malus(self):
        # brute-force sweep: with equal phases P(+,+) = cos^2(theta_a - theta_b)
        for ta in np.linspace(-3.0, 3.0, 17):
            for tb in np.linspace(-3.0, 3.0, 17):
                p = probability(plus(ta, 0.77), plus(tb, 0.77))
                assert p == pytest.approx(math.cos(ta - tb) ** 2, abs=TOL)

    @given(angles, angles, angles, angles)
    @settings(max_examples=200, deadline=None)
    def test_equal_branch_symmetry(self, ta, aa, tb, ab):
        assert probability(plus(ta, aa), plus(tb, ab)) == pytest.approx(
            probability(minus(ta, aa), minus(tb, ab)), abs=TOL
        )

    @given(angles, angles, angles, angles)
    @settings(max_examples=200, deadline=None)
    def test_mixed_branch_symmetry(self, ta, aa, tb, ab):
        assert probability(plus(ta, aa), minus(tb, ab)) == pytest.approx(
            probability(minus(ta, aa), plus(tb, ab)), abs=TOL
        )

    @given(angles, angles, branches, angles, angles, branches)
    @settings(max_examples=200, deadline=None)
    def test_closed_form_matches_squared_modulus(self, ta, aa, ba, tb, ab, bb):
        a = BranchLabel(Direction(ta, aa), ba)
        b = BranchLabel(Direction(tb, ab), bb)
        form = prob_equal_closed if ba is bb else prob_mixed_closed
        closed = float(form(ta, aa, tb, ab))
        assert closed == pytest.approx(abs(amplitude(a, b)) ** 2, abs=TOL)

    def test_symmetries_exact_in_closed_route(self):
        # one form serves both branch pairs, so the stated symmetries hold
        # exactly there, while the squared moduli agree only to rounding
        equal = prob_equal_closed(1.3, 0.4, -0.6, 2.9)
        mixed = prob_mixed_closed(1.3, 0.4, -0.6, 2.9)
        assert probability(plus(1.3, 0.4), plus(-0.6, 2.9)) == pytest.approx(equal, abs=TOL)
        assert probability(minus(1.3, 0.4), minus(-0.6, 2.9)) == pytest.approx(equal, abs=TOL)
        assert probability(plus(1.3, 0.4), minus(-0.6, 2.9)) == pytest.approx(mixed, abs=TOL)
        assert probability(minus(1.3, 0.4), plus(-0.6, 2.9)) == pytest.approx(mixed, abs=TOL)

    def test_range(self):
        p = probability(plus(0.1), plus(0.1))
        assert 0.0 <= p <= 1.0


# ---------------------------------------------------------------------------
# chaining
# ---------------------------------------------------------------------------

class TestChain:

    def test_via_initial_direction_is_identity_expansion(self):
        a, b = plus(0.5, 0.2), minus(1.7, 2.3)
        assert chain(a, b, a.direction) == pytest.approx(amplitude(a, b), abs=TOL)

    def test_via_circular_basis(self):
        a = plus(0.0, 0.0)
        assert chain(a, a, Direction(math.pi / 4, math.pi / 2)) == pytest.approx(1.0, abs=TOL)

    @given(angles, angles, branches, angles, angles, branches, angles, angles)
    @settings(max_examples=200, deadline=None)
    def test_chain_equals_direct(self, ta, aa, ba, tb, ab, bb, tc, ac):
        a = BranchLabel(Direction(ta, aa), ba)
        b = BranchLabel(Direction(tb, ab), bb)
        assert chain(a, b, Direction(tc, ac)) == pytest.approx(amplitude(a, b), abs=TOL)


# ---------------------------------------------------------------------------
# hermitian partner: the reversed amplitude amplitude(final, initial)
# ---------------------------------------------------------------------------

class TestHermitianPartner:

    def test_same_label(self):
        a = minus(2.2, 0.9)
        assert amplitude(a, a) == pytest.approx(1.0, abs=TOL)

    def test_frozen_double_evaluation(self):
        a, b = minus(0.2, 0.5), plus(1.3, 0.1)
        fwd = amplitude(b, a)
        assert fwd.real == pytest.approx(0.8166612171263394, abs=TOL)
        assert fwd.imag == pytest.approx(-0.3677476684764666, abs=TOL)
        assert amplitude(b, a) == pytest.approx(np.conj(amplitude(a, b)), abs=TOL)

    def test_reversed_forms_match(self):
        a, b = plus(0.8, 1.1), plus(2.0, 0.3)
        assert amplitude(b, a) == pytest.approx(np.conj(amplitude(a, b)), abs=TOL)


# ---------------------------------------------------------------------------
# state vectors
# ---------------------------------------------------------------------------

class TestStateVector:

    def test_x_reference_gives_textbook_state(self):
        v = state_vector(plus(0.6, 1.9), Direction(0.0, 0.0))
        assert v.c_plus == pytest.approx(math.cos(0.6), abs=TOL)
        assert v.c_minus == pytest.approx(math.sin(0.6) * np.exp(1.9j), abs=TOL)

    def test_own_direction_reference_is_basis_vector(self):
        d = Direction(1.1, 0.7)
        vp = state_vector(BranchLabel(d, Branch.PLUS), d)
        vm = state_vector(BranchLabel(d, Branch.MINUS), d)
        np.testing.assert_allclose(vp.as_array(), [1.0, 0.0], atol=TOL)
        np.testing.assert_allclose(vm.as_array(), [0.0, 1.0], atol=TOL)

    @given(angles, angles, branches, angles, angles)
    @settings(max_examples=200, deadline=None)
    def test_components_are_amplitudes_and_unit_norm(self, ta, aa, ba, tc, ac):
        label = BranchLabel(Direction(ta, aa), ba)
        ref = Direction(tc, ac)
        v = state_vector(label, ref)
        assert v.c_plus == pytest.approx(amplitude(label, BranchLabel(ref, Branch.PLUS)), abs=TOL)
        assert v.c_minus == pytest.approx(amplitude(label, BranchLabel(ref, Branch.MINUS)), abs=TOL)
        assert v.norm == pytest.approx(1.0, abs=TOL)

    # beyond 1e150 in magnitude ``abs(c) ** 2`` raises OverflowError on either side
    @given(*[st.complex_numbers(max_magnitude=1e150, allow_nan=False, allow_infinity=False)] * 2)
    @settings(max_examples=500, deadline=None)
    def test_norm_keeps_the_bits_of_numpy_sqrt(self, c1, c2):
        # math.sqrt and np.sqrt are both correctly rounded
        expected = float(np.sqrt(abs(c1) ** 2 + abs(c2) ** 2))
        assert StateVector2(c1, c2).norm.hex() == expected.hex()

    def test_inner_product_against_amplitude(self):
        # <state(b)|state(a)> over any shared reference equals amplitude(a, b)
        a, b, ref = plus(0.3, 1.2), minus(2.4, 0.5), Direction(0.9, 2.8)
        va, vb = state_vector(a, ref), state_vector(b, ref)
        assert np.vdot(vb.as_array(), va.as_array()) == pytest.approx(amplitude(a, b), abs=TOL)


# ---------------------------------------------------------------------------
# directions
# ---------------------------------------------------------------------------

class TestDirections:

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Direction(math.nan, 0.0)
        with pytest.raises(ValueError, match="finite"):
            Direction(0.0, math.inf)

    @pytest.mark.parametrize("value", [2.0**1023, -(2.0**1023), 1.7e308, -1.7e308])
    @pytest.mark.parametrize("name", ["theta", "alpha"])
    def test_rejects_angles_from_2_to_the_1023(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and below 2\\*\\*1023"):
            Direction(**{"theta": 0.0, name: value})

    def test_largest_angles_give_finite_results(self):
        # two angles below 2**1023 differ by a finite double, so every phase stays finite
        top = math.nextafter(2.0**1023, 0.0)
        a, b = plus(top, top), minus(-top, -top)
        assert Direction(top, -top).alpha == -top
        for z in (amplitude(a, b), amplitude(b, a), probability(a, b)):
            assert math.isfinite(z.real) and math.isfinite(z.imag)

    def test_canonicalize_ranges(self):
        # no normalization: angles are kept exactly as given
        d = Direction(-0.25 + 4 * math.pi, -3.0)
        assert (d.theta, d.alpha) == (-0.25 + 4 * math.pi, -3.0)

    def test_canonicalize_preserves_probabilities(self):
        # a representative shifted by pi in theta and 2*pi in alpha is the
        # same physical direction
        d = Direction(5.8, -2.9)
        cd = Direction(5.8 - math.pi, -2.9 + 2 * math.pi)
        b = plus(0.4, 1.0)
        for s in Branch:
            assert probability(b, BranchLabel(d, s)) == pytest.approx(
                probability(b, BranchLabel(cd, s)), abs=TOL
            )

    def test_branch_tokens(self):
        assert Branch.from_token("+") is Branch.PLUS
        assert Branch.from_token("minus") is Branch.MINUS
        with pytest.raises(ValueError):
            Branch.from_token("x")
