"""Standard-limit reductions collapse to the textbook formulas."""

import math

import numpy as np
import pytest

from polamp import (
    Branch,
    BranchLabel,
    Direction,
    amplitude,
    eigenvector_states,
    minus,
    plus,
    standard_amplitudes,
    standard_operator,
    standard_states,
)

TOL = 1e-12
RNG = np.random.default_rng(77)


def vector(state) -> np.ndarray:
    """A state's components as a numpy vector."""
    return np.array([state.c_plus, state.c_minus], dtype=complex)


def matrix(obs) -> np.ndarray:
    """An observable's elements as a 2x2 numpy array."""
    return np.array([[obs.m11, obs.m12], [obs.m21, obs.m22]], dtype=complex)


class TestStandardAmplitudes:

    def test_x_direction(self):
        np.testing.assert_allclose(standard_amplitudes(Direction(0.0, 0.0)), [1, 0, 0, 1], atol=TOL)

    def test_circular_direction(self):
        # theta = pi/4, alpha = pi/2: the right/left circular pair
        s = np.sqrt(2) / 2
        got = standard_amplitudes(Direction(math.pi / 4, math.pi / 2))
        np.testing.assert_allclose(got, [s, s * 1j, -s, s * 1j], atol=TOL)

    def test_matches_generalized_amplitudes(self):
        x = Direction(0.0, 0.0)
        for theta, alpha in RNG.uniform(-2 * math.pi, 2 * math.pi, (25, 2)):
            a = Direction(theta, alpha)
            expected = (
                amplitude(plus(theta, alpha), BranchLabel(x, Branch.PLUS)),
                amplitude(plus(theta, alpha), BranchLabel(x, Branch.MINUS)),
                amplitude(minus(theta, alpha), BranchLabel(x, Branch.PLUS)),
                amplitude(minus(theta, alpha), BranchLabel(x, Branch.MINUS)),
            )
            np.testing.assert_allclose(standard_amplitudes(a), expected, atol=TOL)

    def test_perpendicular_is_quarter_turned_parallel(self):
        for theta, alpha in RNG.uniform(-3, 3, (25, 2)):
            cp, cm, pp, pm = standard_amplitudes(Direction(theta, alpha))
            cp2, cm2, _, _ = standard_amplitudes(Direction(theta + math.pi / 2, alpha))
            assert pp == pytest.approx(cp2, abs=TOL)
            assert pm == pytest.approx(cm2, abs=TOL)


class TestStandardStates:

    def test_x_direction_is_computational_basis(self):
        sp, sm = standard_states(Direction(0.0, 0.0))
        np.testing.assert_allclose(vector(sp), [1, 0], atol=TOL)
        np.testing.assert_allclose(vector(sm), [0, 1], atol=TOL)

    def test_circular_pair(self):
        sp, sm = standard_states(Direction(math.pi / 4, math.pi / 2))
        s = np.sqrt(2) / 2
        np.testing.assert_allclose(vector(sp), [s, s * 1j], atol=TOL)
        np.testing.assert_allclose(vector(sm), [-s, s * 1j], atol=TOL)

    def test_orthonormal_pair(self):
        for theta, alpha in RNG.uniform(-6, 6, (25, 2)):
            sp, sm = standard_states(Direction(theta, alpha))
            assert sp.norm == pytest.approx(1.0, abs=TOL)
            assert sm.norm == pytest.approx(1.0, abs=TOL)
            assert abs(np.vdot(vector(sp), vector(sm))) < TOL


class TestStandardOperator:

    def test_x_direction_is_diagonal(self):
        np.testing.assert_allclose(
            matrix(standard_operator(Direction(0.0, 0.0))), np.diag([1.0, -1.0]), atol=TOL
        )

    def test_diagonal_flip_at_45_degrees(self):
        m = matrix(standard_operator(Direction(math.pi / 4, 0.0)))
        np.testing.assert_allclose(m, [[0, 1], [1, 0]], atol=TOL)

    def test_structure_and_eigenvectors(self):
        for tb, ab in RNG.uniform(-2 * math.pi, 2 * math.pi, (25, 2)):
            op = standard_operator(Direction(tb, ab))
            m = matrix(op)
            assert abs(np.trace(m)) < TOL
            np.testing.assert_allclose(m @ m, np.eye(2), atol=TOL)
            assert m[0, 0] == pytest.approx(math.cos(2 * tb), abs=TOL)
            assert m[0, 1] == pytest.approx(math.sin(2 * tb) * np.exp(-1j * ab), abs=TOL)

            xi_p, xi_m = eigenvector_states(Direction(tb, ab), Direction(0.0, 0.0))
            assert np.max(np.abs(m @ vector(xi_p) - vector(xi_p))) < TOL
            assert np.max(np.abs(m @ vector(xi_m) + vector(xi_m))) < TOL
            # the stated standard eigenvector components
            assert xi_p.c_plus == pytest.approx(math.cos(tb), abs=TOL)
            assert xi_p.c_minus == pytest.approx(math.sin(tb) * np.exp(1j * ab), abs=TOL)
            assert xi_m.c_plus == pytest.approx(-math.sin(tb), abs=TOL)
            assert xi_m.c_minus == pytest.approx(math.cos(tb) * np.exp(1j * ab), abs=TOL)
