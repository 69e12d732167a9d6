"""Standard-limit reductions of the generalized formulas.

The textbook polarization formulas are boundary values of the generalized
ones: amplitudes and states reduce by fixing the final direction at
(theta=0, alpha=0), operators and eigenvectors by fixing the basis
direction there. Nothing here is a second code path; every function
evaluates the generalized machinery at that boundary.
"""

from __future__ import annotations

from .amplitudes import StateVector2, _block
from .directions import Direction
from .operators import Observable2, eigenvector_states, polarization_operator

X_DIRECTION = Direction(0.0, 0.0)


def standard_amplitudes(a: Direction) -> tuple[complex, complex, complex, complex]:
    """The four textbook amplitudes for a photon prepared along ``a``.

    Returns (chi_a_plus, chi_a_minus, chi_perp_plus, chi_perp_minus), i.e.
    (cos theta_a, sin theta_a e^{i alpha_a}, -sin theta_a,
    cos theta_a e^{i alpha_a}): the outcomes of measuring along the x
    direction for the parallel and perpendicular preparations.
    """
    (pp, pm), (mp, mm) = _block(a, X_DIRECTION)
    return pp, pm, mp, mm


def standard_states(a: Direction) -> tuple[StateVector2, StateVector2]:
    """Textbook state pair for direction ``a``: the x-referenced state vectors."""
    return eigenvector_states(a, X_DIRECTION)


def standard_operator(measure: Direction) -> Observable2:
    """Textbook polarization operator: the generalized one in the x basis."""
    return polarization_operator(measure, X_DIRECTION)
