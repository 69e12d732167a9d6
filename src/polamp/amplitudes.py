"""Transition amplitudes between arbitrary polarization branches.

The amplitude for a photon prepared in branch ``s`` of direction ``a``
(angle ``theta_a``, phase ``alpha_a``) to be found in branch ``t`` of
direction ``b`` is a complex number chi(a^s, b^t). With
``d = alpha_a - alpha_b`` the four closed forms are

    chi(a+, b+) =  cos(theta_a) cos(theta_b) + sin(theta_a) sin(theta_b) e^{i d}
    chi(a+, b-) = -cos(theta_a) sin(theta_b) + sin(theta_a) cos(theta_b) e^{i d}
    chi(a-, b+) = -sin(theta_a) cos(theta_b) + cos(theta_a) sin(theta_b) e^{i d}
    chi(a-, b-) =  sin(theta_a) sin(theta_b) + cos(theta_a) cos(theta_b) e^{i d}

The first label always names the initial (prepared) state, the second the
measured one. These forms satisfy, and the verification suite checks:

* reversal symmetry      chi(x, y) = conj(chi(y, x))
* orthonormality         sum_t chi(a^s, b^t) conj(chi(a^r, b^t)) = delta_sr
* chaining               chi(x, y) = sum_s chi(x, c^s) chi(c^s, y) for any c

The four forms are written once, in :func:`_combine`, which builds the 2x2
block from the cos/sin of both plane angles and the phase. Two trig sources
feed it. :func:`amp_matrix`, the batched kernel, takes ``np.cos``/``np.sin``/
``np.exp`` over scalars or numpy arrays (broadcasting). The label-based
functions below it are the scalar API: they evaluate one block per pair of
directions through :func:`_block`, which takes ``math.cos``/``math.sin``/
``cmath.exp`` on the labels' Python floats and so skips numpy's per-call
cost. Where numpy's float64 trig is the C library's, both sources round
alike: a label's block equals the kernel's on the same Python floats bit
for bit, and on one-lane arrays up to the sign of a zero part (properties
in the tests). That is how :mod:`polamp.verify`'s checks of the kernel
carry over to the labels. This is the one route to amplitudes,
probabilities (squared moduli) and states; the reversed amplitude is
``amplitude(final, initial)``, and the closed trig forms of the
probabilities live in :mod:`polamp.closedforms`, where :mod:`polamp.verify`
checks them against this route.

numpy is imported inside :func:`amp_matrix` and :meth:`StateVector2.as_array`
only, the two places that make arrays, so the scalar API and ``import
polamp`` run without it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .directions import Branch, BranchLabel, Direction

if TYPE_CHECKING:  # numpy is imported by the functions that use it (module docstring)
    import numpy as np


# ---------------------------------------------------------------------------
# vectorized closed-form kernel
# ---------------------------------------------------------------------------

def _combine(ca, sa, cb, sb, phase):
    """The 2x2 block of chi(a^s, b^t) from cos/sin of both plane angles and e^{i d}.

    Returns ((chi(a+, b+), chi(a+, b-)), (chi(a-, b+), chi(a-, b-))): row
    index is the initial branch, column index the final one (0 = plus).
    """
    cc, ss, cs, sc = ca * cb, sa * sb, ca * sb, sa * cb
    return ((cc + ss * phase, -cs + sc * phase), (-sc + cs * phase, ss + cc * phase))


def amp_matrix(theta_a, alpha_a, theta_b, alpha_b):
    """The 2x2 block of chi(a^s, b^t) for scalar or array angles (see :func:`_combine`).

    The trig factors and the phase are evaluated once for all four.
    """
    import numpy as np

    return _combine(
        np.cos(theta_a), np.sin(theta_a), np.cos(theta_b), np.sin(theta_b),
        np.exp(1j * (alpha_a - alpha_b)),
    )


# ---------------------------------------------------------------------------
# label-based API
# ---------------------------------------------------------------------------

def _row(label: BranchLabel) -> int:
    """Index of ``label``'s branch in an :func:`amp_matrix` block."""
    return int(label.branch is Branch.MINUS)


def _block(a, b):
    """:func:`amp_matrix`'s block between two directions, or the directions of two
    labels, from ``math``/``cmath`` on their Python floats: a block of Python complex.
    """
    return _combine(
        math.cos(a.theta), math.sin(a.theta), math.cos(b.theta), math.sin(b.theta),
        cmath.exp(1j * (a.alpha - b.alpha)),
    )


def _probability_of(z) -> float:
    """|z|^2 of one amplitude, clamped into [0, 1]."""
    return min(max(abs(complex(z)) ** 2, 0.0), 1.0)


def amplitude(initial: BranchLabel, final: BranchLabel) -> complex:
    """Transition amplitude from ``initial`` to ``final``."""
    return _block(initial, final)[_row(initial)][_row(final)]


def probability(initial: BranchLabel, final: BranchLabel) -> float:
    """Transition probability |amplitude|^2, clamped into [0, 1]."""
    return _probability_of(amplitude(initial, final))


def chain(initial: BranchLabel, final: BranchLabel, via: Direction) -> complex:
    """Amplitude decomposed through a complete set of outcomes at ``via``.

    Returns sum_s amplitude(initial, via^s) * amplitude(via^s, final);
    equals amplitude(initial, final) for every intermediate direction.
    """
    first = _block(initial, via)[_row(initial)]
    second = _block(via, final)
    column = _row(final)
    return sum(first[s] * second[s][column] for s in (0, 1))


@dataclass(frozen=True)
class StateVector2:
    """A polarization state over the two outcomes of a reference direction.

    ``c_plus``/``c_minus`` are the amplitudes for the parallel and
    perpendicular branches of the reference; |c_plus|^2 + |c_minus|^2 = 1
    for every state produced by this package.
    """

    c_plus: complex
    c_minus: complex

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([self.c_plus, self.c_minus], dtype=complex)

    @property
    def norm(self) -> float:
        # correctly rounded, as ``np.sqrt`` is: the same bits without numpy
        return math.sqrt(abs(self.c_plus) ** 2 + abs(self.c_minus) ** 2)


def state_vector(label: BranchLabel, reference: Direction) -> StateVector2:
    """State of ``label`` expressed over the outcomes of ``reference``.

    Component ``s`` is amplitude(label, reference^s); the result has unit
    norm for every reference direction.
    """
    return StateVector2(*_block(label, reference)[_row(label)])
