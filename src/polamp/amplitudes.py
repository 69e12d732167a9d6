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
directions through :func:`_block`, on the labels' Python floats, and so skip
numpy's per-call cost. Each :class:`~polamp.directions.Direction` holds the
``math.cos``/``math.sin`` of its plane angle, taken once when it is built;
:func:`_block` reads them and takes ``cmath.exp`` of the phase difference,
which does not factor into per-direction terms without moving bits. Where
numpy's float64 trig is the C library's, both sources round
alike: a label's block equals the kernel's on the same Python floats bit
for bit, and on one-lane arrays up to the sign of a zero part (properties
in the tests). That is how :mod:`polamp.verify`'s checks of the kernel
carry over to the labels. This is the one route to amplitudes,
probabilities (squared moduli) and states; the reversed amplitude is
``amplitude(final, initial)``, and the closed trig forms of the
probabilities live in :mod:`polamp.closedforms`, where :mod:`polamp.verify`
checks them against this route.

Every squared modulus of an amplitude, a state or an observable element,
of a Python complex or of a numpy array, is :func:`_squared`:
``z.real * z.real + z.imag * z.imag``. Neither Python nor numpy fuses that
multiply-add, so it rounds alike on both. Only :mod:`polamp.verify`'s
oracle squares its own way, sharing no code with what it checks.

numpy is imported inside :func:`amp_matrix` only, the one place that makes
arrays, so the scalar API and ``import polamp`` run without it.
"""

from __future__ import annotations

import cmath
import math

from .directions import _MINUS, BranchLabel, Direction, _complex, _instance, _must_be, _new, _Record


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

def _read_label(label: BranchLabel) -> tuple[Direction, bool]:
    """``label``'s direction and the index of its branch in an :func:`amp_matrix`
    block, as a bool (False is plus): it indexes a tuple as 0 or 1, but a numpy
    array takes it for a mask. Every label function reads its labels here, so
    this is where a non-:class:`~polamp.directions.BranchLabel` is rejected.
    """
    direction, branch = _instance(label, BranchLabel, "label")
    return direction, branch is _MINUS


def _block(a: Direction, b: Direction):
    """:func:`amp_matrix`'s block between two directions, from the cos/sin each
    :class:`~polamp.directions.Direction` holds and ``cmath.exp`` of the phase
    difference: a block of Python complex. Every label function reads its
    directions here, so this is where a non-:class:`Direction` is rejected.
    """
    if not (isinstance(a, Direction) and isinstance(b, Direction)):
        raise _must_be(b if isinstance(a, Direction) else a, "direction", "a Direction")
    _, alpha_a, cos_a, sin_a = a
    _, alpha_b, cos_b, sin_b = b
    return _combine(cos_a, sin_a, cos_b, sin_b, cmath.exp(1j * (alpha_a - alpha_b)))


def _squared(z):
    """|z|^2 of a complex number or array: the package's one squared-modulus rule."""
    return z.real * z.real + z.imag * z.imag


def _probability_of(z: complex) -> float:
    """|z|^2 of one amplitude, clamped to at most 1."""
    return min(_squared(z), 1.0)


def amplitude(initial: BranchLabel, final: BranchLabel) -> complex:
    """Transition amplitude from ``initial`` to ``final``."""
    (a, row), (b, column) = _read_label(initial), _read_label(final)
    return _block(a, b)[row][column]


def probability(initial: BranchLabel, final: BranchLabel) -> float:
    """Transition probability |amplitude|^2, clamped into [0, 1]."""
    return _probability_of(amplitude(initial, final))


def chain(initial: BranchLabel, final: BranchLabel, via: Direction) -> complex:
    """Amplitude decomposed through a complete set of outcomes at ``via``.

    Returns sum_s amplitude(initial, via^s) * amplitude(via^s, final);
    equals amplitude(initial, final) for every intermediate direction.
    """
    (a, row), (b, column) = _read_label(initial), _read_label(final)
    first, second = _block(a, via)[row], _block(via, b)
    return sum(first[s] * second[s][column] for s in (0, 1))


class StateVector2(_Record):
    """A polarization state over the two outcomes of a reference direction.

    ``c_plus``/``c_minus`` are the amplitudes for the parallel and
    perpendicular branches of the reference; |c_plus|^2 + |c_minus|^2 = 1
    for every state produced by this package. Each component must be a
    complex number (not a bool).
    """

    __slots__ = ()
    _fields = ("c_plus", "c_minus")

    def __new__(cls, c_plus: complex, c_minus: complex):
        return _new(cls, (_complex(c_plus, "c_plus"), _complex(c_minus, "c_minus")))

    @property
    def norm(self) -> float:
        # correctly rounded, as ``np.sqrt`` is: the same bits without numpy
        return math.sqrt(_squared(self.c_plus) + _squared(self.c_minus))


def state_vector(label: BranchLabel, reference: Direction) -> StateVector2:
    """State of ``label`` expressed over the outcomes of ``reference``.

    Component ``s`` is amplitude(label, reference^s); the result has unit
    norm for every reference direction.
    """
    direction, row = _read_label(label)
    return _new(StateVector2, _block(direction, reference)[row])
