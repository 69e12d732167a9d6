"""Direction-dependent 2x2 Hermitian observables and expectation values.

An observable measured together with the polarization along direction ``b``
takes the value ``r_plus`` on the parallel branch and ``r_minus`` on the
perpendicular one. Expressed over the outcomes of an arbitrary basis
direction ``c``, its matrix element (i, j) is the amplitude product

    M_ij = sum_s conj(chi(c^i, b^s)) chi(c^j, b^s) R_s

which is exactly the spectral form R+ v+ v+^dag + R- v- v-^dag with
eigenvectors v_s given componentwise by chi(b^s, c^i). This amplitude
product construction is the only route here, written once in
:func:`_elements`. It takes a block from either trig source of
:mod:`polamp.amplitudes`: :func:`observable_elements_product` is the
batched form over the kernel :func:`~polamp.amplitudes.amp_matrix`, and
:func:`observable_matrix` the scalar form over one label block, bit for
bit equal to the batched form on Python floats. The closed trig
expressions live in :mod:`polamp.closedforms`, where :mod:`polamp.verify`
checks them against it.

numpy is imported inside the functions that call it (the batched form,
:func:`observable_matrix`'s moduli, :meth:`Observable2.as_array` and
:func:`expectation`), so ``import polamp`` and :func:`expectation_closed`
run without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .amplitudes import StateVector2, _block, _probability_of, amp_matrix, state_vector
from .directions import DEFAULT_TOLERANCE, BranchLabel, Direction

if TYPE_CHECKING:  # numpy is imported by the functions that use it (module docstring)
    import numpy as np


@dataclass(frozen=True)
class Observable2:
    """A 2x2 Hermitian observable with its defining eigenvalues and directions.

    ``measure_dir`` is the direction whose branches carry the eigenvalues
    (r_plus, r_minus); ``basis_dir`` is the direction whose outcomes index
    the matrix elements.
    """

    m11: complex
    m12: complex
    m21: complex
    m22: complex
    r_plus: float
    r_minus: float
    measure_dir: Direction
    basis_dir: Direction

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([[self.m11, self.m12], [self.m21, self.m22]], dtype=complex)

    @property
    def trace(self) -> complex:
        return self.m11 + self.m22

    @property
    def determinant(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21


def _elements(block, squared, r_plus, r_minus):
    """Element (i, j) = sum_s conj(chi(c^i, b^s)) chi(c^j, b^s) R_s of one block.

    ``block`` is the amplitude block between c and b, ``squared`` its squared
    moduli in the same layout. Returns ((m11, m12), (m21, m22)).
    """
    (k_pp, k_pm), (k_mp, k_mm) = block
    (a_pp, a_pm), (a_mp, a_mm) = squared
    m11 = a_pp * r_plus + a_pm * r_minus
    m12 = k_pp.conjugate() * k_mp * r_plus + k_pm.conjugate() * k_mm * r_minus
    m21 = k_mp.conjugate() * k_pp * r_plus + k_mm.conjugate() * k_pm * r_minus
    m22 = a_mp * r_plus + a_mm * r_minus
    return ((m11 + 0j, m12), (m21, m22 + 0j))


def observable_elements_product(theta_c, alpha_c, theta_b, alpha_b, r_plus, r_minus):
    """Amplitude-product matrix elements, vectorized over the angle arrays.

    Element (i, j) is sum_s conj(chi(c^i, b^s)) chi(c^j, b^s) R_s with c the
    basis direction and b the measured one. Returns ((m11, m12), (m21, m22)).
    """
    import numpy as np

    block = amp_matrix(theta_c, alpha_c, theta_b, alpha_b)
    squared = [[np.abs(k) ** 2 for k in row] for row in block]
    return _elements(block, squared, r_plus, r_minus)


def observable_matrix(
    measure: Direction, basis: Direction, r_plus: float, r_minus: float
) -> Observable2:
    """Observable with values (r_plus, r_minus) on the branches of ``measure``,
    as a matrix over the outcomes of ``basis``.

    Built from amplitude products; the result is Hermitian with
    trace r_plus + r_minus and determinant r_plus * r_minus.
    """
    import numpy as np

    r_plus, r_minus = float(r_plus), float(r_minus)
    block = _block(basis, measure)
    # the batched form's bits on floats: moduli from numpy, whose complex abs
    # rounds unlike Python's ``abs``, squared by ``pow`` as a numpy scalar's
    # ``** 2`` is (``m * m`` can differ in the last bit)
    squared = [[m ** 2 for m in row] for row in np.abs(block).tolist()]
    (m11, m12), (m21, m22) = _elements(block, squared, r_plus, r_minus)
    return Observable2(
        m11=m11,
        m12=m12,
        m21=m21,
        m22=m22,
        r_plus=r_plus,
        r_minus=r_minus,
        measure_dir=measure,
        basis_dir=basis,
    )


def polarization_operator(measure: Direction, basis: Direction) -> Observable2:
    """The polarization observable itself: +1 parallel, -1 perpendicular.

    Traceless, determinant -1, and involutory (its square is the identity).
    """
    return observable_matrix(measure, basis, +1.0, -1.0)


def eigenvector_states(
    measure: Direction, basis: Direction
) -> tuple[StateVector2, StateVector2]:
    """Eigenvectors of any observable defined on ``measure``, over ``basis``.

    Returns (xi_plus, xi_minus) for the r_plus and r_minus branches; the
    components of xi_s are the amplitudes chi(measure^s, basis^i), so the
    pair is orthonormal by construction. The global phase follows the
    component formulas exactly (no re-phasing).
    """
    plus_row, minus_row = _block(measure, basis)
    return StateVector2(*plus_row), StateVector2(*minus_row)


def expectation(state: StateVector2, obs: Observable2) -> float:
    """Expectation value <state| obs |state>.

    ``state`` must be normalized within the package tolerance
    ``DEFAULT_TOLERANCE``; the imaginary residue of the quadratic form (zero
    up to rounding for Hermitian matrices) is checked against it and discarded.
    """
    import numpy as np

    tol = DEFAULT_TOLERANCE
    norm_dev = abs(state.norm - 1.0)
    if norm_dev > tol:
        raise ValueError(f"state is not normalized: |norm - 1| = {norm_dev:.3e} > {tol:.3e}")
    v = state.as_array()
    z = np.vdot(v, obs.as_array() @ v)
    if abs(z.imag) > tol:
        raise ValueError(f"non-real expectation (residue {z.imag:.3e}); matrix not Hermitian?")
    return float(z.real)


def expectation_closed(initial: BranchLabel, measure: Direction) -> float:
    """Polarization expectation as the probability-weighted sum of +/-1.

    Agrees with the matrix route
    ``expectation(state_vector(initial, basis), polarization_operator(measure, basis))``
    for every basis direction.
    """
    state = state_vector(initial, measure)
    return _probability_of(state.c_plus) - _probability_of(state.c_minus)
