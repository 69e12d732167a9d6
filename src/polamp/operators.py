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
:class:`Observable2` the scalar form over one label block, bit for
bit equal to the batched form on Python floats. The closed trig
expressions live in :mod:`polamp.closedforms`, where :mod:`polamp.verify`
checks them against it.

The scalar forms (:class:`Observable2`, :func:`eigenvector_states`,
:func:`expectation` and :func:`expectation_closed`) compute on Python
complex alone, from the label blocks and the cos/sin each direction holds.
numpy is imported only by the kernel, for the batched form, so ``import
polamp`` and the scalar API run without it. An :class:`Observable2`
(:func:`observable_matrix` in the paper's terms) is an immutable record
(:mod:`polamp.directions`) of two directions and two eigenvalues, from which
it computes its elements.
"""

from __future__ import annotations

from operator import itemgetter

from .amplitudes import StateVector2, _block, _probability_of, _read_label, _squared, amp_matrix
from .directions import (
    DEFAULT_TOLERANCE,
    BranchLabel,
    Direction,
    _instance,
    _new,
    _Record,
    check_eigenvalue,
)


class Observable2(_Record):
    """The observable with values (r_plus, r_minus) on the branches of
    ``measure_dir``, as a 2x2 Hermitian matrix over the outcomes of ``basis_dir``.

    It is the tuple ``(measure_dir, basis_dir, r_plus, r_minus, m11, m12, m21, m22)``:
    the two directions and the eigenvalues (:func:`~polamp.directions.check_eigenvalue`)
    are checked, and the elements computed from them by :func:`_elements`.
    """

    __slots__ = ()
    _fields = ("measure_dir", "basis_dir", "r_plus", "r_minus")

    def __new__(cls, measure_dir: Direction, basis_dir: Direction, r_plus: float, r_minus: float):
        r_plus, r_minus = check_eigenvalue(r_plus, "r_plus"), check_eigenvalue(r_minus, "r_minus")
        block = _block(basis_dir, measure_dir, ("basis_dir", "measure_dir"))
        (m11, m12), (m21, m22) = _elements(block, r_plus, r_minus)
        return _new(cls, (measure_dir, basis_dir, r_plus, r_minus, m11, m12, m21, m22))

    m11, m12, m21, m22 = (property(itemgetter(index)) for index in range(4, 8))

    @property
    def trace(self) -> complex:
        return self.m11 + self.m22

    @property
    def determinant(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21


def _elements(block, r_plus, r_minus):
    """Element (i, j) = sum_s conj(chi(c^i, b^s)) chi(c^j, b^s) R_s of one block.

    ``block`` is the amplitude block between c and b, of Python complex or
    of arrays. Returns ((m11, m12), (m21, m22)).
    """
    (k_pp, k_pm), (k_mp, k_mm) = block
    m11 = _squared(k_pp) * r_plus + _squared(k_pm) * r_minus
    m12 = k_pp.conjugate() * k_mp * r_plus + k_pm.conjugate() * k_mm * r_minus
    m21 = k_mp.conjugate() * k_pp * r_plus + k_mm.conjugate() * k_pm * r_minus
    m22 = _squared(k_mp) * r_plus + _squared(k_mm) * r_minus
    return ((m11 + 0j, m12), (m21, m22 + 0j))


def observable_elements_product(theta_c, alpha_c, theta_b, alpha_b, r_plus, r_minus):
    """Amplitude-product matrix elements, vectorized over the angle arrays.

    Element (i, j) is sum_s conj(chi(c^i, b^s)) chi(c^j, b^s) R_s with c the
    basis direction and b the measured one. Returns ((m11, m12), (m21, m22)).
    """
    return _elements(amp_matrix(theta_c, alpha_c, theta_b, alpha_b), r_plus, r_minus)


#: The paper's name for the :class:`Observable2` constructor.
observable_matrix = Observable2


def polarization_operator(measure: Direction, basis: Direction) -> Observable2:
    """The polarization observable itself: +1 parallel, -1 perpendicular.

    Traceless, determinant -1, and involutory (its square is the identity).
    """
    # the constants need no eigenvalue check; _block checks the directions
    (m11, m12), (m21, m22) = _elements(_block(basis, measure), 1.0, -1.0)
    return _new(Observable2, (measure, basis, 1.0, -1.0, m11, m12, m21, m22))


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
    return _new(StateVector2, plus_row), _new(StateVector2, minus_row)


def expectation(state: StateVector2, obs: Observable2) -> float:
    """Expectation value <state| obs |state>.

    ``obs`` must be an :class:`Observable2`, and ``state`` a :class:`StateVector2`
    normalized within the package tolerance ``DEFAULT_TOLERANCE``. Every
    :class:`Observable2` is built Hermitian, so the imaginary residue of the
    quadratic form is rounding alone, in proportion to the eigenvalues: the
    check against the tolerance times the larger of 1 and ``|r_plus|``,
    ``|r_minus|`` guards that rounding, and the residue is discarded.
    """
    state, obs = _instance(state, StateVector2, "state"), _instance(obs, Observable2, "obs")
    tol = DEFAULT_TOLERANCE
    norm_dev = abs(state.norm - 1.0)
    if not norm_dev <= tol:  # a NaN norm is not normalized either
        raise ValueError(f"state is not normalized: |norm - 1| = {norm_dev:.3e} > {tol:.3e}")
    v1, v2 = state.c_plus, state.c_minus
    z = v1.conjugate() * (obs.m11 * v1 + obs.m12 * v2) + v2.conjugate() * (obs.m21 * v1 + obs.m22 * v2)
    if abs(z.imag) > tol * max(1.0, abs(obs.r_plus), abs(obs.r_minus)):
        raise ValueError(f"non-real expectation (residue {z.imag:.3e}); matrix not Hermitian?")
    return float(z.real)


def expectation_closed(initial: BranchLabel, measure: Direction) -> float:
    """Polarization expectation as the probability-weighted sum of +/-1.

    Agrees with the matrix route
    ``expectation(state_vector(initial, basis), polarization_operator(measure, basis))``
    for every basis direction.
    """
    direction, row = _read_label(initial)
    c_plus, c_minus = _block(direction, measure)[row]
    return _probability_of(c_plus) - _probability_of(c_minus)
