"""The scalar label route equals the batched kernel bit for bit.

Label calls evaluate their block from ``math``/``cmath`` on Python floats
(``amplitudes._block``); the batched kernel ``amp_matrix`` from numpy. Both
feed the one combine step, so a label's values equal the kernel's on the
same Python floats exactly, which keeps every label command's output bytes,
and the kernel's on one-lane arrays up to the sign of a zero part: this is
what carries ``verify``'s checks of the kernel over to the scalar API. The
observable elements keep the bits of the batched form evaluated on Python
floats, the route labels took before they had their own trig source.
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polamp import (
    Branch,
    BranchLabel,
    Direction,
    MeasurementScenario,
    amplitude,
    chain,
    eigenvector_states,
    exact_distribution,
    observable_matrix,
    polarization_operator,
    probability,
    standard_amplitudes,
    state_vector,
)
from polamp.amplitudes import _block, _probability_of, amp_matrix
from polamp.operators import observable_elements_product
from polamp.simulate import _stage_transition

#: Angles where rounding is most fragile: signed zeros, subnormals, quarter
#: and half turns as ``math.radians`` gives them, and large arguments.
EDGES = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    math.radians(90), -math.radians(90), math.radians(270),
    math.pi, -math.pi, 2 * math.pi, 1e6, -1e6, 1e15, -1e15,
)

#: Finite angles whose differences stay finite, with the edges drawn often.
angles = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False) | st.sampled_from(EDGES)
directions = st.builds(Direction, angles, angles)
eigenvalues = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def bits(z) -> tuple[str, str]:
    """The exact parts of a complex or real number, signed zeros apart."""
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def unsigned_zero_bits(z) -> tuple[str, str]:
    """:func:`bits` with a zero part's sign dropped (adding 0.0 turns -0.0 into 0.0)."""
    return bits(complex(z) + 0j)


def float_block(a: Direction, b: Direction):
    """``amp_matrix`` between ``a`` and ``b`` on their Python floats (numpy scalars)."""
    return [[complex(k) for k in row] for row in amp_matrix(a.theta, a.alpha, b.theta, b.alpha)]


def lane_block(a: Direction, b: Direction):
    """``amp_matrix`` between ``a`` and ``b`` evaluated as one-lane arrays."""
    block = amp_matrix(*(np.array([x]) for x in (a.theta, a.alpha, b.theta, b.alpha)))
    return [[complex(k[0]) for k in row] for row in block]


def assert_scalar_route_matches_kernel(a: Direction, b: Direction):
    kernel = float_block(a, b)
    want = [[bits(k) for k in row] for row in kernel]
    block = _block(a, b)
    assert all(type(k) is complex for row in block for k in row)
    assert [[bits(k) for k in row] for row in block] == want
    lanes = [[unsigned_zero_bits(k) for k in row] for row in lane_block(a, b)]
    assert [[unsigned_zero_bits(k) for k in row] for row in block] == lanes
    for s, branch in enumerate((Branch.PLUS, Branch.MINUS)):
        label = BranchLabel(a, branch)
        state = state_vector(label, b)
        assert [bits(state.c_plus), bits(state.c_minus)] == want[s]
        for t, final in enumerate((Branch.PLUS, Branch.MINUS)):
            z = amplitude(label, BranchLabel(b, final))
            assert type(z) is complex and bits(z) == want[s][t]
    xi_plus, xi_minus = eigenvector_states(a, b)
    assert [[bits(xi.c_plus), bits(xi.c_minus)] for xi in (xi_plus, xi_minus)] == want
    assert _stage_transition(a, b).tolist() == [list(map(_probability_of, row)) for row in kernel]
    x_axis = float_block(a, Direction(0.0, 0.0))
    assert list(map(bits, standard_amplitudes(a))) == [bits(k) for row in x_axis for k in row]


def assert_observable_matches_batched_form(measure, basis, r_plus, r_minus):
    obs = observable_matrix(measure, basis, r_plus, r_minus)
    product = observable_elements_product(
        basis.theta, basis.alpha, measure.theta, measure.alpha, r_plus, r_minus
    )
    got = [obs.m11, obs.m12, obs.m21, obs.m22]
    assert all(type(m) is complex for m in got)
    assert list(map(bits, got)) == [bits(m) for row in product for m in row]


@given(directions, directions)
@settings(max_examples=300, deadline=None)
def test_label_route_equals_the_kernel_on_one_lane(a, b):
    assert_scalar_route_matches_kernel(a, b)


@given(directions, directions, eigenvalues, eigenvalues)
@settings(max_examples=300, deadline=None)
def test_observable_matrix_equals_the_batched_form_on_floats(measure, basis, r_plus, r_minus):
    assert_observable_matches_batched_form(measure, basis, r_plus, r_minus)


EDGE_DIRECTIONS = [Direction(t, a) for t, a in itertools.product(EDGES, (0.0, -0.0, math.pi, 1e15))]


@pytest.mark.parametrize("a", EDGE_DIRECTIONS, ids=lambda d: f"{d.theta!r},{d.alpha!r}")
def test_edge_table_is_bit_identical(a):
    for b in EDGE_DIRECTIONS[::7]:
        assert_scalar_route_matches_kernel(a, b)
        assert_scalar_route_matches_kernel(b, a)
        assert_observable_matches_batched_form(a, b, 1.0, -1.0)
        assert_observable_matches_batched_form(b, a, 2.5, 0.0)


def test_one_lane_kernel_can_differ_in_the_sign_of_zero():
    # numpy's vector complex product rounds an underflowing part to -0.0 where
    # its scalar product, like Python's, gives +0.0; the values are equal
    a, b = Direction(0.0, 5.7090403619120984e16), Direction(5e-324, 0.0)
    on_floats, on_lanes = _block(a, b)[1][0], lane_block(a, b)[1][0]
    assert bits(on_floats) == bits(float_block(a, b)[1][0]) == ("0x0.0p+0", "-0x0.0000000000001p-1022")
    assert bits(on_lanes) == ("-0x0.0p+0", "-0x0.0000000000001p-1022")
    assert on_floats == on_lanes


def _numpy_trig_called(*args, **kwargs):
    raise AssertionError("the scalar label route called numpy trig")


def test_scalar_route_does_not_call_numpy_trig():
    # the label API evaluates its blocks with math/cmath; a numpy 0-d call per
    # label costs several microseconds, so none may come back in a refactor
    a, b, via = Direction(0.3, 1.1), Direction(-0.7, 0.4), Direction(1.9, -2.2)
    plus_a, minus_b = BranchLabel(a, Branch.PLUS), BranchLabel(b, Branch.MINUS)
    scenario = MeasurementScenario(plus_a, (b, via, a))
    with mock.patch.multiple(
        np, cos=_numpy_trig_called, sin=_numpy_trig_called, exp=_numpy_trig_called
    ):
        amplitude(plus_a, minus_b)
        probability(plus_a, minus_b)
        chain(plus_a, minus_b, via)
        state_vector(plus_a, via)
        eigenvector_states(a, b)
        observable_matrix(a, b, 2.0, -0.5)
        polarization_operator(a, b)
        standard_amplitudes(a)
        assert exact_distribution(scenario).probs.shape == (8,)
        with pytest.raises(AssertionError, match="numpy trig"):
            amp_matrix(0.0, 0.0, 0.0, 0.0)
