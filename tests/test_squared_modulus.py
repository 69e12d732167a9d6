"""Every squared modulus on the normative path is one rule, ``amplitudes._squared``.

``z.real * z.real + z.imag * z.imag`` rounds alike on a Python complex, a
numpy complex scalar and a numpy array, because neither Python nor numpy
fuses the multiply-add. That is what keeps the label route (Python complex)
bit for bit equal to the batched route (arrays) on the same floats. A
second rule, such as ``abs(z) ** 2`` (a rounded hypot, squared), rounds
differently on many inputs, so none may come back in the normative modules;
``verify``'s oracle keeps its own ``np.abs(x) ** 2`` on purpose.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polamp
from polamp.amplitudes import _squared

SRC = Path(polamp.__file__).parent

#: Signed parts from 1e-170 to 1e170 in magnitude, or zero: their squares
#: run from the subnormals to past the largest double.
magnitudes = st.floats(min_value=1e-170, max_value=1e170)
parts = st.builds(lambda m, negative: -m if negative else m, magnitudes, st.booleans()) | st.just(0.0)
numbers = st.builds(complex, parts, parts)


@given(st.lists(numbers, min_size=1, max_size=40))
@settings(max_examples=500, deadline=None)
def test_python_complex_and_numpy_arrays_square_alike(zs):
    want = [_squared(z).hex() for z in zs]
    with np.errstate(over="ignore", under="ignore"):
        lanes = _squared(np.array(zs)).tolist()
        scalars = [float(_squared(np.complex128(z))) for z in zs]
    assert [x.hex() for x in lanes] == want
    assert [x.hex() for x in scalars] == want


#: The normative modules that take squared moduli.
MODULES = ("amplitudes", "operators", "limits", "simulate", "cli")


def second_rules(tree: ast.AST) -> list[str]:
    """Every ``abs(...) ** 2`` or ``<module>.abs(...) ** 2`` under ``tree``."""
    return [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
        and isinstance(node.right, ast.Constant) and node.right.value == 2
        and isinstance(node.left, ast.Call)
        and (getattr(node.left.func, "id", None) == "abs" or getattr(node.left.func, "attr", None) == "abs")
    ]


@pytest.mark.parametrize("module", MODULES)
def test_no_second_squared_modulus_rule(module):
    assert second_rules(ast.parse((SRC / f"{module}.py").read_text())) == []


def test_guard_sees_both_forms():
    source = "a = abs(z) ** 2\nb = np.abs(k) ** 2\nc = abs(z) ** 3\nd = z.real * z.real\n"
    assert second_rules(ast.parse(source)) == ["abs(z) ** 2", "np.abs(k) ** 2"]
