"""Measurement directions and outcome labels for photon polarization.

A measurement context is a plane angle ``theta`` (measured from the x axis,
radians) plus a relative phase ``alpha`` between the x and y field
components. Each context has exactly two outcomes: polarization parallel
(``Branch.PLUS``) or perpendicular (``Branch.MINUS``) to the direction.

Angles are used exactly as given; all formulas downstream are 2*pi-periodic
in both angles, so no normalization is applied. A :class:`Direction` takes
``math.cos``/``math.sin`` of its plane angle once, when it is built, and
holds them for every amplitude block that reads it.

:class:`Direction`, :class:`BranchLabel` and the state and observable records
of :mod:`polamp.amplitudes` and :mod:`polamp.operators` are immutable records
(``_Record``): each is one tuple, built after its constructor's checks, that
equals only a record of its own type. A record built inside the package from
fields that are already checked skips the constructor (``_new``).

Each input range is stated once, here, by :func:`check_seed`, :func:`check_count`,
:func:`check_angle`, :func:`check_eigenvalue` or :func:`check_tolerance`. Each
returns the value converted or raises ``ValueError`` worded ``<name>: must be
<what>, got <value>``; a bool is no number to them. No numpy is imported here.
"""

from __future__ import annotations

import math
import numbers
import operator
from enum import Enum

#: Default absolute tolerance for every numeric invariant check in the package.
DEFAULT_TOLERANCE = 1e-12

#: Maximum number of stages of a simulated chain (2^n outcome sequences
#: bound memory); :func:`polamp.simulate.exact_distribution` refuses more.
DEFAULT_STAGE_CAP = 20

#: Default random draws per suite of :func:`polamp.verify.run_all`.
DEFAULT_DRAWS = 100_000


class Branch(Enum):
    """One of the two orthogonal outcomes of a polarization measurement."""

    PLUS = "+"
    MINUS = "-"

    @classmethod
    def from_token(cls, token: str, name: str = "branch") -> "Branch":
        """Parse exactly ``+`` or ``-``."""
        if isinstance(token, str) and token in ("+", "-"):
            return cls(token)
        raise _must_be(token, name, "'+' or '-'")


#: The members as module names: an enum attribute lookup costs a Python call.
_PLUS, _MINUS = Branch.PLUS, Branch.MINUS


def _shown(value) -> str:
    """``value`` for a diagnostic; a list or object is named by its type only, and an
    int too long for ``repr`` (Python's 4300-digit limit by default) by its size.
    """
    if isinstance(value, (dict, list)):
        return "dict" if isinstance(value, dict) else "list"
    try:
        return repr(value)
    except ValueError:
        return f"an int of {int(value).bit_length()} bits"


def _must_be(value, name: str, what: str) -> ValueError:
    return ValueError(f"{name}: must be {what}, got {_shown(value)}")


def _instance(value, cls: type, name: str):
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise _must_be(value, name, f"{article} {cls.__name__}")
    return value


def _complex(value, name: str):
    if isinstance(value, numbers.Complex) and not isinstance(value, bool):
        return value
    raise _must_be(value, name, "a complex number")


def _integer(value, name: str, low: int, bits: int) -> int:
    number = None
    if hasattr(value, "__index__") and not isinstance(value, bool):
        number = operator.index(value)
    if number is None or not low <= number < 2**bits:
        raise _must_be(value, name, f"an integer from {low} to 2**{bits} - 1")
    return number


def _real(value, name: str, low: float, high: float, what: str) -> float:
    if type(value) is float:
        number = value
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int past the largest double
            number = math.inf
    else:
        number = math.nan
    if not low < number < high:  # also rejects nan
        raise _must_be(value, name, what)
    return number


# Seeds key 64-bit generators, and counts (trials, draws, ``block_size``,
# ``n_stages``) are int64. Two angles below 2**1023 in magnitude differ by a
# finite double, so no phase difference downstream overflows to a NaN result,
# and two eigenvalues below 2**511 have a finite sum and product.
def check_seed(value, name: str = "seed") -> int:
    return _integer(value, name, 0, 64)


def check_count(value, name: str, low: int = 1) -> int:
    return _integer(value, name, low, 63)


def check_angle(value, name: str = "angle") -> float:
    return _real(value, name, -(2.0**1023), 2.0**1023, "a finite number below 2**1023 in magnitude")


def check_eigenvalue(value, name: str = "eigenvalue") -> float:
    return _real(value, name, -(2.0**511), 2.0**511, "a finite number below 2**511 in magnitude")


def check_tolerance(value, name: str = "tolerance") -> float:
    return _real(value, name, 0.0, math.inf, "a finite positive number")


class _Record(tuple):
    """An immutable value: a tuple whose first items are its fields, read-only
    attributes named by ``_fields``. It equals and hashes as a value of its own
    type only, has no ordering, and pickles and copies through its
    constructor's checks. A subclass defines ``__new__`` and ``__slots__ = ()``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        for index, name in enumerate(cls._fields):
            setattr(cls, name, property(operator.itemgetter(index)))

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __lt__(self, other):
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__
    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self[: len(self._fields)]


#: Builds a record from a row whose fields are already checked.
_new = tuple.__new__


class Direction(_Record):
    """A polarization measurement context: plane angle and relative phase.

    Both angles are in radians and pass :func:`check_angle`. The record is the
    tuple ``(theta, alpha, cos(theta), sin(theta))``: the plane angle's cos and
    sin are taken once, here, and every amplitude block reads them.
    """

    __slots__ = ()
    _fields = ("theta", "alpha")

    def __new__(cls, theta: float, alpha: float = 0.0):
        theta = check_angle(theta, "theta")
        return _new(cls, (theta, check_angle(alpha, "alpha"), math.cos(theta), math.sin(theta)))


class BranchLabel(_Record):
    """A single measurement outcome: a direction plus one of its branches."""

    __slots__ = ()
    _fields = ("direction", "branch")

    def __new__(cls, direction: Direction, branch: Branch):
        direction = _instance(direction, Direction, "direction")
        return _new(cls, (direction, _instance(branch, Branch, "branch")))


def plus(theta: float, alpha: float = 0.0) -> BranchLabel:
    """Label for the parallel outcome at ``Direction(theta, alpha)``."""
    return _new(BranchLabel, (Direction(theta, alpha), _PLUS))


def minus(theta: float, alpha: float = 0.0) -> BranchLabel:
    """Label for the perpendicular outcome at ``Direction(theta, alpha)``."""
    return _new(BranchLabel, (Direction(theta, alpha), _MINUS))
