"""Measurement directions and outcome labels for photon polarization.

A measurement context is a plane angle ``theta`` (measured from the x axis,
radians) plus a relative phase ``alpha`` between the x and y field
components. Each context has exactly two outcomes: polarization parallel
(``Branch.PLUS``) or perpendicular (``Branch.MINUS``) to the direction.

Angles are used exactly as given; all formulas downstream are 2*pi-periodic
in both angles, so no normalization is applied.

Each input range is stated once, here, by :func:`check_seed`, :func:`check_count`,
:func:`check_angle`, :func:`check_eigenvalue` or :func:`check_tolerance`. Each
returns the value converted or raises ``ValueError`` worded ``<name>: must be
<what>, got <value>``; a bool is no number to them. No numpy is imported here.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum

#: Default absolute tolerance for every numeric invariant check in the package.
DEFAULT_TOLERANCE = 1e-12

#: Default maximum number of stages of a simulated chain (2^n outcome
#: sequences bound memory); :mod:`polamp.simulate` applies it.
DEFAULT_STAGE_CAP = 20

#: Default random draws per suite of :func:`polamp.verify.run_all`.
DEFAULT_DRAWS = 100_000


class Branch(Enum):
    """One of the two orthogonal outcomes of a polarization measurement."""

    PLUS = "+"
    MINUS = "-"

    @classmethod
    def from_token(cls, token: str) -> "Branch":
        """Parse ``+``/``-`` (also accepts ``plus``/``minus``, any case)."""
        t = token.strip().lower() if isinstance(token, str) else None
        if t in ("+", "plus"):
            return cls.PLUS
        if t in ("-", "minus"):
            return cls.MINUS
        raise ValueError(f"invalid branch {_shown(token)}: expected '+' or '-'")

    def __str__(self) -> str:
        return self.value


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


def _integer(value, name: str, low: int, bits: int) -> int:
    number = None
    if hasattr(value, "__index__") and not isinstance(value, bool):
        number = operator.index(value)
    if number is None or not low <= number < 2**bits:
        raise _must_be(value, name, f"an integer from {low} to 2**{bits} - 1")
    return number


def _real(value, name: str, low: float, high: float, what: str) -> float:
    real = type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool))
    try:
        number = float(value) if real else math.nan
    except OverflowError:  # an int past the largest double
        number = math.inf
    if not low < number < high:  # also rejects nan
        raise _must_be(value, name, what)
    return number


# Seeds key 64-bit generators, and counts (trials, draws, the stage cap,
# ``block_size``) are int64. Two angles below 2**1023 in magnitude differ by a
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


@dataclass(frozen=True)
class Direction:
    """A polarization measurement context: plane angle and relative phase.

    Both angles are in radians and pass :func:`check_angle`.
    """

    theta: float
    alpha: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", check_angle(self.theta, "theta"))
        object.__setattr__(self, "alpha", check_angle(self.alpha, "alpha"))


@dataclass(frozen=True)
class BranchLabel:
    """A single measurement outcome: a direction plus one of its branches."""

    direction: Direction
    branch: Branch

    @property
    def theta(self) -> float:
        return self.direction.theta

    @property
    def alpha(self) -> float:
        return self.direction.alpha


def plus(theta: float, alpha: float = 0.0) -> BranchLabel:
    """Label for the parallel outcome at ``Direction(theta, alpha)``."""
    return BranchLabel(Direction(theta, alpha), Branch.PLUS)


def minus(theta: float, alpha: float = 0.0) -> BranchLabel:
    """Label for the perpendicular outcome at ``Direction(theta, alpha)``."""
    return BranchLabel(Direction(theta, alpha), Branch.MINUS)
