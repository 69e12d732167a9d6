"""Measurement directions and outcome labels for photon polarization.

A measurement context is a plane angle ``theta`` (measured from the x axis,
radians) plus a relative phase ``alpha`` between the x and y field
components. Each context has exactly two outcomes: polarization parallel
(``Branch.PLUS``) or perpendicular (``Branch.MINUS``) to the direction.

Angles are used exactly as given; all formulas downstream are 2*pi-periodic
in both angles, so no normalization is applied.
"""

from __future__ import annotations

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
        t = token.strip().lower()
        if t in ("+", "plus"):
            return cls.PLUS
        if t in ("-", "minus"):
            return cls.MINUS
        raise ValueError(f"invalid branch {token!r}: expected '+' or '-'")

    def __str__(self) -> str:
        return self.value


def _check_angle(name: str, value: float) -> float:
    value = float(value)
    if not abs(value) < 2.0**1023:  # also rejects nan; a float bound is folded at compile time
        raise ValueError(f"{name} must be finite and below 2**1023 in magnitude, got {value!r}")
    return value


@dataclass(frozen=True)
class Direction:
    """A polarization measurement context: plane angle and relative phase.

    Both angles are in radians, each below 2**1023 in magnitude (``ValueError``
    otherwise): two such angles differ by at most the largest finite double, so
    no phase difference downstream overflows to a NaN result.
    """

    theta: float
    alpha: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", _check_angle("theta", self.theta))
        object.__setattr__(self, "alpha", _check_angle("alpha", self.alpha))


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
