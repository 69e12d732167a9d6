"""The benchmark's own reference values, written from the paper's formulas.

Nothing here calls polamp: each workload's outputs are checked against
these independent routes, so a change that breaks a kernel cannot also
break the check that should catch it.

* Amplitudes come from the defining inner product of the textbook states
  (cos t, sin t e^{ia}) for the parallel branch and (-sin t, cos t e^{ia})
  for the perpendicular one.
* Stage probabilities come from the closed trig forms of P(a+, b+) and
  P(a+, b-); a chain's sequence probability is their product over stages
  under projective collapse.
* The polarization expectation is cos 2ta cos 2tb + sin 2ta sin 2tb cos(aa - ab)
  for a parallel preparation, and its negative for a perpendicular one.

All functions take angles in radians, as scalars or numpy arrays.
"""

from __future__ import annotations

import numpy as np


def state(theta, alpha, plus):
    """Components of a branch state over the x/y field basis."""
    phase = np.exp(1j * np.asarray(alpha))
    plus = np.asarray(plus)
    c1 = np.where(plus, np.cos(theta), -np.sin(theta)) + 0j
    c2 = np.where(plus, np.sin(theta), np.cos(theta)) * phase
    return c1, c2


def amplitude(theta_a, alpha_a, plus_a, theta_b, alpha_b, plus_b):
    """Transition amplitude <b|a> from branch a to branch b."""
    a1, a2 = state(theta_a, alpha_a, plus_a)
    b1, b2 = state(theta_b, alpha_b, plus_b)
    return np.conj(b1) * a1 + np.conj(b2) * a2


def stay_flip(theta_a, alpha_a, theta_b, alpha_b):
    """(P(a+, b+), P(a+, b-)) from the closed trig forms.

    By the stated symmetries P(a-, b-) equals the first and P(a-, b+) the
    second, so a stage either keeps the previous branch or flips it.
    """
    ca2, sa2 = np.cos(theta_a) ** 2, np.sin(theta_a) ** 2
    cb2, sb2 = np.cos(theta_b) ** 2, np.sin(theta_b) ** 2
    cross = 0.5 * np.sin(2 * theta_a) * np.sin(2 * theta_b) * np.cos(alpha_a - alpha_b)
    return ca2 * cb2 + sa2 * sb2 + cross, ca2 * sb2 + sa2 * cb2 - cross


def sequence_bits(n_stages: int) -> np.ndarray:
    """Outcome bits (0 = +, 1 = -) of every sequence, first stage most significant."""
    index = np.arange(2**n_stages)[:, None]
    return (index >> np.arange(n_stages - 1, -1, -1)) & 1


def chain_distribution(initial, stages) -> np.ndarray:
    """Exact probability of every outcome sequence of an analyzer chain.

    ``initial`` is (theta, alpha, plus) and ``stages`` a list of
    (theta, alpha). Each sequence's probability is the product over stages
    of the stay or flip probability from the previous outcome.
    """
    theta0, alpha0, plus0 = initial
    thetas = np.array([theta0] + [t for t, _ in stages])
    alphas = np.array([alpha0] + [a for _, a in stages])
    stay, flip = stay_flip(thetas[:-1], alphas[:-1], thetas[1:], alphas[1:])
    bits = sequence_bits(len(stages))
    prev = np.concatenate([np.full((len(bits), 1), 0 if plus0 else 1), bits[:, :-1]], axis=1)
    return np.prod(np.where(prev == bits, stay, flip), axis=1)


def expectation(theta_a, alpha_a, plus_a, theta_b, alpha_b):
    """Polarization expectation of branch a measured along direction b."""
    value = np.cos(2 * theta_a) * np.cos(2 * theta_b) + np.sin(2 * theta_a) * np.sin(
        2 * theta_b
    ) * np.cos(alpha_a - alpha_b)
    return np.where(plus_a, value, -value)
