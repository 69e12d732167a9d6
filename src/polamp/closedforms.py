"""Verbatim closed forms: the second routes that :mod:`polamp.verify` checks.

The derivation this package implements states explicit trig expressions for
the transition probabilities and the observable and polarization-operator
matrix elements. They are transcribed here exactly as stated, suspected
misprints included, and never used on the normative path: the verifier
compares each against the amplitude route and emits an erratum record for
any matrix element that disagrees.

Each transcription carries a reference id (``Eq53`` ... ``Eq74``) naming
the stated expression; those ids appear in errata reports.

Known outcomes of the adjudication:

* the observable elements (Eq53-Eq56) agree to rounding;
* the polarization-operator off-diagonals (Eq58, Eq59) disagree: the
  stated leading term ``-sin(theta_c) cos(theta_b)`` is missing the
  doubled angles;
* the standard-limit operator (Eq72) disagrees in both off-diagonal
  magnitude (``sin`` vs ``sin 2theta_b``) and phase (it references an
  initial-state phase ``alpha_a`` that cannot appear in an operator).

All functions accept scalars or numpy arrays.
"""

from __future__ import annotations

import numpy as np

# element names used in errata records, row-major
ELEMENT_NAMES = (("m11", "m12"), ("m21", "m22"))

OBSERVABLE_ELEMENT_IDS = (("Eq53", "Eq54"), ("Eq55", "Eq56"))
POLARIZATION_ELEMENT_IDS = (("Eq57", "Eq58"), ("Eq59", "Eq60"))
STANDARD_OPERATOR_ID = "Eq72"


def prob_equal_closed(theta_a, alpha_a, theta_b, alpha_b):
    """Closed trig form of P(a+, b+), which also equals P(a-, b-)."""
    d = np.asarray(alpha_a) - np.asarray(alpha_b)
    return (
        np.cos(theta_a) ** 2 * np.cos(theta_b) ** 2
        + np.sin(theta_a) ** 2 * np.sin(theta_b) ** 2
        + 0.5 * np.sin(2 * np.asarray(theta_a)) * np.sin(2 * np.asarray(theta_b)) * np.cos(d)
    )


def prob_mixed_closed(theta_a, alpha_a, theta_b, alpha_b):
    """Closed trig form of P(a+, b-), which also equals P(a-, b+)."""
    d = np.asarray(alpha_a) - np.asarray(alpha_b)
    return (
        np.cos(theta_a) ** 2 * np.sin(theta_b) ** 2
        + np.sin(theta_a) ** 2 * np.cos(theta_b) ** 2
        - 0.5 * np.sin(2 * np.asarray(theta_a)) * np.sin(2 * np.asarray(theta_b)) * np.cos(d)
    )


def observable_elements(theta_c, alpha_c, theta_b, alpha_b, r_plus, r_minus):
    """Closed trig forms Eq53-Eq56 of the observable over basis ``c``.

    The stated lower-left element repeats the upper-right one verbatim,
    which contradicts both Hermiticity and its own amplitude-product
    definition; it is transcribed as the Hermitian mirror (imaginary terms
    conjugated), the reading consistent with the rest of the derivation.
    """
    c2c, c2b = np.cos(2 * np.asarray(theta_c)), np.cos(2 * np.asarray(theta_b))
    s2c, s2b = np.sin(2 * np.asarray(theta_c)), np.sin(2 * np.asarray(theta_b))
    cc2, cb2 = np.cos(theta_c) ** 2, np.cos(theta_b) ** 2
    sc2, sb2 = np.sin(theta_c) ** 2, np.sin(theta_b) ** 2
    d = np.asarray(alpha_c) - np.asarray(alpha_b)
    cd, sd = np.cos(d), np.sin(d)

    m11 = (cc2 * cb2 + sc2 * sb2 + 0.5 * s2c * s2b * cd) * r_plus + (
        cc2 * sb2 + sc2 * cb2 - 0.5 * s2c * s2b * cd
    ) * r_minus
    m12 = (-0.5 * s2c * c2b + 0.5 * s2b * c2c * cd + 0.5j * s2b * sd) * r_plus + (
        0.5 * s2c * c2b - 0.5 * s2b * c2c * cd - 0.5j * s2b * sd
    ) * r_minus
    m21 = (-0.5 * s2c * c2b + 0.5 * s2b * c2c * cd - 0.5j * s2b * sd) * r_plus + (
        0.5 * s2c * c2b - 0.5 * s2b * c2c * cd + 0.5j * s2b * sd
    ) * r_minus
    m22 = (sc2 * cb2 + cc2 * sb2 - 0.5 * s2c * s2b * cd) * r_plus + (
        sc2 * sb2 + cc2 * cb2 + 0.5 * s2c * s2b * cd
    ) * r_minus
    return ((m11, m12), (m21, m22))


def polarization_elements_literal(theta_c, alpha_c, theta_b, alpha_b):
    """Stated polarization-operator elements Eq57-Eq60, misprints preserved.

    The off-diagonals keep the single-angle leading term
    ``-sin(theta_c) cos(theta_b)`` exactly as stated; the derived value
    (amplitude-product route with eigenvalues +1/-1) carries
    ``-sin(2 theta_c) cos(2 theta_b)`` instead.
    """
    c2c, c2b = np.cos(2 * np.asarray(theta_c)), np.cos(2 * np.asarray(theta_b))
    s2c, s2b = np.sin(2 * np.asarray(theta_c)), np.sin(2 * np.asarray(theta_b))
    d = np.asarray(alpha_c) - np.asarray(alpha_b)
    cd, sd = np.cos(d), np.sin(d)

    diag = c2c * c2b + s2c * s2b * cd
    off = -np.sin(theta_c) * np.cos(theta_b) + c2c * s2b * cd
    m11 = diag + 0j
    m12 = off + 1j * s2b * sd
    m21 = off - 1j * s2b * sd
    m22 = -diag + 0j
    return ((m11, m12), (m21, m22))


def standard_operator_literal(theta_b, alpha_b, alpha_a):
    """Stated standard-limit polarization operator Eq72, misprints preserved.

    Takes the stray initial-state phase ``alpha_a`` as an explicit argument
    because the stated off-diagonal depends on it; the derived operator
    does not (its off-diagonal is ``sin(2 theta_b) e^{-i alpha_b}``).
    """
    c2b = np.cos(2 * np.asarray(theta_b))
    phase = np.exp(1j * (np.asarray(alpha_a) - np.asarray(alpha_b)))
    m12 = np.sin(theta_b) * phase
    return ((c2b + 0j, m12), (np.conj(m12), -c2b + 0j))


def standard_eigvec_components(theta_b, alpha_b):
    """Stated standard-limit eigenvectors Eq73-Eq74.

    The stated components retain a reference phase that the same passage
    sets to zero; they are transcribed with that phase already zeroed,
    leaving ``e^{i alpha_b}``.
    """
    c, s = np.cos(theta_b), np.sin(theta_b)
    phase = np.exp(1j * np.asarray(alpha_b))
    return (c + 0j, s * phase), (-s + 0j, c * phase)
