"""Entangled pairs of Barut-Girardello cylinder states in Mp(2) sector pairs.

Same pipeline as the circle, with two cylinder-specific twists:

* Gaussian attenuation.  The oracle amplitudes carry the single-state
  weights e^(-2n^2) / e^(-(2n+1)^2/2); squaring them reproduces the printed
  sector-probability sums exactly.  The public coefficient matrix defaults
  to the squared-amplitude display convention e^(-4(n^2+m^2)) with the
  e^(-(2m+1/2)) cross factor on odd slots, which is what the classicalization
  envelope |c_nm|^2 <= |c_00|^2 e^(-8(n^2+m^2)) refers to.
* Probability normalization follows the printed sums: the pair amplitude is
  (u + e^(i rho) v)/sqrt(2), so a fully degenerate pair at rho = 0 gives
  twice the single-term weight.  The swapped term keeps +e^(i rho)
  (cancellation at rho = pi), unlike the circle convention.

The omega -> sigma degeneracy limits are theta-function closed forms at
l + l' = 0 and the printed pre-theta sums otherwise; they are carried
verbatim (including the Kronecker-selection step and the cos(Delta+rho+1)
argument) and reconciled against the honest oracle limit in
:mod:`mp2ent.verify` rather than silently resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entangle_circle import CoefficientMatrix, SectorPair, entangled_pair, grouped_slot
from .numerics import DEFAULT_TERMS, SeriesValue, theta2, theta3
from .states import (
    CylinderLabel,
    Mp2Variable,
    Parity,
    _cylinder_sequence,
    as_mp2,
)

DEGENERATE_NOME = math.exp(-8.0)

# Beyond this the pre-theta sums are still convergent but the leading terms
# grow past any sensible figure range before Gaussian domination kicks in.
MAX_DEGENERATE_L_SUM = 8.0

WEIGHT_CONVENTIONS = ("displayed", "amplitude")


@dataclass(frozen=True)
class CylinderPairParams:
    """Parameter bundle for an entangled pair of cylinder states."""

    omega: Mp2Variable
    sigma: Mp2Variable
    label: CylinderLabel
    label_prime: CylinderLabel
    rho: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega", as_mp2(self.omega))
        object.__setattr__(self, "sigma", as_mp2(self.sigma))
        object.__setattr__(self, "rho", float(self.rho))

    @property
    def delta(self) -> float:
        return self.label.phi - self.label_prime.phi


def coefficient_matrix_cyl(
    params: CylinderPairParams,
    pair: SectorPair,
    terms: int = DEFAULT_TERMS,
    weights: str = "displayed",
) -> CoefficientMatrix:
    """Coefficient matrix of the projected entangled cylinder pair.

    ``weights="displayed"`` (default) uses the squared-amplitude Gaussian
    convention of the printed pair summands; ``weights="amplitude"`` the
    single-state weights the probability oracle squares.
    """
    if weights not in WEIGHT_CONVENTIONS:
        raise ValueError(f"weights must be one of {WEIGHT_CONVENTIONS}")
    squared = weights == "displayed"
    ns = np.arange(terms)

    def slot(var: Mp2Variable, label: CylinderLabel, parity: Parity | None):
        seq = _cylinder_sequence(var, label, parity or Parity.EVEN, terms, squared)
        if parity is not None:
            return seq
        # grouped slot: odd/even term ratio w^(1/2) (z/2) e^(-(2n+1/2)) / sqrt(2n+1)
        # with z = omega e^(l - i phi)
        z = var.omega * np.exp(complex(label.l, -label.phi))
        w = 1.0 - var.modulus**2
        ratio = math.sqrt(w) * (z / 2.0) * np.exp(-(2 * ns + 0.5)) / np.sqrt(2 * ns + 1)
        return grouped_slot(seq, ratio, abs(z) / 2.0 * math.exp(-0.5))

    # Pair summands conjugate the disk variable but keep the label phase
    # e^(l - i phi), so build the slots on conj(omega)/conj(sigma) directly
    # instead of conjugating whole sequences.
    return entangled_pair(
        slot, Mp2Variable(params.omega.omega.conjugate()),
        Mp2Variable(params.sigma.omega.conjugate()), params.label, params.label_prime,
        pair, params.rho, swap_sign=+1.0, amp_prefactor=1.0 / math.sqrt(2.0),
        conjugate=False,
    )


def probability_series_cyl(
    params: CylinderPairParams,
    pair: SectorPair,
    terms: int = DEFAULT_TERMS,
) -> SeriesValue:
    """Oracle probability: squared single-state amplitudes, so the summands
    reproduce the printed sector-probability sums term by term."""
    return coefficient_matrix_cyl(params, pair, terms, weights="amplitude").series_value()


def degenerate_limit_cyl(
    pair: SectorPair,
    l: float,
    l_prime: float,
    delta: float,
    rho: float,
    terms: int = DEFAULT_TERMS,
) -> float:
    """omega -> sigma limits, carried verbatim from the printed displays.

    At l + l' = 0 the theta-function closed forms:

        PP: [1 + theta3(0, e^-8)] (1 + cos rho)
        PM: ((1 + theta3(0, e^-8)) / e^6) (1 + cos(Delta + rho + 1))
        MM: 1/2 theta2(0, e^-8) (1 + cos 2 rho)

    otherwise the exhibited pre-theta sums.  The PP pre-theta sum and its
    theta form disagree by a factor 2 at l + l' = 0; both are preserved as
    printed and the discrepancy is surfaced by the reconciliation report.
    """
    if pair is SectorPair.TOTAL:
        raise ValueError("degenerate limits cover pp, pm, mm only")
    s = float(l) + float(l_prime)
    if abs(s) > MAX_DEGENERATE_L_SUM:
        raise ValueError(
            f"|l + l'| = {abs(s)} exceeds the documented threshold "
            f"{MAX_DEGENERATE_L_SUM} for the pre-theta sums"
        )
    if s == 0.0:
        if pair is SectorPair.PP:
            return (1.0 + theta3(DEGENERATE_NOME, terms).value) * (1.0 + math.cos(rho))
        if pair is SectorPair.PM:
            return (
                (1.0 + theta3(DEGENERATE_NOME, terms).value)
                / math.exp(6.0)
                * (1.0 + math.cos(delta + rho + 1.0))
            )
        return 0.5 * theta2(DEGENERATE_NOME, terms).value * (1.0 + math.cos(2.0 * rho))
    ns = np.arange(terms)
    if pair is SectorPair.PP:
        body = math.fsum(np.exp(-8.0 * ns**2 + 4.0 * s * ns).tolist())
        return body * (1.0 + math.cos(rho))
    if pair is SectorPair.PM:
        body = math.fsum((2.0 * np.exp(-8.0 * (ns**2 + 0.75) + 4.0 * s * ns)).tolist())
        return body * (1.0 + math.cos(delta + rho + 1.0))
    body = math.fsum(
        np.exp(-8.0 * (ns**2 + ns + 0.25) + 4.0 * s * (ns + 0.5)).tolist()
    )
    return body * (1.0 + math.cos(2.0 * rho))
