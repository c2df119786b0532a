"""Entangled pairs of coset coherent circle states in Mp(2) sector pairs.

Every probability here depends on its slot labels (phi, alpha) only through
the contracted disk variables

    z1  = omega e^(i(phi  - conj(alpha )/2)),   z1' = omega e^(i(phi' - conj(alpha')/2)),
    z2  = sigma e^(i(phi  - conj(alpha )/2)),   z2' = sigma e^(i(phi' - conj(alpha')/2)),

with Z_i = 1 - |z_i|^2 in (0, 1].  The pair combination keeps the printed
+e^(i rho) on the swapped term (fully coincident pairs cancel at rho = pi).
Coset slots are circle slots at z', so the series and the closed forms are
the circle pipeline's (:meth:`~mp2ent.entangle_circle.EntangledPair.matrix`,
:meth:`~mp2ent.entangle_circle.EntangledPair.closed_form`) on the coset
record with the opposite swap sign: :data:`COSET_PAIR`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .entangle_circle import CoefficientMatrix, EntangledPair, PairParams, SectorPair
from .numerics import DEFAULT_TERMS, SeriesValue
from .states import (
    MIN_COSET_IM_ALPHA,
    CircleLabel,
    CosetLabel,
    Mp2Variable,
    as_mp2,
    coset_projection,
    coset_variable,
    mp2_circle_projection,
)


@dataclass(frozen=True)
class CosetPairParams(PairParams):
    """Parameter bundle for an entangled pair of coset circle states."""

    omega: Mp2Variable
    sigma: Mp2Variable
    label: CosetLabel
    label_prime: CosetLabel
    rho: float
    coercions = (as_mp2, as_mp2, CosetLabel, CosetLabel)

    def __post_init__(self) -> None:
        super().__post_init__()
        for lab in (self.label, self.label_prime):
            if lab.alpha.imag < MIN_COSET_IM_ALPHA:
                raise ValueError(f"coset pair requires Im(alpha) >= {MIN_COSET_IM_ALPHA}")


@dataclass(frozen=True)
class ZFactors:
    """The four contracted disk variables and their Z = 1 - |z|^2 weights."""

    z1: complex
    z1p: complex
    z2: complex
    z2p: complex

    @property
    def Z1(self) -> float:
        return 1.0 - abs(self.z1) ** 2

    @property
    def Z1p(self) -> float:
        return 1.0 - abs(self.z1p) ** 2

    @property
    def Z2(self) -> float:
        return 1.0 - abs(self.z2) ** 2

    @property
    def Z2p(self) -> float:
        return 1.0 - abs(self.z2p) ** 2


def z_factors(params: CosetPairParams) -> ZFactors:
    """All z magnitudes are strictly < 1 (|z'| = |omega| e^(-Im alpha/2))."""
    return ZFactors(
        z1=coset_variable(params.omega, params.label),
        z1p=coset_variable(params.omega, params.label_prime),
        z2=coset_variable(params.sigma, params.label),
        z2p=coset_variable(params.sigma, params.label_prime),
    )


# the coset pair: conjugated coset slots, +e^(i rho) on the swapped term
COSET_PAIR = EntangledPair(coset_projection, swap_sign=+1.0, amp_prefactor=0.5)


def coefficient_matrix_coset(
    params: CosetPairParams,
    pair: SectorPair,
    terms: int = DEFAULT_TERMS,
) -> CoefficientMatrix:
    return COSET_PAIR.matrix(params.parts, pair, terms, params.rho)


def probability_series_coset(
    params: CosetPairParams,
    pair: SectorPair,
    terms: int = DEFAULT_TERMS,
) -> SeriesValue:
    """Series oracle over the coset coefficient matrix."""
    return coefficient_matrix_coset(params, pair, terms).series_value()


def closed_form_coset(params: CosetPairParams, pair: SectorPair) -> float:
    """Hyperbolic closed forms of the coset sector probabilities:

        P = 1/4 [ Z1^e1 Z2p^e2 f(|z1|^2/4)  g(|z2p|^2/4)
                + Z1p^e1 Z2^e2 f(|z1p|^2/4) g(|z2|^2/4)
                + (Z1 Z1p)^(e1/2) (Z2 Z2p)^(e2/2)
                  { e^(-i rho) f(z1* z1p/4) g(z2p* z2/4) + c.c. } ]

    with e = 1/2 (even slot) or 3/2 (odd slot), f/g = cosh or sinh: the
    Gram form of :meth:`~mp2ent.entangle_circle.EntangledPair.closed_form`
    on the coset record.
    """
    if pair is SectorPair.TOTAL:
        raise ValueError("closed forms cover pp, pm, mm only")
    return COSET_PAIR.closed_form(params.parts, pair, params.rho)


def single_projection_norm_sq(zprime: complex, terms: int = DEFAULT_TERMS) -> float:
    """Squared norm of the grouped total projection (even + odd slot, no
    prefactor) at disk variable z', used for the classicalization-tail
    checks."""
    return mp2_circle_projection(
        Mp2Variable(zprime), CircleLabel(0.0), None, terms, prefactor=False
    ).norm_sq()
