"""Entangled pairs of coset coherent circle states in Mp(2) sector pairs.

Every probability here depends on its slot labels (phi, alpha) only through
the contracted disk variables

    z1  = omega e^(i(phi  - conj(alpha )/2)),   z1' = omega e^(i(phi' - conj(alpha')/2)),
    z2  = sigma e^(i(phi  - conj(alpha )/2)),   z2' = sigma e^(i(phi' - conj(alpha')/2)),

with Z_i = 1 - |z_i|^2 in (0, 1].  The pair combination keeps the printed
+e^(i rho) on the swapped term (fully coincident pairs cancel at rho = pi),
and the closed forms are the hyperbolic displays with complex arguments
evaluated exactly; the conjugate e^(-i rho)/e^(+i rho) blocks combine to a
real value whose imaginary residue is checked and discarded.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .entangle_circle import (
    CoefficientMatrix,
    SectorPair,
    check_convention,
    disk_slot,
    entangled_pair,
)
from .numerics import DEFAULT_TERMS, SeriesValue
from .states import (
    MIN_COSET_IM_ALPHA,
    CosetLabel,
    Mp2Variable,
    Parity,
    as_mp2,
    coset_variable,
)

_IMAG_RESIDUE_TOL = 1e-12


@dataclass(frozen=True)
class CosetPairParams:
    """Parameter bundle for an entangled pair of coset circle states."""

    omega: Mp2Variable
    sigma: Mp2Variable
    label: CosetLabel
    label_prime: CosetLabel
    rho: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega", as_mp2(self.omega))
        object.__setattr__(self, "sigma", as_mp2(self.sigma))
        object.__setattr__(self, "rho", float(self.rho))
        for lab in (self.label, self.label_prime):
            if lab.alpha.imag < MIN_COSET_IM_ALPHA:
                raise ValueError(
                    f"coset pair requires Im(alpha) >= {MIN_COSET_IM_ALPHA}"
                )


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


def coefficient_matrix_coset(
    params: CosetPairParams,
    pair: SectorPair,
    terms: int = DEFAULT_TERMS,
    convention: str = "stripped",
) -> CoefficientMatrix:
    full = check_convention(convention)

    def slot(var: Mp2Variable, label: CosetLabel, parity: Parity | None):
        z = coset_variable(var, label)
        return disk_slot(z, abs(z), parity, terms, full)

    return entangled_pair(
        slot, params.omega, params.sigma, params.label, params.label_prime, pair,
        params.rho, swap_sign=+1.0, amp_prefactor=0.5,
    )


def probability_series_coset(
    params: CosetPairParams,
    pair: SectorPair,
    terms: int = DEFAULT_TERMS,
    convention: str = "stripped",
) -> SeriesValue:
    """Series oracle over the coset coefficient matrix."""
    return coefficient_matrix_coset(params, pair, terms, convention).series_value()


def closed_form_coset(
    params: CosetPairParams,
    pair: SectorPair,
    convention: str = "stripped",
) -> float:
    """Hyperbolic closed forms of the coset sector probabilities:

        P = 1/4 [ Z1^e1 Z2p^e2 f(|z1|^2/4)  g(|z2p|^2/4)
                + Z1p^e1 Z2^e2 f(|z1p|^2/4) g(|z2|^2/4)
                + (Z1 Z1p)^(e1/2) (Z2 Z2p)^(e2/2)
                  { e^(-i rho) f(z1* z1p/4) g(z2p* z2/4) + c.c. } ]

    with e = 1/2 (even slot) or 3/2 (odd slot), f/g = cosh or sinh.
    """
    if pair is SectorPair.TOTAL:
        raise ValueError("closed forms cover pp, pm, mm only")
    full = check_convention(convention)
    p1, p2 = pair.parities
    e1, e2 = 2.0 * p1.sector_index, 2.0 * p2.sector_index
    f = cmath.cosh if p1 is Parity.EVEN else cmath.sinh
    g = cmath.cosh if p2 is Parity.EVEN else cmath.sinh
    zf = z_factors(params)
    a1, a1p = abs(zf.z1) ** 2 / 4.0, abs(zf.z1p) ** 2 / 4.0
    a2, a2p = abs(zf.z2) ** 2 / 4.0, abs(zf.z2p) ** 2 / 4.0
    direct = zf.Z1**e1 * zf.Z2p**e2 * (f(a1) * g(a2p)).real + zf.Z1p**e1 * zf.Z2**e2 * (
        f(a1p) * g(a2)
    ).real
    cross_amp = (
        (zf.Z1 * zf.Z1p) ** (e1 / 2.0)
        * (zf.Z2 * zf.Z2p) ** (e2 / 2.0)
        * f(zf.z1.conjugate() * zf.z1p / 4.0)
        * g(zf.z2p.conjugate() * zf.z2 / 4.0)
    )
    cross = cmath.exp(-1j * params.rho) * cross_amp + cmath.exp(1j * params.rho) * cross_amp.conjugate()
    if abs(cross.imag) > _IMAG_RESIDUE_TOL * max(1.0, abs(cross.real)):
        raise ArithmeticError(
            f"conjugate-pair combination left imaginary residue {cross.imag}"
        )
    value = 0.25 * (direct + cross.real)
    return value / (2.0 * math.pi) ** 2 if full else value


def single_projection_norm_sq(zprime: complex, terms: int = DEFAULT_TERMS) -> float:
    """Squared norm of the grouped total projection at disk variable z':
    the l^2 sum of the bracketed series, used for the classicalization-tail
    checks.  The decreasing cross-term tail involves

        sum_n |z'/2|^(4n) / ((2n)! (2n+1)) * Re z' terms

    whose terms strictly decrease for n >= 1 whenever |z'| < 1."""
    z = Mp2Variable(zprime).omega
    return disk_slot(z, abs(z), None, terms, prefactor=False).norm_sq()
