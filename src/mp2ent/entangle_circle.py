"""Entangled pairs of London (circle) states projected onto Mp(2) sector pairs.

The entangled pair carries a control phase rho; its projection onto a sector
pair (s1, s2) has coefficients over the two sector indices (n, m)

    c_nm = 1/2 [ u_n(phi) u_m(phi') - e^(i rho) u_n(phi') u_m(phi) ]

built from the single-state projection series (bra side, conjugated).  The
probability of a sector pair is the l^2 norm  P = sum |c_nm|^2.

Sign convention: the swapped term enters with -e^(i rho), i.e. the control
phase is measured from the antipodal point.  This is the convention in which
coincident-angle pairs cancel exactly at rho = 0 and every coincident-limit
probability factorizes as (1 - cos rho); the closed forms below are the
series-validated ("corrected") ones in the same convention.  The verbatim
printed variants live in :mod:`mp2ent.verify` for reconciliation.

Probabilities default to the prefactor-stripped convention (no 2pi factors,
matching the closed forms); ``convention="full"`` restores (2pi)^(-1/2) per
projection, i.e. (2pi)^(-2) on probabilities.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .numerics import DEFAULT_TERMS, SeriesValue, log_factorial_array, stable_norm_sq
from .states import (
    CircleLabel,
    CoefficientSequence,
    Mp2Variable,
    Parity,
    _disk_sequence,
    as_mp2,
)

CONVENTIONS = ("stripped", "full")


class SectorPair(Enum):
    """Which Mp(2) sectors the two halves of the pair are projected onto."""

    PP = "pp"
    PM = "pm"
    MM = "mm"
    TOTAL = "total"

    @property
    def parities(self) -> tuple[Parity, Parity]:
        if self is SectorPair.TOTAL:
            raise ValueError("the total pair has no single sector assignment")
        return {
            SectorPair.PP: (Parity.EVEN, Parity.EVEN),
            SectorPair.PM: (Parity.EVEN, Parity.ODD),
            SectorPair.MM: (Parity.ODD, Parity.ODD),
        }[self]

    @classmethod
    def parse(cls, text: str) -> "SectorPair":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(f"unknown sector pair {text!r}; use pp|pm|mm|total") from None


def _as_label(value) -> CircleLabel:
    return value if isinstance(value, CircleLabel) else CircleLabel(float(value))


def check_convention(convention: str) -> bool:
    """Validate a prefactor convention (one of ``CONVENTIONS``); True for
    ``"full"``."""
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    return convention == "full"


@dataclass(frozen=True)
class CirclePairParams:
    """Full parameter bundle for an entangled pair of circle states.

    theta1 = arg(omega) and theta2 = arg(sigma) are derived, never free.
    """

    omega: Mp2Variable
    sigma: Mp2Variable
    phi: CircleLabel
    phi_prime: CircleLabel
    rho: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega", as_mp2(self.omega))
        object.__setattr__(self, "sigma", as_mp2(self.sigma))
        object.__setattr__(self, "phi", _as_label(self.phi))
        object.__setattr__(self, "phi_prime", _as_label(self.phi_prime))
        object.__setattr__(self, "rho", float(self.rho))

    @property
    def delta(self) -> float:
        return self.phi.phi - self.phi_prime.phi

    @property
    def theta1(self) -> float:
        return self.omega.arg

    @property
    def theta2(self) -> float:
        return self.sigma.arg


@dataclass(frozen=True, eq=False)
class CoefficientMatrix:
    """Oscillator-pair coefficients c_nm of a projected entangled state."""

    entries: np.ndarray = field(repr=False)
    tail_bound: float

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=complex)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        if not (self.tail_bound >= 0.0):
            raise ValueError("tail_bound must be non-negative")

    def norm_sq(self) -> float:
        return stable_norm_sq(self.entries)

    def series_value(self) -> SeriesValue:
        """P = sum |c_nm|^2 at this truncation, with the matrix's tail bound."""
        return SeriesValue(self.norm_sq(), len(self.entries), self.tail_bound)


def pair_matrix(
    slot1_u: CoefficientSequence,
    slot2_u: CoefficientSequence,
    slot1_v: CoefficientSequence,
    slot2_v: CoefficientSequence,
    rho: float,
    swap_sign: float,
    amp_prefactor: float,
    conjugate: bool = True,
) -> CoefficientMatrix:
    """c_nm = p (u1_n u2_m + s e^(i rho) v1_n v2_m).

    ``conjugate=True`` conjugates the slot sequences (bra side), matching
    the circle/coset pair summands; the cylinder builds its slots directly
    in the displayed convention and passes False.
    """
    phase = swap_sign * cmath.exp(1j * rho)
    conj = np.conj if conjugate else np.asarray
    entries = amp_prefactor * (
        np.outer(conj(slot1_u.terms), conj(slot2_u.terms))
        + phase * np.outer(conj(slot1_v.terms), conj(slot2_v.terms))
    )
    tail = 2.0 * amp_prefactor**2 * (
        _product_tail(slot1_u, slot2_u) + _product_tail(slot1_v, slot2_v)
    )
    return CoefficientMatrix(entries, tail)


def _product_tail(s1: CoefficientSequence, s2: CoefficientSequence) -> float:
    """Bound on sum of |s1_n s2_m|^2 outside the retained (n, m) square."""
    n1, n2 = s1.norm_sq(), s2.norm_sq()
    t1, t2 = s1.tail_bound, s2.tail_bound
    return n1 * t2 + t1 * n2 + t1 * t2


def grouped_slot(
    even: CoefficientSequence, ratio: np.ndarray, ratio_bound: float
) -> CoefficientSequence:
    """Grouped (2n, 2n+1) total-projection slot of one state,

        t_n = even_n (1 + ratio_n),   ratio_n = odd_n / even_n,

    with tail bound  even.tail (1 + r)^2  for any r >= sup_n |ratio_n|.  The
    even/odd interference inside each bracket is retained, matching the total
    projected state written as a single even-indexed sum.
    """
    tail = even.tail_bound * (1.0 + ratio_bound) ** 2
    return CoefficientSequence(Parity.EVEN, even.terms * (1.0 + ratio), tail)


def disk_slot(
    z: complex, modulus: float, parity: Parity | None, terms: int, prefactor: bool
) -> CoefficientSequence:
    """Sector series of a disk state at ``z`` (see ``states._disk_sequence``);
    ``parity=None`` gives the grouped total slot, whose bracket ratio is

        w^(1/2) (z/2) / sqrt(2n+1),   w = 1 - modulus^2.
    """
    seq = _disk_sequence(z, parity or Parity.EVEN, terms, prefactor)
    if parity is not None:
        return seq
    ratio = math.sqrt(1.0 - modulus**2) * (z / 2.0) / np.sqrt(2 * np.arange(terms) + 1)
    return grouped_slot(seq, ratio, abs(z) / 2.0)


def entangled_pair(
    slot, first, second, label, label_prime, pair: SectorPair,
    rho: float, swap_sign: float, amp_prefactor: float, conjugate: bool = True,
) -> CoefficientMatrix:
    """The one pair builder every family goes through.

    ``slot(var, label, parity)`` returns one state's sector sequence, or the
    grouped total slot for ``parity=None``.  The four slots are

        u1 = (first, label),  u2 = (second, label'),
        v1 = (first, label'), v2 = (second, label),

    projected onto the pair's sectors (p1 for ``first``, p2 for ``second``),
    and combine as  p (u1 u2 + s e^(i rho) v1 v2)  in :func:`pair_matrix`.
    """
    p1, p2 = (None, None) if pair is SectorPair.TOTAL else pair.parities
    return pair_matrix(
        slot(first, label, p1), slot(second, label_prime, p2),
        slot(first, label_prime, p1), slot(second, label, p2),
        rho, swap_sign, amp_prefactor, conjugate,
    )


def coefficient_matrix(
    params: CirclePairParams,
    pair: SectorPair,
    terms: int = DEFAULT_TERMS,
    convention: str = "stripped",
) -> CoefficientMatrix:
    """Coefficient matrix of the projected entangled pair for one sector pair;
    TOTAL uses the grouped both-bracket form."""
    full = check_convention(convention)

    def slot(var: Mp2Variable, label: CircleLabel, parity: Parity | None):
        z = var.omega * cmath.exp(1j * label.phi)
        return disk_slot(z, var.modulus, parity, terms, full)

    return entangled_pair(
        slot, params.omega, params.sigma, params.phi, params.phi_prime, pair,
        params.rho, swap_sign=-1.0, amp_prefactor=0.5,
    )


def probability_series(
    params: CirclePairParams,
    pair: SectorPair,
    terms: int = DEFAULT_TERMS,
    convention: str = "stripped",
) -> SeriesValue:
    """Ground-truth oracle: P = sum_nm |c_nm|^2 with a rigorous tail bound."""
    return coefficient_matrix(params, pair, terms, convention).series_value()


_SECTOR_FUNCS = {
    Parity.EVEN: cmath.cosh,
    Parity.ODD: cmath.sinh,
}


def _sector_weight_exponent(parity: Parity) -> float:
    # (1-|omega|^2)^(1/2) per even slot, ^(3/2) per odd slot in probabilities
    return 2.0 * parity.sector_index


def closed_form_P(
    params: CirclePairParams,
    pair: SectorPair,
    convention: str = "stripped",
) -> float:
    """Series-validated closed form of the sector-pair probability:

        P = 1/2 Zw^e1 Zs^e2 { f(a) g(b) - Re[e^(-i rho) f(a e^(-i D)) g(b e^(i D))] }

    a = |omega|^2/4, b = |sigma|^2/4, D = phi - phi', f/g = cosh (even) or
    sinh (odd).  Expanding the complex cosh/sinh reproduces the hyperbolic/
    trigonometric bracket structure of the printed closed forms with the
    cross-term corrections recorded in the reconciliation report.
    """
    if pair is SectorPair.TOTAL:
        raise ValueError("use closed_form_total for the total pair")
    full = check_convention(convention)
    p1, p2 = pair.parities
    a = params.omega.modulus**2 / 4.0
    b = params.sigma.modulus**2 / 4.0
    zw = 1.0 - params.omega.modulus**2
    zs = 1.0 - params.sigma.modulus**2
    f, g = _SECTOR_FUNCS[p1], _SECTOR_FUNCS[p2]
    delta = params.delta
    diag = (f(a) * g(b)).real
    cross = (
        cmath.exp(-1j * params.rho)
        * f(a * cmath.exp(-1j * delta))
        * g(b * cmath.exp(1j * delta))
    ).real
    value = (
        0.5
        * zw ** _sector_weight_exponent(p1)
        * zs ** _sector_weight_exponent(p2)
        * (diag - cross)
    )
    return value / (2.0 * math.pi) ** 2 if full else value


def closed_form_total(
    params: CirclePairParams,
    terms: int = DEFAULT_TERMS,
    convention: str = "stripped",
) -> float:
    """Total-pair probability evaluated term-by-term over (n, m) in the polar
    decomposition omega = |omega| e^(i theta1), sigma = |sigma| e^(i theta2).

    Per grid point the bracket is

        Q_w(n, phi) Q_s(m, phi') + Q_w(n, phi') Q_s(m, phi)
            - 2 Re[ e^(i(rho + 2 D (n-m))) G_w(n) G_s(m) ]

    where Q is the squared single-slot bracket and G the interference-pair
    product; it agrees with probability_series(TOTAL) to machine precision.
    """
    full = check_convention(convention)
    n = np.arange(terms)
    aw = params.omega.modulus**2 / 4.0
    asg = params.sigma.modulus**2 / 4.0
    zw = 1.0 - params.omega.modulus**2
    zs = 1.0 - params.sigma.modulus**2
    lf = log_factorial_array(2 * terms - 2 if terms > 1 else 0)[2 * n]
    wn = np.exp(2 * n * math.log(aw) - lf) if aw > 0 else _delta_weights(terms)
    wm = np.exp(2 * n * math.log(asg) - lf) if asg > 0 else _delta_weights(terms)
    sq = np.sqrt(2 * n + 1)

    def q_factor(mod: float, zdisk: float, theta: float, phi: float) -> np.ndarray:
        # |1 + Z^(1/2) (z/2)/sqrt(2k+1)|^2 with z = mod e^(i(theta+phi))
        return (
            1.0
            + math.sqrt(zdisk) * mod * math.cos(theta + phi) / sq
            + zdisk * mod**2 / (4.0 * (2 * n + 1))
        )

    def g_factor(var: Mp2Variable, zdisk: float, phi: float, phi_p: float) -> np.ndarray:
        z = var.omega * cmath.exp(1j * phi)
        zp = var.omega * cmath.exp(1j * phi_p)
        root = math.sqrt(zdisk)
        return (1.0 + root * (z / 2.0) / sq) * (1.0 + root * (zp.conjugate() / 2.0) / sq)

    phi, phi_p = params.phi.phi, params.phi_prime.phi
    q_w = q_factor(params.omega.modulus, zw, params.theta1, phi)
    q_w_p = q_factor(params.omega.modulus, zw, params.theta1, phi_p)
    q_s = q_factor(params.sigma.modulus, zs, params.theta2, phi)
    q_s_p = q_factor(params.sigma.modulus, zs, params.theta2, phi_p)
    g_w = g_factor(params.omega, zw, phi, phi_p)
    g_s = g_factor(params.sigma, zs, phi_p, phi)

    delta = params.delta
    phase_n = np.exp(2j * delta * n)
    cross = (
        cmath.exp(1j * params.rho)
        * np.outer(g_w * phase_n, g_s * np.conj(phase_n))
    ).real
    bracket = np.outer(q_w, q_s_p) + np.outer(q_w_p, q_s) - 2.0 * cross
    total = 0.25 * math.sqrt(zw * zs) * math.fsum(
        (np.outer(wn, wm) * bracket).ravel().tolist()
    )
    return total / (2.0 * math.pi) ** 2 if full else total


def _delta_weights(terms: int) -> np.ndarray:
    w = np.zeros(terms)
    w[0] = 1.0
    return w


def limit_coincident(pair: SectorPair, omega, sigma, rho: float) -> float:
    """Coincident-angle limit (phi -> phi'):

        P -> 1/2 Zw^e1 Zs^e2 f(|omega|^2/4) g(|sigma|^2/4) (1 - cos rho),

    separable in rho; all three sector pairs vanish at rho = 0.
    """
    if pair is SectorPair.TOTAL:
        raise ValueError("total pair not supported in the sector limits")
    p1, p2 = pair.parities
    w, s = as_mp2(omega), as_mp2(sigma)
    f, g = _SECTOR_FUNCS[p1], _SECTOR_FUNCS[p2]
    a, b = w.modulus**2 / 4.0, s.modulus**2 / 4.0
    return (
        0.5
        * (1.0 - w.modulus**2) ** _sector_weight_exponent(p1)
        * (1.0 - s.modulus**2) ** _sector_weight_exponent(p2)
        * (f(a) * g(b)).real
        * (1.0 - math.cos(rho))
    )


def limit_orthogonal(pair: SectorPair, omega, sigma, rho: float) -> float:
    """Orthogonal-angle limit (phi -> phi' + pi/2):

        PP: 1/2 (Zw Zs)^(1/2)  { cosh a cosh b - cos a cos b cos rho }
        PM: 1/2 Zw^(1/2) Zs^(3/2) { cosh a sinh b - cos a sin b sin rho }
        MM: 1/2 (Zw Zs)^(3/2)  { sinh a sinh b - sin a sin b cos rho }
    """
    if pair is SectorPair.TOTAL:
        raise ValueError("total pair not supported in the sector limits")
    p1, p2 = pair.parities
    w, s = as_mp2(omega), as_mp2(sigma)
    a, b = w.modulus**2 / 4.0, s.modulus**2 / 4.0
    weight = (
        0.5
        * (1.0 - w.modulus**2) ** _sector_weight_exponent(p1)
        * (1.0 - s.modulus**2) ** _sector_weight_exponent(p2)
    )
    if pair is SectorPair.PP:
        return weight * (math.cosh(a) * math.cosh(b) - math.cos(a) * math.cos(b) * math.cos(rho))
    if pair is SectorPair.PM:
        return weight * (math.cosh(a) * math.sinh(b) - math.cos(a) * math.sin(b) * math.sin(rho))
    return weight * (math.sinh(a) * math.sinh(b) - math.sin(a) * math.sin(b) * math.cos(rho))


def limit_degenerate(pair: SectorPair, omega, delta: float, rho: float) -> float:
    """Analytic-degeneracy limit (sigma -> omega) at angle difference delta:

        PP: 1/2 Z   { cosh^2 a - cos rho [cosh^2 B - sin^2 Bt] }
        PM: 1/2 Z^2 { cosh a sinh a - cos rho cosh B sinh B - sin rho cos Bt sin Bt }
        MM: 1/2 Z^3 { sinh^2 a - cos rho [sinh^2 B + sin^2 Bt] }

    with a = |omega|^2/4, B = a cos delta, Bt = a sin delta.  Consistent with
    limit_coincident at delta = 0 by construction.
    """
    if pair is SectorPair.TOTAL:
        raise ValueError("total pair not supported in the sector limits")
    w = as_mp2(omega)
    a = w.modulus**2 / 4.0
    z = 1.0 - w.modulus**2
    bb = a * math.cos(delta)
    bt = a * math.sin(delta)
    if pair is SectorPair.PP:
        return 0.5 * z * (
            math.cosh(a) ** 2
            - math.cos(rho) * (math.cosh(bb) ** 2 - math.sin(bt) ** 2)
        )
    if pair is SectorPair.PM:
        return 0.5 * z**2 * (
            math.cosh(a) * math.sinh(a)
            - math.cos(rho) * math.cosh(bb) * math.sinh(bb)
            - math.sin(rho) * math.cos(bt) * math.sin(bt)
        )
    return 0.5 * z**3 * (
        math.sinh(a) ** 2
        - math.cos(rho) * (math.sinh(bb) ** 2 + math.sin(bt) ** 2)
    )
