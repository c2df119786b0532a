"""State families and their scalar projections onto Mp(2) even/odd basis states.

Five families are covered: London (circle) states, Barut-Girardello cylinder
states, coset coherent states on the circle, Schroedinger cat states, and the
Mp(2) disk states themselves.  Each projection is returned as a
:class:`CoefficientSequence`: the ordered complex coefficients c_n of the
sector's own series (n indexes 2n for the even sector, 2n+1 for the odd one)
together with a rigorous bound on the dropped l^2 tail.

Conventions
-----------
* Circle and coset projections carry the (2pi)^(-1/2) prefactor of the total
  projected state; pass ``prefactor=False`` to strip it (the convention in
  which all the closed-form probabilities are written).
* Cat projections carry (2pi)^(-1) per the cat-state projection convention
  and use the unnormalized e^(-|alpha|^2/2) weight.
* Cylinder projections carry no 2pi factor and the Gaussian weights
  e^(-2n^2) (even) and e^(-(2n+1)^2/2) (odd).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .numerics import (
    DEFAULT_TERMS,
    geometric_tail,
    log_factorial_array,
    power_terms,
    stable_norm_sq,
)

TWO_PI = 2.0 * math.pi
INV_SQRT_2PI = 1.0 / math.sqrt(TWO_PI)

# Below this the normalization denominator 1 - e^(-Im alpha) loses too many
# digits to be trustworthy.
MIN_COSET_IM_ALPHA = 1e-6

# Largest log-magnitude a cylinder series term may reach.  A pair norm
# squares the product of two slot terms, so 4x this must stay below
# ln(DBL_MAX) ~ 709.78; the remaining ~30 covers the prefactors and the sum
# over the retained (n, m) square.
MAX_CYLINDER_LOG_MAG = 170.0


class Parity(Enum):
    """The two Mp(2) irreducible sectors."""

    EVEN = "even"
    ODD = "odd"

    @property
    def sector_index(self) -> float:
        """s = 1/4 for the even sector, 3/4 for the odd one; doubles as the
        exponent of the (1 - |omega|^2) disk weight."""
        return 0.25 if self is Parity.EVEN else 0.75

    @property
    def fock_offset(self) -> int:
        """Fock index of the n-th sector state is 2n + offset."""
        return 0 if self is Parity.EVEN else 1


def _wrap_angle(phi: float) -> float:
    phi = math.fmod(float(phi), TWO_PI)
    return phi + TWO_PI if phi < 0.0 else phi


@dataclass(frozen=True)
class CircleLabel:
    """Angle label of a London (circle) state; normalized to [0, 2pi)."""

    phi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", _wrap_angle(self.phi))


@dataclass(frozen=True)
class CylinderLabel:
    """Label (l, phi) of a cylinder state, exponent (l - i phi) j."""

    l: float
    phi: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.l):
            raise ValueError("cylinder label l must be finite")
        object.__setattr__(self, "phi", _wrap_angle(self.phi))


@dataclass(frozen=True)
class CosetLabel:
    """Coset coherent-state label: displacement alpha, angle phi, and the
    fiducial coefficients (x, y).

    Im(alpha) > 0 is the normalizability condition; (x, y) = (0, 0) would
    annihilate the fiducial vector.
    """

    alpha: complex
    phi: float
    x: float = 1.0
    y: float = 0.0

    def __post_init__(self) -> None:
        alpha = complex(self.alpha)
        if not (alpha.imag > 0.0):
            raise ValueError("coset label requires Im(alpha) > 0 (normalizability)")
        if self.x == 0.0 and self.y == 0.0:
            raise ValueError("fiducial coefficients (x, y) must not both vanish")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "phi", _wrap_angle(self.phi))


@dataclass(frozen=True)
class Mp2Variable:
    """Bargmann disk variable of an Mp(2) state; strictly inside |omega| < 1."""

    omega: complex

    def __post_init__(self) -> None:
        omega = complex(self.omega)
        if not (abs(omega) < 1.0):
            raise ValueError(f"|omega| must be < 1 (Bargmann disk), got {abs(omega)}")
        object.__setattr__(self, "omega", omega)

    @property
    def modulus(self) -> float:
        return abs(self.omega)

    @property
    def arg(self) -> float:
        return cmath.phase(self.omega)


def as_mp2(value) -> Mp2Variable:
    """``value`` if it already is an :class:`Mp2Variable`, else the disk
    variable at the complex number it holds (validated on the way)."""
    return value if isinstance(value, Mp2Variable) else Mp2Variable(value)


@dataclass(frozen=True, eq=False)
class CoefficientSequence:
    """Dense coefficients c_0..c_{N-1} of one sector series, plus a bound on
    the l^2 tail  sum_{n>=N} |c_n|^2."""

    parity: Parity
    terms: np.ndarray = field(repr=False)
    tail_bound: float

    def __post_init__(self) -> None:
        terms = np.asarray(self.terms, dtype=complex)
        terms.setflags(write=False)
        object.__setattr__(self, "terms", terms)
        if not (self.tail_bound >= 0.0):
            raise ValueError("tail_bound must be non-negative")

    def __len__(self) -> int:
        return len(self.terms)

    def norm_sq(self) -> float:
        return stable_norm_sq(self.terms)


def _sector_indices(parity: Parity, terms: int) -> np.ndarray:
    if terms < 1:
        raise ValueError("terms must be >= 1")
    return 2 * np.arange(terms) + parity.fock_offset


def _disk_tail(z_abs: float, parity: Parity, terms: int, weight_sq: float) -> float:
    """l^2 tail of weight * (z/2)^k / sqrt(k!) summed over the sector."""
    if z_abs / 2.0 == 0.0:
        return 0.0
    k_next = 2 * terms + parity.fock_offset
    lf = float(log_factorial_array(k_next)[k_next])
    first = weight_sq * math.exp(2.0 * k_next * math.log(z_abs / 2.0) - lf)
    # |z| < 1 on the disk, so the squared step ratio is < 1/12 from k=1 on
    ratio = (z_abs / 2.0) ** 4 / ((k_next + 1) * (k_next + 2))
    return geometric_tail(first, ratio)


def _disk_sequence(
    zvar: complex,
    parity: Parity,
    terms: int,
    prefactor: bool,
) -> CoefficientSequence:
    """Sector series of an Mp(2) state in the disk variable ``zvar``:

        even: w^(1/4) (z/2)^(2n)   / sqrt((2n)!)
        odd:  w^(3/4) (z/2)^(2n+1) / sqrt((2n+1)!),   w = 1 - |z|^2

    with an optional (2pi)^(-1/2) out front.
    """
    weight = (1.0 - abs(zvar) ** 2) ** parity.sector_index
    pref = INV_SQRT_2PI if prefactor else 1.0
    ks = _sector_indices(parity, terms)
    coeffs = pref * weight * power_terms(zvar, ks)
    tail = _disk_tail(abs(zvar), parity, terms, (pref * weight) ** 2)
    return CoefficientSequence(parity, coeffs, tail)


def mp2_circle_projection(
    omega: Mp2Variable,
    label: CircleLabel,
    parity: Parity,
    terms: int = DEFAULT_TERMS,
    prefactor: bool = True,
) -> CoefficientSequence:
    """Projection of an Mp(2) sector state onto a circle (phase) state.

    Even: c_n = (2pi)^(-1/2) (1-|omega|^2)^(1/4) (z/2)^(2n)   / sqrt((2n)!)
    Odd:  c_n = (2pi)^(-1/2) (1-|omega|^2)^(3/4) (z/2)^(2n+1) / sqrt((2n+1)!)

    with z = omega e^(i phi).
    """
    z = omega.omega * cmath.exp(1j * label.phi)
    # disk weight is at |omega| = |z| here, so _disk_sequence applies as is
    return _disk_sequence(z, parity, terms, prefactor)


def mp2_cylinder_projection(
    omega: Mp2Variable,
    label: CylinderLabel,
    parity: Parity,
    terms: int = DEFAULT_TERMS,
) -> CoefficientSequence:
    """Projection of an Mp(2) sector state onto a cylinder state.

    Even: c_n = (1-|omega|^2)^(1/4) (omega e^(l-i phi)/2)^(2n)  /sqrt((2n)!)  e^(-2n^2)
    Odd:  c_n = (1-|omega|^2)^(3/4) (omega e^(l-i phi)/2)^(2n+1)/sqrt((2n+1)!) e^(-(2n+1)^2/2)
    """
    return _cylinder_sequence(omega, label, parity, terms, squared_weights=False)


def _cylinder_sequence(
    omega: Mp2Variable,
    label: CylinderLabel,
    parity: Parity,
    terms: int,
    squared_weights: bool,
) -> CoefficientSequence:
    """Cylinder sector series, Gaussian weight fused into the log exponent.

    ``squared_weights=True`` selects the squared-amplitude display
    convention e^(-4n^2) / e^(-4n^2 - (2n+1/2)) used by the entangled-pair
    coefficient matrices.
    """
    weight = (1.0 - omega.modulus**2) ** parity.sector_index
    z = omega.omega * cmath.exp(complex(label.l, -label.phi))
    ks = _sector_indices(parity, terms)
    ns = np.arange(terms)
    if squared_weights:
        gauss = -4.0 * ns**2 if parity is Parity.EVEN else -4.0 * ns**2 - (2 * ns + 0.5)
    else:
        gauss = -2.0 * ns**2 if parity is Parity.EVEN else -((2 * ns + 1) ** 2) / 2.0
    if abs(z) / 2.0 == 0.0:
        coeffs = np.zeros(terms, dtype=complex)
        if parity is Parity.EVEN:
            coeffs[0] = weight
        return CoefficientSequence(parity, coeffs, 0.0)
    log_z = math.log(abs(z) / 2.0)
    lf = log_factorial_array(int(ks.max()))[ks]
    log_mag = ks * log_z - 0.5 * lf + gauss
    # n=1 (and beyond) magnitude guard against non-physical labels
    if float(np.max(log_mag[1:] if terms > 1 else log_mag)) > MAX_CYLINDER_LOG_MAG:
        raise ValueError(
            f"cylinder label l={label.l} drives the series magnitude past the "
            "overflow threshold (non-physical label)"
        )
    coeffs = weight * np.exp(log_mag + 1j * ks * cmath.phase(z))
    # first omitted squared term and a (decreasing-in-n) step-ratio bound
    k_next = 2 * terms + parity.fock_offset
    gauss_next = (
        -2.0 * terms**2 if parity is Parity.EVEN else -((2 * terms + 1) ** 2) / 2.0
    )
    if squared_weights:
        gauss_next = (
            -4.0 * terms**2
            if parity is Parity.EVEN
            else -4.0 * terms**2 - (2 * terms + 0.5)
        )
    lf_next = float(log_factorial_array(k_next)[k_next])
    first = weight**2 * math.exp(2.0 * (k_next * log_z - 0.5 * lf_next + gauss_next))
    gauss_step = 2.0 if not squared_weights else 4.0
    ratio = math.exp(2.0 * (2.0 * log_z - gauss_step * (2 * terms + 1))) / (
        (k_next + 1) * (k_next + 2)
    )
    if ratio >= 1.0:
        raise ValueError("increase terms: cylinder series not yet Gaussian-dominated")
    tail = geometric_tail(first, ratio)
    return CoefficientSequence(parity, coeffs, tail)


def coset_variable(omega: Mp2Variable, label: CosetLabel) -> complex:
    """z' = omega e^(i(phi - conj(alpha)/2)).

    |z'| = |omega| e^(-Im(alpha)/2) < |omega|, so the coset displacement
    contracts the disk variable whenever Im(alpha) > 0.
    """
    return omega.omega * cmath.exp(1j * (label.phi - label.alpha.conjugate() / 2.0))


def coset_projection(
    omega: Mp2Variable,
    label: CosetLabel,
    parity: Parity,
    terms: int = DEFAULT_TERMS,
    prefactor: bool = True,
) -> CoefficientSequence:
    """Projection of an Mp(2) sector state onto a coset coherent state.

    Same series shape as the circle projection with z' in place of z, and
    the disk weight evaluated at |z'| (the coset action modifies both the
    phase of omega and the ratio of the disk).
    """
    zp = coset_variable(omega, label)
    return _disk_sequence(zp, parity, terms, prefactor)


def fiducial_overlap(label: CosetLabel) -> complex:
    """The fiducial scalar S(alpha, phi).

    Realized as  x [cos(alpha-phi) - sin(alpha-phi)] + y [cos + sin],
    which reproduces the closed-form product

        S(alpha*, phi) S(alpha, phi) = (x^2+y^2) cosh(2 Im alpha)
            - (x^2-y^2) sin 2(Re alpha - phi) + 2xy cos 2(Re alpha - phi)

    with S(alpha*, phi) = conj(S(alpha, phi)).  Its phase cancels in every
    probability; it is exposed for the normalization display only.
    """
    w = label.alpha - label.phi
    c, s = cmath.cos(w), cmath.sin(w)
    return label.x * (c - s) + label.y * (c + s)


def fiducial_overlap_sq(label: CosetLabel) -> float:
    """S(alpha*, phi) S(alpha, phi) via its closed form (real, positive)."""
    v = label.alpha.imag
    u2 = 2.0 * (label.alpha.real - label.phi)
    x, y = label.x, label.y
    return (x * x + y * y) * math.cosh(2.0 * v) - (x * x - y * y) * math.sin(u2) + 2.0 * x * y * math.cos(u2)


def coset_normalization(label: CosetLabel) -> float:
    """Squared norm of the coset coherent state,

        (1/2pi) S(alpha*, phi) S(alpha, phi) / (1 - e^(-Im alpha)).
    """
    v = label.alpha.imag
    if v < MIN_COSET_IM_ALPHA:
        raise ValueError(
            f"coset normalization requires Im(alpha) >= {MIN_COSET_IM_ALPHA} "
            "(denominator 1 - e^(-Im alpha) degrades below tolerance)"
        )
    return fiducial_overlap_sq(label) / (TWO_PI * (1.0 - math.exp(-v)))


def cat_projection(
    alpha: complex,
    label: CircleLabel,
    parity: Parity,
    terms: int = DEFAULT_TERMS,
    prefactor: bool = True,
) -> CoefficientSequence:
    """Projection of an even/odd Schroedinger cat state onto a circle state.

    Even: c_n = (2pi)^(-1) e^(-|alpha|^2/2) atilde^(2n)  / sqrt((2n)!)
    Odd:  c_n = (2pi)^(-1) e^(-|alpha|^2/2) atilde^(2n+1)/ sqrt((2n+1)!)

    with atilde = alpha e^(i phi).  Unnormalized cat convention (the
    Gaussian weight, not the 1/sqrt(2 +- 2e^(-2|alpha|^2)) normalization).
    """
    alpha = complex(alpha)
    atilde = alpha * cmath.exp(1j * label.phi)
    pref = (1.0 / TWO_PI if prefactor else 1.0) * math.exp(-abs(alpha) ** 2 / 2.0)
    ks = _sector_indices(parity, terms)
    # power_terms computes (z/2)^k/sqrt(k!); feed 2*atilde to drop the /2
    coeffs = pref * power_terms(2.0 * atilde, ks)
    if alpha == 0:
        return CoefficientSequence(parity, coeffs, 0.0)
    k_next = 2 * terms + parity.fock_offset
    lf_next = float(log_factorial_array(k_next)[k_next])
    first = pref**2 * math.exp(2.0 * k_next * math.log(abs(atilde)) - lf_next)
    ratio = abs(atilde) ** 4 / ((k_next + 1) * (k_next + 2))
    if ratio >= 1.0:
        raise ValueError("increase terms: cat series not yet in factorial decay")
    tail = geometric_tail(first, ratio)
    return CoefficientSequence(parity, coeffs, tail)
