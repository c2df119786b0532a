"""Reconciliation of the printed closed forms against the series oracles.

Every closed form this package ships was re-derived from the defining series
and validated against the brute-force oracle.  Where the printed (reference)
variant of a formula differs from the series-validated one, this module
carries the printed variant verbatim, evaluates both, and reports one of

* ``match``               - the printed form agrees with the oracle,
* ``corrected-form-match`` - the printed form disagrees, the corrected one
                             agrees (the note records the correction),
* ``paper-form-mismatch``  - the printed form disagrees and is carried as an
                             open discrepancy (never a failure when
                             ``must_match`` is False),
* ``informational``        - there is no oracle; the printed form is only
                             measured against the corrected one.

``verify_all`` runs the whole battery, ``BATTERY``; the run fails only if a
MUST-match comparison (corrected form vs oracle) exceeds tolerance.

One run does each piece of its work once:

* each oracle value is evaluated once per (oracle, point): rows built on
  the same oracle share its callable, one per pair (the circle series
  behind the closed-form grid and the coincident and orthogonal limits
  meet at 12 points a pair), and the values are kept in a dict that
  ``verify_all`` makes and drops, so no value outlives the run and a
  kernel patched between runs is seen by the next one;
* the N x N sums (the cylinder sums and the printed circle total) hand
  ``math.fsum`` only their nonzero terms.  fsum returns the correctly
  rounded exact sum, which no zero term moves; at N = 40 a cylinder sum
  has 115 to 135 nonzero terms of 1600.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, lru_cache, partial

import numpy as np

from . import entangle_circle, entangle_coset, entangle_cylinder, numerics
from .entangle_circle import CirclePairParams, SectorPair
from .entangle_coset import CosetPairParams, z_factors
from .entangle_cylinder import DEGENERATE_NOME, CylinderPairParams
from .numerics import DEFAULT_TERMS, check_real, check_truncation, log_factorial_array
from .states import (
    CircleLabel,
    CosetLabel,
    CylinderLabel,
    Parity,
    as_mp2,
    cat_projection,
)

THETA3_ANCHOR = 1.00067093
THETA2_ANCHOR = 0.27067057
THETA_ANCHOR_TOL = 1e-7


@dataclass(frozen=True)
class Comparison:
    name: str
    form: str
    status: str
    must_match: bool
    ok: bool
    max_deviation: float
    printed_deviation: float | None
    note: str
    sample: dict | None = None

    def to_json_dict(self) -> dict:
        # shallow: dataclasses.asdict would deep-copy the sample
        out = dict(vars(self))
        if self.sample is None:
            del out["sample"]
        else:
            out["sample"] = {k: dict(v) if isinstance(v, dict) else v
                             for k, v in self.sample.items()}
        return out


@dataclass(frozen=True)
class VerificationReport:
    tolerance: float
    truncation: int
    comparisons: tuple[Comparison, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.comparisons)

    def to_json_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "truncation": self.truncation,
            "passed": self.passed,
            "comparisons": [c.to_json_dict() for c in self.comparisons],
        }


def _compare(row: Check, tol: float, oracle, corrected, printed) -> Comparison:
    """Deviations, status and worst-point sample of one battery row, given
    the values of its forms at its points (None where it has no such form).

    ``max_deviation`` is |corrected - oracle|, or |printed - oracle| for a
    row without a corrected form; a row without an oracle is informational
    and measures |printed - corrected|.  A sample holds every form and the
    input point where the printed form (else the corrected one) is worst.
    """
    roles = (("oracle", oracle), ("corrected", corrected), ("printed", printed))
    values = {role: np.asarray(v, dtype=float) for role, v in roles if v is not None}
    ref = values.get("oracle", values.get("corrected"))
    shown = values.get("printed", values.get("corrected"))

    def deviation(role: str) -> float:
        return float(np.max(np.abs(values[role] - ref)))

    if oracle is None:
        status, dev_c, dev_p = "informational", deviation("printed"), None
    else:
        dev_p = None if printed is None else deviation("printed")
        dev_c = dev_p if corrected is None else deviation("corrected")
        if dev_p is not None and dev_p <= tol:
            status = "match"
        elif dev_c <= tol:
            status = "match" if printed is None else "corrected-form-match"
        else:
            status = "paper-form-mismatch"
    sample = None
    if status != "match":
        idx = int(np.argmax(np.abs(shown - ref)))
        sample = {role: float(v[idx]) for role, v in values.items()}
        sample["point"] = dict(zip(row.points.names, row.points.values[idx]))
    ok = dev_c <= tol if row.must_match else True
    return Comparison(
        row.name, row.form, status, row.must_match, ok, dev_c, dev_p, row.note, sample
    )


def _fsum_nonzero(terms: np.ndarray) -> float:
    """math.fsum of the entries of ``terms``, handed only its nonzero ones:
    fsum's result is the correctly rounded exact sum, which no zero moves.
    With no nonzero entry the zeros are summed as they are, so a sum of
    -0.0 alone keeps the sign that fsum gives it."""
    terms = terms.ravel()
    nonzero = terms[terms != 0.0]
    return math.fsum((nonzero if nonzero.size else terms).tolist())


# --------------------------------------------------------------------------
# circle: printed-form variants
# --------------------------------------------------------------------------

def _angles(params: CirclePairParams):
    a = params.omega.modulus**2 / 4.0
    b = params.sigma.modulus**2 / 4.0
    d = params.delta
    return a, b, a * math.cos(d), a * math.sin(d), b * math.cos(d), b * math.sin(d)


def appendix_closed_form_printed(params: CirclePairParams, pair: SectorPair) -> float:
    """Sector closed forms exactly as printed (including the even-even
    first-term slip cosh(beta) cosh(beta~) and the cross-term signs)."""
    a, b, bb, bt, gg, gt = _angles(params)
    r = params.rho
    w = entangle_circle.sector_weight(pair, params.omega, params.sigma)
    ch, sh, c, s = math.cosh, math.sinh, math.cos, math.sin
    if pair is SectorPair.PP:
        return w * (
            ch(bb) * ch(bt)
            + c(r) * (ch(bb) * c(bt) * ch(gg) * c(gt) + sh(bb) * s(bt) * sh(gg) * s(gt))
            + s(r) * (sh(bb) * s(bt) * ch(gg) * c(gt) - sh(gg) * s(gt) * ch(bb) * c(bt))
        )
    if pair is SectorPair.PM:
        return w * (
            ch(a) * sh(b)
            + c(r) * (ch(bb) * c(bt) * sh(gg) * c(gt) + sh(bb) * s(bt) * ch(gg) * s(gt))
            + s(r) * (ch(bb) * c(bt) * ch(gg) * s(gt) - sh(bb) * s(bt) * sh(gg) * c(gt))
        )
    return w * (
        sh(a) * sh(b)
        + c(r) * (sh(bb) * c(bt) * sh(gg) * c(gt) + ch(bb) * s(bt) * ch(gg) * s(gt))
        + s(r) * (sh(bb) * c(bt) * ch(gg) * s(gt) - ch(bb) * s(bt) * sh(gg) * s(gt))
    )


def coincident_limit_printed(pair: SectorPair, omega, sigma, rho: float) -> float:
    """Coincident limits as printed; the odd-odd one carries the weight slip
    Zw^(1/2) Zs^(3/2) instead of (Zw Zs)^(3/2)."""
    w, s = as_mp2(omega), as_mp2(sigma)
    a, b = w.modulus**2 / 4.0, s.modulus**2 / 4.0
    zw, zs = 1.0 - w.modulus**2, 1.0 - s.modulus**2
    factor = 1.0 - math.cos(rho)
    if pair is SectorPair.PP:
        return 0.5 * math.sqrt(zw * zs) * math.cosh(a) * math.cosh(b) * factor
    if pair is SectorPair.PM:
        return 0.5 * zw**0.5 * zs**1.5 * math.cosh(a) * math.sinh(b) * factor
    return 0.5 * zw**0.5 * zs**1.5 * math.sinh(a) * math.sinh(b) * factor


def orthogonal_limit_printed(pair: SectorPair, omega, sigma, rho: float) -> float:
    """Orthogonal limits as printed: cross terms enter with + sign."""
    w, s = as_mp2(omega), as_mp2(sigma)
    a, b = w.modulus**2 / 4.0, s.modulus**2 / 4.0
    zw, zs = 1.0 - w.modulus**2, 1.0 - s.modulus**2
    if pair is SectorPair.PP:
        return 0.5 * math.sqrt(zw * zs) * (
            math.cosh(a) * math.cosh(b) + math.cos(a) * math.cos(b) * math.cos(rho)
        )
    if pair is SectorPair.PM:
        return 0.5 * zw**0.5 * zs**1.5 * (
            math.cosh(a) * math.sinh(b) + math.cos(a) * math.sin(b) * math.sin(rho)
        )
    return 0.5 * (zw * zs) ** 1.5 * (
        math.sinh(a) * math.sinh(b) + math.sin(a) * math.sin(b) * math.cos(rho)
    )


def degenerate_limit_printed(pair: SectorPair, omega, delta: float, rho: float) -> float:
    """Analytic-degeneracy limits as printed (+ cross signs)."""
    w = as_mp2(omega)
    a = w.modulus**2 / 4.0
    z = 1.0 - w.modulus**2
    bb, bt = a * math.cos(delta), a * math.sin(delta)
    if pair is SectorPair.PP:
        return 0.5 * z * (
            math.cosh(a) ** 2 + math.cos(rho) * (math.cosh(bb) ** 2 - math.sin(bt) ** 2)
        )
    if pair is SectorPair.PM:
        return 0.5 * z**2 * (
            math.cosh(a) * math.sinh(a)
            + math.cos(rho) * math.cosh(bb) * math.sinh(bb)
            + math.sin(rho) * math.cos(bt) * math.sin(bt)
        )
    return 0.5 * z**3 * (
        math.sinh(a) ** 2 + math.cos(rho) * (math.sinh(bb) ** 2 + math.sin(bt) ** 2)
    )


def total_closed_form_printed(params: CirclePairParams, terms: int = DEFAULT_TERMS) -> float:
    """Total probability as printed,

        1/4 sqrt(Zw Zs) sum_nm w_n w_m [Q_w(n, phi) Q_s(m, phi')
                                        + Q_w(n, phi') Q_s(m, phi) + X_nm],

    with Gaussian weights w_n = (|omega|^2/4)^(2n)/(2n)! (delta_n0 at a zero
    modulus): squared-bracket products plus the cos(rho + (phi'-phi)(n-m))
    (AB - CD) cross block X."""
    n = np.arange(terms)
    zw = 1.0 - params.omega.modulus**2
    zs = 1.0 - params.sigma.modulus**2
    lf = log_factorial_array(2 * terms - 2 if terms > 1 else 0)[2 * n]
    sq = np.sqrt(2 * n + 1)
    mw, ms = params.omega.modulus, params.sigma.modulus
    t1, t2 = params.theta1, params.theta2
    phi, phi_p = params.phi.phi, params.phi_prime.phi

    def weights(mod: float) -> np.ndarray:
        a = mod**2 / 4.0
        return np.exp(2 * n * math.log(a) - lf) if a > 0 else (n == 0).astype(float)

    def q_factor(mod: float, zdisk: float, theta: float, phi: float) -> np.ndarray:
        # |1 + Z^(1/2) (z/2)/sqrt(2k+1)|^2 with z = mod e^(i(theta+phi))
        return (
            1.0
            + math.sqrt(zdisk) * mod * math.cos(theta + phi) / sq
            + zdisk * mod**2 / (4.0 * (2 * n + 1))
        )

    rw, rs = math.sqrt(zw), math.sqrt(zs)
    inv_n = 1.0 / sq
    inv_m = inv_n
    pair_term = (rw * rs * mw * ms / 2.0) * np.outer(inv_n, inv_m)
    a_mat = 0.5 * (
        2.0
        + rw * math.cos(t1 + phi) * mw * inv_n[:, None]
        + rs * math.cos(t2 + phi) * ms * inv_m[None, :]
        + pair_term * math.cos(t1 - t2)
    )
    b_mat = 0.5 * (
        2.0
        - rw * math.cos(t1 + phi_p) * mw * inv_n[:, None]
        + rs * math.cos(t2 + phi_p) * ms * inv_m[None, :]
        + pair_term * math.cos(t2 - t1)
    )
    c_mat = 0.5 * (
        rw * math.sin(t1 + phi) * mw * inv_n[:, None]
        - rs * math.sin(t2 + phi) * ms * inv_m[None, :]
        + pair_term * math.sin(t1 - t2)
    )
    d_mat = 0.5 * (
        -rw * math.sin(t1 + phi_p) * mw * inv_n[:, None]
        + rs * math.sin(t2 + phi_p) * ms * inv_m[None, :]
        + pair_term * math.sin(t2 - t1)
    )
    cosblock = np.cos(params.rho + (phi_p - phi) * np.subtract.outer(n, n))
    bracket = (
        np.outer(q_factor(mw, zw, t1, phi), q_factor(ms, zs, t2, phi_p))
        + np.outer(q_factor(mw, zw, t1, phi_p), q_factor(ms, zs, t2, phi))
        + cosblock * (a_mat * b_mat - c_mat * d_mat)
    )
    return 0.25 * math.sqrt(zw * zs) * _fsum_nonzero(np.outer(weights(mw), weights(ms)) * bracket)


# --------------------------------------------------------------------------
# cylinder: printed and corrected probability sums
# --------------------------------------------------------------------------

# The printed cosine arguments of the cylinder sector sums, verbatim, in
# d = delta, r = rho and k = n - m.
_CYLINDER_PRINTED_ARGS = {
    SectorPair.PP: lambda d, r, k: 2.0 * d * (-k) + r,
    SectorPair.PM: lambda d, r, k: 2.0 * (d * (-k) - (r + 1.0) / 2.0),
    SectorPair.MM: lambda d, r, k: 2.0 * (d * (-k) + r),
}


def _cylinder_sum(params: CylinderPairParams, pair: SectorPair,
                  terms: int = DEFAULT_TERMS, printed: bool = False) -> float:
    """The displayed sector-probability sums of every pair, in the sectors'
    Fock offsets o1, o2 and the half Fock indices x = n + o1/2, y = m + o2/2:

        1/2 Zw^(1/2+o1) Zs^(1/2+o2) sum_nm w_n w_m e^(-4(x^2 + y^2))
            [e^(4(l x + l' y)) + e^(4(l' x + l y)) + 2 e^(2(l+l')(x+y)) cos A]

    with w_n = (|omega|^2/4)^(2n+o1) / (2n+o1)! (w_m in sigma, o2) and the
    series' A = rho + 2 delta (x - y), or the printed A if ``printed``."""
    o1, o2 = pair.parities
    l, lp = params.label.l, params.label_prime.l
    d, r = params.delta, params.rho
    n = np.arange(terms)
    x, y = n + o1 / 2, n + o2 / 2
    lf = log_factorial_array(2 * terms)

    def dl(a: float, ks: np.ndarray) -> np.ndarray:
        return np.exp(ks * math.log(a) - lf[ks]) if a > 0 else (ks == 0).astype(float)

    wn = dl(params.omega.modulus**2 / 4.0, 2 * n + o1)
    wm = dl(params.sigma.modulus**2 / 4.0, 2 * n + o2)
    gauss = _exp(-4.0 * np.add.outer(x**2, y**2))
    e1 = np.exp(4.0 * (l * x[:, None] + lp * y[None, :]))
    e2 = np.exp(4.0 * (lp * x[:, None] + l * y[None, :]))
    if printed:
        arg = _CYLINDER_PRINTED_ARGS[pair](d, r, np.subtract.outer(n, n))
    else:
        arg = r + 2.0 * d * np.subtract.outer(x, y)
    cross = 2.0 * np.exp(2.0 * (l + lp) * np.add.outer(x, y)) * np.cos(arg)
    pref = entangle_circle.sector_weight(pair, params.omega, params.sigma)
    return pref * _fsum_nonzero(np.outer(wn, wm) * gauss * (e1 + e2 + cross))


def _exp(v: np.ndarray) -> np.ndarray:
    """np.exp(v) bit for bit, 0.0 where it underflows to 0.0 (v <= -746),
    without the slow lanes numpy's exp takes there."""
    return np.exp(v, out=np.zeros_like(v), where=v > -746.0)


cylinder_probability_printed = partial(_cylinder_sum, printed=True)
cylinder_probability_corrected = partial(_cylinder_sum, printed=False)


# --------------------------------------------------------------------------
# coset: printed variants
# --------------------------------------------------------------------------

def coset_pp_runon_printed(params: CosetPairParams) -> float:
    """Even-even coset probability with the cross block read as a separate
    addend (the run-on reading), i.e. without the (Z1 Z2)^(1/2)/4 scale."""
    zf = z_factors(params)
    a1, a1p = abs(zf.z1) ** 2 / 4.0, abs(zf.z1p) ** 2 / 4.0
    a2, a2p = abs(zf.z2) ** 2 / 4.0, abs(zf.z2p) ** 2 / 4.0
    direct = 0.25 * math.sqrt(zf.Z1 * zf.Z2) * (
        math.sqrt(zf.Z1p / zf.Z1) * math.cosh(a1p) * math.cosh(a2)
        + math.sqrt(zf.Z2p / zf.Z2) * math.cosh(a1) * math.cosh(a2p)
    )
    cross_amp = (
        (zf.Z1p * zf.Z2p / (zf.Z1 * zf.Z2)) ** 0.25
        * cmath.cosh(zf.z1.conjugate() * zf.z1p / 4.0)
        * cmath.cosh(zf.z2p.conjugate() * zf.z2 / 4.0)
    )
    cross = 2.0 * (cmath.exp(-1j * params.rho) * cross_amp).real
    return direct + cross


def coset_mm_printed(params: CosetPairParams) -> float:
    """Odd-odd coset probability with the printed outer weight Z1 Z2^(3/2)
    (instead of (Z1 Z2)^(3/2))."""
    zf = z_factors(params)
    a1, a1p = abs(zf.z1) ** 2 / 4.0, abs(zf.z1p) ** 2 / 4.0
    a2, a2p = abs(zf.z2) ** 2 / 4.0, abs(zf.z2p) ** 2 / 4.0
    outer = 0.25 * zf.Z1 * zf.Z2**1.5
    bracket = (
        (zf.Z1p / zf.Z1) ** 1.5 * math.sinh(a1p) * math.sinh(a2)
        + (zf.Z2p / zf.Z2) ** 1.5 * math.sinh(a1) * math.sinh(a2p)
    )
    cross_amp = (
        (zf.Z1p * zf.Z2p / (zf.Z1 * zf.Z2)) ** 0.75
        * cmath.sinh(zf.z1.conjugate() * zf.z1p / 4.0)
        * cmath.sinh(zf.z2p.conjugate() * zf.z2 / 4.0)
    )
    cross = 2.0 * (cmath.exp(-1j * params.rho) * cross_amp).real
    return outer * (bracket + cross)


def _re_zprime_series(zprime: complex, terms: int, power: float) -> float:
    """sum_n |z'/2|^(4n) / ((2n)! (2n+1)^power), 1 at z' = 0."""
    if zprime == 0:
        return 1.0
    n = np.arange(terms)
    lf = log_factorial_array(2 * terms)[2 * n]
    return math.fsum(
        np.exp(4 * n * math.log(abs(zprime) / 2.0) - lf - power * np.log(2 * n + 1)).tolist()
    )


def coset_single_norm_printed(zprime: complex, terms: int = DEFAULT_TERMS) -> float:
    """Single-projection squared norm as printed: cosh/sinh at |z'|^2/2 and
    the Re z' series with denominator (2n)! (2n+1)."""
    zprime = complex(zprime)
    zd = 1.0 - abs(zprime) ** 2
    return (
        zd**0.5 * math.cosh(abs(zprime) ** 2 / 2.0)
        + zd**1.5 * math.sinh(abs(zprime) ** 2 / 2.0)
        + zd**0.5 * zprime.real * _re_zprime_series(zprime, terms, 1.0)
    )


def coset_single_norm_corrected(zprime: complex, terms: int = DEFAULT_TERMS) -> float:
    """l^2 norm of the grouped projection, from the squared bracket:

        Z^(1/2) cosh(|z'|^2/4) + Z^(3/2) sinh(|z'|^2/4)
            + Z Re(z') sum_n |z'/2|^(4n) / ((2n)! sqrt(2n+1)).
    """
    zprime = complex(zprime)
    zd = 1.0 - abs(zprime) ** 2
    a4 = abs(zprime) ** 2 / 4.0
    series = _re_zprime_series(zprime, terms, 0.5)
    return zd**0.5 * math.cosh(a4) + zd**1.5 * math.sinh(a4) + zd * zprime.real * series


# --------------------------------------------------------------------------
# the battery: one row per comparison, consumed by one loop in verify_all
# --------------------------------------------------------------------------

PAIRS = (SectorPair.PP, SectorPair.PM, SectorPair.MM)


@dataclass(frozen=True)
class Points:
    """Sample points of a row: parameter names, and one value tuple per
    point in the order the row's callables take them."""

    names: tuple[str, ...]
    values: tuple[tuple, ...]


@dataclass(frozen=True)
class Check:
    """One comparison.  ``oracle``, ``corrected`` and ``printed`` are
    callables ``f(terms, *point) -> float`` evaluated at every point; they
    look package kernels up on their modules when called, so the kernels
    stay patchable.  Rows that share an ``oracle`` object share its values
    within one :func:`verify_all` run.  ``tol`` overrides the run
    tolerance."""

    name: str
    form: str
    points: Points
    oracle: Callable | None
    corrected: Callable | None
    printed: Callable | None
    note: str
    must_match: bool = True
    tol: float | None = None


@cache
def _bind(fn: Callable, pair: SectorPair) -> Callable:
    """``fn`` with ``pair`` bound, one object per (fn, pair): rows built on
    the same oracle share it, and with it its values in a run."""
    return partial(fn, pair)


def _per_pair(name, form, points, oracle, corrected, printed, notes, must_match=True):
    """One row per pair of ``PAIRS``; the callables take the pair first."""
    return tuple(
        Check(
            f"{name}-{p.value}", f"{form}:{p.value}", points,
            *(None if fn is None else _bind(fn, p) for fn in (oracle, corrected, printed)),
            note, must_match,
        )
        for p, note in zip(PAIRS, notes)
    )


_CIRCLE = ("omega", "sigma", "delta", "rho")
_CIRCLE_GRID = Points(_CIRCLE, tuple(
    (m, m, d, r)
    for m in (0.1, 0.5, 0.9)
    for d in (0.0, math.pi / 4.0, math.pi / 2.0)
    for r in (0.0, math.pi / 2.0, math.pi)
) + ((0.3, 0.8, 1.1, 2.0), (0.9, 0.2, 0.4, 4.0)))
_CIRCLE_LIMITS = {  # coincident (delta = 0) and orthogonal (delta = pi/2) points
    delta: Points(_CIRCLE, tuple(
        (w, s, delta, r)
        for w, s in ((0.1, 0.1), (0.5, 0.5), (0.9, 0.2))
        for r in (0.0, math.pi / 2.0, math.pi)
    ))
    for delta in (0.0, math.pi / 2.0)
}
_CIRCLE_DEGENERATE = Points(_CIRCLE, tuple(
    (w, w, d, r) for w in (0.3, 0.7) for d in (0.0, 0.9) for r in (0.0, 2.0)
))


# Every form of a row builds the params of the same points; the battery's
# points are a fixed set, so each params object is built once and shared.
@lru_cache(maxsize=256)
def _circle_params(w, s, d, r) -> CirclePairParams:
    return CirclePairParams(w, s, 0.7 + d, 0.7, r)


def _circle_series(pair, n, *pt) -> float:
    return entangle_circle.probability_series(_circle_params(*pt), pair, n).value


_CYLINDER = Points(("omega", "sigma", "l", "l_prime", "phi", "phi_prime", "rho"), (
    (0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 1.0),
    (0.3, 0.8, 0.4, -0.2, 0.9, 0.7, 1.3),
    (0.9, 0.6, 1.0, 0.5, 0.3, 0.0, 2.0),
))
# omega = sigma = 0.5, l = l' = 0, phi = 0.7 + delta, phi' = 0.7
_CYLINDER_DEGENERATE = Points(
    ("delta", "rho"), tuple((d, r) for d in (0.0, math.pi / 4.0) for r in (0.0, 1.0))
)


@lru_cache(maxsize=256)
def _cylinder_params(w, s, l, lp, phi, phip, r) -> CylinderPairParams:
    return CylinderPairParams(w, s, CylinderLabel(l, phi), CylinderLabel(lp, phip), r)


def _pre_theta_sum(rho: float, terms: int) -> float:
    """The exhibited even-even pre-theta sum at l + l' = 0, delta = 0:
    (1 + cos rho) sum_k e^(-8 k^2)."""
    return (1.0 + math.cos(rho)) * math.fsum(math.exp(-8.0 * k * k) for k in range(terms))


_COSET = Points(
    ("omega", "sigma", "rho"), ((0.5, 0.5, 0.0), (0.7, 0.3, 1.2), (0.9, 0.4, math.pi / 2.0))
)


@lru_cache(maxsize=256)
def _coset_params(w, s, r) -> CosetPairParams:
    return CosetPairParams(w, s, CosetLabel(0.4 + 0.8j, 0.9), CosetLabel(-0.2 + 1.3j, 0.1), r)


def _coset_series(pair, n, *pt) -> float:
    return entangle_coset.probability_series_coset(_coset_params(*pt), pair, n).value


def _cat_completeness_deviation(alpha: float, terms: int) -> float:
    """Largest |even + odd - full| coefficient of the cat projections onto
    the circle state at phi = 0.7."""
    label = CircleLabel(0.7)
    merged = np.zeros(2 * terms, dtype=complex)
    merged[0::2] = cat_projection(alpha, label, Parity.EVEN, terms).terms
    merged[1::2] = cat_projection(alpha, label, Parity.ODD, terms).terms
    ks = np.arange(2 * terms)
    log_terms = ks * cmath.log(alpha * cmath.exp(1j * label.phi))
    full = math.exp(-abs(alpha) ** 2 / 2.0) / (2.0 * math.pi) * np.exp(
        log_terms - 0.5 * log_factorial_array(2 * terms - 1)[ks]
    )
    return float(np.max(np.abs(merged - full)))


_ANTIPODAL = "cross terms flipped to the antipodal sign convention"
_LIMIT_NOTE = "printed cross term enters with +, series demands -"
_COINCIDENT_NOTE = "matches the (1 - cos rho) coincident factorization"

BATTERY: tuple[Check, ...] = (
    Check(
        "theta-anchors", "theta-constants:nome-e^-8",
        Points(("theta",), (("theta3",), ("theta2",))),
        lambda n, f: {"theta3": THETA3_ANCHOR, "theta2": THETA2_ANCHOR}[f],
        lambda n, f: getattr(numerics, f)(DEGENERATE_NOME, n).value,
        None, "direct series against the quoted anchor values", tol=THETA_ANCHOR_TOL,
    ),
    *_per_pair(
        "circle-closed-form", "closed-form:circle", _CIRCLE_GRID, _circle_series,
        lambda p, n, *pt: entangle_circle.closed_form_P(_circle_params(*pt), p),
        lambda p, n, *pt: appendix_closed_form_printed(_circle_params(*pt), p),
        (
            "first term cosh(beta)cosh(beta~) corrected to cosh(a)cosh(b); " + _ANTIPODAL,
            _ANTIPODAL,
            _ANTIPODAL + "; last printed factor sinh(g)sin(g~) read as sinh(g)cos(g~)",
        ),
    ),
    *_per_pair(
        "circle-coincident-limit", "limit:coincident", _CIRCLE_LIMITS[0.0],
        _circle_series,
        lambda p, n, w, s, d, r: entangle_circle.limit_coincident(p, w, s, r),
        lambda p, n, w, s, d, r: coincident_limit_printed(p, w, s, r),
        (
            _COINCIDENT_NOTE, _COINCIDENT_NOTE,
            "odd-odd printed weight Zw^(1/2) Zs^(3/2) corrected to (Zw Zs)^(3/2)",
        ),
    ),
    *_per_pair(
        "circle-orthogonal-limit", "limit:orthogonal", _CIRCLE_LIMITS[math.pi / 2.0],
        _circle_series,
        lambda p, n, w, s, d, r: entangle_circle.limit_orthogonal(p, w, s, r),
        lambda p, n, w, s, d, r: orthogonal_limit_printed(p, w, s, r),
        (_LIMIT_NOTE,) * 3,
    ),
    *_per_pair(
        "circle-degenerate-limit", "limit:degenerate", _CIRCLE_DEGENERATE, _circle_series,
        lambda p, n, w, s, d, r: entangle_circle.limit_degenerate(p, w, d, r),
        lambda p, n, w, s, d, r: degenerate_limit_printed(p, w, d, r),
        (_LIMIT_NOTE,) * 3,
    ),
    Check(
        "circle-total-closed-form", "closed-form:circle:total",
        Points(_CIRCLE, ((0.5, 0.5, 0.0, 0.0), (0.3, 0.8, 1.1, 2.0), (0.9, 0.2, 0.4, 4.0))),
        partial(_circle_series, SectorPair.TOTAL),
        lambda n, *pt: entangle_circle.closed_form_total(_circle_params(*pt), n),
        lambda n, *pt: total_closed_form_printed(_circle_params(*pt), n),
        "printed cross block cos(rho + (phi'-phi)(n-m))(AB-CD) replaced "
        "by the series-derived -2 Re[e^(i(rho+2 delta (n-m))) G_w G_s]",
    ),
    *_per_pair(
        "cylinder-probability", "closed-form:cylinder", _CYLINDER,
        lambda p, n, *pt: entangle_cylinder.probability_series_cyl(
            _cylinder_params(*pt), p, n
        ).value,
        lambda p, n, *pt: cylinder_probability_corrected(_cylinder_params(*pt), p, n),
        lambda p, n, *pt: cylinder_probability_printed(_cylinder_params(*pt), p, n),
        (
            "printed cosine argument 2d(m-n)+rho; series gives rho+2d(n-m)",
            "printed argument 2(d(m-n)-(rho+1)/2) carries the suspect "
            "'+1'; series gives rho + d(2(n-m)-1)",
            "printed argument doubles rho; series gives rho+2d(n-m)",
        ),
    ),
    *_per_pair(
        "cylinder-degenerate", "limit:cylinder-degenerate", _CYLINDER_DEGENERATE,
        lambda p, n, d, r: entangle_cylinder.probability_series_cyl(
            _cylinder_params(0.5, 0.5, 0.0, 0.0, 0.7 + d, 0.7, r), p, n
        ).value,
        None,
        lambda p, n, d, r: entangle_cylinder.degenerate_limit_cyl(p, 0.0, 0.0, d, r, n),
        ("Kronecker-selected theta-function limit vs the honest omega -> sigma "
         "oracle; carried as printed, not resolved",) * 3,
        must_match=False,
    ),
    Check(
        "cylinder-pre-theta-factor", "limit:cylinder-degenerate:pp:pre-theta-sum",
        Points(("rho",), ((0.3,),)),
        None,
        lambda n, r: entangle_cylinder.degenerate_limit_cyl(SectorPair.PP, 0.0, 0.0, 0.0, r),
        lambda n, r: _pre_theta_sum(r, n),
        "the exhibited pre-theta sum equals (1+theta3)/2 per (1+cos rho), "
        "half the displayed theta form; both carried as printed",
        must_match=False,
    ),
    *(
        Check(
            f"coset-closed-form-{p.value}", f"closed-form:coset:{p.value}", _COSET,
            partial(_coset_series, p),
            lambda n, *pt, p=p: entangle_coset.closed_form_coset(_coset_params(*pt), p),
            printed, note,
        )
        for p, printed, note in (
            (SectorPair.PP, lambda n, *pt: coset_pp_runon_printed(_coset_params(*pt)),
             "run-on reading leaves the cross block unscaled; the (Z1 Z2)^(1/2)/4 "
             "factor multiplies it too"),
            (SectorPair.PM, None, "printed form matches the series as written"),
            (SectorPair.MM, lambda n, *pt: coset_mm_printed(_coset_params(*pt)),
             "printed outer weight Z1 Z2^(3/2) corrected to (Z1 Z2)^(3/2)"),
        )
    ),
    Check(
        "coset-single-projection-norm", "closed-form:coset:single-projection-norm",
        Points(("zprime_re", "zprime_im"), ((0.2, 0.0), (0.35, 0.2), (0.55, -0.3))),
        lambda n, x, y: entangle_coset.single_projection_norm_sq(complex(x, y), n),
        lambda n, x, y: coset_single_norm_corrected(complex(x, y), n),
        lambda n, x, y: coset_single_norm_printed(complex(x, y), n),
        "printed arguments |z'|^2/2 corrected to |z'|^2/4; Re z' series "
        "weight and denominator corrected to Z and sqrt(2n+1)",
    ),
    Check(
        "cat-completeness", "identity:cat:even-plus-odd",
        Points(("alpha",), ((0.5,), (1.0,), (2.0,))),
        lambda n, alpha: 0.0,
        lambda n, alpha: _cat_completeness_deviation(alpha, n),
        None,
        "even + odd cat projections reproduce the full coherent-state "
        "projection coefficient by coefficient",
        tol=1e-12,
    ),
)


def verify_all(tolerance: float = 1e-9, terms: int = DEFAULT_TERMS) -> VerificationReport:
    """Run every comparison of ``BATTERY``; ``tolerance`` must be a real
    number (:func:`~mp2ent.numerics.check_real`), finite and positive."""
    tolerance = check_real(tolerance, "tolerance")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")
    terms = check_truncation(terms)
    series: dict = {}  # this run's oracle values, by (oracle, point)

    def oracle_value(fn, pt) -> float:
        key = (fn, pt)
        if key not in series:
            series[key] = fn(terms, *pt)
        return series[key]

    comps = []
    for row in BATTERY:
        try:
            oracle = None if row.oracle is None else [
                oracle_value(row.oracle, pt) for pt in row.points.values
            ]
            corrected, printed = (
                None if fn is None else [fn(terms, *pt) for pt in row.points.values]
                for fn in (row.corrected, row.printed)
            )
        except ValueError as exc:
            raise ValueError(f"{row.name}: {exc}") from exc
        tol = tolerance if row.tol is None else row.tol
        comps.append(_compare(row, tol, oracle, corrected, printed))
    return VerificationReport(tolerance, terms, tuple(comps))
