"""Reconciliation of the printed closed forms against the series oracles.

Every closed form this package ships was re-derived from the defining series
and validated against the brute-force oracle.  Where the printed (reference)
variant of a formula differs from the series-validated one, this module
carries the printed variant verbatim, evaluates both, and reports one of

* ``match``               - the printed form agrees with the oracle,
* ``corrected-form-match`` - the printed form disagrees, the corrected one
                             agrees (the note records the correction),
* ``paper-form-mismatch``  - the printed form disagrees and is carried as an
                             open discrepancy (informational, never a
                             failure when ``must_match`` is False).

``verify_all`` runs the whole battery; the run fails only if a MUST-match
comparison (corrected form vs oracle) exceeds tolerance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import entangle_circle, entangle_coset, entangle_cylinder
from .entangle_circle import CirclePairParams, SectorPair
from .entangle_coset import CosetPairParams, z_factors
from .entangle_cylinder import DEGENERATE_NOME, CylinderPairParams
from .numerics import DEFAULT_TERMS, log_factorial_array, theta2, theta3
from .states import (
    CircleLabel,
    CosetLabel,
    CylinderLabel,
    Mp2Variable,
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
        out = {
            "name": self.name,
            "form": self.form,
            "status": self.status,
            "must_match": self.must_match,
            "ok": self.ok,
            "max_deviation": self.max_deviation,
            "printed_deviation": self.printed_deviation,
            "note": self.note,
        }
        if self.sample is not None:
            out["sample"] = self.sample
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


def _compare(
    name: str,
    form: str,
    oracle,
    corrected,
    printed,
    tol: float,
    must_match: bool,
    note: str,
) -> Comparison:
    oracle = np.asarray(oracle, dtype=float)
    corrected = np.asarray(corrected, dtype=float)
    dev_c = float(np.max(np.abs(corrected - oracle))) if oracle.size else 0.0
    if printed is None:
        dev_p = None
        status = "match" if dev_c <= tol else "paper-form-mismatch"
    else:
        printed = np.asarray(printed, dtype=float)
        dev_p = float(np.max(np.abs(printed - oracle)))
        if dev_p <= tol:
            status = "match"
        elif dev_c <= tol:
            status = "corrected-form-match"
        else:
            status = "paper-form-mismatch"
    ok = (dev_c <= tol) if must_match else True
    sample = None
    if status != "match" and oracle.size:
        idx = (
            int(np.argmax(np.abs(printed - oracle)))
            if printed is not None and np.asarray(printed).size
            else int(np.argmax(np.abs(corrected - oracle)))
        )
        sample = {
            "oracle": float(oracle.flat[idx]),
            "corrected": float(corrected.flat[idx]),
        }
        if printed is not None:
            sample["printed"] = float(np.asarray(printed).flat[idx])
    return Comparison(name, form, status, must_match, ok, dev_c, dev_p, note, sample)


# --------------------------------------------------------------------------
# circle: printed-form variants
# --------------------------------------------------------------------------

def _angles(params: CirclePairParams):
    a = params.omega.modulus**2 / 4.0
    b = params.sigma.modulus**2 / 4.0
    d = params.delta
    return a, b, a * math.cos(d), a * math.sin(d), b * math.cos(d), b * math.sin(d)


def _circle_weights(params: CirclePairParams, pair: SectorPair) -> float:
    p1, p2 = pair.parities
    zw = 1.0 - params.omega.modulus**2
    zs = 1.0 - params.sigma.modulus**2
    return 0.5 * zw ** (2.0 * p1.sector_index) * zs ** (2.0 * p2.sector_index)


def appendix_closed_form_printed(params: CirclePairParams, pair: SectorPair) -> float:
    """Sector closed forms exactly as printed (including the even-even
    first-term slip cosh(beta) cosh(beta~) and the cross-term signs)."""
    a, b, bb, bt, gg, gt = _angles(params)
    r = params.rho
    w = _circle_weights(params, pair)
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
    """Total probability as printed: squared-bracket products plus the
    cos(rho + (phi'-phi)(n-m)) (AB - CD) cross block."""
    n = np.arange(terms)
    aw = params.omega.modulus**2 / 4.0
    asg = params.sigma.modulus**2 / 4.0
    zw, zs = 1.0 - params.omega.modulus**2, 1.0 - params.sigma.modulus**2
    lf = log_factorial_array(2 * (terms - 1) if terms > 1 else 0)[2 * n]
    wn = np.exp(2 * n * np.log(aw) - lf) if aw > 0 else np.eye(1, terms)[0]
    wm = np.exp(2 * n * np.log(asg) - lf) if asg > 0 else np.eye(1, terms)[0]
    sq = np.sqrt(2 * n + 1)
    mw, ms = params.omega.modulus, params.sigma.modulus
    t1, t2 = params.theta1, params.theta2
    phi, phi_p = params.phi.phi, params.phi_prime.phi

    def q(mod, zd, theta, ang):
        return 1.0 + math.sqrt(zd) * mod * np.cos(theta + ang) / sq + zd * mod**2 / (
            4.0 * (2 * n + 1)
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
        np.outer(q(mw, zw, t1, phi), q(ms, zs, t2, phi_p))
        + np.outer(q(mw, zw, t1, phi_p), q(ms, zs, t2, phi))
        + cosblock * (a_mat * b_mat - c_mat * d_mat)
    )
    return 0.25 * math.sqrt(zw * zs) * math.fsum(
        (np.outer(wn, wm) * bracket).ravel().tolist()
    )


def crossed_pm_closed_form_printed(omega, delta: float, rho: float) -> float:
    """The degenerate crossed even-odd closed form as printed (with the
    stray |sigma|^2 read as |omega|^2)."""
    w = as_mp2(omega)
    a = w.modulus**2 / 4.0
    z = 1.0 - w.modulus**2
    bb, bt = a * math.cos(delta), a * math.sin(delta)
    return 0.5 * z**2 * (
        math.cosh(a) * math.sinh(a)
        + math.cosh(bb) * math.sinh(bb) * math.cos(rho)
        + math.cos(bt) * math.sin(bt) * math.sin(rho)
    )


# --------------------------------------------------------------------------
# cylinder: printed and corrected probability sums
# --------------------------------------------------------------------------

def _cylinder_sum(params: CylinderPairParams, pair: SectorPair, terms: int,
                  printed: bool) -> float:
    """The displayed sector-probability sums; ``printed`` keeps the cosine
    arguments verbatim, otherwise the series-derived ones are used."""
    aw = params.omega.modulus**2 / 4.0
    asg = params.sigma.modulus**2 / 4.0
    zw, zs = 1.0 - params.omega.modulus**2, 1.0 - params.sigma.modulus**2
    l, lp = params.label.l, params.label_prime.l
    d, r = params.delta, params.rho
    n = np.arange(terms)
    m = np.arange(terms)
    lf = log_factorial_array(2 * terms)

    def dl(a: float, ks: np.ndarray) -> np.ndarray:
        if a > 0:
            return np.exp(ks * math.log(a) - lf[ks])
        out = np.zeros(terms)
        if ks[0] == 0:
            out[0] = 1.0
        return out

    nm_minus = np.subtract.outer(n, m)
    if pair is SectorPair.PP:
        wn, wm = dl(aw, 2 * n), dl(asg, 2 * m)
        gauss = np.exp(-4.0 * np.add.outer(n**2, m**2))
        e1 = np.exp(4.0 * (l * n[:, None] + lp * m[None, :]))
        e2 = np.exp(4.0 * (lp * n[:, None] + l * m[None, :]))
        arg = (2.0 * d * (-nm_minus) + r) if printed else (r + 2.0 * d * nm_minus)
        cross = 2.0 * np.exp(2.0 * (l + lp) * np.add.outer(n, m)) * np.cos(arg)
        pref = 0.5 * zw**0.5 * zs**0.5
    elif pair is SectorPair.PM:
        wn, wm = dl(aw, 2 * n), dl(asg, 2 * m + 1)
        gauss = np.exp(-4.0 * np.add.outer(n**2, m**2) - (4 * m[None, :] + 1))
        e1 = np.exp(4.0 * (l * n[:, None] + lp * (m[None, :] + 0.5)))
        e2 = np.exp(4.0 * (lp * n[:, None] + l * (m[None, :] + 0.5)))
        arg = (
            2.0 * (d * (-nm_minus) - (r + 1.0) / 2.0)
            if printed
            else (r + d * (2.0 * nm_minus - 1.0))
        )
        cross = 2.0 * np.exp(2.0 * (l + lp) * (np.add.outer(n, m) + 0.5)) * np.cos(arg)
        pref = 0.5 * zw**0.5 * zs**1.5
    else:
        wn, wm = dl(aw, 2 * n + 1), dl(asg, 2 * m + 1)
        gauss = np.exp(-4.0 * np.add.outer(n**2, m**2) - 4.0 * (np.add.outer(n, m) + 0.5))
        e1 = np.exp(4.0 * (l * (n[:, None] + 0.5) + lp * (m[None, :] + 0.5)))
        e2 = np.exp(4.0 * (lp * (n[:, None] + 0.5) + l * (m[None, :] + 0.5)))
        arg = 2.0 * (d * (-nm_minus) + r) if printed else (r + 2.0 * d * nm_minus)
        cross = 2.0 * np.exp(2.0 * (l + lp) * (np.add.outer(n, m) + 1.0)) * np.cos(arg)
        pref = 0.5 * zw**1.5 * zs**1.5
    return pref * math.fsum((np.outer(wn, wm) * gauss * (e1 + e2 + cross)).ravel().tolist())


def cylinder_probability_printed(params, pair, terms=DEFAULT_TERMS) -> float:
    return _cylinder_sum(params, pair, terms, printed=True)


def cylinder_probability_corrected(params, pair, terms=DEFAULT_TERMS) -> float:
    return _cylinder_sum(params, pair, terms, printed=False)


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


def coset_single_norm_printed(zprime: complex, terms: int = DEFAULT_TERMS) -> float:
    """Single-projection squared norm as printed: cosh/sinh at |z'|^2/2 and
    the Re z' series with denominator (2n)! (2n+1)."""
    zprime = complex(zprime)
    zd = 1.0 - abs(zprime) ** 2
    n = np.arange(terms)
    lf = log_factorial_array(2 * terms)[2 * n]
    if zprime == 0:
        series = 1.0
    else:
        series = math.fsum(
            np.exp(4 * n * math.log(abs(zprime) / 2.0) - lf - np.log(2 * n + 1)).tolist()
        )
    return (
        zd**0.5 * math.cosh(abs(zprime) ** 2 / 2.0)
        + zd**1.5 * math.sinh(abs(zprime) ** 2 / 2.0)
        + zd**0.5 * zprime.real * series
    )


def coset_single_norm_corrected(zprime: complex, terms: int = DEFAULT_TERMS) -> float:
    """l^2 norm of the grouped projection, from the squared bracket:

        Z^(1/2) cosh(|z'|^2/4) + Z^(3/2) sinh(|z'|^2/4)
            + Z Re(z') sum_n |z'/2|^(4n) / ((2n)! sqrt(2n+1)).
    """
    zprime = complex(zprime)
    zd = 1.0 - abs(zprime) ** 2
    a4 = abs(zprime) ** 2 / 4.0
    n = np.arange(terms)
    lf = log_factorial_array(2 * terms)[2 * n]
    if zprime == 0:
        series = 1.0
    else:
        series = math.fsum(
            np.exp(
                4 * n * math.log(abs(zprime) / 2.0) - lf - 0.5 * np.log(2 * n + 1)
            ).tolist()
        )
    return zd**0.5 * math.cosh(a4) + zd**1.5 * math.sinh(a4) + zd * zprime.real * series


# --------------------------------------------------------------------------
# the battery
# --------------------------------------------------------------------------

_CIRCLE_GRID = [
    (m, m, d, r)
    for m in (0.1, 0.5, 0.9)
    for d in (0.0, math.pi / 4.0, math.pi / 2.0)
    for r in (0.0, math.pi / 2.0, math.pi)
] + [(0.3, 0.8, 1.1, 2.0), (0.9, 0.2, 0.4, 4.0)]


def _circle_params(w, s, d, r) -> CirclePairParams:
    return CirclePairParams(
        Mp2Variable(w), Mp2Variable(s), CircleLabel(0.7 + d), CircleLabel(0.7), r
    )


def verify_all(tolerance: float = 1e-9, terms: int = DEFAULT_TERMS) -> VerificationReport:
    """Run every declared oracle-vs-closed-form comparison."""
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    comps: list[Comparison] = []

    # theta anchors against the frozen reference values
    t3 = theta3(DEGENERATE_NOME, terms)
    t2 = theta2(DEGENERATE_NOME, terms)
    comps.append(
        _compare(
            "theta-anchors",
            "theta-constants:nome-e^-8",
            [THETA3_ANCHOR, THETA2_ANCHOR],
            [t3.value, t2.value],
            None,
            THETA_ANCHOR_TOL,
            must_match=True,
            note="direct series against the quoted anchor values",
        )
    )

    # circle sector closed forms over the sample grid
    for pair in (SectorPair.PP, SectorPair.PM, SectorPair.MM):
        oracle, corrected, printed = [], [], []
        for w, s, d, r in _CIRCLE_GRID:
            p = _circle_params(w, s, d, r)
            oracle.append(entangle_circle.probability_series(p, pair, terms).value)
            corrected.append(entangle_circle.closed_form_P(p, pair))
            printed.append(appendix_closed_form_printed(p, pair))
        notes = {
            SectorPair.PP: (
                "first term cosh(beta)cosh(beta~) corrected to cosh(a)cosh(b); "
                "cross terms flipped to the antipodal sign convention"
            ),
            SectorPair.PM: "cross terms flipped to the antipodal sign convention",
            SectorPair.MM: (
                "cross terms flipped to the antipodal sign convention; last "
                "printed factor sinh(g)sin(g~) read as sinh(g)cos(g~)"
            ),
        }
        comps.append(
            _compare(
                f"circle-closed-form-{pair.value}",
                f"closed-form:circle:{pair.value}",
                oracle,
                corrected,
                printed,
                tolerance,
                must_match=True,
                note=notes[pair],
            )
        )

    # coincident limits (delta -> 0)
    for pair in (SectorPair.PP, SectorPair.PM, SectorPair.MM):
        oracle, corrected, printed = [], [], []
        for w, s in ((0.1, 0.1), (0.5, 0.5), (0.9, 0.2)):
            for r in (0.0, math.pi / 2.0, math.pi):
                p = _circle_params(w, s, 0.0, r)
                oracle.append(entangle_circle.probability_series(p, pair, terms).value)
                corrected.append(entangle_circle.limit_coincident(pair, w, s, r))
                printed.append(coincident_limit_printed(pair, w, s, r))
        comps.append(
            _compare(
                f"circle-coincident-limit-{pair.value}",
                f"limit:coincident:{pair.value}",
                oracle,
                corrected,
                printed,
                tolerance,
                must_match=True,
                note="odd-odd printed weight Zw^(1/2) Zs^(3/2) corrected to (Zw Zs)^(3/2)"
                if pair is SectorPair.MM
                else "matches the (1 - cos rho) coincident factorization",
            )
        )

    # orthogonal limits (delta -> pi/2)
    for pair in (SectorPair.PP, SectorPair.PM, SectorPair.MM):
        oracle, corrected, printed = [], [], []
        for w, s in ((0.1, 0.1), (0.5, 0.5), (0.9, 0.2)):
            for r in (0.0, math.pi / 2.0, math.pi):
                p = _circle_params(w, s, math.pi / 2.0, r)
                oracle.append(entangle_circle.probability_series(p, pair, terms).value)
                corrected.append(entangle_circle.limit_orthogonal(pair, w, s, r))
                printed.append(orthogonal_limit_printed(pair, w, s, r))
        comps.append(
            _compare(
                f"circle-orthogonal-limit-{pair.value}",
                f"limit:orthogonal:{pair.value}",
                oracle,
                corrected,
                printed,
                tolerance,
                must_match=True,
                note="printed cross term enters with +, series demands -",
            )
        )

    # analytic degeneracy limits (sigma -> omega)
    for pair in (SectorPair.PP, SectorPair.PM, SectorPair.MM):
        oracle, corrected, printed = [], [], []
        for w in (0.3, 0.7):
            for d in (0.0, 0.9):
                for r in (0.0, 2.0):
                    p = _circle_params(w, w, d, r)
                    oracle.append(entangle_circle.probability_series(p, pair, terms).value)
                    corrected.append(entangle_circle.limit_degenerate(pair, w, d, r))
                    printed.append(degenerate_limit_printed(pair, w, d, r))
        comps.append(
            _compare(
                f"circle-degenerate-limit-{pair.value}",
                f"limit:degenerate:{pair.value}",
                oracle,
                corrected,
                printed,
                tolerance,
                must_match=True,
                note="printed cross term enters with +, series demands -",
            )
        )

    # degenerate crossed even-odd closed form
    oracle, corrected, printed = [], [], []
    for w in (0.3, 0.7):
        for d in (0.0, 0.9):
            for r in (0.0, 2.0):
                p = _circle_params(w, w, d, r)
                oracle.append(
                    entangle_circle.probability_series(p, SectorPair.PM, terms).value
                )
                corrected.append(entangle_circle.limit_degenerate(SectorPair.PM, w, d, r))
                printed.append(crossed_pm_closed_form_printed(w, d, r))
    comps.append(
        _compare(
            "circle-crossed-pm-closed-form",
            "closed-form:circle:crossed-pm-degenerate",
            oracle,
            corrected,
            printed,
            tolerance,
            must_match=True,
            note="stray |sigma|^2 read as |omega|^2; cross sign flipped",
        )
    )

    # total probability, term-by-term
    oracle, corrected, printed = [], [], []
    for w, s, d, r in ((0.5, 0.5, 0.0, 0.0), (0.3, 0.8, 1.1, 2.0), (0.9, 0.2, 0.4, 4.0)):
        p = _circle_params(w, s, d, r)
        oracle.append(entangle_circle.probability_series(p, SectorPair.TOTAL, terms).value)
        corrected.append(entangle_circle.closed_form_total(p, terms))
        printed.append(total_closed_form_printed(p, terms))
    comps.append(
        _compare(
            "circle-total-closed-form",
            "closed-form:circle:total",
            oracle,
            corrected,
            printed,
            tolerance,
            must_match=True,
            note="printed cross block cos(rho + (phi'-phi)(n-m))(AB-CD) replaced "
            "by the series-derived -2 Re[e^(i(rho+2 delta (n-m))) G_w G_s]",
        )
    )

    # cylinder sector probability sums
    cyl_points = [
        (0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 1.0),
        (0.3, 0.8, 0.4, -0.2, 0.9, 0.7, 1.3),
        (0.9, 0.6, 1.0, 0.5, 0.3, 0.0, 2.0),
    ]
    for pair in (SectorPair.PP, SectorPair.PM, SectorPair.MM):
        oracle, corrected, printed = [], [], []
        for w, s, l, lp, phi, phip, r in cyl_points:
            p = CylinderPairParams(
                Mp2Variable(w), Mp2Variable(s),
                CylinderLabel(l, phi), CylinderLabel(lp, phip), r,
            )
            oracle.append(entangle_cylinder.probability_series_cyl(p, pair, terms).value)
            corrected.append(cylinder_probability_corrected(p, pair, terms))
            printed.append(cylinder_probability_printed(p, pair, terms))
        notes = {
            SectorPair.PP: "printed cosine argument 2d(m-n)+rho; series gives rho+2d(n-m)",
            SectorPair.PM: "printed argument 2(d(m-n)-(rho+1)/2) carries the suspect "
            "'+1'; series gives rho + d(2(n-m)-1)",
            SectorPair.MM: "printed argument doubles rho; series gives rho+2d(n-m)",
        }
        comps.append(
            _compare(
                f"cylinder-probability-{pair.value}",
                f"closed-form:cylinder:{pair.value}",
                oracle,
                corrected,
                printed,
                tolerance,
                must_match=True,
                note=notes[pair],
            )
        )

    # cylinder degeneracy limits: Kronecker-selected theta forms vs the
    # honest oracle at omega = sigma (documented discrepancy, informational)
    for pair in (SectorPair.PP, SectorPair.PM, SectorPair.MM):
        oracle, printed = [], []
        for d in (0.0, math.pi / 4.0):
            for r in (0.0, 1.0):
                p = CylinderPairParams(
                    Mp2Variable(0.5), Mp2Variable(0.5),
                    CylinderLabel(0.0, 0.7 + d), CylinderLabel(0.0, 0.7), r,
                )
                oracle.append(entangle_cylinder.probability_series_cyl(p, pair, terms).value)
                printed.append(
                    entangle_cylinder.degenerate_limit_cyl(pair, 0.0, 0.0, d, r, terms)
                )
        comps.append(
            _compare(
                f"cylinder-degenerate-{pair.value}",
                f"limit:cylinder-degenerate:{pair.value}",
                oracle,
                printed,
                printed,
                tolerance,
                must_match=False,
                note="Kronecker-selected theta-function limit vs the honest "
                "omega -> sigma oracle; carried as printed, not resolved",
            )
        )

    # even-even pre-theta sum vs its theta closed form at l + l' = 0
    rho0 = 0.3
    pre_theta = (1.0 + math.cos(rho0)) * math.fsum(
        math.exp(-8.0 * k * k) for k in range(terms)
    )
    theta_form = entangle_cylinder.degenerate_limit_cyl(SectorPair.PP, 0.0, 0.0, 0.0, rho0)
    comps.append(
        _compare(
            "cylinder-pre-theta-factor",
            "limit:cylinder-degenerate:pp:pre-theta-sum",
            [theta_form],
            [theta_form],
            [pre_theta],
            tolerance,
            must_match=False,
            note="the exhibited pre-theta sum equals (1+theta3)/2 per (1+cos rho), "
            "half the displayed theta form; both carried as printed",
        )
    )

    # coset closed forms
    lab1 = CosetLabel(0.4 + 0.8j, 0.9)
    lab2 = CosetLabel(-0.2 + 1.3j, 0.1)
    coset_points = [
        (0.5, 0.5, 0.0),
        (0.7, 0.3, 1.2),
        (0.9, 0.4, math.pi / 2.0),
    ]
    for pair in (SectorPair.PP, SectorPair.PM, SectorPair.MM):
        oracle, corrected, printed = [], [], []
        for w, s, r in coset_points:
            p = CosetPairParams(Mp2Variable(w), Mp2Variable(s), lab1, lab2, r)
            oracle.append(entangle_coset.probability_series_coset(p, pair, terms).value)
            corrected.append(entangle_coset.closed_form_coset(p, pair))
            if pair is SectorPair.PP:
                printed.append(coset_pp_runon_printed(p))
            elif pair is SectorPair.MM:
                printed.append(coset_mm_printed(p))
            else:
                printed.append(entangle_coset.closed_form_coset(p, pair))
        notes = {
            SectorPair.PP: "run-on reading leaves the cross block unscaled; the "
            "(Z1 Z2)^(1/2)/4 factor multiplies it too",
            SectorPair.PM: "printed form matches the series as written",
            SectorPair.MM: "printed outer weight Z1 Z2^(3/2) corrected to (Z1 Z2)^(3/2)",
        }
        comps.append(
            _compare(
                f"coset-closed-form-{pair.value}",
                f"closed-form:coset:{pair.value}",
                oracle,
                corrected,
                printed,
                tolerance,
                must_match=True,
                note=notes[pair],
            )
        )

    # coset single-projection squared norm
    zps = [0.2, 0.35 + 0.2j, 0.55 - 0.3j]
    oracle = [entangle_coset.single_projection_norm_sq(zp, terms) for zp in zps]
    corrected = [coset_single_norm_corrected(zp, terms) for zp in zps]
    printed = [coset_single_norm_printed(zp, terms) for zp in zps]
    comps.append(
        _compare(
            "coset-single-projection-norm",
            "closed-form:coset:single-projection-norm",
            oracle,
            corrected,
            printed,
            tolerance,
            must_match=True,
            note="printed arguments |z'|^2/2 corrected to |z'|^2/4; Re z' series "
            "weight and denominator corrected to Z and sqrt(2n+1)",
        )
    )

    # cat completeness: even + odd projections sum to the full coherent one
    devs = []
    for alpha in (0.5, 1.0, 2.0):
        label = CircleLabel(0.7)
        even = cat_projection(alpha, label, Parity.EVEN, terms)
        odd = cat_projection(alpha, label, Parity.ODD, terms)
        merged = np.zeros(2 * terms, dtype=complex)
        merged[0::2] = even.terms
        merged[1::2] = odd.terms
        atilde = alpha * cmath.exp(1j * label.phi)
        ks = np.arange(2 * terms)
        lf = log_factorial_array(2 * terms - 1)[ks]
        full = (
            math.exp(-abs(alpha) ** 2 / 2.0)
            / (2.0 * math.pi)
            * np.exp(ks * cmath.log(atilde) - 0.5 * lf)
        )
        devs.append(float(np.max(np.abs(merged - full))))
    comps.append(
        _compare(
            "cat-completeness",
            "identity:cat:even-plus-odd",
            [0.0] * len(devs),
            devs,
            None,
            1e-12,
            must_match=True,
            note="even + odd cat projections reproduce the full coherent-state "
            "projection coefficient by coefficient",
        )
    )

    return VerificationReport(tolerance, terms, tuple(comps))
