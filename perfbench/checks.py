"""Correctness checks on the files the benchmark's operations write.

Every sweep grid is compared with a reference that does not share the
series path that produced it:

* circle and coset pp/pm/mm: the closed forms, at every grid point;
* circle total: ``closed_form_total`` on a seeded sample of points;
* cylinder pp/pm/mm: the corrected cylinder sums of ``mp2ent.verify`` on a
  seeded sample;
* cylinder total, coset total and every cat pair: a 40-digit mpmath
  rebuild of the pair coefficients (direct products and factorials, no
  shared code) on a seeded sample;
* closed-form grids additionally against the series oracle on a sample.

All comparisons use the absolute tolerance of ``mp2ent verify`` (1e-9).
JSON grids must also report ``tail_bound_max <= 1e-16``.  The checks return
a list of failure messages; an empty list means the file is correct.
"""

from __future__ import annotations

import cmath
import json
import random

import mpmath
import numpy as np

from mp2ent import entangle_circle, entangle_coset, verify
from mp2ent.entangle_circle import CirclePairParams, SectorPair
from mp2ent.entangle_coset import CosetPairParams
from mp2ent.entangle_cylinder import CylinderPairParams
from mp2ent.grids import PARAMETERS
from mp2ent.states import CircleLabel, CosetLabel, CylinderLabel, Mp2Variable

TOLERANCE = 1e-9
TAIL_LIMIT = 1e-16
SAMPLE_POINTS = 5
MP_DIGITS = 40


def axis_values(start: float, stop: float, steps: int) -> list[float]:
    # rebuilt here, not taken from the grid driver under test
    step = (stop - start) / (steps - 1)
    return [start + i * step for i in range(steps)]


def read_grid(op, text: str) -> tuple[np.ndarray, list[str]]:
    """The value grid of a data file, plus format-level failures."""
    n1, n2 = op.axes[0][3], op.axes[1][3]
    ax1, ax2 = axis_values(*op.axes[0][1:]), axis_values(*op.axes[1][1:])
    problems = []
    if op.fmt == "csv":
        lines = text.splitlines()
        if lines[:1] != ["axis1,axis2,value"] or len(lines) != 1 + n1 * n2:
            return np.empty(0), ["csv header or row count is wrong"]
        rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        expect = np.array([(a, b) for a in ax1 for b in ax2])
        if not np.array_equal(rows[:, :2], expect):
            problems.append("csv axis columns differ from the sweep axes")
        values = rows[:, 2].reshape(n1, n2)
    else:
        payload = json.loads(text)
        spec = payload["spec"]
        if (spec["family"], spec["pair"], spec["truncation"]) != (op.family, op.pair, op.trunc):
            problems.append("json spec does not describe the operation")
        if payload["provenance"] != op.provenance:
            problems.append(f"json provenance is {payload['provenance']!r}")
        if not payload["tail_bound_max"] <= TAIL_LIMIT:
            problems.append(f"tail_bound_max {payload['tail_bound_max']} > {TAIL_LIMIT}")
        values = np.array(payload["values"], dtype=float)
        if values.shape != (n1, n2):
            return np.empty(0), problems + [f"json grid shape {values.shape}"]
    if not (np.all(np.isfinite(values)) and np.all(values >= 0.0)):
        problems.append("grid values are not all finite and non-negative")
    return values, problems


def resolved(op, v1: float, v2: float) -> dict[str, float]:
    values = {name: default for name, (default, _) in PARAMETERS[op.family].items()}
    values.update(dict(op.fixed))
    values[op.axes[0][0]] = v1
    values[op.axes[1][0]] = v2
    return values


def _disk(modulus: float, arg: float) -> Mp2Variable:
    return Mp2Variable(modulus * cmath.exp(1j * arg))


def circle_params(v) -> CirclePairParams:
    return CirclePairParams(
        _disk(v["omega"], v["arg_omega"]), _disk(v["sigma"], v["arg_sigma"]),
        CircleLabel(v["phi"]), CircleLabel(v["phi_prime"]), v["rho"],
    )


def coset_params(v) -> CosetPairParams:
    return CosetPairParams(
        _disk(v["omega"], v["arg_omega"]), _disk(v["sigma"], v["arg_sigma"]),
        CosetLabel(complex(v["alpha_re"], v["alpha_im"]), v["phi"], v["x"], v["y"]),
        CosetLabel(complex(v["alpha2_re"], v["alpha2_im"]), v["phi_prime"], v["x2"], v["y2"]),
        v["rho"],
    )


def cylinder_params(v) -> CylinderPairParams:
    return CylinderPairParams(
        _disk(v["omega"], v["arg_omega"]), _disk(v["sigma"], v["arg_sigma"]),
        CylinderLabel(v["l"], v["phi"]), CylinderLabel(v["l_prime"], v["phi_prime"]),
        v["rho"],
    )


# --------------------------------------------------------------------------
# independent mpmath oracle
# --------------------------------------------------------------------------

def _mp_term(z, k: int):
    return (z / 2) ** k / mpmath.sqrt(mpmath.factorial(k))


def _mp_slot(family: str, parity: str, var, angle, label_l, n_terms: int) -> list:
    """One slot sequence of the pair; ``parity`` is "even", "odd" or "both"
    (the grouped total slot: even_n + odd_n)."""
    offsets = {"even": (0,), "odd": (1,), "both": (0, 1)}[parity]
    out = []
    for n in range(n_terms):
        term = mpmath.mpc(0)
        for off in offsets:
            k = 2 * n + off
            if family == "cat":
                atilde = var * mpmath.expj(angle)
                term += mpmath.exp(-abs(var) ** 2 / 2) * atilde**k / mpmath.sqrt(mpmath.factorial(k))
            elif family == "cylinder":
                z = mpmath.conj(var) * mpmath.exp(mpmath.mpc(label_l, -angle))
                weight = (1 - abs(var) ** 2) ** (mpmath.mpf(1 + 2 * off) / 4)
                gauss = mpmath.exp(-2 * mpmath.mpf(n) ** 2) if off == 0 else mpmath.exp(
                    -mpmath.mpf(k) ** 2 / 2
                )
                term += weight * _mp_term(z, k) * gauss
            else:  # circle and coset: disk variable var e^(i angle)
                z = var * mpmath.expj(angle)
                weight = (1 - abs(z) ** 2) ** (mpmath.mpf(1 + 2 * off) / 4)
                term += weight * _mp_term(z, k)
        out.append(term if family == "cylinder" else mpmath.conj(term))
    return out


def mp_probability(family: str, pair: str, point: dict[str, float], n_terms: int) -> float:
    """P = sum |c_nm|^2 of the projected pair, rebuilt in mpmath:
    c = p (u1 (x) u2 + s e^(i rho) v1 (x) v2) with the family's slots."""
    mpf, expj = mpmath.mpf, mpmath.expj
    with mpmath.workdps(MP_DIGITS):
        p1, p2 = {"pp": ("even", "even"), "pm": ("even", "odd"),
                  "mm": ("odd", "odd"), "total": ("both", "both")}[pair]
        first, second = ("alpha", "beta") if family == "cat" else ("omega", "sigma")
        w = mpf(point[first]) * expj(point["arg_" + first])
        s = mpf(point[second]) * expj(point["arg_" + second])
        ang, angp = mpf(point["phi"]), mpf(point["phi_prime"])
        if family == "coset":
            # contracted disk variable omega e^(i(phi - conj(alpha)/2))
            ang -= mpmath.conj(mpmath.mpc(point["alpha_re"], point["alpha_im"])) / 2
            angp -= mpmath.conj(mpmath.mpc(point["alpha2_re"], point["alpha2_im"])) / 2
        ls = [point["l"], point["l_prime"], point["l_prime"], point["l"]] if family == "cylinder" else [0] * 4
        slots = [(w, ang, p1), (s, angp, p2), (w, angp, p1), (s, ang, p2)]
        u1, u2, v1, v2 = (
            _mp_slot(family, parity, var, angle, mpf(l), n_terms)
            for (var, angle, parity), l in zip(slots, ls)
        )
        # circle and cat take the swapped term with -e^(i rho)
        sign = -1 if family in ("circle", "cat") else 1
        pref = 1 / mpmath.sqrt(2) if family == "cylinder" else mpf(1) / 2
        v1 = [sign * expj(mpf(point["rho"])) * x for x in v1]
        total = mpf(0)
        for u1n, v1n in zip(u1, v1):
            for u2m, v2m in zip(u2, v2):
                c = u1n * u2m + v1n * v2m
                total += c.real**2 + c.imag**2
        return float(pref**2 * total)


# --------------------------------------------------------------------------
# per-operation checks
# --------------------------------------------------------------------------

def _sample(op, seed: int) -> list[tuple[int, int]]:
    """The far corner (largest moduli, slowest convergence) plus seeded
    points."""
    n1, n2 = op.axes[0][3], op.axes[1][3]
    rng = random.Random(f"{op.key}:{seed}")
    points = {(n1 - 1, n2 - 1)}
    while len(points) < min(SAMPLE_POINTS, n1 * n2):
        points.add((rng.randrange(n1), rng.randrange(n2)))
    return sorted(points)


def _reference(op, v: dict[str, float]) -> float:
    """The independent reference value at one point."""
    pair = SectorPair.parse(op.pair)
    if op.provenance == "closed_form":
        if op.family == "circle":
            return entangle_circle.probability_series(circle_params(v), pair, op.trunc).value
        return entangle_coset.probability_series_coset(coset_params(v), pair, op.trunc).value
    if op.family == "circle" and pair is SectorPair.TOTAL:
        return entangle_circle.closed_form_total(circle_params(v), op.trunc)
    if op.family == "cylinder" and pair is not SectorPair.TOTAL:
        return verify.cylinder_probability_corrected(cylinder_params(v), pair, op.trunc)
    return mp_probability(op.family, op.pair, v, op.trunc)


def _closed_form(op, v: dict[str, float]) -> float:
    pair = SectorPair.parse(op.pair)
    if op.family == "circle":
        return entangle_circle.closed_form_P(circle_params(v), pair)
    return entangle_coset.closed_form_coset(coset_params(v), pair)


def _compare(values: np.ndarray, refs: np.ndarray, mask: np.ndarray, label: str) -> list[str]:
    """Compare ``values`` with ``refs`` where ``mask`` is set."""
    dev = np.where(mask, np.abs(values - refs), 0.0)
    bad = mask & ~(dev <= TOLERANCE)
    if not bad.any():
        return []
    worst = np.unravel_index(np.argmax(np.where(bad, np.nan_to_num(dev, nan=np.inf), -1.0)), dev.shape)
    where = tuple(int(i) for i in worst)
    return [f"{label}: |value - reference| = {dev[worst]:.3g} at grid index {where}"]


def check_sweep(op, text: str, seed: int) -> list[str]:
    """Failures of one sweep's data file."""
    values, problems = read_grid(op, text)
    if values.size == 0:
        return problems
    ax1, ax2 = axis_values(*op.axes[0][1:]), axis_values(*op.axes[1][1:])
    sector_closed_form = op.family in ("circle", "coset") and op.pair != "total"
    if sector_closed_form:
        refs = np.array([[_closed_form(op, resolved(op, a, b)) for b in ax2] for a in ax1])
        problems += _compare(values, refs, np.ones(values.shape, bool), "closed form")
        if op.provenance == "series":
            return problems
    refs = np.full(values.shape, np.nan)
    mask = np.zeros(values.shape, bool)
    for i, j in _sample(op, seed):
        refs[i, j] = _reference(op, resolved(op, ax1[i], ax2[j]))
        mask[i, j] = True
    return problems + _compare(values, refs, mask, "sampled reference")


def check_verify_report(text: str) -> list[str]:
    """``mp2ent verify`` must pass with every must-match comparison ok;
    statuses are not pinned."""
    report = json.loads(text)
    problems = [] if report["passed"] else ["verify report did not pass"]
    bad = [c["name"] for c in report["comparisons"] if c["must_match"] and not c["ok"]]
    if bad:
        problems.append(f"must-match comparisons failed: {', '.join(bad)}")
    if not report["comparisons"]:
        problems.append("verify report has no comparisons")
    return problems


def check(op, text: str, seed: int) -> list[str]:
    if op.kind == "verify":
        return check_verify_report(text)
    return check_sweep(op, text, seed)
