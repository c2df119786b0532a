"""State families and their scalar projections onto Mp(2) even/odd basis states.

Five families are covered: London (circle) states, Barut-Girardello cylinder
states, coset coherent states on the circle, Schroedinger cat states, and the
Mp(2) disk states themselves.  Each projection is returned as a
:class:`CoefficientSequence`: the ordered complex coefficients c_n of the
sector's own series (of the Fock states 2n + parity, a :class:`Parity` being
its Fock offset) together with a rigorous bound on the dropped l^2 tail.
Every family's series is one Fock series; what differs - z, the two sector
amplitudes, the Gaussian log-weight - is data, one :class:`SlotMap` record
per family.  One body, :func:`fock_series_batch`, builds every slot: a batch
of G slots in one numpy log-magnitude pass, returned as arrays (a
:class:`SlotBatch`: a (G, N) coefficient block with its norm and tail
columns), with no object per slot.  The per-point paths call the memoized
:func:`fock_series`, which wraps row 0 of its batch of one in a
CoefficientSequence, and the grid sweeps call ``SlotMap.batch`` over an
axis; a batch raises wherever one of its elements would, and a failing
sweep names its point by replaying the per-point path
(:func:`mp2ent.grids.run_sweep`).  ``parity=None`` gives the grouped total
slot, even + odd, whose sequence carries parity None (no sector).

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
import functools
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from enum import Enum, IntEnum
from typing import Any, NamedTuple

import numpy as np

from .numerics import DEFAULT_TERMS, log_factorial_array, row_norms_sq, stable_norm_sq

TWO_PI = 2.0 * math.pi
INV_SQRT_2PI = 1.0 / math.sqrt(TWO_PI)

# Below this the normalization denominator 1 - e^(-Im alpha) loses too many
# digits to be trustworthy.
MIN_COSET_IM_ALPHA = 1e-6

# Largest log-magnitude a series term may reach; only cylinder labels come
# near it.  A pair norm multiplies the squared norms of two slots, so 4x this
# must stay below ln(DBL_MAX) ~ 709.78; the remaining ~30 covers the
# prefactors and the N-term sums inside those norms.
MAX_CYLINDER_LOG_MAG = 170.0
LOG_DBL_MAX = math.log(sys.float_info.max)

# Distinct slots kept by the fock_series memo.  It serves the per-point
# pair builders and verify, which meet the same slot at many points, and
# their reruns; at N = 40 an entry holds about 1.1 kB (tracemalloc).  Grid
# sweeps build their slots in axis batches (SlotMap.batch) and neither read
# nor fill it, so a sweep does not evict verify's slots; only a failing
# sweep does, replaying its points up to the first failing one.
SLOT_MEMO_SIZE = 1024

# A sector tail bound a/(1 - r) is widened by TAIL_MARGIN_ULPS eps (1 + 2s),
# s the rounding scale of the log-magnitude of its first omitted term (see
# fock_series).  Against 50-digit mpmath, the error of the computed 2x stayed
# below 1.6 eps (1 + 2s) over 6000 random disk, cylinder and cat series.
EPS = sys.float_info.epsilon
TAIL_MARGIN_ULPS = 4.0


class Parity(IntEnum):
    """The two Mp(2) irreducible sectors, valued by their Fock offset: the
    n-th state of a sector is the Fock state 2n + parity."""

    EVEN = 0
    ODD = 1

    # str() and format() name the member (Parity.EVEN), not its offset
    __str__ = Enum.__str__

    @property
    def sector_index(self) -> float:
        """s = 1/4 + parity/2: 1/4 for the even sector, 3/4 for the odd one;
        2s is the exponent of the (1 - |omega|^2) disk weight of a slot in a
        probability."""
        return 0.25 + 0.5 * self


def _wrap_angle(phi: float) -> float:
    phi = float(phi)
    if not math.isfinite(phi):
        raise ValueError(f"label angle phi must be finite, got {phi}")
    phi = math.fmod(phi, TWO_PI)
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
    annihilate the fiducial vector.  Every field must be finite.
    """

    alpha: complex
    phi: float
    x: float = 1.0
    y: float = 0.0

    def __post_init__(self) -> None:
        alpha = complex(self.alpha)
        for name, value in (("alpha", alpha), ("x", self.x), ("y", self.y)):
            if not cmath.isfinite(value):
                raise ValueError(f"coset label {name} must be finite, got {value}")
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


def as_circle_label(value) -> CircleLabel:
    """``value`` if it already is a :class:`CircleLabel`, else the label at
    the angle it holds (validated on the way)."""
    return value if isinstance(value, CircleLabel) else CircleLabel(float(value))


def as_mp2(value) -> Mp2Variable:
    """``value`` if it already is an :class:`Mp2Variable`, else the disk
    variable at the complex number it holds (validated on the way)."""
    return value if isinstance(value, Mp2Variable) else Mp2Variable(value)


@dataclass(frozen=True, eq=False)
class CoefficientSequence:
    """Dense coefficients c_0..c_{N-1} of one sector series (``parity`` None
    for the total slot), plus a bound on the l^2 tail  sum_{n>=N} |c_n|^2."""

    parity: Parity | None
    terms: np.ndarray = field(repr=False)
    tail_bound: float

    _norm_sq: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        terms = np.asarray(self.terms, dtype=complex)
        terms.setflags(write=False)
        object.__setattr__(self, "terms", terms)
        if not (self.tail_bound >= 0.0):
            raise ValueError("tail_bound must be non-negative")
        object.__setattr__(self, "_norm_sq", stable_norm_sq(terms))

    def __len__(self) -> int:
        return len(self.terms)

    def norm_sq(self) -> float:
        """sum |c_n|^2, exactly rounded; computed once at construction."""
        return self._norm_sq


class SlotBatch(NamedTuple):
    """G slots of one parity and truncation as arrays: their squared norms
    sum |c_n|^2 (G,), each exactly rounded, their tail bounds (G,) and
    their coefficients c_0..c_(N-1) as one (G, N) block, in the order in
    which a series kernel reads a slot.  Row g is the slot
    ``CoefficientSequence(parity, terms[g], tails[g])`` bit for bit."""

    norms: np.ndarray
    tails: np.ndarray
    terms: np.ndarray


def fock_series_batch(
    zs, amps, parity: Parity | None, terms: int,
    log_weight: Callable[[np.ndarray], np.ndarray] | None = None,
) -> SlotBatch:
    """The one slot body: the :func:`fock_series` slot of each z in ``zs``
    with its pair of sector amplitudes in ``amps``, all at one parity,
    truncation and log-weight g, as one :class:`SlotBatch`.  One numpy
    log-magnitude pass of shape (G, 2N + 4) serves the G slots, one complex
    exp pass per sector fills their (G, N) block, and one
    :func:`~mp2ent.numerics.row_norms_sq` takes their norms; ln|z/2|, the
    phase and the tail bounds stay libm ``math`` calls per element, and a z
    whose |z|/2 is 0 takes its constant slot without the pass.  Every float
    expression is the one a single slot would evaluate, so each row is the
    same bit for bit whatever batch it is built in.

    Raises a ValueError or ArithmeticError wherever building some element
    alone raises: its input, its magnitude guard or tail bound (a tail that
    is not >= 0 raises "tail_bound must be non-negative", as
    CoefficientSequence does), or the fsum of its norm.  For a batch of one
    that is the element's own exception.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    size = 2 * terms
    inputs = [(complex(z) + 0j, pair) for z, pair in zip(zs, amps)]
    # ln|z/2|, None for a constant slot
    logs = [math.log(abs(z) / 2.0) if abs(z) / 2.0 != 0.0 else None for z, _ in inputs]
    live = [k for k, log in enumerate(logs) if log is not None]
    sectors = tuple(Parity) if parity is None else (parity,)
    tails, phases = [], []
    if live:
        ks = np.arange(size + 4)
        pieces = [ks * np.array([logs[k] for k in live])[:, None],
                  -0.5 * log_factorial_array(size + 3)]
        if log_weight is not None:
            pieces.append(log_weight(ks))
        log_mag = sum(pieces[1:], pieces[0])
        # log_mag[k] is rounded on the scale of its pieces, not of its value
        scales = sum(np.abs(piece[..., size : size + 2]) for piece in pieces).tolist()
        peaks = log_mag[:, 1:size].max(axis=1).tolist()
        ends = log_mag[:, size : size + 4].tolist()
    for row, k in enumerate(live):
        z, pair = inputs[k]
        peak, amp = peaks[row], max(pair)
        if peak > LOG_DBL_MAX or (amp > 0.0 and peak + math.log(amp) > MAX_CYLINDER_LOG_MAG):
            raise OverflowError(f"series term e^{peak:.1f} passes e^{MAX_CYLINDER_LOG_MAG:g}")
        sector_tails = []
        for o in sectors:
            first, second = ends[row][o], ends[row][o + 2]
            if second >= first:
                raise ValueError(
                    f"increase terms: the series is not yet decaying at truncation {terms}"
                )
            ratio = math.exp(2.0 * (second - first))
            margin = 1.0 + TAIL_MARGIN_ULPS * EPS * (1.0 + 2.0 * scales[row][o])
            sector_tails.append(pair[o] ** 2 * math.exp(2.0 * first) / (1.0 - ratio) * margin)
        tail = sector_tails[0]
        if parity is None:
            tail = (math.sqrt(sector_tails[0]) + math.sqrt(sector_tails[1])) ** 2
        if not (tail >= 0.0):
            raise ValueError("tail_bound must be non-negative")
        tails.append(tail)
        # not cmath.phase, which raises OverflowError where the angle underflows
        phases.append(math.atan2(z.imag, z.real))
    block, tail_column = np.zeros((len(inputs), terms), complex), np.zeros(len(inputs))
    if live:
        phase = np.array(phases)[:, None]
        amp_rows = np.array([inputs[k][1] for k in live])
        parts = [
            amp_rows[:, o, None] * np.exp(log_mag[:, o:size:2] + 1j * ks[o:size:2] * phase)
            for o in sectors
        ]
        coefficients = parts[0] if parity is not None else parts[0] + parts[1]
        if len(live) == len(inputs):  # no constant slot: no copy (a batch of one, say)
            block, tail_column = coefficients, np.array(tails)
        else:
            block[live], tail_column[live] = coefficients, tails
    # a constant slot: c_0 its even amplitude (0 for an odd slot), the rest 0
    if parity is not Parity.ODD:
        for k, (_, pair) in enumerate(inputs):
            if logs[k] is None:
                block[k, 0] = pair[0]
    return SlotBatch(row_norms_sq(block), tail_column, block)


@functools.lru_cache(maxsize=SLOT_MEMO_SIZE)
def fock_series(
    z: complex,
    amps: tuple[float, float],
    parity: Parity | None,
    terms: int,
    log_weight: Callable[[np.ndarray], np.ndarray] | None = None,
) -> CoefficientSequence:
    """The slot builder of the per-point paths: half of the Fock series of
    one state,

        t_k = amps[k % 2] (z/2)^k / sqrt(k!) e^(g(k)),   g = ``log_weight``,

    as c_n = t_(2n + parity) for a sector, or as the grouped total slot
    c_n = t_(2n) + t_(2n+1) for ``parity=None``; the batch of one of
    :func:`fock_series_batch`, whose row 0 and tail it wraps.  One
    log-magnitude pass over k = 0..2N+3 serves both (N = ``terms``).

    Tail bound.  A sector's log-magnitude  k ln|z/2| - ln(k!)/2 + g(k)  is
    concave in n for every family (ln k! is convex and g is 0, -k^2/2, or
    -k^2 + (k - 1/2) on odd k), so its squared term ratios never increase
    and the tail is at most a/(1 - r): a is the first omitted squared term
    and r the ratio of the second to it.  r >= 1 means the series is not
    decaying yet and raises.  For a small r, a/(1 - r) exceeds the true tail
    by only about a r^2, less than the rounding of a = e^(2x): x, the
    computed log-magnitude, carries an absolute error of a few eps times
    s = |k ln|z/2|| + ln(k!)/2 + |g(k)| (the pieces it is summed from, which
    can cancel), so the bound is widened by TAIL_MARGIN_ULPS eps (1 + 2s).
    The total slot's tail is (sqrt(tail_even) + sqrt(tail_odd))^2 by
    Minkowski.

    Raises OverflowError when a retained term passes e^MAX_CYLINDER_LOG_MAG
    (or e^(log_mag) itself would overflow).

    Memoized (SLOT_MEMO_SIZE slots): the per-point pair builders and verify
    meet the same slot at many points, and reruns meet it again.  Grid
    sweeps build their slots in batches and neither read nor fill the memo,
    unless they fail and replay their points.
    The returned sequence is shared and read-only.  Keys that compare equal
    must give identical slots, so z is stripped of signed zeros (+ 0j)
    before use: -1 - 0j == -1 + 0j, but their phases are -pi and +pi.
    """
    batch = fock_series_batch([z], [amps], parity, terms, log_weight)
    return CoefficientSequence(parity, batch.terms[0], float(batch.tails[0]))


@dataclass(frozen=True)
class SlotMap:
    """One family's single-state projection, as data.

    The slot of the state ``var`` at ``label`` is the Fock series of
    :func:`fock_series` with

        z = z(var, label),   sector amplitudes  p * amps(var, z),   g,

    where p is ``prefactor`` if the call asks for it (the default) and 1
    otherwise.  The pair builders ask for p = 1; under ``convention="full"``
    the grids scale each pair probability by ``prefactor**4`` instead.
    ``overflow(var, label)`` words the ValueError that replaces an
    OverflowError met on the way by a call; without it, or in a batch, the
    OverflowError passes.

    Calling a record, ``record(var, label, parity, terms, prefactor)``, is
    the only place where a (variable, label) pair becomes a memoized
    fock_series call, and ``record.batch`` (always p = 1) the only place
    where many become one fock_series_batch call; ``parity=None`` gives the
    grouped total slot.
    """

    z: Callable[[Any, Any], complex]
    amps: Callable[[Any, complex], tuple[float, float]]
    prefactor: float = 1.0
    g: Callable[[np.ndarray], np.ndarray] | None = None
    overflow: Callable[[Any, Any], str] | None = None

    def __call__(
        self, var, label, parity: Parity | None, terms: int = DEFAULT_TERMS,
        prefactor: bool = True,
    ) -> CoefficientSequence:
        try:
            return fock_series(*self._inputs(var, label, prefactor), parity, terms, self.g)
        except OverflowError:
            if self.overflow is None:
                raise
            raise ValueError(self.overflow(var, label)) from None

    def batch(self, points, parity: Parity | None, terms: int = DEFAULT_TERMS) -> SlotBatch:
        """The slots ``self(var, label, parity, terms, False)`` of the
        (var, label) ``points`` as one :class:`SlotBatch`, built by one
        :func:`fock_series_batch` call without the memo.  Raises a
        ValueError or ArithmeticError wherever some point's call would."""
        inputs = [self._inputs(var, label, False) for var, label in points]
        return fock_series_batch(
            [z for z, _ in inputs], [pair for _, pair in inputs], parity, terms, self.g
        )

    def _inputs(self, var, label, prefactor: bool) -> tuple[complex, tuple[float, float]]:
        # z and the sector amplitudes of the slot of var at label
        z = self.z(var, label)
        even, odd = self.amps(var, z)
        p = self.prefactor if prefactor else 1.0
        return z, (p * even, p * odd)


def _disk_weights(modulus: float) -> tuple[float, float]:
    """The sector amplitudes w^(1/4), w^(3/4) of the disk, w = 1 - modulus^2."""
    w = 1.0 - modulus**2
    return w**0.25, w**0.75


# Projection of an Mp(2) sector state onto a circle (phase) state:
#     even: c_n = (2pi)^(-1/2) (1-|omega|^2)^(1/4) (z/2)^(2n)   / sqrt((2n)!)
#     odd:  c_n = (2pi)^(-1/2) (1-|omega|^2)^(3/4) (z/2)^(2n+1) / sqrt((2n+1)!)
# with z = omega e^(i phi), the disk weight taken at z itself.
mp2_circle_projection = SlotMap(
    z=lambda omega, label: omega.omega * cmath.exp(1j * label.phi),
    amps=lambda omega, z: _disk_weights(abs(z)),
    prefactor=INV_SQRT_2PI,
)


# Projection of an Mp(2) sector state onto a cylinder state (no 2pi factor):
#     even: c_n = (1-|omega|^2)^(1/4) (z/2)^(2n)  /sqrt((2n)!)   e^(-2n^2)
#     odd:  c_n = (1-|omega|^2)^(3/4) (z/2)^(2n+1)/sqrt((2n+1)!) e^(-(2n+1)^2/2)
# with z = omega e^(l - i phi), i.e. g(k) = -k^2/2.  A label whose e^l
# overflows (cmath raises rather than returning inf) or whose series passes
# the magnitude guard is rejected as non-physical.
mp2_cylinder_projection = SlotMap(
    z=lambda omega, label: omega.omega * cmath.exp(complex(label.l, -label.phi)),
    amps=lambda omega, z: _disk_weights(omega.modulus),
    g=lambda k: -0.5 * k**2,
    overflow=lambda omega, label: (
        f"cylinder label l={label.l} drives the series magnitude past the "
        "overflow threshold (non-physical label)"
    ),
)

# The squared-amplitude display convention of the entangled-pair coefficient
# matrices: e^(-4n^2) (even) and e^(-4n^2 - (2n+1/2)) (odd).
mp2_cylinder_display_projection = replace(
    mp2_cylinder_projection, g=lambda k: (k % 2) * (k - 0.5) - k**2
)


def coset_variable(omega: Mp2Variable, label: CosetLabel) -> complex:
    """z' = omega e^(i(phi - conj(alpha)/2)).

    |z'| = |omega| e^(-Im(alpha)/2) < |omega|, so the coset displacement
    contracts the disk variable whenever Im(alpha) > 0.
    """
    return omega.omega * cmath.exp(1j * (label.phi - label.alpha.conjugate() / 2.0))


# Projection of an Mp(2) sector state onto a coset coherent state: the circle
# series with z' in place of z, and the disk weight evaluated at |z'| (the
# coset action modifies both the phase of omega and the ratio of the disk).
coset_projection = replace(mp2_circle_projection, z=coset_variable)


def fiducial_overlap_sq(label: CosetLabel) -> float:
    """The fiducial product S(alpha*, phi) S(alpha, phi), real and positive,

        (x^2+y^2) cosh(2 Im alpha) - (x^2-y^2) sin 2(Re alpha - phi)
            + 2xy cos 2(Re alpha - phi),

    of S(alpha, phi) = x [cos(alpha-phi) - sin(alpha-phi)] + y [cos + sin]
    and S(alpha*, phi) = conj(S(alpha, phi)).  Its phase cancels in every
    probability, so only the product is computed."""
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


def _cat_amps(alpha, z: complex) -> tuple[float, float]:
    weight = math.exp(-abs(complex(alpha)) ** 2 / 2.0)
    return weight, weight


# Projection of an even/odd Schroedinger cat state onto a circle state:
#     even: c_n = (2pi)^(-1) e^(-|alpha|^2/2) atilde^(2n)  / sqrt((2n)!)
#     odd:  c_n = (2pi)^(-1) e^(-|alpha|^2/2) atilde^(2n+1)/ sqrt((2n+1)!)
# with atilde = alpha e^(i phi), fed to fock_series as z = 2 atilde to drop
# its /2.  Unnormalized cat convention (the Gaussian weight, not the
# 1/sqrt(2 +- 2e^(-2|alpha|^2)) normalization).
cat_projection = SlotMap(
    z=lambda alpha, label: 2.0 * (complex(alpha) * cmath.exp(1j * label.phi)),
    amps=_cat_amps,
    prefactor=1.0 / TWO_PI,
    overflow=lambda alpha, label: (
        f"cat displacement |alpha| = {abs(complex(alpha)):g} overflows |alpha|^2 in "
        "the weight e^(-|alpha|^2/2) or a series term alpha^k / sqrt(k!)"
    ),
)
