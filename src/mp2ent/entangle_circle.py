"""Entangled pairs of London (circle) states projected onto Mp(2) sector pairs.

The entangled pair carries a control phase rho; its projection onto a sector
pair (s1, s2) has coefficients over the two sector indices (n, m)

    c_nm = 1/2 [ u_n(phi) u_m(phi') - e^(i rho) u_n(phi') u_m(phi) ]

built from the single-state projection series (bra side, conjugated).  The
probability of a sector pair is the l^2 norm  P = sum |c_nm|^2.

Every family's pair matrix has the rank-2 form  c = p (u1 (x) u2 + f v1 (x) v2)
(f the phase), so P is computed in O(N) without building c.  Projecting
v1 = mu u1 + r with mu = <u1, v1>/|u1|^2 and r orthogonal to u1 gives

    c/p = u1 (x) (u2 + f mu v2) + f r (x) v2,
    P   = p^2 ( |u1|^2 |u2 + f mu v2|^2 + |f|^2 |r|^2 |v2|^2 ),

two orthogonal terms, so no cancellation happens between them; each norm
and inner product is an exactly rounded math.fsum of N products.
:func:`pair_norm_grid` evaluates the same expressions over a sweep grid, a
block of axis1 rows at a time in numpy, each item an array of length 1
along an axis it does not read (:func:`mp2ent.grids.run_sweep` builds and
shapes them), broadcast; the (u1, v1) projection is taken a slot batch at
a time (:func:`projections`), and the |w|^2 sums
are :func:`~mp2ent.numerics.block_fsum`'s, certified equal to fsum's bit
for bit, with fsum itself at any point the certificate does not cover.  With
u = 2^-53 and S = p^2 (|u1| |u2| + |f| |v1| |v2|)^2 (so P <= S), a
first-order rounding analysis (complex products to sqrt(2) gamma_2, the
projection error |d mu| <= 8 u |v1|/|u1|, |d r| <= 13 u |v1|,
|u1| |d(u2 + f mu v2)| <= 15 u sqrt(S)/p) bounds the error by

    |norm_sq - P| <= 56 u sqrt(P S) + 13 u P + O(u^2 S),

barring underflow.  Where the two rank-one terms cancel (P << S) this is far
below the u S of the Gram form |u1|^2 |u2|^2 + |v1|^2 |v2|^2 + 2 Re(...).
The exactly rounded sum over the materialised ``entries`` is within
16 u sqrt(P S) + 3 u P + O(u^2 S) of P and stays the tests' reference.
Coincident pairs at rho = 0 (v1 = u1, v2 = u2, f = -1) give mu = 1, r = 0
and u2 - v2 = 0 exactly, so P = 0 exactly.  The tail bound of every path is
one body, :func:`pair_tail`, and the closed forms' Gram form another,
:func:`gram_form`; each takes Python scalars (per point) or arrays (grids).
The grid kernels and their batch builders (:func:`projections`,
:func:`gram_halves`) raise a point's plain exception and name no point;
:func:`mp2ent.grids.run_sweep` names it by replaying the per-point path.

Sign convention: the swapped term enters with -e^(i rho), i.e. the control
phase is measured from the antipodal point.  This is the convention in which
coincident-angle pairs cancel exactly at rho = 0 and every coincident-limit
probability factorizes as (1 - cos rho); the closed forms below are the
series-validated ("corrected") ones in the same convention.  The verbatim
printed variants live in :mod:`mp2ent.verify` for reconciliation.

Every probability here is in the prefactor-stripped convention (no 2pi
factors); :mod:`mp2ent.grids` applies a family's prefactor^4 under
``convention="full"``.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .numerics import (
    DEFAULT_TERMS,
    SeriesValue,
    abs_sq,
    block_fsum,
    inner_terms,
    row_norms_sq,
    stable_inner,
    stable_norm_sq,
)
from .states import (
    CircleLabel,
    CoefficientSequence,
    Mp2Variable,
    Parity,
    SlotBatch,
    SlotMap,
    as_circle_label,
    as_mp2,
    mp2_circle_projection,
)


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
        return _SECTOR_PARITIES[self]

    @classmethod
    def parse(cls, text: str) -> "SectorPair":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(f"unknown sector pair {text!r}; use pp|pm|mm|total") from None


_SECTOR_PARITIES = {
    SectorPair.PP: (Parity.EVEN, Parity.EVEN),
    SectorPair.PM: (Parity.EVEN, Parity.ODD),
    SectorPair.MM: (Parity.ODD, Parity.ODD),
}


# cosh for the even sector, sinh for the odd one, indexed by the Parity
_SECTOR_FUNCS = (cmath.cosh, cmath.sinh)


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
        object.__setattr__(self, "phi", as_circle_label(self.phi))
        object.__setattr__(self, "phi_prime", as_circle_label(self.phi_prime))
        object.__setattr__(self, "rho", float(self.rho))
        if not math.isfinite(self.rho):
            raise ValueError(f"pair phase rho must be finite, got {self.rho}")

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
    """Oscillator-pair coefficients of a projected entangled state, kept in
    their rank-2 form

        c_nm = p (u1_n u2_m + phase v1_n v2_m)

    as the four slot sequences (u1, u2, v1, v2), each conjugated when
    ``conjugate`` is set.  The N x N ``entries`` are built only when read.
    """

    slots: tuple[
        CoefficientSequence, CoefficientSequence, CoefficientSequence, CoefficientSequence
    ] = field(repr=False)
    phase: complex
    amp_prefactor: float
    conjugate: bool
    tail_bound: float

    def __post_init__(self) -> None:
        if not (self.tail_bound >= 0.0):
            raise ValueError("tail_bound must be non-negative")

    @functools.cached_property
    def entries(self) -> np.ndarray:
        conj = np.conj if self.conjugate else np.asarray
        u1, u2, v1, v2 = (conj(slot.terms) for slot in self.slots)
        entries = self.amp_prefactor * (np.outer(u1, u2) + self.phase * np.outer(v1, v2))
        entries.setflags(write=False)
        return entries

    def norm_sq(self) -> float:
        """sum |c_nm|^2 in O(N), by the projected form of the module docstring."""
        u1, u2, v1, v2 = self.slots
        # |conj(c)| = |c|: work on the unconjugated slots with conj(phase)
        phase = self.phase.conjugate() if self.conjugate else self.phase
        uu, mu, rr = _projection(u1, v1)
        w = u2.terms + (phase * mu) * v2.terms
        p = self.amp_prefactor
        return p * p * (uu * stable_norm_sq(w) + abs(phase) ** 2 * rr * v2.norm_sq())

    def series_value(self) -> SeriesValue:
        """P = sum |c_nm|^2 at this truncation, with the matrix's tail bound."""
        return SeriesValue(self.norm_sq(), len(self.slots[0]), self.tail_bound)


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
    slots = (slot1_u, slot2_u, slot1_v, slot2_v)
    tail = pair_tail(amp_prefactor, [s.norm_sq() for s in slots], [s.tail_bound for s in slots])
    return CoefficientMatrix(
        slots, swap_sign * cmath.exp(1j * rho), amp_prefactor, conjugate, tail
    )


def pair_tail(p, n, t):
    """2 p^2 (B(u1, u2) + B(v1, v2)),  B(a, b) = N(a) T(b) + T(a) N(b) + T(a) T(b):
    the bound on sum |c_nm|^2 outside the retained square of
    c = p (u1 (x) u2 + f v1 (x) v2), |f| = 1, from the squared norms ``n``
    and tail bounds ``t`` of (u1, u2, v1, v2), Python floats or arrays."""
    (n_u1, n_u2, n_v1, n_v2), (t_u1, t_u2, t_v1, t_v2) = n, t
    return 2.0 * p**2 * (
        n_u1 * t_u2 + t_u1 * n_u2 + t_u1 * t_u2 + (n_v1 * t_v2 + t_v1 * n_v2 + t_v1 * t_v2)
    )


# The four slots of a pair as (variable, label) indices into (first, second,
# label, label'): u1 = (first, label), u2 = (second, label'),
# v1 = (first, label'), v2 = (second, label).  A slot of ``first`` takes the
# pair's first sector, one of ``second`` its second.
SLOT_ROLES = ((0, 2), (1, 3), (0, 3), (1, 2))


def slot_parities(pair: SectorPair) -> tuple[Parity | None, Parity | None]:
    """The sectors (p1, p2) of the two halves; (None, None) selects the
    grouped total slots of the TOTAL pair."""
    return (None, None) if pair is SectorPair.TOTAL else pair.parities


@dataclass(frozen=True)
class EntangledPair:
    """One family's entangled pair as data: the constants of

        c_nm = p (u1_n u2_m + s e^(i rho) v1_n v2_m)

    the family's slot ``record`` (a :class:`~mp2ent.states.SlotMap`, called
    without its prefactor), the swap sign s, the amplitude prefactor p, and
    whether the slot sequences enter conjugated (bra side).  Each family
    declares its pair once; its ``coefficient_matrix*``, its closed form and
    the grids all read that declaration.
    """

    record: SlotMap
    swap_sign: float
    amp_prefactor: float
    conjugate: bool = True

    def matrix(
        self, first, second, label, label_prime, pair: SectorPair, terms: int, rho: float
    ) -> CoefficientMatrix:
        """The one pair builder every family goes through: the four
        :data:`SLOT_ROLES` slots, each one state's sector sequence (p1 for
        ``first``, p2 for ``second``) or the grouped total slot (even + odd)
        for the TOTAL pair, combined in :func:`pair_matrix`."""
        parts, parities = (first, second, label, label_prime), slot_parities(pair)
        return pair_matrix(
            *(self.record(parts[var], parts[lab], parities[var], terms, False)
              for var, lab in SLOT_ROLES),
            rho, self.swap_sign, self.amp_prefactor, self.conjugate,
        )

    def closed_form(
        self, first, second, label, label_prime, pair: SectorPair, rho: float,
        terms: int = DEFAULT_TERMS,
    ) -> float:
        """:func:`pair_closed_form` of this pair."""
        return pair_closed_form(
            self.record, first, second, label, label_prime, pair, rho,
            self.swap_sign, self.amp_prefactor, terms,
        )


def _projection(u1: CoefficientSequence, v1: CoefficientSequence) -> tuple[float, complex, float]:
    """|u1|^2, mu = <u1, v1>/|u1|^2 and |r|^2 = |v1 - mu u1|^2 of the module
    docstring, each exactly rounded: :func:`projections` at one point, on
    the same :func:`~mp2ent.numerics.inner_terms`.  (Not its batch of one:
    the per-call array overhead would slow the per-point paths, verify
    among them.)"""
    uu = u1.norm_sq()
    mu = stable_inner(u1.terms, v1.terms) / uu if uu > 0.0 else 0j
    return uu, mu, stable_norm_sq(v1.terms - mu * u1.terms)


def projections(u1: SlotBatch, v1: SlotBatch) -> tuple[np.ndarray, ...]:
    """The projection item of :func:`pair_norm_grid` at each row of two
    slot batches of one length: the columns |u1|^2, mu = <u1, v1>/|u1|^2
    (0 where |u1|^2 is 0), |r|^2 = |v1 - mu u1|^2, T(u1), N(v1) and T(v1).

    |u1|^2 is u1's norm column.  <u1, v1> takes the
    :func:`~mp2ent.numerics.inner_terms` of the whole blocks and one
    exactly rounded fsum per row for each part, as
    :func:`~mp2ent.numerics.stable_inner` does for one: these terms have
    both signs, which :func:`~mp2ent.numerics.block_fsum`'s certificate
    does not cover.  |r|^2 is one :func:`~mp2ent.numerics.row_norms_sq`
    over the block.
    """
    (uu, t_u1, x), (n_v1, t_v1, y) = u1, v1
    inner = zip(*(part.tolist() for part in inner_terms(x, y)), uu.tolist())
    mu = np.array(
        [complex(math.fsum(re), math.fsum(im)) / n if n > 0.0 else 0j for re, im, n in inner],
        complex,
    )
    return uu, mu, row_norms_sq(y - mu[:, None] * x), t_u1, n_v1, t_v1


def pair_norm_grid(form: EntangledPair, blocks) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """:meth:`CoefficientMatrix.norm_sq` and the :func:`pair_matrix` tail
    bound of ``form`` at every point of a grid, a block of rows at a time.

    ``blocks`` yields, block by block, the arrays of its points' items
    (:func:`mp2ent.grids.run_sweep`): the projection as :func:`projections`
    columns, u2 and v2 each as (N, T, terms), and the phase s e^(i rho) as a
    1-tuple, each of shape (rows or 1, columns or 1) (terms with a trailing
    axis), 1 along an axis the item does not read; they broadcast to the
    block.  w = u2 + f mu v2 is formed a slice of terms at a time over the
    whole block, f mu in real arithmetic in CPython's order, and |w|^2
    summed by :func:`~mp2ent.numerics.block_fsum`, which is fsum's result
    bit for bit (a point its certificate does not cover is one fsum of that
    point's terms).  A slice holds about _SLICE_POINTS values, or one term
    of every point of a larger block, so no array of the block's size times
    N is formed.  Every float expression is that of pair_matrix and norm_sq,
    and the tail is :func:`pair_tail`'s, so each value and tail is the
    per-point one bit for bit.  Yields, row by row, the values and the tail
    bounds of the row's points.
    """
    p = form.amp_prefactor
    for (uu, mu, rr, t_u1, n_v1, t_v1), (n_u2, t_u2, u2), (n_v2, t_v2, v2), (f,) in blocks:
        # f conjugated on the bra side, and |f|^2
        f = f.conj() if form.conjugate else f
        f_sq = np.reshape([abs(phase) ** 2 for phase in f.ravel().tolist()], f.shape)
        fmu = np.empty(np.broadcast_shapes(f.shape, mu.shape), complex)
        fmu.real = f.real * mu.real - f.imag * mu.imag
        fmu.imag = f.real * mu.imag + f.imag * mu.real
        shape = np.broadcast_shapes(fmu.shape, u2.shape[:-1], v2.shape[:-1])
        terms = u2.shape[-1]
        lanes = min(terms, max(1, _SLICE_POINTS // math.prod(shape)))
        # broadcast views, the terms first: u2[k] is term k at every point
        fmu = np.broadcast_to(fmu, shape)
        u2, v2 = (
            np.broadcast_to(np.ascontiguousarray(np.moveaxis(a, -1, 0)), (terms, *shape))
            for a in (u2, v2)
        )

        def point_terms(index):
            at = (slice(None), *index)
            return abs_sq(u2[at] + fmu[index] * v2[at]).tolist()

        w_sq = block_fsum(
            (abs_sq(u2[k : k + lanes] + fmu * v2[k : k + lanes])
             for k in range(0, terms, lanes)),
            point_terms,
        )
        values = p * p * (uu * w_sq + f_sq * rr * n_v2)
        tails = pair_tail(p, (uu, n_u2, n_v1, n_v2), (t_u1, t_u2, t_v1, t_v2))
        yield from zip(*np.broadcast_arrays(values, tails))


# Values per slice of :func:`pair_norm_grid`: a block of fewer points takes
# several terms per slice, so that a small block, a single row say, is a
# few numpy calls on arrays of about this size and not one per term.
_SLICE_POINTS = 4096


def gram_halves(
    slots: SlotMap, points, parity: Parity | None, terms: int, tails: dict
) -> tuple[np.ndarray, ...]:
    """One half of :func:`pair_closed_form`'s Gram form, with the tail bounds
    the grid reports, at each (var, label, label') of ``points``, as the
    columns N(u), N(v), G(u, v), T(u), T(v) for the slots u = (var, label)
    and v = (var, label') (:func:`gram_entries`), T the bound on a slot's
    dropped l^2 tail.  Raises a ValueError or ArithmeticError wherever a
    point's gram_entries or one of its slots would.

    A sector's G is its whole series, so its T are 0.  The grouped total
    slots' T are their fock_series tails, kept in ``tails`` by (var, label)
    for the whole sweep: the slots it lacks are built by one
    ``slots.batch`` call, which neither reads nor fills the memo that
    serves verify.
    """
    points = list(points)
    halves = [gram_entries(slots, *point, parity, terms) for point in points]
    bounds = [(0.0, 0.0)] * len(points)
    if parity is None:
        new = list(dict.fromkeys(
            (var, lab) for var, *labels in points for lab in labels if (var, lab) not in tails))
        tails.update(zip(new, slots.batch(new, None, terms).tails.tolist()))
        bounds = [(tails[var, lab], tails[var, lab_prime]) for var, lab, lab_prime in points]
    columns = zip(*(half + bound for half, bound in zip(halves, bounds)))
    return tuple(np.array(col, kind) for col, kind in zip(columns, _HALF_KINDS))


# the dtypes of the gram_halves columns N(u), N(v), G(u, v), T(u), T(v)
_HALF_KINDS = (float, float, complex, float, float)


def gram_entries(
    slots: SlotMap, var, label, label_prime, parity: Parity | None, terms: int = DEFAULT_TERMS
) -> tuple[float, float, complex]:
    """N(u), N(v) and G(u, v) of the slots u = (var, label) and
    v = (var, label').

    A sector's G is its whole series, one hyperbolic function.  The grouped
    total slots (``parity`` None) c_n = t_2n + t_(2n+1) give the
    ``terms``-term sum, with A_e, A_o from ``slots.amps``,

        G(a, b) = sum_(n<N) x^(2n)/(2n)! conj(b_n(a)) b_n(b),
        x = conj(z_a) z_b / 4,   b_n(a) = A_e + A_o z_a / (2 sqrt(2n + 1)).
    """
    if slots.g is not None:
        raise ValueError("pair_closed_form needs a record without a log-weight")
    zu, zv = slots.z(var, label), slots.z(var, label_prime)
    if parity is None:
        root = 2.0 * np.sqrt(2.0 * np.arange(terms) + 1.0)
        k = 2.0 * np.arange(1, terms)

        def b_n(z):  # (re, im)
            even, odd = slots.amps(var, z)
            return even + odd * z.real / root, odd * z.imag / root

        def gram(za, zb, ba, bb):
            # x^(2n)/(2n)! by its term ratios, in real arithmetic: at a = b,
            # x and every product are real exactly, so G(a, a) is real
            x = za.conjugate() * zb * 0.25
            w = np.cumprod(np.concatenate(([1.0 + 0j], x * x / ((k - 1.0) * k))))
            cr, ci = ba[0] * bb[0] + ba[1] * bb[1], ba[0] * bb[1] - ba[1] * bb[0]
            return complex(np.sum(w.real * cr - w.imag * ci), np.sum(w.real * ci + w.imag * cr))

        bu, bv = b_n(zu), b_n(zv)
        return gram(zu, zu, bu, bu).real, gram(zv, zv, bv, bv).real, gram(zu, zv, bu, bv)
    f = _SECTOR_FUNCS[parity]
    au, av = slots.amps(var, zu)[parity], slots.amps(var, zv)[parity]
    # conj(z_a)/4, the bra side of every G(a, b) below
    cu, cv = zu.conjugate() * 0.25, zv.conjugate() * 0.25
    gu, gv = (au * au * f(cu * zu)).real, (av * av * f(cv * zv)).real
    return gu, gv, au * av * f(cu * zv)


# The two Gram halves as (variable, label, label') indices into (first,
# second, label, label'): N(u1), N(v1), G(u1, v1) and N(u2), N(v2), G(u2, v2).
GRAM_HALVES = ((0, 2, 3), (1, 3, 2))


def pair_closed_form(
    slots: SlotMap, first, second, label, label_prime, pair: SectorPair,
    rho: float, swap_sign: float, amp_prefactor: float, terms: int = DEFAULT_TERMS,
) -> float:
    """Closed-form twin of :meth:`EntangledPair.matrix` (conjugated slots) for
    any pair of a record without a log-weight g.

    There the sector inner product of two slots a, b is one hyperbolic
    function,

        G(a, b) = <a, b> = A_a A_b f(conj(z_a) z_b / 4),   f = cosh or sinh,

    (cosh for the even sector) with z_a from ``slots.z`` and A_a the sector's
    entry of ``slots.amps``, and that of two grouped total slots a
    ``terms``-term sum (:func:`gram_entries`), so the norm of
    p (u1 u2 + s e^(i rho) v1 v2) is the Gram form

        P = p^2 [ N(u1) N(u2) + N(v1) N(v2)
                  + 2 Re(s e^(i rho) conj(G(u1, v1) G(u2, v2))) ],

    N(a) = Re G(a, a), one :func:`gram_entries` call per half.  Each N is
    evaluated by the same expression as G, so at coincident labels
    (v1 = u1, v2 = u2) the terms cancel bit for bit.
    """
    p1, p2 = slot_parities(pair)
    return gram_form(
        amp_prefactor, *gram_entries(slots, first, label, label_prime, p1, terms),
        *gram_entries(slots, second, label_prime, label, p2, terms),
        swap_sign * cmath.exp(1j * rho),
    )


def gram_form(p, n_u1, n_v1, g1, n_u2, n_v2, g2, phase):
    """The Gram form of :func:`pair_closed_form`, phase = s e^(i rho), on
    Python scalars or arrays.  The complex products are written out in real
    arithmetic in CPython's order (numpy's can round differently), so an
    array entry is the scalar result bit for bit."""
    gram_re = g1.real * g2.real - g1.imag * g2.imag
    gram_im = g1.real * g2.imag + g1.imag * g2.real
    # Re(phase conj(gram)): CPython's re * re - im * (-im), bit for bit
    cross = phase.real * gram_re + phase.imag * gram_im
    return p**2 * (n_u1 * n_u2 + n_v1 * n_v2 + 2.0 * cross)


def pair_closed_form_grid(form: EntangledPair, blocks) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """:func:`pair_closed_form` of ``form`` and the :func:`pair_tail` bound
    of its truncated sums at every point of a grid, a block of rows at a
    time.

    ``blocks`` yields, block by block, the arrays of its points' two halves
    as :func:`gram_halves` columns and of the phase s e^(i rho) as a 1-tuple,
    shaped as for :func:`pair_norm_grid`, which :func:`gram_form` and
    pair_tail broadcast (a sector pair's tail is 0, its T being 0).  Yields,
    row by row, the values and the tail bounds.
    """
    p = form.amp_prefactor
    for (n_u1, n_v1, g1, t_u1, t_v1), (n_u2, n_v2, g2, t_u2, t_v2), (phase,) in blocks:
        values = gram_form(p, n_u1, n_v1, g1, n_u2, n_v2, g2, phase)
        tails = pair_tail(p, (n_u1, n_u2, n_v1, n_v2), (t_u1, t_u2, t_v1, t_v2))
        yield from zip(*np.broadcast_arrays(values, tails))


# the circle pair: conjugated circle slots, -e^(i rho) on the swapped term
CIRCLE_PAIR = EntangledPair(mp2_circle_projection, swap_sign=-1.0, amp_prefactor=0.5)


def coefficient_matrix(
    params: CirclePairParams,
    pair: SectorPair,
    terms: int = DEFAULT_TERMS,
) -> CoefficientMatrix:
    """Coefficient matrix of the projected entangled pair for one sector pair;
    TOTAL uses the grouped total slots."""
    return CIRCLE_PAIR.matrix(
        params.omega, params.sigma, params.phi, params.phi_prime, pair, terms, params.rho
    )


def probability_series(
    params: CirclePairParams,
    pair: SectorPair,
    terms: int = DEFAULT_TERMS,
) -> SeriesValue:
    """Ground-truth oracle: P = sum_nm |c_nm|^2 with a rigorous tail bound."""
    return coefficient_matrix(params, pair, terms).series_value()


def sector_weight(pair: SectorPair, omega, sigma) -> float:
    """The weight 1/2 Zw^(2 s1) Zs^(2 s2) of a sector-pair probability, s the
    sector index of each half: Z^(1/2) per even slot, Z^(3/2) per odd one."""
    (p1, p2), w, s = pair.parities, as_mp2(omega), as_mp2(sigma)
    z1, z2 = 1.0 - w.modulus**2, 1.0 - s.modulus**2
    return 0.5 * z1 ** (2 * p1.sector_index) * z2 ** (2 * p2.sector_index)


def closed_form_P(params: CirclePairParams, pair: SectorPair) -> float:
    """Series-validated closed form of the sector-pair probability:

        P = 1/2 Zw^e1 Zs^e2 { f(a) g(b) - Re[e^(-i rho) f(a e^(-i D)) g(b e^(i D))] }

    a = |omega|^2/4, b = |sigma|^2/4, D = phi - phi', f/g = cosh (even) or
    sinh (odd); it is the Gram form of :func:`pair_closed_form` on the circle
    record.  Expanding the complex cosh/sinh reproduces the hyperbolic/
    trigonometric bracket structure of the printed closed forms with the
    cross-term corrections recorded in the reconciliation report.
    """
    if pair is SectorPair.TOTAL:
        raise ValueError("use closed_form_total for the total pair")
    return CIRCLE_PAIR.closed_form(
        params.omega, params.sigma, params.phi, params.phi_prime, pair, params.rho
    )


def closed_form_total(params: CirclePairParams, terms: int = DEFAULT_TERMS) -> float:
    """Total-pair probability: :func:`pair_closed_form` on the grouped total
    slots, each Gram entry the ``terms``-term sum of :func:`gram_entries`; the
    printed total (verify) with the series-derived cross block."""
    return CIRCLE_PAIR.closed_form(
        params.omega, params.sigma, params.phi, params.phi_prime, SectorPair.TOTAL,
        params.rho, terms,
    )


def limit_coincident(pair: SectorPair, omega, sigma, rho: float) -> float:
    """Coincident-angle limit (phi -> phi'):

        P -> 1/2 Zw^e1 Zs^e2 f(|omega|^2/4) g(|sigma|^2/4) (1 - cos rho),

    separable in rho; all three sector pairs vanish at rho = 0.  It is
    :func:`closed_form_P` at D = 0, where the bracket is (1 - cos rho) f(a) g(b).
    """
    return closed_form_P(CirclePairParams(omega, sigma, 0.0, 0.0, rho), pair)


def limit_orthogonal(pair: SectorPair, omega, sigma, rho: float) -> float:
    """Orthogonal-angle limit (phi -> phi' + pi/2):

        PP: 1/2 (Zw Zs)^(1/2)  { cosh a cosh b - cos a cos b cos rho }
        PM: 1/2 Zw^(1/2) Zs^(3/2) { cosh a sinh b - cos a sin b sin rho }
        MM: 1/2 (Zw Zs)^(3/2)  { sinh a sinh b - sin a sin b cos rho }

    in the Fock offsets o1, o2: cosh/cos for an even half, sinh/sin for an
    odd one, and cos rho where the offsets agree, sin rho where they differ.
    It is :func:`closed_form_P` at D = pi/2, where cosh(-i a) = cos a and
    sinh(-i a) = -i sin a.
    """
    return closed_form_P(CirclePairParams(omega, sigma, math.pi / 2.0, 0.0, rho), pair)


def limit_degenerate(pair: SectorPair, omega, delta: float, rho: float) -> float:
    """Analytic-degeneracy limit (sigma -> omega) at angle difference delta:

        PP: 1/2 Z   { cosh^2 a - cos rho [cosh^2 B - sin^2 Bt] }
        PM: 1/2 Z^2 { cosh a sinh a - cos rho cosh B sinh B - sin rho cos Bt sin Bt }
        MM: 1/2 Z^3 { sinh^2 a - cos rho [sinh^2 B + sin^2 Bt] }

    with a = |omega|^2/4, B = a cos delta, Bt = a sin delta.  It is
    :func:`closed_form_P` at sigma = omega and D = delta: with c = B + i Bt,
    cosh(conj c) cosh(c) = cosh^2 B - sin^2 Bt, sinh(conj c) sinh(c) =
    sinh^2 B + sin^2 Bt and cosh(conj c) sinh(c) = cosh B sinh B + i cos Bt
    sin Bt.  At delta = 0 it is limit_coincident at sigma = omega by
    construction: both evaluate the same call.
    """
    return closed_form_P(CirclePairParams(omega, omega, delta, 0.0, rho), pair)
