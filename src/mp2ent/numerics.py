"""Stable scalar kernels shared by every state and probability computation.

All the infinite series in this package reduce to factorial-weighted powers
of a disk variable, optionally damped by Gaussian weights, plus the two
Jacobi theta constants needed by the cylinder degeneracy limits.  The
kernels here are pure and deterministic.  Every sum, squared norm
(``stable_norm_sq``, or ``row_norms_sq`` for each row of a block) and inner
product (``stable_inner``, its terms ``inner_terms``) is exactly rounded, so
it does not depend on summation order and reruns are bit-for-bit
identical: one ``math.fsum`` over per-element products, or, for the
non-negative terms of a block of points (``block_fsum``), a vectorized
error-free cascade whose result is certified equal to fsum's, with fsum
itself at any point the certificate does not cover.  The elementwise
exp/log/lgamma come from the platform's math library.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Default truncation per summation axis.  Factorial decay makes the
# discarded tail < 1e-25 for every |z| <= 2 used by the sweep defaults.
DEFAULT_TERMS = 40

_EXACT_FACTORIAL_MAX = 20


def check_truncation(terms) -> int:
    """``terms`` as an int: the one check of a series truncation, which
    must be an integer >= 1 and not a bool."""
    if type(terms) is int and terms >= 1:  # the common case, in one test
        return terms
    if isinstance(terms, bool) or not isinstance(terms, (int, np.integer)):
        raise ValueError(f"truncation must be an integer, got {terms!r}")
    if terms < 1:
        raise ValueError(f"truncation must be >= 1, got {terms}")
    return int(terms)


def check_real(value, where: str) -> float:
    """``value`` as a float: the one check of a real parameter (a sweep
    bound or fixed value, a pair's phase rho, a theta nome), which must be
    a real number and not a bool."""
    # float first: for a float, the numbers.Real check alone would cost
    # several times the rest of the call
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):
        raise ValueError(f"{where} must be a real number, got {value!r}")
    return float(value)


def check_complex(value, where: str) -> complex:
    """``value`` as a complex: the one check of a complex parameter (a disk
    variable, a coset label's alpha, a cat displacement), which must be a
    number and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (complex, float, numbers.Complex)):
        raise ValueError(f"{where} must be a complex number, got {value!r}")
    return complex(value)


def check_finite_real(value, where: str) -> float:
    """:func:`check_real`, and then the float must be finite."""
    value = check_real(value, where)
    if not math.isfinite(value):
        raise ValueError(f"{where} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class SeriesValue:
    """A truncated series: value, retained order, and a rigorous bound on
    the discarded remainder."""

    value: complex | float
    order: int
    tail_bound: float

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("series order must be >= 1")
        if not (self.tail_bound >= 0.0):
            raise ValueError("tail_bound must be non-negative")


# ln(k!) for k = 0, 1, ...; read-only, replaced by a longer copy on demand
_LOG_FACTORIALS = np.zeros(0)


def log_factorial(n: int) -> float:
    """ln(n!), exact-product based for n <= 20, lgamma above, for an
    integer n >= 0 (not a bool).

    Relative error is < 1e-14 up to n = 10^4.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError("n must be a non-negative integer")
    if n <= _EXACT_FACTORIAL_MAX:
        return math.log(math.factorial(n)) if n > 1 else 0.0
    return math.lgamma(n + 1)


def log_factorial_array(max_k: int) -> np.ndarray:
    """[ln(0!), ln(1!), ..., ln(max_k!)]: a read-only view of one shared
    table, regrown (at least doubling) when ``max_k`` passes its end."""
    global _LOG_FACTORIALS
    if len(_LOG_FACTORIALS) <= max_k:
        size = max(max_k + 1, 2 * len(_LOG_FACTORIALS), 64)
        _LOG_FACTORIALS = np.array([log_factorial(k) for k in range(size)])
        _LOG_FACTORIALS.setflags(write=False)
    return _LOG_FACTORIALS[: max_k + 1]


def _check_nome(q: float) -> float:
    q = check_real(q, "theta nome q")
    if not (0.0 <= q < 1.0):
        raise ValueError(f"theta series requires 0 <= q < 1, got {q}")
    return q


def theta3(q: float, terms: int = DEFAULT_TERMS) -> SeriesValue:
    """Jacobi theta constant  theta_3(0, q) = 1 + 2 sum_{n>=1} q^(n^2).

    Direct series; no modular transformations.  The only nome this package
    needs in anger is q = e^-8, deep in the fast-convergence regime, and
    q <= 0.9 keeps the geometric tail bound meaningful.
    """
    q, terms = _check_nome(q), check_truncation(terms)
    if q == 0.0:
        return SeriesValue(1.0, terms, 0.0)
    total = 1.0 + math.fsum(2.0 * q ** (n * n) for n in range(1, terms))
    # q^((n+1)^2) / q^(n^2) = q^(2n+1) <= q, so the dropped part is
    # dominated by a geometric series with ratio q.
    tail = 2.0 * q ** (terms * terms) / (1.0 - q)
    return SeriesValue(total, terms, tail)


def theta2(q: float, terms: int = DEFAULT_TERMS) -> SeriesValue:
    """Jacobi theta constant  theta_2(0, q) = 2 sum_{n>=0} q^((n+1/2)^2)."""
    q, terms = _check_nome(q), check_truncation(terms)
    if q == 0.0:
        return SeriesValue(0.0, terms, 0.0)
    total = math.fsum(2.0 * q ** ((n + 0.5) ** 2) for n in range(terms))
    tail = 2.0 * q ** ((terms + 0.5) ** 2) / (1.0 - q)
    return SeriesValue(total, terms, tail)


def abs_sq(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr)
    return arr.real**2 + arr.imag**2


def stable_norm_sq(arr: np.ndarray) -> float:
    """Sum of |entries|^2, exactly rounded."""
    return math.fsum(abs_sq(arr).ravel().tolist())


def block_fsum(slices, point_terms, rest=0.0, remaining=None) -> np.ndarray:
    """``math.fsum`` of the non-negative terms (none of them -0.0) of every
    point of a block, bit for bit, in numpy with no Python call per point.

    ``slices`` yields the terms in order as arrays of shape (L, *shape): the
    next L terms of every point of ``shape``, one lane per term (a later
    slice may have fewer lanes).  Each lane runs the TwoSum cascade of
    Ogita, Rump and Oishi ("Sum2", SIAM J. Sci. Comput. 26(6), 2005) over
    its slices, the lanes are then joined pairwise by TwoSum, and the
    result (s, c) by one more: r, f = TwoSum(s, c).  The slices may stop at
    a cut K short of the N terms fsum is to sum: then ``rest`` (broadcast to
    ``shape``) bounds each point's sum of the N - K terms past the cut, and
    ``remaining(index)`` yields those terms of the points at ``index``
    (``np.nonzero``'s arrays, or () for the whole block) as ``slices`` does,
    in slices of at most the first slice's lanes.

    Certificate.  TwoSum is error-free, so the exact sum of the K terms
    summed is S_K = s + sum(q) over the errors q of the K - 1 TwoSums of
    partial sums (cascade steps and joins), and c is their float sum.  With
    u = 2^-53 and non-negative terms, every float partial sum is at most
    (1 + u)^K S_K, so sum|q| <= (K - 1) u (1 + u)^K S_K; each q passes
    through at most 2K float additions on its way into c, so c is within
    gamma_2K sum|q| of sum(q) (Higham's gamma_k = k u/(1 - k u)).  As
    r + f = s + c exactly and |f| <= u r,

        |S_K - (r + f)| <= 2.3 K^2 u^2 S_K < B = 4 K^2 u^2 r

    for any K u <= 2^-5.  B is taken in floats: 4 K^2 u^2 is exact, and the
    product rounds down by at most a factor 1 - u, or below 2^-1074, where
    the error S_K - (r + f), a multiple of 2^-1074 smaller than B, is 0.
    The float |f| + B is at least |f| + 2.3 K^2 u^2 S_K, as B's slack of
    1.7 K^2 u^2 r covers that addition's rounding (at most u (|f| + B)).
    The skipped terms add T to the exact sum S = S_K + T, 0 <= T <= rest.
    Let g be the gap from r to its lower neighbour, for r >= 0 the smaller
    of its two gaps.  Where 2 (|f| + B + rest) < g in floats, the rounded
    sums being monotone and g/2 a float, |S - r| <= |f| + B + rest < g/2 on
    either side of r, so r is S correctly rounded and not a tie: fsum's
    result.  The test is written in that form because g/2 rounds to 0 at
    g = 2^-1074, where an exact zero (f = B = rest = 0) must still pass.

    Remainder.  :func:`mp2ent.entangle_circle.pair_norm_grid` sums the
    float terms t_k = |w_k|^2 of w_k = a_k + phi b_k, two slots a, b and a
    complex phi per point, and bounds their sum past K through the suffix
    sums A = sum_(k>=K) |a_k|^2 and V of b taken over each slot's float
    |c_k|^2 by a running sum (:func:`suffix_bound`).  Writing eta = 2^-1075
    for the largest error of an underflowing product or square: phi b_k is
    within sqrt(2) gamma_2 |phi| |b_k| + 2 sqrt(2) (1 + u) eta of its value,
    so |w_k| <= (1 + u) (|a_k| + (1 + sqrt(2) gamma_2) |phi| |b_k|
    + 2.9 eta) and t_k <= (1 + u)^2 |w_k|^2 + 2 (1 + u) eta, which gives
    sqrt(t_k) <= (1 + 5u) (|a_k| + |phi| |b_k|) + 2^-536.9.  Minkowski's
    inequality over the m = N - K skipped terms then bounds sqrt(T) by
    (1 + 5u) (|a| + |phi| |b|) + sqrt(m) 2^-536.9, |a| and |b| the exact l^2
    norms of the skipped entries.  Each float |c_k|^2 is at least
    (1 - u)^2 |c_k|^2 - 2 eta and the running sum at least (1 - u)^(m - 1)
    times its exact sum, so |a| <= (sqrt(A) + sqrt(2 m eta))
    /(1 - u)^((m + 1)/2), and so for b.  ``abs`` (hypot) is within 2u of
    |phi|, and taking sqrt(A) + |phi| sqrt(V), the slack and the square
    adds a few roundings more: all the relative factors together stay
    below 1 + (m + 30) u, so

        T <= (sqrt(A) + |phi| sqrt(V) + sqrt(m) 2^-535 (1 + |phi|))^2
             (1 + 2 (N + 16) u).

    The slack sqrt(m) 2^-535 (1 + |phi|) is added only where some skipped
    entry of a or b is nonzero: elsewhere every skipped term is exactly 0
    (phi finite; a non-finite phi makes the bound NaN, never certified), so
    all-zero slots keep a bound of exactly 0.

    Second stage.  The points the cut's certificate does not cover (those
    whose sum cancels to far below its slots' norms, an exact zero among
    them, or ties) continue their lanes' cascades over the N - K remaining
    terms, a cascade over all N terms, and are certified again, with K = N
    and rest = 0: the whole block when no point was certified, else the
    gathered points alone.  Every point that fails this too (or the one
    certificate where nothing is cut), ties and non-finite sums (whose f is
    NaN) among them, is ``math.fsum(point_terms(index))`` over the N terms
    of the point at ``index`` of ``shape``, and raises where fsum raises.
    """
    # an overflowing or non-finite sum gets a NaN f, which the certificate rejects
    with np.errstate(over="ignore", invalid="ignore"):
        s, c, terms = _cascade(iter(slices))
        # the second stage continues the lanes, so the join takes a copy
        r, f = _join(s.copy(), c.copy()) if remaining is not None else _join(s, c)
        todo = ~_certified(r, f, terms, rest)
        if remaining is not None and todo.any():
            index = () if todo.all() else np.nonzero(todo)
            at = (slice(None), *index)
            s, c, terms = _cascade(iter(remaining(index)), (s[at], c[at], terms))
            r_all, f = _join(s, c)
            r[index] = r_all
            todo[index] = ~_certified(r_all, f, terms, 0.0)
    for index in zip(*np.nonzero(todo)):
        r[index] = math.fsum(point_terms(index))
    return r


def suffix_bound(a: np.ndarray, b: np.ndarray, phi_abs: np.ndarray):
    """The cut K and the bound ``rest`` of :func:`block_fsum`'s Remainder
    for the N terms |a_k + phi b_k|^2 of slot arrays ``a`` and ``b`` (the N
    terms on the last axis) and |phi| ``phi_abs``, which broadcast.

    K is the least index past which every slot of ``a`` and ``b`` holds at
    most u^2 of its float |c|^2 sum (at least 1), read from the slots'
    reversed running sums; ``rest`` is 0 at K = N."""
    terms = a.shape[-1]
    sums = [np.cumsum(abs_sq(x)[..., ::-1], axis=-1)[..., ::-1] for x in (a, b)]
    small = np.ones(terms + 1, bool)
    for s in sums:
        small[:terms] &= (s <= 2.0**-106 * s[..., :1]).reshape(-1, terms).all(axis=0)
    cut = max(1, int(np.argmax(small)))
    if cut == terms:
        return cut, 0.0
    m = terms - cut
    s_a, s_b = (s[..., cut] for s in sums)
    nonzero = np.any(a[..., cut:] != 0.0, axis=-1) | np.any(b[..., cut:] != 0.0, axis=-1)
    slack = np.where(nonzero, math.sqrt(m) * 2.0**-535 * (1.0 + phi_abs), 0.0)
    root = np.sqrt(s_a) + phi_abs * np.sqrt(s_b) + slack
    return cut, root * root * (1.0 + 2.0 * (terms + 16) * 2.0**-53)


def row_norms_sq(block: np.ndarray) -> np.ndarray:
    """:func:`stable_norm_sq` of each row of the 2-D ``block``, bit for bit:
    the |entries|^2 are formed once over the block, then one ``math.fsum``
    per row, which raises where that row's sum overflows.  (A
    :func:`block_fsum` over the block's rows took about as long at 64 rows
    of 40 terms, and 20x as long for a single row.)"""
    return np.array([math.fsum(row) for row in abs_sq(block).tolist()])


def _cascade(slices, state=None) -> tuple:
    """The lanes' state (s, c, N) of :func:`block_fsum`: their TwoSum
    cascades over ``slices``, continuing ``state`` (in place) if given, N
    the terms summed so far."""
    if state is None:
        s = np.array(next(slices), dtype=float)
        state = s, np.zeros_like(s), len(s)
    s, c, terms = state
    for t in slices:
        lanes = len(t)
        a = s[:lanes]
        x = a + t
        z = x - a
        c[:lanes] += (a - (x - z)) + (t - z)
        s[:lanes] = x
        terms += lanes
    return s, c, terms


def _join(s: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r, f of :func:`block_fsum`: the lanes (s, c) joined pairwise by
    TwoSum, in place (so a lane state to be continued is joined as a copy),
    and then r, f = TwoSum(s, c)."""
    width = len(s)
    while width > 1:
        half = (width + 1) // 2
        a, b = s[: width - half], s[half:width]
        x = a + b
        z = x - a
        c[: width - half] += c[half:width] + ((a - (x - z)) + (b - z))
        s[: width - half] = x
        width = half
    s, c = s[0], c[0]
    r = s + c
    z = r - s
    return r, (s - (r - z)) + (c - z)


def _certified(r: np.ndarray, f: np.ndarray, terms: int, rest) -> np.ndarray:
    """Where r is fsum's result (see :func:`block_fsum`): 2 (|f| + B + rest) < g."""
    bound = (4.0 * terms * terms * 2.0**-106) * r
    return 2.0 * (np.abs(f) + bound + rest) < r - np.nextafter(r, -np.inf)


def inner_terms(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-element products conj(x) y as real and imaginary arrays, of
    the shape of ``x`` and ``y``: the terms of each exactly rounded inner
    product (:func:`stable_inner`, or a row of a block).  The real part is
    formed exactly as in :func:`abs_sq`, so a vector's inner product with
    itself is its :func:`stable_norm_sq`."""
    xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    return xr * yr + xi * yi, xr * yi - xi * yr


def stable_inner(x: np.ndarray, y: np.ndarray) -> complex:
    """<x, y> = sum conj(x_n) y_n, real and imaginary parts each an exactly
    rounded sum of the :func:`inner_terms`."""
    re, im = inner_terms(x, y)
    return complex(math.fsum(re.tolist()), math.fsum(im.tolist()))
