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
from dataclasses import dataclass

import numpy as np

# Default truncation per summation axis.  Factorial decay makes the
# discarded tail < 1e-25 for every |z| <= 2 used by the sweep defaults.
DEFAULT_TERMS = 40

_EXACT_FACTORIAL_MAX = 20


def check_truncation(terms) -> int:
    """``terms`` as an int: the one check of a series truncation, which
    must be an integer >= 1 and not a bool."""
    if isinstance(terms, bool) or not isinstance(terms, (int, np.integer)):
        raise ValueError(f"truncation must be an integer, got {terms!r}")
    if terms < 1:
        raise ValueError(f"truncation must be >= 1, got {terms}")
    return int(terms)


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
    """ln(n!), exact-product based for n <= 20, lgamma above.

    Relative error is < 1e-14 up to n = 10^4.
    """
    if n < 0:
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
    q = float(q)
    if not (0.0 <= q < 1.0):
        raise ValueError(f"theta series requires 0 <= q < 1, got {q}")
    return q


def theta3(q: float, terms: int = DEFAULT_TERMS) -> SeriesValue:
    """Jacobi theta constant  theta_3(0, q) = 1 + 2 sum_{n>=1} q^(n^2).

    Direct series; no modular transformations.  The only nome this package
    needs in anger is q = e^-8, deep in the fast-convergence regime, and
    q <= 0.9 keeps the geometric tail bound meaningful.
    """
    q = _check_nome(q)
    if q == 0.0:
        return SeriesValue(1.0, terms, 0.0)
    total = 1.0 + math.fsum(2.0 * q ** (n * n) for n in range(1, terms))
    # q^((n+1)^2) / q^(n^2) = q^(2n+1) <= q, so the dropped part is
    # dominated by a geometric series with ratio q.
    tail = 2.0 * q ** (terms * terms) / (1.0 - q)
    return SeriesValue(total, terms, tail)


def theta2(q: float, terms: int = DEFAULT_TERMS) -> SeriesValue:
    """Jacobi theta constant  theta_2(0, q) = 2 sum_{n>=0} q^((n+1/2)^2)."""
    q = _check_nome(q)
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


def block_fsum(slices, point_terms) -> np.ndarray:
    """``math.fsum`` of the non-negative terms (none of them -0.0) of every
    point of a block, bit for bit, in numpy with no Python call per point.

    ``slices`` yields the terms in order as arrays of shape (L, *shape): the
    next L terms of every point of ``shape``, one lane per term (a later
    slice may have fewer lanes).  Each lane runs the TwoSum cascade of
    Ogita, Rump and Oishi ("Sum2", SIAM J. Sci. Comput. 26(6), 2005) over
    its slices, the lanes are then joined pairwise by TwoSum, and the
    result (s, c) by one more: r, f = TwoSum(s, c).

    Certificate.  TwoSum is error-free, so the exact sum is S = s + sum(q)
    over the errors q of the N - 1 TwoSums of partial sums (cascade steps
    and joins), and c is their float sum.  With
    u = 2^-53 and non-negative terms, every float partial sum is at most
    (1 + u)^N S, so sum|q| <= (N - 1) u (1 + u)^N S; each q passes through
    at most 2N float additions on its way into c, so c is within
    gamma_2N sum|q| of sum(q) (Higham's gamma_k = k u/(1 - k u)).  As
    r + f = s + c exactly and |f| <= u r,

        |S - (r + f)| <= 2.3 N^2 u^2 S < B = 4 N^2 u^2 r

    for any N u <= 2^-5.  B is taken in floats: 4 N^2 u^2 is exact, and the
    product rounds down by at most a factor 1 - u, or below 2^-1074, where
    the error S - (r + f), a multiple of 2^-1074 smaller than B, is 0.  Let
    g be the gap from r to its lower neighbour, for r >= 0 the smaller of
    its two gaps.  Where 2 (|f| + B) < g, |S - r| < g/2 on either side of
    r, so r is S correctly rounded and not a tie: fsum's result.  The test
    is written in that form because g/2 rounds to 0 at g = 2^-1074, where
    an exact zero (f = B = 0) must still pass.

    Fallback.  Every other point, ties and non-finite sums (whose f is NaN)
    among them, is ``math.fsum(point_terms(index))`` over the terms of the
    point at ``index`` of ``shape``, and raises where fsum raises.
    """
    # an overflowing or non-finite sum gets a NaN f, which the certificate rejects
    with np.errstate(over="ignore", invalid="ignore"):
        r, f, terms = _sum2(iter(slices))
    for index in zip(*np.nonzero(~_certified(r, f, terms))):
        r[index] = math.fsum(point_terms(index))
    return r


def row_norms_sq(block: np.ndarray) -> np.ndarray:
    """:func:`stable_norm_sq` of each row of the 2-D ``block``, bit for bit:
    the |entries|^2 are formed once over the block, then one ``math.fsum``
    per row, which raises where that row's sum overflows.  (A
    :func:`block_fsum` over the block's rows took about as long at 64 rows
    of 40 terms, and 20x as long for a single row.)"""
    return np.array([math.fsum(row) for row in abs_sq(block).tolist()])


def _sum2(slices) -> tuple[np.ndarray, np.ndarray, int]:
    """r, f and N of :func:`block_fsum`: the lanes' cascades over
    ``slices``, their pairwise joins and the final TwoSum(s, c)."""
    s = np.array(next(slices), dtype=float)
    c = np.zeros_like(s)
    terms = len(s)
    for t in slices:
        lanes = len(t)
        a = s[:lanes]
        x = a + t
        z = x - a
        c[:lanes] += (a - (x - z)) + (t - z)
        s[:lanes] = x
        terms += lanes
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
    return r, (s - (r - z)) + (c - z), terms


def _certified(r: np.ndarray, f: np.ndarray, terms: int) -> np.ndarray:
    """Where r is fsum's result (see :func:`block_fsum`): 2 (|f| + B) < g."""
    bound = (4.0 * terms * terms * 2.0**-106) * r
    return 2.0 * (np.abs(f) + bound) < r - np.nextafter(r, -np.inf)


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
