"""Stable scalar kernels shared by every state and probability computation.

All the infinite series in this package reduce to factorial-weighted powers
of a disk variable, optionally damped by Gaussian weights, plus the two
Jacobi theta constants needed by the cylinder degeneracy limits.  The
kernels here are pure and deterministic.  Every sum, squared norm
(``stable_norm_sq``) and inner product (``stable_inner``) is one exactly
rounded ``math.fsum`` over per-element products, so it does not depend on
summation order and reruns are bit-for-bit identical; the elementwise
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


def stable_inner(x: np.ndarray, y: np.ndarray) -> complex:
    """<x, y> = sum conj(x_n) y_n, real and imaginary parts each an exactly
    rounded sum of per-element products.  The real part is formed exactly as
    in :func:`abs_sq`, so stable_inner(x, x) == stable_norm_sq(x)."""
    xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    return complex(
        math.fsum((xr * yr + xi * yi).tolist()), math.fsum((xr * yi - xi * yr).tolist())
    )
