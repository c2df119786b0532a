"""Exact decimal text of float64 arrays in whole-array numpy passes.

:func:`float_text` writes every value of an array exactly as
``float.__repr__`` (``shortest``) or ``format(x, ".17g")`` writes it, one
NUL-padded row of ``WIDTH`` bytes per value, and :func:`compact` joins such
rows into bytes.  The per-value calls take the bignum path of Gay's dtoa
(D. M. Gay, "Correctly Rounded Binary-Decimal and Decimal-Binary
Conversions", 1990); here the decimal digits come from the exact scaled
value x 10^k in double-double arithmetic (T. J. Dekker, "A floating-point
technique for extending the available precision", Numer. Math. 18, 1971).

Digits.  For 1e-26 <= x < 1e15 let E = floor(log10 x), as the log gives
it, and k = 18 - E <= 45, so that 10^k = hi + lo exactly in doubles.
Dekker's TwoProduct (split by 2^27 + 1, as numpy has no fma) gives
x hi = p1 + e1 exactly, so x 10^k = p1 + R with R = e1 + x lo; p1 is an
integer, and R, evaluated in doubles, is within 4e-13 of its exact value
(|R| < 2200).  Then D = floor(x 10^k) = int(p1) + floor(R) has 19 digits
where E is right.  '%.17g' rounds D to 17 digits.  repr takes the fewest
digits p whose nearest p-digit decimal lies strictly within the half-ulp
h = 2^(e - 54) 10^k of x (e from ``frexp``; h lies in (55, 1110] in D's
units): p = 17 always does, and p = 16, then 15, are tried on the values
that qualified at p + 1, as qualifying is monotone in p.  No smaller p
needs a pass: a value within h of its 15-digit decimal c 10^4 is within h
of no other multiple of 10^4, as 2h < 10^4, so a shorter decimal within h
can only be c 10^4 itself, and repr's digits are c without its trailing
zeros, the 17-digit integer c 100 whatever their count.  Ties cannot
occur: each rounding drops an even power of ten and the fraction of
x 10^k is certified non-zero.

Certificate (:func:`_certified`).  The fast path holds where D lies in
[10^18, 10^19) (so E was right), R's fraction is at least 1e-6 from an
integer, every distance tried is more than 1e-6 from h, and x is not a
power of two (whose rounding interval is asymmetric).  Where x 10^k is an
integer its fraction is 0, so no such x is certified: not an integral x,
and not any x >= 1e15, where ulp(x) 10^k is an integer; hence the range's
top.  So the fast path never writes repr's ``.0`` of an
integral value, and its exponents stay below 15.  Nor does it write a
value whose digits round up to 10^17, which would carry into the exponent.
0.0 is a constant; every other value (-0.0, negatives, subnormals,
x < 1e-26, x >= 1e15, non-finite and uncertified values) is the per-value
call itself.

Text.  A row holds every byte a fast-path text can have, in six 8-byte
words: ``\\0 0.000 d0 .`` (the lead of 0.000ddd, then the first digit and
its point slot), four words of four digits each followed by its point
slot, then ``e±XX``.  A mask, one per significant-digit count and decimal
exponent X, keeps the bytes of the value's own text and NULs the rest:
exponent form where X < -4, positional otherwise.
"""

from __future__ import annotations

import numpy as np

# bytes in a value's row; a per-value text takes at most 24
# ('-2.2250738585072014e-308')
WIDTH = 48

_LO, _HI = 1e-26, 1e15
# 10^k = _P10_HI[k] + _P10_LO[k] exactly, for the k = 18 - E the range reaches
_P10_HI = np.array([float(10**k) for k in range(46)])
_P10_LO = np.array([float(10**k - int(h)) for k, h in enumerate(_P10_HI.tolist())])
_SPLIT = 134217729.0  # 2^27 + 1
_U10 = np.array([10**k for k in range(20)], dtype=np.uint64)


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


_P10 = (_P10_HI, *_split(_P10_HI))

# a row's first and last words (see the module docstring); d0, the sign and
# the exponent digits are written per value at their byte offsets
_LEAD = np.frombuffer(b"\0" b"0.000" b"0.", np.uint64)[0]
_TAIL = np.frombuffer(b"e+00" b"\0\0\0\0", np.uint64)[0]
_D0, _SIGN, _TENS = 6, 41, 42
# the four digits of 0 .. 9999, as "d.d.d.d." (each digit with its point
# slot), and the number of trailing zeros among them
_DIGITS4 = np.full((10000, 8), ord("."), np.uint8)
_DIGITS4[:, ::2] = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
_DIGITS4 = _DIGITS4.view(np.uint64).ravel()
_TRAILING4 = sum(np.arange(10000) % step == 0 for step in (10, 100, 1000, 10000)).astype(np.uint8)

# the decimal exponents of the fast path's leading digits
_X_MIN, _X_MAX = -27, 14


def _masks() -> np.ndarray:
    """Column (X - _X_MIN) 18 + nd of row w: the mask word w that keeps the
    bytes of the text of a non-integral value with nd significant digits
    and decimal exponent X."""
    x = np.arange(_X_MIN, _X_MAX + 1)[:, None, None]
    nd = np.arange(18)[None, :, None]
    byte = np.arange(WIDTH)[None, None, :]
    expo = x < -4
    # the lead 0.000, 1 - X bytes of it
    lead = (1 <= byte) & (byte <= 1 - x) & ~expo & (x < 0)
    # digit i at byte 6 + 2i, its point slot at 7 + 2i
    i, slot = np.divmod(byte - _D0, 2)
    body = (_D0 <= byte) & (byte < _D0 + 34)
    point = np.where(expo, np.where(nd > 1, 0, -1), x)
    digit = body & (slot == 0) & (i < nd)
    dot = body & (slot == 1) & (i == point)
    exponent = (40 <= byte) & (byte < 44) & expo
    keep = lead | digit | dot | exponent
    return (keep * np.uint8(255)).view(np.uint64).reshape(-1, WIDTH // 8).T.copy()


_MASKS = _masks()
_ZERO_TEXT = {True: b"0.0", False: b"0"}


def float_text(values: np.ndarray, shortest: bool) -> np.ndarray:
    """An (n, WIDTH) uint8 array: row i the ASCII text of ``values[i]``,
    NUL-padded, equal to ``float.__repr__`` if ``shortest``, else to
    ``format(x, ".17g")``."""
    x = np.asarray(values, dtype=float).ravel()
    c17, exp10, ok = _digits(x, shortest)
    text = _text(c17, exp10)
    zero = (x == 0.0) & ~np.signbit(x)
    text[zero] = np.frombuffer(_ZERO_TEXT[shortest].ljust(WIDTH, b"\0"), np.uint8)
    for i in np.flatnonzero(~ok & ~zero).tolist():
        v = float(x[i])
        s = (repr(v) if shortest else format(v, ".17g")).encode("ascii")
        text[i] = np.frombuffer(s.ljust(WIDTH, b"\0"), np.uint8)
    return text


def _digits(x: np.ndarray, shortest: bool):
    """Each value's significant digits as an integer in [10^16, 10^17),
    zero-padded to 17, the decimal exponent of the first, and where the
    fast path holds (elsewhere 10^16 and 0)."""
    fast = (x >= _LO) & (x < _HI)
    xs = np.where(fast, x, 1.0)
    k = 18 - np.floor(np.log10(xs)).astype(np.intp)
    p1, e1 = _two_product(xs, *(np.take(t, k) for t in _P10))
    r = e1 + xs * np.take(_P10_LO, k)
    floor = np.floor(r)
    # p1 < 2^64 (a D outside [10^18, 10^19) is rejected by the certificate)
    d = np.minimum(p1, 1.8e19).astype(np.uint64) + floor.astype(np.int64).view(np.uint64)
    frac = r - floor
    # D rounded to 17 digits: the digits of '%.17g', and repr's at p = 17
    c17 = (d + np.uint64(50)) // _U10[2]
    margin = np.full(x.shape, np.inf)
    if shortest:
        mantissa, e = np.frexp(xs)
        c17 = _shortest(d, frac, np.ldexp(np.take(_P10_HI, k), e - 54), c17, margin)
        margin[mantissa == 0.5] = 0.0  # a power of two
    # a carry: in practice the log overestimates E so close below 10^(E+1)
    # that D is out of range, but the value falls back whatever the log
    ok = fast & _certified(d, frac, margin) & (c17 < _U10[17])
    return np.where(ok, c17, _U10[16]), np.where(ok, 18 - k, 0), ok


def _two_product(a, b, b_hi, b_lo):
    """p, e with p + e = a b exactly (Dekker; b = b_hi + b_lo is b's split)."""
    p = a * b
    a_hi, a_lo = _split(a)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _certified(d: np.ndarray, frac: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """Where the digits taken from D are exact: D in [10^18, 10^19), its
    fraction and every |distance - h| tried (``margin``) clear of 1e-6."""
    return (
        (d >= _U10[18]) & (d < _U10[19]) & (frac >= 1e-6) & (frac <= 1.0 - 1e-6) & (margin > 1e-6)
    )


def _shortest(d, frac, h, best: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """repr's digits as a 17-digit integer, from ``best``, D's 17 digits;
    ``margin`` takes the least |distance - h| tried (p = 16 and 15 only,
    see the module docstring)."""
    live = np.arange(d.size)
    for p in (16, 15):
        step = _U10[19 - p]
        dl = d[live]
        c = (dl + step // np.uint64(2)) // step
        dist = np.abs((c * step - dl).view(np.int64).astype(float) - frac[live])
        hl = h[live]
        margin[live] = np.minimum(margin[live], np.abs(dist - hl))
        within = dist < hl
        live = live[within]
        best[live] = c[within] * _U10[17 - p]
    return best


def _text(c17: np.ndarray, exp10: np.ndarray) -> np.ndarray:
    """The rows of the values of digits ``c17`` and exponents ``exp10``."""
    # c17 = d0 10^16 + c1 10^12 + c2 10^8 + c3 10^4 + c4
    high, low = np.divmod(c17, _U10[8])
    chunks = [a.astype(np.intp) for a in (*np.divmod(high, _U10[4]), *np.divmod(low, _U10[4]))]
    chunks[:1] = np.divmod(chunks[0], 10000)
    trailing = np.zeros(c17.shape, np.intp)
    zeros = np.ones(c17.shape, bool)
    for chunk in chunks[:0:-1]:
        trailing += zeros * np.take(_TRAILING4, chunk)
        zeros &= chunk == 0
    pattern = (exp10 - _X_MIN) * 18 + 17 - trailing
    words = np.empty((c17.size, WIDTH // 8), np.uint64)
    words[:, 0] = _LEAD
    for w, chunk in enumerate(chunks[1:], 1):
        words[:, w] = np.take(_DIGITS4, chunk)
    words[:, 5] = _TAIL
    text = words.view(np.uint8)
    text[:, _D0] = chunks[0] + ord("0")
    mag = np.abs(exp10)
    text[:, _SIGN] = np.where(exp10 < 0, ord("-"), ord("+"))
    text[:, _TENS] = mag // 10 + ord("0")
    text[:, _TENS + 1] = mag % 10 + ord("0")
    for w, masks in enumerate(_MASKS):
        words[:, w] &= np.take(masks, pattern)
    return text


def byte_rows(strings: list[str]) -> np.ndarray:
    """An (n, w) uint8 array: row i the ASCII bytes of ``strings[i]``,
    NUL-padded to the longest."""
    encoded = [s.encode("ascii") for s in strings]
    width = max(map(len, encoded))
    return np.array(encoded, dtype=f"S{width}").view(np.uint8).reshape(len(encoded), width)


def compact(rows: np.ndarray) -> bytes:
    """The bytes of NUL-padded byte rows, in order, without the NULs."""
    return rows.tobytes().translate(None, b"\0")
