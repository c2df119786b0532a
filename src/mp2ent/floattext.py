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
units): p = 17 always does, and p = 16 and 15 are tried on every value,
p = 15 counting only where p = 16 qualified, as qualifying is monotone in
p.  No smaller p
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
words, each taken from a table: the lead ``\\0 0.000 d0 .`` (the lead of
0.000ddd, then the first digit and its point slot) from one of ten, by the
first digit d0; four words of four digits, each followed by its point
slot, from one of 10^4; and the exponent word from one of 42, by the
decimal exponent X: ``e-XX`` where X < -4 (exponent form), empty where the
text is positional.  A mask, one per significant-digit count and X, keeps
the bytes of the value's own text in the first five words and NULs the
rest.  The words are written straight into the caller's buffer, where one
is given: the grid writers' lines, between the text around each value.
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

# a row's lead word, ``\\0 0.000 d0 .``, for each first digit d0, and its
# exponent word, ``e±XX`` below X = -4 and empty from there (see the module
# docstring), for each decimal exponent X of the fast path's leading digits
_X_MIN, _X_MAX = -27, 14
_LEADS = np.frombuffer(b"".join(b"\0" b"0.000" + b"%d." % d for d in range(10)), np.uint64)
_EXPONENTS = np.frombuffer(b"".join(
    (b"e%+03d" % x if x < -4 else b"").ljust(8, b"\0") for x in range(_X_MIN, _X_MAX + 1)
), np.uint64)
_D0 = 6
# the four digits of 0 .. 9999, as "d.d.d.d." (each digit with its point
# slot), and the number of trailing zeros among them
_DIGITS4 = np.full((10000, 8), ord("."), np.uint8)
_DIGITS4[:, ::2] = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
_DIGITS4 = _DIGITS4.view(np.uint64).ravel()
_TRAILING4 = sum(np.arange(10000) % step == 0 for step in (10, 100, 1000, 10000)).astype(np.uint8)


def _masks() -> np.ndarray:
    """Column (X - _X_MIN) 18 + nd of row w: the mask word w (the lead and
    the four digit words) that keeps the bytes of the text of a
    non-integral value with nd significant digits and decimal exponent X."""
    x = np.arange(_X_MIN, _X_MAX + 1)[:, None, None]
    nd = np.arange(18)[None, :, None]
    byte = np.arange(_D0 + 34)[None, None, :]
    expo = x < -4
    # the lead 0.000, 1 - X bytes of it
    lead = (1 <= byte) & (byte <= 1 - x) & ~expo & (x < 0)
    # digit i at byte 6 + 2i, its point slot at 7 + 2i
    i, slot = np.divmod(byte - _D0, 2)
    body = _D0 <= byte
    point = np.where(expo, np.where(nd > 1, 0, -1), x)
    digit = body & (slot == 0) & (i < nd)
    dot = body & (slot == 1) & (i == point)
    keep = lead | digit | dot
    return (keep * np.uint8(255)).view(np.uint64).reshape(-1, 5).T.copy()


_MASKS = _masks()
_ZERO_TEXT = {True: b"0.0", False: b"0"}


def float_text(values: np.ndarray, shortest: bool, out: np.ndarray | None = None) -> np.ndarray:
    """An (n, WIDTH) uint8 array: row i the ASCII text of ``values[i]``,
    NUL-padded, equal to ``float.__repr__`` if ``shortest``, else to
    ``format(x, ".17g")``.  Its words are written into ``out``, an
    (n, WIDTH // 8) uint64 array (rows of a caller's buffer), if given."""
    x = np.asarray(values, dtype=float).ravel()
    words = np.empty((x.size, WIDTH // 8), np.uint64) if out is None else out
    c17, xi, ok = _digits(x, shortest)
    _write(c17, xi, words)
    zero = x.view(np.uint64) == 0  # 0.0, not -0.0
    words[zero] = np.frombuffer(_ZERO_TEXT[shortest].ljust(WIDTH, b"\0"), np.uint64)
    rest = np.flatnonzero(~(ok | zero))
    if rest.size:
        text = float.__repr__ if shortest else lambda v: format(v, ".17g")
        rows = np.array([text(v) for v in x[rest].tolist()], f"S{WIDTH}")
        words[rest] = rows.view(np.uint64).reshape(rest.size, -1)
    return words.view(np.uint8)


def _digits(x: np.ndarray, shortest: bool):
    """Each value's significant digits as an integer in [10^16, 10^17),
    zero-padded to 17, the decimal exponent X of the first less _X_MIN,
    and where the fast path holds (elsewhere 10^16 and -_X_MIN)."""
    fast = (x >= _LO) & (x < _HI)
    xs = np.where(fast, x, 1.0)
    k = 18 - np.floor(np.log10(xs)).astype(np.intp)
    hi = _P10_HI[k]
    p1, e1 = _two_product(xs, hi, *(t[k] for t in _P10[1:]))
    r = e1 + xs * _P10_LO[k]
    floor = np.floor(r)
    # p1 < 2^64 (a D outside [10^18, 10^19) is rejected by the certificate)
    d = np.minimum(p1, 1.8e19).astype(np.uint64) + floor.astype(np.int64).view(np.uint64)
    frac = r - floor
    # D rounded to 17 digits: the digits of '%.17g', and repr's at p = 17
    c17 = (d + np.uint64(50)) // _U10[2]
    if shortest:
        mantissa, e = np.frexp(xs)
        c17, margin = _shortest(d, frac, np.ldexp(hi, e - 54), c17)
        margin[mantissa == 0.5] = 0.0  # a power of two
    else:
        margin = np.full(x.shape, np.inf)
    # a carry: in practice the log overestimates E so close below 10^(E+1)
    # that D is out of range, but the value falls back whatever the log
    ok = fast & _certified(d, frac, margin) & (c17 < _U10[17])
    return np.where(ok, c17, _U10[16]), np.where(ok, 18 - _X_MIN - k, -_X_MIN), ok


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


def _shortest(d, frac, h, c17: np.ndarray):
    """repr's digits as a 17-digit integer, from ``c17``, D's 17 digits,
    and the least |distance - h| tried (see the module docstring).  Both
    passes run over every value; p = 15's counts where p = 16 qualified."""
    c16, gap16, within16 = _rounded(d, frac, h, 16)
    c15, gap15, within15 = _rounded(d, frac, h, 15)
    margin = np.where(within16, np.minimum(gap16, gap15), gap16)
    best = np.where(within16, np.where(within15, c15 * _U10[2], c16 * _U10[1]), c17)
    return best, margin


def _rounded(d, frac, h, p: int):
    """D's nearest p-digit decimal, as an integer, its |distance - h| and
    whether the distance is within h."""
    step = _U10[19 - p]
    c = (d + step // np.uint64(2)) // step
    dist = np.abs((c * step - d).view(np.int64).astype(float) - frac)
    return c, np.abs(dist - h), dist < h


def _write(c17: np.ndarray, xi: np.ndarray, words: np.ndarray) -> None:
    """Write the rows of the values of digits ``c17`` and decimal exponents
    ``xi`` + _X_MIN into the (n, WIDTH // 8) uint64 ``words``."""
    # c17 = d0 10^16 + c1 10^12 + c2 10^8 + c3 10^4 + c4, split in int64
    # (c17 < 10^17 < 2^63), so that every piece indexes a table as it is
    c = c17.view(np.int64)
    high = c // 10**8
    low = c - high * 10**8
    top = high // 10**4
    d0 = top // 10**4
    mid = low // 10**4
    chunks = (top - d0 * 10**4, high - top * 10**4, mid, low - mid * 10**4)
    # the trailing zeros of c1 .. c4: the last chunk's own, plus those of
    # the chunks before it where it is 0
    trailing = _TRAILING4[chunks[0]]
    for chunk in chunks[1:]:
        trailing = _TRAILING4[chunk] + (chunk == 0) * trailing
    pattern = xi * 18 + 17 - trailing
    for w, (table, index) in enumerate(zip((_LEADS,) + (_DIGITS4,) * 4, (d0, *chunks))):
        np.bitwise_and(table[index], _MASKS[w][pattern], out=words[:, w])
    words[:, 5] = _EXPONENTS[xi]


def byte_rows(strings: list[str]) -> np.ndarray:
    """An (n, w) uint8 array: row i the ASCII bytes of ``strings[i]``,
    NUL-padded to the longest."""
    encoded = [s.encode("ascii") for s in strings]
    width = max(map(len, encoded))
    return np.array(encoded, dtype=f"S{width}").view(np.uint8).reshape(len(encoded), width)


def compact(rows: np.ndarray) -> bytes:
    """The bytes of NUL-padded byte rows, in order, without the NULs."""
    return rows.tobytes().translate(None, b"\0")
