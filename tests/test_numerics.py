import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mp2ent import numerics
from mp2ent.cat_compare import coherent_fock_vector
from mp2ent.numerics import (
    SeriesValue,
    abs_sq,
    block_fsum,
    log_factorial,
    suffix_bound,
    theta2,
    theta3,
)
from mp2ent.states import Parity, fock_series


class TestLogFactorial:
    def test_trivial_values(self):
        assert log_factorial(0) == 0.0
        assert log_factorial(1) == 0.0

    def test_small_exact(self):
        assert log_factorial(5) == pytest.approx(math.log(120), abs=1e-15)

    @pytest.mark.parametrize("n", [30, 100, 1000, 10_000])
    def test_large_against_summed_logs(self, n):
        reference = math.fsum(math.log(k) for k in range(2, n + 1))
        assert abs(log_factorial(n) - reference) <= 1e-14 * reference

    @given(st.integers(min_value=1, max_value=500))
    def test_difference_identity(self, n):
        assert log_factorial(n) - log_factorial(n - 1) == pytest.approx(
            math.log(n), rel=1e-12, abs=1e-12
        )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            log_factorial(-1)


def power_term(z, k):
    """(z/2)^k / sqrt(k!): Fock term k of the one series builder at unit
    sector amplitudes and no weight, truncated just past k."""
    parity = Parity.ODD if k % 2 else Parity.EVEN
    return fock_series(complex(z), (1.0, 1.0), parity, k // 2 + 2).terms[k // 2]


class TestPowerTerm:
    """The factorial-weighted powers (z/2)^k / sqrt(k!) every slot is made
    of, read off states.fock_series, whose ln(k!) comes from this module."""

    def test_k_zero_is_one(self):
        assert power_term(3.7 - 2.1j, 0) == 1.0
        assert power_term(0.0, 0) == 1.0

    def test_zero_base(self):
        assert power_term(0.0, 3) == 0.0

    def test_hand_values(self):
        assert power_term(2.0, 2) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
        assert power_term(1.0 + 0.0j, 4) == pytest.approx(
            0.5**4 / math.sqrt(24.0), rel=1e-12
        )

    def test_direct_arithmetic_oracle(self):
        z = 1.3 - 0.4j
        for k in range(0, 30):
            direct = (z / 2.0) ** k / math.sqrt(math.factorial(k))
            assert power_term(z, k) == pytest.approx(direct, rel=1e-12)

    @given(
        st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=199),
    )
    @example(z=complex(2.0, 5e-324), k=0)  # an angle that underflows
    def test_recurrence(self, z, k):
        lhs = power_term(z, k + 1)
        rhs = power_term(z, k) * (z / 2.0) / math.sqrt(k + 1)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-300)

    def test_vector_matches_scalar(self):
        # the coherent-state vector interleaves the same terms at z = 2 alpha
        alpha = 0.4 + 0.15j
        vec = coherent_fock_vector(alpha, 50) * math.exp(abs(alpha) ** 2 / 2.0)
        for k in range(50):
            assert vec[k] == pytest.approx(power_term(2.0 * alpha, k), rel=1e-13)


class TestTheta:
    def test_trivial_nome(self):
        assert theta3(0.0).value == 1.0
        assert theta2(0.0).value == 0.0

    def test_anchor_values(self):
        q = math.exp(-8.0)
        assert theta3(q).value == pytest.approx(1.00067093, abs=1e-7)
        assert theta2(q).value == pytest.approx(0.27067057, abs=1e-7)

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for q in (math.exp(-8.0), 0.1, 0.5, 0.9):
            assert theta3(q, 80).value == pytest.approx(
                float(mpmath.jtheta(3, 0, q)), rel=1e-12
            )
            assert theta2(q, 80).value == pytest.approx(
                float(mpmath.jtheta(2, 0, q)), rel=1e-12
            )

    def test_self_consistency_within_tail(self):
        coarse, fine = theta3(0.5, 40), theta3(0.5, 80)
        assert abs(coarse.value - fine.value) <= coarse.tail_bound
        assert abs(coarse.value - fine.value) <= 1e-12

    def test_theta2_hand_sum_within_tail(self):
        q = 0.25
        hand = 2.0 * sum(q ** ((n + 0.5) ** 2) for n in range(5))
        tv = theta2(q, 5)
        assert abs(tv.value - hand) <= 1e-15
        assert abs(theta2(q, 60).value - hand) <= tv.tail_bound

    def test_rejects_divergent_nome(self):
        for q in (1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                theta3(q)
            with pytest.raises(ValueError):
                theta2(q)

    @settings(max_examples=60)
    @given(st.floats(min_value=0.0, max_value=0.9), st.floats(min_value=0.0, max_value=0.9))
    def test_monotone_nondecreasing(self, qa, qb):
        lo, hi = sorted((qa, qb))
        assert theta3(hi).value >= theta3(lo).value - 1e-15
        assert theta2(hi).value >= theta2(lo).value - 1e-15
        assert theta3(lo).value >= 1.0
        assert theta2(lo).value >= 0.0

    def test_tail_bound_covers_refinement(self):
        for q in (0.1, 0.5, 0.8):
            for n in (5, 10, 20):
                coarse = theta3(q, n)
                fine = theta3(q, 4 * n)
                assert abs(fine.value - coarse.value) <= coarse.tail_bound


class TestSeriesValue:
    def test_rejects_negative_tail(self):
        with pytest.raises(ValueError):
            SeriesValue(1.0, 10, -1e-3)

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            SeriesValue(1.0, 0, 0.0)


def _outcome(call):
    """call()'s result, or the type and text of the exception it raised."""
    try:
        return call()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _block_fsum(points, lanes, column=False):
    """block_fsum over ``points`` (each a list of its terms), fed ``lanes``
    terms per slice, the points laid out as (G,) or, with ``column``,
    (G, 1); and the points where it fell back to fsum."""
    terms = np.array(points, dtype=float).T
    if column:
        terms = terms[:, :, None]
    fallbacks = []

    def point_terms(index):
        fallbacks.append(index)
        return terms[(slice(None), *index)].tolist()

    slices = (terms[k : k + lanes] for k in range(0, len(terms), lanes))
    return _outcome(lambda: block_fsum(slices, point_terms).ravel().tolist()), fallbacks


def _fsum_each(points):
    """math.fsum of each point, or the first point's fsum exception."""
    sums = [_outcome(lambda: math.fsum(terms)) for terms in points]
    return next((s for s in sums if isinstance(s, tuple)), sums)


def _same(got, expected):
    if isinstance(expected, tuple):
        return got == expected
    return np.array(got).tobytes() == np.array(expected).tobytes()


# non-negative terms: zeros, subnormals, every binary exponent, inf
TERM = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=2.0**-1022),
    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, 1023)),
    st.floats(min_value=0.0, allow_nan=False),
)


@st.composite
def _point(draw, n):
    """n terms: arbitrary, or (n >= 3) an exact tie x + ulp(x)/2, or a tie
    pushed just above by one tiny term, in any order among zeros."""
    if n < 3 or draw(st.booleans()):
        return draw(st.lists(TERM, min_size=n, max_size=n))
    x = draw(st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
                       st.integers(-1000, 1000)))
    tie = [x, math.ulp(x) / 2.0, math.ulp(x) * 2.0**-70 if draw(st.booleans()) else 0.0]
    return draw(st.permutations(tie + [0.0] * (n - 3)))


class TestBlockFsum:
    """numerics.block_fsum must be math.fsum of each point bit for bit,
    whatever the lanes per slice: its certificate where it holds, else
    fsum itself, raising as fsum raises."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_fsum_bit_for_bit(self, data):
        n = data.draw(st.integers(1, 45), label="N")
        points = data.draw(st.lists(_point(n), min_size=1, max_size=6), label="points")
        lanes = data.draw(st.integers(1, n + 2), label="lanes")
        got, _ = _block_fsum(points, lanes, data.draw(st.booleans(), label="column"))
        assert _same(got, _fsum_each(points))

    @pytest.mark.parametrize("lanes", [1, 2, 3, 64])
    @pytest.mark.parametrize(
        "points",
        [
            [[0.0], [5e-324], [1.0], [math.inf]],  # N = 1
            [[0.0] * 40, [0.0] * 40],  # all-zero points
            [[5e-324] * 3, [2.0**-1022 - 5e-324, 5e-324, 0.0], [2.0**-1060] * 3],
            [[2.0**600, 2.0**-600, 1.0, 0.0], [2.0**-300, 1.0, 2.0**200, 2.0**-900]],
            [[math.inf, 1.0, 2.0], [1.0, 2.0, math.inf]],
            [[1.0, 2.0**-53, 0.0], [1.5, 2.0**-53, 0.0], [2.0**-53, 0.0, 1.0]],  # exact ties
            [[1.0, 2.0**-53, 2.0**-200], [2.0**-200, 2.0**-53, 1.0]],  # just above a tie
            [[1.0, 2.0], [1.7e308, 1.7e308]],  # fsum overflows: raised as fsum raises
        ],
        ids=["N=1", "zeros", "subnormals", "spread", "inf", "ties", "above-tie", "overflow"],
    )
    def test_edge_cases_equal_fsum(self, points, lanes):
        got, _ = _block_fsum(points, lanes)
        assert _same(got, _fsum_each(points))

    @pytest.mark.parametrize("lanes", [1, 4, 40])
    def test_exact_zeros_and_plain_sums_need_no_fallback(self, lanes):
        # 2 (|f| + B) < g passes an exact zero, where |f| + B < g/2 cannot
        # (g/2 = 2^-1075 rounds to 0)
        points = [[0.0] * 40, [1.0 + k for k in range(40)], [2.0**-k for k in range(40)]]
        got, fallbacks = _block_fsum(points, lanes)
        assert fallbacks == []
        assert _same(got, _fsum_each(points))

    def test_ties_fall_back(self):
        got, fallbacks = _block_fsum([[1.0, 2.0**-53], [1.0, 2.0**-52]], 1)
        assert fallbacks == [(0,)]
        assert got == [1.0, 1.0 + 2.0**-52]


def _cut_fsum(points, cut, rest, lanes):
    """block_fsum over ``points`` (each a list of its N terms) cut after
    ``cut`` terms, ``rest`` bounding each point's terms past it, fed
    ``lanes`` terms per slice (at most K, the lanes of the first); and the
    points where it fell back to fsum."""
    terms, lanes = np.array(points, dtype=float).T, min(lanes, cut)
    fallbacks = []

    def point_terms(index):
        fallbacks.append(index)
        return terms[(slice(None), *index)].tolist()

    def slices(start, stop, index=()):
        at = (slice(None), *index)
        return (terms[k : min(k + lanes, stop)][at] for k in range(start, stop, lanes))

    got = _outcome(lambda: block_fsum(
        slices(0, cut), point_terms, np.array(rest), lambda index: slices(cut, len(terms), index)
    ).ravel().tolist())
    return got, fallbacks


def _upper(x: Fraction) -> float:
    """The least float >= x (x >= 0), or inf."""
    try:
        f = float(x)
    except OverflowError:
        return math.inf
    return f if Fraction(f) >= x else math.nextafter(f, math.inf)


def _rest(skipped, kind, scale=0):
    """A bound on the sum of ``skipped``: exact (its exact sum rounded up),
    loose (that times 2^scale, plus the least subnormal) or zero."""
    exact = math.inf if math.inf in skipped else _upper(sum(map(Fraction, skipped), Fraction(0)))
    if kind == "exact":
        return exact
    if kind == "loose":
        return exact * 2.0**scale + 5e-324
    assert exact == 0.0
    return 0.0


class TestBlockFsumCut:
    """block_fsum over the first K of N terms, with a bound on the rest,
    must still be math.fsum over all N terms bit for bit, and fall back to
    fsum only where the cascade over all N terms would (its second stage
    takes every point the cut leaves uncertified)."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_fsum_over_all_terms(self, data):
        n = data.draw(st.integers(2, 45), label="N")
        cut = data.draw(st.integers(1, n - 1), label="K")
        points = data.draw(st.lists(_point(n), min_size=1, max_size=6), label="points")
        kind = data.draw(st.sampled_from(["exact", "loose", "zero"]), label="rest")
        if kind == "zero":
            points = [p[:cut] + [0.0] * (n - cut) for p in points]
        scale = data.draw(st.integers(0, 60), label="scale")
        rest = [_rest(p[cut:], kind, scale) for p in points]
        lanes = min(cut, data.draw(st.integers(1, n + 2), label="lanes"))
        got, fallbacks = _cut_fsum(points, cut, rest, lanes)
        assert _same(got, _fsum_each(points))
        if cut % lanes == 0 and not isinstance(got, tuple):
            # the same lanes as one cascade over all N terms
            assert fallbacks == _block_fsum(points, lanes)[1]

    @pytest.mark.parametrize("lanes", [1, 2, 40])
    @pytest.mark.parametrize(
        ("points", "cut", "second", "fallback"),
        [
            # a tie within the first K terms that a skipped term breaks
            ([[1.0, 2.0**-53, 0.0, 2.0**-60], [2.0**-53, 1.0, 2.0**-61, 0.0]], 2, [0, 1], []),
            # skipped terms that are subnormal
            ([[1e-310, 0.0, 5e-324, 5e-324], [2.0**-1022, 5e-324, 0.0, 0.0]], 2, [0], []),
            # exact zeros: none skipped, or nonzero terms only past the cut
            ([[0.0] * 40, [1.0] + [0.0] * 39, [0.0] * 39 + [1e-300]], 10, [2], []),
            # a tie left by both stages, and one only the cut leaves
            ([[1.0, 0.0, 2.0**-53], [1.0, 2.0**-52, 0.0]], 1, [0, 1], [(0,)]),
        ],
        ids=["tie-broken", "subnormal", "zeros", "tie-kept"],
    )
    def test_edge_cases_equal_fsum(self, points, cut, second, fallback, lanes, monkeypatch):
        calls = []
        real = numerics._certified

        def spy(r, f, terms, rest):
            calls.append(real(r, f, terms, rest))
            return calls[-1]

        monkeypatch.setattr(numerics, "_certified", spy)
        got, fallbacks = _cut_fsum(points, cut, [_rest(p[cut:], "exact") for p in points], lanes)
        assert _same(got, _fsum_each(points))
        assert np.flatnonzero(~calls[0]).tolist() == second
        assert len(calls) == 1 + bool(second)
        assert fallbacks == fallback


# slot entries: zeros, and both signs over exponents from the normal range
# down to where |c|^2 underflows
ENTRY = st.one_of(
    st.just(0.0),
    st.builds(
        lambda m, e, neg: (-1.0 if neg else 1.0) * math.ldexp(m, e),
        st.floats(0.5, 1.0, exclude_max=True), st.integers(-600, 40), st.booleans(),
    ),
)


def _slot(n):
    return st.lists(st.builds(complex, ENTRY, ENTRY), min_size=n, max_size=n).map(np.array)


class TestSuffixBound:
    """numerics.suffix_bound: rest bounds the float terms |a_k + phi b_k|^2
    past the cut, as pair_norm_grid forms them, underflow included."""

    @staticmethod
    def _check(a, b, phi):
        n = len(a)
        terms = abs_sq(a + phi * b)
        with np.errstate(invalid="ignore", over="ignore"):
            cut, rest = suffix_bound(a, b, np.abs(phi))
        assert 1 <= cut <= n
        skipped = sum(map(Fraction, terms[cut:].tolist()), Fraction(0))
        if cut == n:
            assert rest == 0.0
        elif math.isfinite(rest):
            assert Fraction(float(rest)) >= skipped
        # and the cut sum is fsum's over all N terms
        column = terms[:, None]
        got = block_fsum(
            (column[:cut],), lambda index: terms.tolist(), rest,
            lambda index: (column[k : k + cut][(slice(None), *index)] for k in range(cut, n, cut)),
        )
        assert got.tobytes() == np.array([math.fsum(terms.tolist())]).tobytes()
        return cut, rest

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bounds_the_skipped_terms(self, data):
        n = data.draw(st.integers(2, 45), label="N")
        a, b = data.draw(_slot(n), label="a"), data.draw(_slot(n), label="b")
        phi = data.draw(st.builds(complex, ENTRY, ENTRY), label="phi")
        self._check(a, b, phi)

    def test_skipped_terms_whose_squares_underflow_are_bounded(self):
        # |b_k|^2 underflows to 0 past the cut, so the suffix sums are 0,
        # but phi b_k does not: every skipped term is 1e-320 or so
        a = np.array([1e-160] + [0.0] * 39, complex)
        b = np.array([0.0] + [1e-170] * 39, complex)
        cut, rest = self._check(a, b, 1e10 + 0j)
        assert cut == 1 and rest > 0.0

    def test_all_zero_skipped_entries_keep_a_zero_bound(self):
        # an odd slot at z = 0 is all zero; only the first entry is nonzero
        a = np.array([1.0] + [0.0] * 39, complex)
        assert self._check(a, np.zeros(40, complex), 0.5 + 0j) == (1, 0.0)
