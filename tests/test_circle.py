import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mp2ent.cat_compare import CatPairParams, cat_entangled_probability
from mp2ent.entangle_circle import (
    CirclePairParams,
    EntangledPair,
    SectorPair,
    closed_form_P,
    closed_form_total,
    coefficient_matrix,
    limit_coincident,
    limit_degenerate,
    limit_orthogonal,
    probability_series,
    sector_weight,
    slot_parities,
)
from mp2ent.states import (
    CircleLabel,
    CylinderLabel,
    Mp2Variable,
    Parity,
    cat_projection,
    mp2_cylinder_projection,
)

SECTORS = (SectorPair.PP, SectorPair.PM, SectorPair.MM)


def params(w, s, delta, rho, phi_base=0.7):
    return CirclePairParams(
        Mp2Variable(w),
        Mp2Variable(s),
        CircleLabel(phi_base + delta),
        CircleLabel(phi_base),
        rho,
    )


GRID = [
    (m, m, d, r)
    for m in (0.1, 0.5, 0.9)
    for d in (0.0, math.pi / 4.0, math.pi / 2.0)
    for r in (0.0, math.pi / 2.0, math.pi)
]
ASYM = [(0.3, 0.8, 1.1, 2.0), (0.9, 0.2, 0.4, 4.0), (0.6, 0.6, 2.7, 5.5)]


class TestOracleEquivalence:
    @pytest.mark.parametrize("pair", SECTORS)
    def test_closed_form_matches_series_on_grid(self, pair):
        for w, s, d, r in GRID + ASYM:
            p = params(w, s, d, r)
            series = probability_series(p, pair, 40)
            assert abs(closed_form_P(p, pair) - series.value) <= 1e-9 + series.tail_bound

    def test_complex_disk_arguments(self):
        p = CirclePairParams(
            Mp2Variable(0.62 * np.exp(0.4j)),
            Mp2Variable(0.18 * np.exp(-1.1j)),
            CircleLabel(2.6),
            CircleLabel(0.7),
            rho=2.5,
        )
        for pair in SECTORS:
            series = probability_series(p, pair, 40)
            assert closed_form_P(p, pair) == pytest.approx(series.value, abs=1e-13)

    def test_total_matches_series(self):
        for w, s, d, r in [(0.5, 0.5, 0.0, 0.0), (0.5, 0.5, 0.0, math.pi)] + ASYM:
            p = params(w, s, d, r)
            series = probability_series(p, SectorPair.TOTAL, 40)
            assert closed_form_total(p, 40) == pytest.approx(series.value, abs=1e-9)

    def test_total_with_complex_variables(self):
        p = CirclePairParams(
            Mp2Variable(0.5 * np.exp(0.9j)),
            Mp2Variable(0.75 * np.exp(-0.3j)),
            CircleLabel(1.9),
            CircleLabel(0.4),
            rho=1.2,
        )
        series = probability_series(p, SectorPair.TOTAL, 40)
        assert closed_form_total(p, 40) == pytest.approx(series.value, abs=1e-12)


class TestCoincidentBehaviour:
    @pytest.mark.parametrize("pair", SECTORS)
    def test_zero_at_rho_zero(self, pair):
        for w, s in ((0.1, 0.1), (0.5, 0.5), (0.9, 0.9), (0.3, 0.8)):
            value = probability_series(params(w, s, 0.0, 0.0), pair, 40).value
            assert value < 1e-12

    @pytest.mark.parametrize("pair", SECTORS)
    def test_separability_factorization(self, pair):
        for w, s in ((0.2, 0.2), (0.5, 0.5), (0.9, 0.4)):
            ratios = [
                probability_series(params(w, s, 0.0, r), pair, 40).value
                / (1.0 - math.cos(r))
                for r in (math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi)
            ]
            spread = max(ratios) - min(ratios)
            assert spread <= 1e-9 * max(ratios)

    @pytest.mark.parametrize("pair", SECTORS)
    def test_antipodal_is_twice_quarter_phase(self, pair):
        p_pi = probability_series(params(0.7, 0.4, 0.0, math.pi), pair, 40).value
        p_half = probability_series(params(0.7, 0.4, 0.0, math.pi / 2.0), pair, 40).value
        assert p_pi == pytest.approx(2.0 * p_half, abs=1e-9)

    def test_vacuum_antipodal_value(self):
        value = probability_series(params(0.0, 0.0, 0.0, math.pi), SectorPair.PP, 10).value
        assert value == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("pair", SECTORS)
    def test_closed_form_is_exactly_zero_at_rho_zero(self, pair):
        # the Gram form evaluates N(a) by the same expression as G(a, b), so
        # coincident labels cancel bit for bit on every moduli pair
        moduli = np.linspace(0.0, 0.95, 12)
        for phi in (0.0, 1.3, 4.4):
            for w in moduli:
                for s in moduli:
                    p = CirclePairParams(
                        Mp2Variable(w * np.exp(0.4j)), Mp2Variable(s * np.exp(-2.1j)),
                        CircleLabel(phi), CircleLabel(phi), 0.0,
                    )
                    assert closed_form_P(p, pair) == 0.0


class TestSymmetries:
    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=0.9),
        st.floats(min_value=0.0, max_value=0.9),
        st.floats(min_value=0.0, max_value=6.28),
        st.floats(min_value=0.0, max_value=6.28),
        st.floats(min_value=0.0, max_value=6.28),
    )
    def test_exchange_symmetry(self, w, s, phi, phi_p, rho):
        direct = probability_series(
            CirclePairParams(Mp2Variable(w), Mp2Variable(s), CircleLabel(phi),
                             CircleLabel(phi_p), rho),
            SectorPair.PP, 20,
        ).value
        swapped = probability_series(
            CirclePairParams(Mp2Variable(w), Mp2Variable(s), CircleLabel(phi_p),
                             CircleLabel(phi), -rho),
            SectorPair.PP, 20,
        ).value
        assert abs(direct - swapped) <= 1e-12 * max(1.0, direct)

    def test_two_pi_periodicity(self):
        base = params(0.6, 0.3, 1.1, 0.9)
        ref = probability_series(base, SectorPair.PM, 30).value
        twopi = 2.0 * math.pi
        shifted = CirclePairParams(
            base.omega, base.sigma,
            CircleLabel(base.phi.phi + twopi),
            CircleLabel(base.phi_prime.phi + twopi),
            base.rho + twopi,
        )
        assert probability_series(shifted, SectorPair.PM, 30).value == pytest.approx(
            ref, abs=1e-12
        )


class TestCoefficientMatrix:
    def test_vacuum_sector_content(self):
        m = coefficient_matrix(params(0.0, 0.0, 0.0, math.pi), SectorPair.PP, 8)
        assert abs(m.entries[0, 0]) == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(m.entries.flatten()[1:])) == 0.0
        mm = coefficient_matrix(params(0.0, 0.0, 0.0, 0.3), SectorPair.MM, 8)
        assert np.max(np.abs(mm.entries)) == 0.0

    def test_coincident_rho_zero_cancels(self):
        m = coefficient_matrix(params(0.5, 0.5, 0.0, 0.0), SectorPair.PP, 20)
        assert np.max(np.abs(m.entries)) == 0.0

    def test_per_n_marginal_factorial_domination(self):
        # antipodal coincident point: the swapped term adds coherently and
        # the n-marginal tracks (|omega|/2)^(4n)/(2n)! exactly
        m = coefficient_matrix(params(0.9, 0.9, 0.0, math.pi), SectorPair.PP, 18)
        marg = np.sum(np.abs(m.entries) ** 2, axis=1)
        for n in range(1, 16):
            envelope = (0.9 / 2.0) ** (4 * n) / math.factorial(2 * n)
            assert marg[n] / marg[0] <= envelope * (1.0 + 1e-12)
        # generic orthogonal points with a non-cancelling leading term:
        # domination up to a small parity-alternation swing
        for rho in (math.pi, 2.0):
            m2 = coefficient_matrix(params(0.9, 0.9, math.pi / 2.0, rho), SectorPair.PP, 18)
            marg2 = np.sum(np.abs(m2.entries) ** 2, axis=1)
            for n in range(1, 16):
                envelope = (0.9 / 2.0) ** (4 * n) / math.factorial(2 * n)
                assert marg2[n] / marg2[0] <= 1.01 * envelope


class TestLimits:
    def test_coincident_examples(self):
        assert limit_coincident(SectorPair.PP, 0.5, 0.7, 0.0) == 0.0
        assert limit_coincident(SectorPair.PP, 0.0, 0.0, math.pi) == pytest.approx(1.0)
        inv = 1.0 / math.sqrt(2.0)
        expected = (
            0.5 * (0.5**1.5) * (0.5**1.5) * math.sinh(0.125) ** 2 * 1.0
        )
        assert limit_coincident(SectorPair.MM, inv, inv, math.pi / 2.0) == pytest.approx(
            expected, rel=1e-12
        )

    def test_orthogonal_examples(self):
        # PP at rho = pi/2 keeps only the cosh-cosh part
        w, s = 0.4, 0.8
        a, b = w * w / 4.0, s * s / 4.0
        weight = 0.5 * math.sqrt((1 - w * w) * (1 - s * s))
        assert limit_orthogonal(SectorPair.PP, w, s, math.pi / 2.0) == pytest.approx(
            weight * math.cosh(a) * math.cosh(b), rel=1e-12
        )
        # MM at rho = pi/2 keeps only the sinh-sinh part
        weight_mm = 0.5 * ((1 - w * w) * (1 - s * s)) ** 1.5
        assert limit_orthogonal(SectorPair.MM, w, s, math.pi / 2.0) == pytest.approx(
            weight_mm * math.sinh(a) * math.sinh(b), rel=1e-12
        )
        # PM at rho = 0 is the separable product
        value = limit_orthogonal(SectorPair.PM, 0.5, 0.5, 0.0)
        assert value == pytest.approx(
            0.5 * 0.75**0.5 * 0.75**1.5 * math.cosh(0.0625) * math.sinh(0.0625),
            rel=1e-12,
        )
        assert value == pytest.approx(0.01763, abs=2e-5)

    @pytest.mark.parametrize("pair", SECTORS)
    def test_coincident_limit_agrees_with_series(self, pair):
        for w, s, r in ((0.5, 0.5, 0.9), (0.8, 0.3, math.pi)):
            assert limit_coincident(pair, w, s, r) == pytest.approx(
                probability_series(params(w, s, 0.0, r), pair, 40).value, abs=1e-12
            )

    @pytest.mark.parametrize("pair", SECTORS)
    def test_orthogonal_limit_agrees_with_series(self, pair):
        for w, s, r in ((0.5, 0.5, 0.0), (0.8, 0.3, 2.2)):
            assert limit_orthogonal(pair, w, s, r) == pytest.approx(
                probability_series(params(w, s, math.pi / 2.0, r), pair, 40).value,
                abs=1e-12,
            )

    @pytest.mark.parametrize("pair", SECTORS)
    def test_limits_as_numerical_limits_of_general_form(self, pair):
        # the dedicated forms are also the numerical limits of the general
        # closed form at offset 1e-6
        w, s, r = 0.6, 0.4, 1.3
        near_zero = closed_form_P(params(w, s, 1e-6, r), pair)
        assert limit_coincident(pair, w, s, r) == pytest.approx(near_zero, abs=1e-5)
        near_orth = closed_form_P(params(w, s, math.pi / 2.0 - 1e-6, r), pair)
        assert limit_orthogonal(pair, w, s, r) == pytest.approx(near_orth, abs=1e-5)

    @pytest.mark.parametrize("pair", SECTORS)
    def test_degenerate_limit_agrees_with_series(self, pair):
        for w, d, r in ((0.5, 0.9, 2.0), (0.8, 0.0, math.pi)):
            assert limit_degenerate(pair, w, d, r) == pytest.approx(
                probability_series(params(w, w, d, r), pair, 40).value, abs=1e-12
            )

    def test_degenerate_mm_vanishes_at_zero(self):
        assert limit_degenerate(SectorPair.MM, 0.0, 0.7, 1.0) == 0.0

    @pytest.mark.parametrize("pair", SECTORS)
    def test_degenerate_consistent_with_coincident(self, pair):
        # delta -> 0 degeneracy equals the coincident limit at sigma = omega
        for w in (0.2, 0.6, 0.9):
            for r in (0.5, math.pi):
                assert limit_degenerate(pair, w, 0.0, r) == pytest.approx(
                    limit_coincident(pair, w, w, r), rel=1e-12, abs=1e-300
                )


# The circle limits written out by hand in the Fock offsets o1, o2 (cosh/cos
# for an even half, sinh/sin for an odd one): the test-side reference for the
# limits, which evaluate closed_form_P at their labels.
HYP, TRIG = (math.cosh, math.sinh), (math.cos, math.sin)


def reference_coincident(pair, omega, sigma, rho):
    (o1, o2), a, b = pair.parities, abs(omega) ** 2 / 4.0, abs(sigma) ** 2 / 4.0
    return sector_weight(pair, omega, sigma) * HYP[o1](a) * HYP[o2](b) * (1.0 - math.cos(rho))


def reference_orthogonal(pair, omega, sigma, rho):
    (o1, o2), a, b = pair.parities, abs(omega) ** 2 / 4.0, abs(sigma) ** 2 / 4.0
    cross = TRIG[o1](a) * TRIG[o2](b) * TRIG[o1 ^ o2](rho)
    return sector_weight(pair, omega, sigma) * (HYP[o1](a) * HYP[o2](b) - cross)


def reference_degenerate(pair, omega, delta, rho):
    a = abs(omega) ** 2 / 4.0
    z = 1.0 - abs(omega) ** 2
    bb, bt = a * math.cos(delta), a * math.sin(delta)
    if pair is SectorPair.PP:
        return 0.5 * z * (
            math.cosh(a) ** 2 - math.cos(rho) * (math.cosh(bb) ** 2 - math.sin(bt) ** 2)
        )
    if pair is SectorPair.PM:
        return 0.5 * z**2 * (
            math.cosh(a) * math.sinh(a)
            - math.cos(rho) * math.cosh(bb) * math.sinh(bb)
            - math.sin(rho) * math.cos(bt) * math.sin(bt)
        )
    return 0.5 * z**3 * (
        math.sinh(a) ** 2 - math.cos(rho) * (math.sinh(bb) ** 2 + math.sin(bt) ** 2)
    )


@pytest.mark.parametrize("pair", SECTORS)
def test_limits_match_the_hand_expanded_references(pair):
    rng = np.random.default_rng(1018)
    for _ in range(256):
        omega = rng.uniform(0.0, 0.999) * cmath.exp(1j * rng.uniform(0.1, 6.2))
        sigma = rng.uniform(0.0, 0.999) * cmath.exp(1j * rng.uniform(0.1, 6.2))
        delta, rho = rng.uniform(-7.0, 7.0, 2)
        assert limit_coincident(pair, omega, sigma, rho) == pytest.approx(
            reference_coincident(pair, omega, sigma, rho), rel=0, abs=2e-15
        )
        assert limit_orthogonal(pair, omega, sigma, rho) == pytest.approx(
            reference_orthogonal(pair, omega, sigma, rho), rel=0, abs=2e-15
        )
        assert limit_degenerate(pair, omega, delta, rho) == pytest.approx(
            reference_degenerate(pair, omega, delta, rho), rel=0, abs=2e-15
        )


class TestConventions:
    def test_total_rejected_by_sector_forms(self):
        with pytest.raises(ValueError):
            closed_form_P(params(0.1, 0.1, 0.0, 0.0), SectorPair.TOTAL)
        with pytest.raises(ValueError):
            limit_coincident(SectorPair.TOTAL, 0.1, 0.1, 0.0)


class TestPairClosedForm:
    def test_rejects_a_record_with_a_log_weight(self):
        with pytest.raises(ValueError, match="log-weight"):
            EntangledPair(mp2_cylinder_projection, 1.0, 0.5).closed_form(
                (Mp2Variable(0.5), Mp2Variable(0.5), CylinderLabel(0.0, 0.0),
                 CylinderLabel(0.0, 1.0)),
                SectorPair.PP, 0.0,
            )

    @pytest.mark.parametrize("pair", SECTORS)
    def test_fits_the_cat_record(self, pair):
        # the Gram form uses nothing circle-specific: on the cat record it
        # reproduces the cat series
        p = CatPairParams(0.8 + 0.3j, 1.1 - 0.2j, CircleLabel(1.0), CircleLabel(0.3), 0.9)
        value = EntangledPair(cat_projection, -1.0, 0.5).closed_form(p.parts, pair, p.rho)
        assert value == pytest.approx(cat_entangled_probability(p, pair, 40).value, rel=1e-12)


def test_sector_pair_parities_are_unchanged():
    even, odd = Parity.EVEN, Parity.ODD
    expected = {SectorPair.PP: (even, even), SectorPair.PM: (even, odd), SectorPair.MM: (odd, odd)}
    assert {pair: pair.parities for pair in SECTORS} == expected
    assert {pair: slot_parities(pair) for pair in SectorPair} == {
        **expected, SectorPair.TOTAL: (None, None)
    }
    with pytest.raises(ValueError, match="^the total pair has no single sector assignment$"):
        SectorPair.TOTAL.parities
