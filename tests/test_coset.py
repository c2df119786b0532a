import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mp2ent.entangle_circle import SectorPair
from mp2ent.entangle_coset import (
    CosetPairParams,
    closed_form_coset,
    coefficient_matrix_coset,
    probability_series_coset,
    single_projection_norm_sq,
    z_factors,
)
from mp2ent.states import (
    CircleLabel,
    CosetLabel,
    Mp2Variable,
    Parity,
    coset_projection,
    mp2_circle_projection,
)

SECTORS = (SectorPair.PP, SectorPair.PM, SectorPair.MM)

LAB1 = CosetLabel(0.4 + 0.8j, 0.9)
LAB2 = CosetLabel(-0.2 + 1.3j, 0.1)


def params(w, s, rho, lab1=LAB1, lab2=LAB2):
    return CosetPairParams(Mp2Variable(w), Mp2Variable(s), lab1, lab2, rho)


class TestZFactors:
    def test_vacuum(self):
        zf = z_factors(params(0.0, 0.0, 0.0))
        assert zf.z1 == zf.z2 == 0.0
        assert zf.Z1 == zf.Z2 == zf.Z1p == zf.Z2p == 1.0

    def test_hand_value(self):
        zf = z_factors(params(0.5, 0.5, 0.0, CosetLabel(1j, 0.0), LAB2))
        assert zf.Z1 == pytest.approx(1.0 - (0.5 * math.exp(-0.5)) ** 2, rel=1e-12)

    def test_symmetry_under_equal_slots(self):
        zf = z_factors(params(0.6, 0.6, 0.0, LAB1, LAB1))
        assert zf.z1 == zf.z2 and zf.z1p == zf.z2p

    def test_all_inside_disk(self):
        zf = z_factors(params(0.95, 0.9, 1.0))
        for z in (zf.z1, zf.z1p, zf.z2, zf.z2p):
            assert abs(z) < 1.0
        for weight in (zf.Z1, zf.Z1p, zf.Z2, zf.Z2p):
            assert 0.0 < weight <= 1.0


class TestProbability:
    def test_fully_coincident_cancels_at_rho_pi(self):
        p = params(0.5, 0.5, math.pi, LAB1, LAB1)
        for pair in SECTORS:
            assert probability_series_coset(p, pair, 30).value < 1e-30

    def test_vacuum_single_term(self):
        value = probability_series_coset(params(0.0, 0.0, 0.4), SectorPair.PP, 10).value
        assert value == pytest.approx(abs(0.5 * (1 + cmath.exp(0.4j))) ** 2, rel=1e-12)

    @pytest.mark.parametrize("pair", SECTORS)
    def test_closed_form_matches_series(self, pair):
        for w, s, r in ((0.5, 0.5, 0.0), (0.7, 0.3, 1.2), (0.9, 0.4, math.pi / 2.0)):
            series = probability_series_coset(params(w, s, r), pair, 40)
            assert closed_form_coset(params(w, s, r), pair) == pytest.approx(
                series.value, abs=1e-9 + series.tail_bound
            )

    @pytest.mark.parametrize("pair", SECTORS)
    def test_closed_form_is_exactly_zero_at_rho_pi(self, pair):
        # coincident labels cancel bit for bit in the Gram form
        moduli = np.linspace(0.0, 0.95, 12)
        for label in (LAB1, LAB2, CosetLabel(-1.1 + 0.3j, 4.4, 0.6, -0.8)):
            for w in moduli:
                for s in moduli:
                    p = params(w * np.exp(0.4j), s * np.exp(-2.1j), math.pi, label, label)
                    assert closed_form_coset(p, pair) == 0.0

    def test_mm_vanishes_at_zero_omega(self):
        assert closed_form_coset(params(0.0, 0.5, 0.9), SectorPair.MM) == pytest.approx(
            0.0, abs=1e-300
        )

    def test_cross_argument_identity(self):
        # z1* z1' = |omega|^2 e^(-i delta) e^(i(alpha - alpha'*)/2) when the
        # two slots share omega (the displacement enters through half-angles)
        w = 0.6
        p = params(w, w, 0.0)
        zf = z_factors(p)
        delta = LAB1.phi - LAB2.phi
        expected = w * w * cmath.exp(-1j * delta) * cmath.exp(
            1j * (LAB1.alpha - LAB2.alpha.conjugate()) / 2.0
        )
        assert zf.z1.conjugate() * zf.z1p == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=0.9),
        st.floats(min_value=0.0, max_value=0.9),
        st.floats(min_value=0.0, max_value=6.28),
    )
    def test_conjugate_pair_realness(self, w, s, rho):
        # the e^(-i rho)(...) + e^(i rho)(...) combination is real
        m = coefficient_matrix_coset(params(w, s, rho), SectorPair.PP, 15)
        total = m.norm_sq()
        assert math.isfinite(total) and total >= 0.0
        assert closed_form_coset(params(w, s, rho), SectorPair.PP) == pytest.approx(
            total, abs=1e-10
        )

    def test_rejects_tiny_im_alpha(self):
        with pytest.raises(ValueError):
            params(0.5, 0.5, 0.0, CosetLabel(1.0 + 1e-8j, 0.0), LAB2)


class TestSingleVariableLaw:
    def test_distinct_labels_same_zprime(self):
        # (phi, alpha) -> (phi + d, alpha + 2d) leaves z' invariant
        d = 0.83
        lab_a = CosetLabel(0.4 + 0.8j, 0.9)
        lab_b = CosetLabel(0.4 + 2.0 * d + 0.8j, 0.9 + d)
        for pair in SECTORS:
            pa = probability_series_coset(params(0.6, 0.3, 1.1, lab_a, LAB2), pair, 30)
            pb = probability_series_coset(params(0.6, 0.3, 1.1, lab_b, LAB2), pair, 30)
            assert abs(pa.value - pb.value) <= 1e-12 * max(1.0, pa.value)

    @settings(max_examples=40)
    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=0.01, max_value=4.0),
        st.floats(min_value=0.0, max_value=6.28),
    )
    def test_zprime_modulus_law(self, mod, re_a, im_a, phi):
        from mp2ent.states import coset_variable

        zp = coset_variable(Mp2Variable(mod), CosetLabel(complex(re_a, im_a), phi))
        assert abs(abs(zp) - mod * math.exp(-im_a / 2.0)) <= 1e-14


class TestClassicalization:
    def test_matched_zprime_equals_london_terms(self):
        # at matched disk variable the coset and circle coefficient
        # magnitudes coincide term by term
        zp = 0.3
        label = CosetLabel(2.0 * 1.0j, 0.0)  # Im alpha = 2 -> contraction e^-1
        omega = Mp2Variable(zp / math.exp(-1.0))
        coset = coset_projection(omega, label, Parity.EVEN, 15)
        london = mp2_circle_projection(Mp2Variable(zp), CircleLabel(0.0), Parity.EVEN, 15)
        assert np.allclose(np.abs(coset.terms), np.abs(london.terms), rtol=1e-12)

    def test_matched_omega_coset_terms_smaller(self):
        # at matched omega with Im alpha > 0 the coset tail is strictly
        # smaller term by term (the |z'| < |omega| contraction)
        omega = Mp2Variable(0.8)
        coset = coset_projection(omega, CosetLabel(1j, 0.4), Parity.EVEN, 15)
        london = mp2_circle_projection(omega, CircleLabel(0.4), Parity.EVEN, 15)
        ratios = np.abs(coset.terms[1:]) / np.abs(london.terms[1:])
        assert np.all(ratios < 1.0)
        assert np.all(np.diff(ratios) < 0)

    def test_single_norm_cross_series_terms_decrease(self):
        # n-th term of sum |z'/2|^(4n) / ((2n)! (2n+1)) strictly decreases
        for zp in (0.3, 0.7, 0.95):
            terms = [
                (zp / 2.0) ** (4 * n) / (math.factorial(2 * n) * (2 * n + 1))
                for n in range(1, 12)
            ]
            assert all(t1 > t2 for t1, t2 in zip(terms, terms[1:]))

    def test_single_norm_matches_direct_summation(self):
        for zp in (0.2, 0.35 + 0.2j, 0.55 - 0.3j):
            zd = 1.0 - abs(zp) ** 2
            direct = math.fsum(
                abs(
                    zd**0.25
                    * (zp / 2.0) ** (2 * n)
                    / math.sqrt(math.factorial(2 * n))
                    * (1.0 + math.sqrt(zd) * (zp / 2.0) / math.sqrt(2 * n + 1))
                )
                ** 2
                for n in range(40)
            )
            assert single_projection_norm_sq(zp, 40) == pytest.approx(direct, rel=1e-12)
