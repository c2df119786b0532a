import math
import re

import numpy as np
import pytest

from mp2ent.entangle_circle import CirclePairParams, SectorPair, coefficient_matrix
from mp2ent.entangle_cylinder import (
    CylinderPairParams,
    coefficient_matrix_cyl,
    degenerate_limit_cyl,
    probability_series_cyl,
)
from mp2ent.states import CircleLabel, CylinderLabel, Mp2Variable
from mp2ent.verify import cylinder_probability_corrected, cylinder_probability_printed

SECTORS = (SectorPair.PP, SectorPair.PM, SectorPair.MM)


def params(w, s, l=0.0, lp=0.0, phi=0.0, phip=0.0, rho=0.0):
    return CylinderPairParams(
        Mp2Variable(w), Mp2Variable(s), CylinderLabel(l, phi), CylinderLabel(lp, phip), rho
    )


class TestOracle:
    def test_vacuum_pair_keeps_single_term(self):
        p = params(0.0, 0.0)
        for rho in (0.0, 1.0, math.pi):
            p_r = params(0.0, 0.0, rho=rho)
            value = probability_series_cyl(p_r, SectorPair.PP, 10).value
            assert value == pytest.approx(1.0 + math.cos(rho), abs=1e-14)
        assert probability_series_cyl(p, SectorPair.MM, 10).value == 0.0

    def test_coincident_cancellation_at_rho_pi(self):
        # e^(i pi) carries a ~1e-16 imaginary residue, so cancellation is
        # exact only to rounding
        m = coefficient_matrix_cyl(params(0.5, 0.5, rho=math.pi), SectorPair.PP, 20)
        assert np.max(np.abs(m.entries)) < 1e-15
        assert probability_series_cyl(params(0.5, 0.5, rho=math.pi), SectorPair.PP).value < 1e-30

    @pytest.mark.parametrize("pair", SECTORS)
    def test_matches_displayed_probability_sums(self, pair):
        # the sector-probability sums (series-derived cosine arguments)
        # reproduce the oracle exactly
        for point in [
            dict(w=0.5, s=0.5, rho=1.0),
            dict(w=0.3, s=0.8, l=0.4, lp=-0.2, phi=0.9, phip=0.7, rho=1.3),
            dict(w=0.9, s=0.6, l=1.0, lp=0.5, phi=0.3, rho=2.0),
        ]:
            p = params(**point)
            oracle = probability_series_cyl(p, pair, 40).value
            assert cylinder_probability_corrected(p, pair, 40) == pytest.approx(
                oracle, rel=1e-12, abs=1e-300
            )

    @pytest.mark.parametrize("pair", SECTORS)
    def test_printed_cosines_agree_when_unambiguous(self, pair):
        # at delta = 0 the printed and derived cosine arguments coincide for
        # the same-sector pairs
        p = params(0.4, 0.7, l=0.2, lp=-0.1, rho=0.9)
        oracle = probability_series_cyl(p, pair, 40).value
        printed = cylinder_probability_printed(p, pair, 40)
        if pair is SectorPair.PP:
            assert printed == pytest.approx(oracle, rel=1e-12)
        else:
            assert printed != pytest.approx(oracle, rel=1e-9)

    def test_truncation_self_consistency_at_large_omega(self):
        p = params(0.9, 0.9, rho=0.7)
        for pair in SECTORS:
            lo = probability_series_cyl(p, pair, 10).value
            hi = probability_series_cyl(p, pair, 40).value
            assert abs(lo - hi) <= 1e-14

    def test_control_phase_suppression(self):
        # choosing rho so the dominant-term cosine is -1 visibly suppresses
        # the probability relative to the constructive setting
        constructive = probability_series_cyl(params(0.5, 0.5, rho=0.0), SectorPair.PP).value
        destructive = probability_series_cyl(params(0.5, 0.5, rho=math.pi), SectorPair.PP).value
        assert destructive < 1e-3 * constructive

    def test_rejects_overflowing_label(self):
        with pytest.raises(ValueError):
            probability_series_cyl(params(0.5, 0.5, l=400.0), SectorPair.PP)

    def test_total_pair_vacuum_and_refinement(self):
        # grouped total reduces to the even single term at omega = sigma = 0
        for rho in (0.0, 0.9, math.pi):
            total = probability_series_cyl(params(0.0, 0.0, rho=rho), SectorPair.TOTAL, 8)
            assert total.value == pytest.approx(1.0 + math.cos(rho), abs=1e-14)
        coarse = probability_series_cyl(params(0.8, 0.6, l=0.2, rho=0.5), SectorPair.TOTAL, 5)
        fine = probability_series_cyl(params(0.8, 0.6, l=0.2, rho=0.5), SectorPair.TOTAL, 20)
        assert abs(fine.value - coarse.value) <= coarse.tail_bound


class TestClassicalization:
    def test_gaussian_envelope_on_displayed_matrix(self):
        # |c_nm|^2 <= |c_00|^2 e^(-8(n^2+m^2)) K with K <= 1.01 at l=l'=0
        for pair in SECTORS:
            for w, s, d in ((0.5, 0.5, 0.0), (0.9, 0.9, 0.3), (0.9, 0.2, 0.0)):
                m = coefficient_matrix_cyl(
                    params(w, s, phi=d, rho=0.0), pair, 12, weights="displayed"
                )
                sq = np.abs(m.entries) ** 2
                c00 = sq[0, 0]
                assert c00 > 0
                k_max = 0.0
                for n in range(11):
                    for mm in range(11):
                        envelope = math.exp(-8.0 * (n * n + mm * mm))
                        if envelope == 0.0:
                            assert sq[n, mm] == 0.0
                            continue
                        k_max = max(k_max, sq[n, mm] / (c00 * envelope))
                assert k_max <= 1.01

    def test_decay_exponent_exceeds_circle(self):
        # fitted per-n decay over n in [2, 8]: cylinder beats the circle's
        # factorial-only decay at matched omega
        w = 0.5
        cyl = coefficient_matrix_cyl(params(w, w, rho=0.0), SectorPair.PP, 10,
                                     weights="amplitude")
        circ = coefficient_matrix(
            CirclePairParams(Mp2Variable(w), Mp2Variable(w), CircleLabel(0.0),
                             CircleLabel(0.0), math.pi),
            SectorPair.PP, 10,
        )
        ns = np.arange(2, 9)

        def slope(matrix):
            marg = np.sum(np.abs(matrix.entries) ** 2, axis=1)[2:9]
            return -np.polyfit(ns, np.log(marg), 1)[0]

        assert slope(cyl) > slope(circ) > 0.0

    def test_amplitude_weights_square_to_probability_summands(self):
        p = params(0.6, 0.4, l=0.3, lp=0.1, phi=1.0, phip=0.2, rho=0.8)
        amp = coefficient_matrix_cyl(p, SectorPair.PM, 15, weights="amplitude")
        assert probability_series_cyl(p, SectorPair.PM, 15).value == pytest.approx(
            amp.norm_sq(), rel=1e-14
        )


class TestDegenerateLimits:
    def test_theta_closed_forms(self):
        t3 = 1.0 + 2.0 * sum(math.exp(-8.0 * n * n) for n in range(1, 40))
        t2 = 2.0 * sum(math.exp(-8.0 * (n + 0.5) ** 2) for n in range(40))
        for d in (0.0, math.pi / 4.0, math.pi / 2.0):
            for r in (0.0, 1.0, math.pi):
                assert degenerate_limit_cyl(SectorPair.PP, 0.0, 0.0, d, r) == pytest.approx(
                    (1.0 + t3) * (1.0 + math.cos(r)), rel=1e-12, abs=1e-14
                )
                assert degenerate_limit_cyl(SectorPair.PM, 0.0, 0.0, d, r) == pytest.approx(
                    (1.0 + t3) / math.exp(6.0) * (1.0 + math.cos(d + r + 1.0)),
                    rel=1e-12, abs=1e-14,
                )
                assert degenerate_limit_cyl(SectorPair.MM, 0.0, 0.0, d, r) == pytest.approx(
                    0.5 * t2 * (1.0 + math.cos(2.0 * r)), rel=1e-12, abs=1e-14
                )

    def test_anchor_evaluations(self):
        assert degenerate_limit_cyl(SectorPair.PP, 0.0, 0.0, 0.0, 0.0) == pytest.approx(
            4.0013419, abs=1e-6
        )
        assert degenerate_limit_cyl(SectorPair.MM, 0.0, 0.0, 0.0, 0.0) == pytest.approx(
            0.27067057, abs=1e-6
        )
        assert degenerate_limit_cyl(SectorPair.PP, 0.0, 0.0, 0.0, math.pi) == 0.0

    def test_angle_independence_of_same_sector_forms(self):
        for pair in (SectorPair.PP, SectorPair.MM):
            values = [
                degenerate_limit_cyl(pair, 0.0, 0.0, d, 0.8)
                for d in (0.0, math.pi / 4.0, math.pi / 2.0)
            ]
            assert max(values) - min(values) <= 1e-10

    def test_crossed_form_angle_profile(self):
        # the crossed limit follows (1 + cos(delta + rho + 1)) exactly
        base = degenerate_limit_cyl(SectorPair.PM, 0.0, 0.0, 0.0, 0.0)
        for d in (0.0, 0.6, 1.5):
            for r in (0.0, 0.9):
                expected = base / (1.0 + math.cos(1.0)) * (1.0 + math.cos(d + r + 1.0))
                assert degenerate_limit_cyl(SectorPair.PM, 0.0, 0.0, d, r) == pytest.approx(
                    expected, rel=1e-9, abs=1e-12
                )

    def test_control_phase_ratios(self):
        for r in (0.3, 1.0, 2.0):
            pp = degenerate_limit_cyl(SectorPair.PP, 0.0, 0.0, 0.2, r)
            assert pp / (1.0 + math.cos(r)) == pytest.approx(
                degenerate_limit_cyl(SectorPair.PP, 0.0, 0.0, 0.2, 0.0) / 2.0, rel=1e-12
            )
            mm = degenerate_limit_cyl(SectorPair.MM, 0.0, 0.0, 0.2, r)
            assert mm / (1.0 + math.cos(2.0 * r)) == pytest.approx(
                degenerate_limit_cyl(SectorPair.MM, 0.0, 0.0, 0.2, 0.0) / 2.0, rel=1e-12
            )

    def test_pre_theta_sums_for_nonzero_l(self):
        s = 0.6
        expected_pp = (1.0 + math.cos(0.4)) * math.fsum(
            math.exp(-8.0 * n * n + 4.0 * s * n) for n in range(40)
        )
        assert degenerate_limit_cyl(SectorPair.PP, 0.5, 0.1, 0.0, 0.4) == pytest.approx(
            expected_pp, rel=1e-12
        )
        expected_mm = (1.0 + math.cos(2.0)) * math.fsum(
            math.exp(-8.0 * (n * n + n + 0.25) + 4.0 * s * (n + 0.5)) for n in range(40)
        )
        assert degenerate_limit_cyl(SectorPair.MM, 0.4, 0.2, 0.0, 1.0) == pytest.approx(
            expected_mm, rel=1e-12
        )

    def test_rejects_large_l_sum(self):
        with pytest.raises(ValueError):
            degenerate_limit_cyl(SectorPair.PP, 5.0, 4.0, 0.0, 0.0)

    @pytest.mark.parametrize("pair", SECTORS, ids=lambda p: p.value)
    @pytest.mark.parametrize(("at", "name"), [
        (0, "cylinder label l"), (1, "cylinder label l'"),
        (2, "angle difference delta"), (3, "pair phase rho"),
    ])
    @pytest.mark.parametrize(("value", "message"), [
        (math.nan, "must be finite, got nan"),
        (math.inf, "must be finite, got inf"),
        (-math.inf, "must be finite, got -inf"),
        (True, "must be a real number, got True"),
        ("1", "must be a real number, got '1'"),
        (1j, "must be a real number, got 1j"),
        (None, "must be a real number, got None"),
    ])
    def test_rejects_a_value_that_is_no_finite_real_by_name(self, pair, at, name, value, message):
        # a NaN used to come back as a NaN limit, True and "1" as numbers,
        # and an infinite rho as "math domain error"
        args = [0.1, -0.1, 0.3, 0.7]
        args[at] = value
        with pytest.raises(ValueError, match=f"^{re.escape(name)} {re.escape(message)}$"):
            degenerate_limit_cyl(pair, *args)

    def test_takes_numpy_and_integer_reals_as_their_floats(self):
        for pair in SECTORS:
            expected = degenerate_limit_cyl(pair, 0.0, 0.5, 2.0, 1.0)
            assert degenerate_limit_cyl(pair, 0, np.float64(0.5), 2, np.float32(1.0)) == expected
            assert degenerate_limit_cyl(pair, 0.0, 0.0, 0.3, 0.7, 12) == degenerate_limit_cyl(
                pair, np.float64(0.0), 0, 0.3, 0.7, 12)

    def test_weak_angle_dependence_of_oracle_at_degeneracy(self):
        # honest omega = sigma oracle: delta-dependence exists but is weak
        values = [
            probability_series_cyl(
                params(0.5, 0.5, phi=d, phip=0.0, rho=0.7), SectorPair.PP, 40
            ).value
            for d in (0.0, math.pi / 4.0, math.pi / 2.0)
        ]
        assert (max(values) - min(values)) / max(values) < 1e-3
