import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mp2ent.cat_compare import CatPairParams
from mp2ent.entangle_circle import CirclePairParams
from mp2ent.entangle_coset import CosetPairParams
from mp2ent.entangle_cylinder import CylinderPairParams
from mp2ent.states import (
    CircleLabel,
    CosetLabel,
    CylinderLabel,
    Mp2Variable,
    Parity,
    SlotBatch,
    cat_projection,
    coset_normalization,
    coset_projection,
    coset_variable,
    fiducial_overlap_sq,
    fock_series,
    fock_series_batch,
    mp2_circle_projection,
    mp2_cylinder_display_projection,
    mp2_cylinder_projection,
)

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

disk_moduli = st.floats(min_value=0.0, max_value=0.9)
angles = st.floats(min_value=-10.0, max_value=10.0)


class TestDomainTypes:
    def test_mp2_variable_rejects_boundary(self):
        with pytest.raises(ValueError):
            Mp2Variable(1.0)
        with pytest.raises(ValueError):
            Mp2Variable(0.8 + 0.7j)
        assert Mp2Variable(0.99).modulus == pytest.approx(0.99)

    def test_circle_label_normalizes(self):
        assert CircleLabel(-0.5).phi == pytest.approx(2.0 * math.pi - 0.5)
        assert 0.0 <= CircleLabel(17.3).phi < 2.0 * math.pi

    def test_cylinder_label_requires_finite_l(self):
        with pytest.raises(ValueError):
            CylinderLabel(math.inf, 0.0)

    def test_coset_label_requires_upper_half_alpha(self):
        with pytest.raises(ValueError):
            CosetLabel(1.0 - 0.2j, 0.0)
        with pytest.raises(ValueError):
            CosetLabel(1.0, 0.0)

    def test_coset_label_rejects_null_fiducial(self):
        with pytest.raises(ValueError):
            CosetLabel(1j, 0.0, x=0.0, y=0.0)

    @pytest.mark.parametrize(
        ("build", "field"),
        [
            (lambda: CirclePairParams(0.5, 0.5, 0.0, 0.0, math.nan), "rho"),
            (lambda: CirclePairParams(0.5, 0.5, math.nan, 0.0, 0.0), "phi"),
            (lambda: CirclePairParams(0.5, 0.5, 0.0, math.inf, 0.0), "phi"),
            (lambda: CircleLabel(-math.inf), "phi"),
            (lambda: CylinderLabel(0.0, math.nan), "phi"),
            (lambda: CosetLabel(1j, math.inf), "phi"),
            (lambda: CylinderPairParams(
                0.5, 0.5, CylinderLabel(0.0, 0.0), CylinderLabel(0.0, 1.0), math.inf), "rho"),
            (lambda: CosetPairParams(
                0.5, 0.5, CosetLabel(1j, 0.0), CosetLabel(1j, 1.0), -math.inf), "rho"),
            (lambda: CatPairParams(
                0.5, 0.5, CircleLabel(0.0), CircleLabel(1.0), math.nan), "rho"),
        ],
        ids=["circle-rho-nan", "circle-phi-nan", "circle-phi-prime-inf", "circle-label-inf",
             "cylinder-label-nan", "coset-label-inf", "cylinder-rho-inf", "coset-rho-inf",
             "cat-rho-nan"],
    )
    def test_non_finite_angles_are_refused_naming_the_field(self, build, field):
        with pytest.raises(ValueError, match=rf"\b{field} must be finite"):
            build()

    @pytest.mark.parametrize(
        ("fields", "name"),
        [
            ({"alpha": complex(math.inf, 1.0)}, "alpha"),
            ({"alpha": complex(1.0, math.inf)}, "alpha"),
            ({"alpha": complex(math.nan, 1.0)}, "alpha"),
            ({"x": math.nan}, "x"),
            ({"y": -math.inf}, "y"),
        ],
        ids=["alpha-re-inf", "alpha-im-inf", "alpha-re-nan", "x-nan", "y-inf"],
    )
    def test_non_finite_coset_fields_are_refused_naming_the_field(self, fields, name):
        with pytest.raises(ValueError, match=rf"coset label {name} must be finite"):
            CosetLabel(**{"alpha": 1j, "phi": 0.0, **fields})

    @pytest.mark.parametrize(
        ("build", "where"),
        [
            (lambda v: CircleLabel(v), "label angle phi"),
            (lambda v: CylinderLabel(v, 0.0), "cylinder label l"),
            (lambda v: CylinderLabel(0.0, v), "label angle phi"),
            (lambda v: CosetLabel(1j, v), "label angle phi"),
            (lambda v: CosetLabel(1j, 0.0, x=v), "coset label x"),
            (lambda v: CosetLabel(1j, 0.0, y=v), "coset label y"),
            (lambda v: CirclePairParams(0.3, 0.4, 0.1, v, 0.5), "label angle phi"),
            (lambda v: CatPairParams(0.3, 0.4, v, 0.1, 0.5), "label angle phi"),
        ],
        ids=["circle-phi", "cylinder-l", "cylinder-phi", "coset-phi", "coset-x", "coset-y",
             "circle-params-phi", "cat-params-phi"],
    )
    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.5", "1", None, 1j])
    def test_a_bool_or_non_real_field_is_refused_naming_it(self, build, where, value):
        with pytest.raises(ValueError, match=rf"^{where} must be a real number, got "):
            build(value)

    @pytest.mark.parametrize(
        ("build", "where"),
        [
            (lambda v: Mp2Variable(v), "disk variable omega"),
            (lambda v: CosetLabel(v, 0.0), "coset label alpha"),
            (lambda v: CirclePairParams(0.3, v, 0.1, 1.2, 0.5), "disk variable omega"),
            (lambda v: CatPairParams(v, 0.4, 0.1, 1.2, 0.5), "cat displacement"),
        ],
        ids=["disk-variable", "coset-alpha", "circle-params-sigma", "cat-params-alpha"],
    )
    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.5", "0.5+1j", None])
    def test_a_bool_or_non_number_complex_field_is_refused_naming_it(self, build, where, value):
        with pytest.raises(ValueError, match=rf"^{where} must be a complex number, got "):
            build(value)

    def test_real_and_complex_fields_take_any_number_as_float_or_complex(self):
        assert type(CircleLabel(np.float32(0.5)).phi) is float
        cyl = CylinderLabel(1, np.int64(0))
        assert (cyl.l, cyl.phi) == (1.0, 0.0) and type(cyl.l) is float
        coset = CosetLabel(np.complex64(0.5 + 1j), 0, x=2, y=np.float32(0.5))
        assert [type(v) for v in (coset.alpha, coset.x, coset.y)] == [complex, float, float]
        assert (coset.x, coset.y) == (2.0, 0.5)
        assert [type(Mp2Variable(v).omega) for v in (0, np.float64(0.5), 0.5j)] == [complex] * 3

    def test_parity_sector_indices(self):
        assert Parity.EVEN.sector_index == 0.25
        assert Parity.ODD.sector_index == 0.75

    def test_parity_is_its_fock_offset(self):
        assert (Parity.EVEN, Parity.ODD) == (0, 1)
        assert "ab"[Parity.ODD] == "b"
        assert [str(p) for p in Parity] == ["Parity.EVEN", "Parity.ODD"]


class TestCircleProjection:
    def test_vacuum_even(self):
        seq = mp2_circle_projection(Mp2Variable(0.0), CircleLabel(0.0), Parity.EVEN)
        assert seq.terms[0] == pytest.approx(INV_SQRT_2PI, rel=1e-14)
        assert np.all(seq.terms[1:] == 0.0)

    def test_vacuum_odd_vanishes(self):
        seq = mp2_circle_projection(Mp2Variable(0.0), CircleLabel(0.0), Parity.ODD)
        assert np.all(seq.terms == 0.0)

    def test_coefficient_sum_hand_value(self):
        seq = mp2_circle_projection(Mp2Variable(0.5), CircleLabel(0.0), Parity.EVEN, 20)
        assert math.fsum(seq.terms.real) == pytest.approx(0.38797, abs=1e-5)

    def test_explicit_series_shape(self):
        omega, phi = 0.6 * cmath.exp(0.9j), 1.3
        z = omega * cmath.exp(1j * phi)
        seq = mp2_circle_projection(Mp2Variable(omega), CircleLabel(phi), Parity.ODD, 10)
        w = (1.0 - abs(omega) ** 2) ** 0.75
        for n in range(10):
            direct = (
                INV_SQRT_2PI
                * w
                * (z / 2.0) ** (2 * n + 1)
                / math.sqrt(math.factorial(2 * n + 1))
            )
            assert seq.terms[n] == pytest.approx(direct, rel=1e-11)

    def test_tail_bound_covers_refinement(self):
        var, lab = Mp2Variable(0.9), CircleLabel(0.4)
        for parity in Parity:
            coarse = mp2_circle_projection(var, lab, parity, 10)
            fine = mp2_circle_projection(var, lab, parity, 20)
            assert abs(fine.norm_sq() - coarse.norm_sq()) <= coarse.tail_bound

    @settings(max_examples=40)
    @given(disk_moduli, angles, angles)
    def test_phase_covariance(self, mod, phi, shift):
        # atol floors out subnormal coefficients, where relative phase
        # rotation error is meaningless
        var = Mp2Variable(mod)
        base = mp2_circle_projection(var, CircleLabel(phi), Parity.EVEN, 12)
        moved = mp2_circle_projection(var, CircleLabel(phi + shift), Parity.EVEN, 12)
        assert np.allclose(np.abs(base.terms), np.abs(moved.terms), rtol=1e-12, atol=1e-300)


class TestCylinderProjection:
    def test_vacuum(self):
        seq = mp2_cylinder_projection(
            Mp2Variable(0.0), CylinderLabel(0.7, 2.0), Parity.EVEN
        )
        assert seq.terms[0] == 1.0
        assert np.all(seq.terms[1:] == 0.0)

    def test_term_ratio_hand_value(self):
        seq = mp2_cylinder_projection(
            Mp2Variable(0.5), CylinderLabel(0.0, 0.0), Parity.EVEN
        )
        assert abs(seq.terms[1] / seq.terms[0]) == pytest.approx(
            0.25**2 / math.sqrt(2.0) * math.exp(-2.0), rel=1e-10
        )

    def test_gaussian_attenuation_of_circle_terms(self):
        # at l = 0 the cylinder terms are the circle ones (prefactor-free)
        # damped by exactly e^(-2n^2) / e^(-(2n+1)^2/2), or in the display
        # convention by e^(-4n^2) / e^(-4n^2 - (2n+1/2))
        var = Mp2Variable(0.7)
        amplitude, display = mp2_cylinder_projection, mp2_cylinder_display_projection
        for parity, record, gauss in (
            (Parity.EVEN, amplitude, lambda n: math.exp(-2.0 * n * n)),
            (Parity.ODD, amplitude, lambda n: math.exp(-((2 * n + 1) ** 2) / 2.0)),
            (Parity.EVEN, display, lambda n: math.exp(-4.0 * n * n)),
            (Parity.ODD, display, lambda n: math.exp(-4.0 * n * n - (2 * n + 0.5))),
        ):
            cyl = record(var, CylinderLabel(0.0, 0.9), parity, 12)
            circ = mp2_circle_projection(var, CircleLabel(0.9), parity, 12, prefactor=False)
            for n in range(12):
                if abs(circ.terms[n]) == 0.0:
                    continue
                ratio = abs(cyl.terms[n]) / abs(circ.terms[n])
                assert ratio == pytest.approx(gauss(n), rel=1e-12)

    def test_norm_self_consistency_at_large_omega(self):
        var, lab = Mp2Variable(0.9), CylinderLabel(0.0, 0.3)
        lo = mp2_cylinder_projection(var, lab, Parity.EVEN, 10).norm_sq()
        hi = mp2_cylinder_projection(var, lab, Parity.EVEN, 40).norm_sq()
        assert abs(lo - hi) <= 1e-14

    @pytest.mark.parametrize("mod", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_tail_bound_across_disk(self, mod):
        var, lab = Mp2Variable(mod), CylinderLabel(0.4, 1.0)
        for parity in Parity:
            coarse = mp2_cylinder_projection(var, lab, parity, 8)
            fine = mp2_cylinder_projection(var, lab, parity, 16)
            assert abs(fine.norm_sq() - coarse.norm_sq()) <= coarse.tail_bound

    def test_rejects_overflowing_label(self):
        with pytest.raises(ValueError):
            mp2_cylinder_projection(Mp2Variable(0.5), CylinderLabel(400.0, 0.0), Parity.EVEN)


class TestCosetProjection:
    def test_variable_hand_values(self):
        zp = coset_variable(Mp2Variable(0.5), CosetLabel(1j, math.pi / 3.0))
        assert abs(zp) == pytest.approx(0.5 * math.exp(-0.5), rel=1e-12)
        assert coset_variable(Mp2Variable(0.0), CosetLabel(1j, 1.0)) == 0.0
        zp2 = coset_variable(Mp2Variable(0.9), CosetLabel(0.1j, 0.0))
        assert abs(zp2) == pytest.approx(0.9 * math.exp(-0.05), rel=1e-12)
        assert abs(zp2) < 0.9

    @settings(max_examples=60)
    @given(
        st.floats(min_value=0.01, max_value=0.95),
        angles,
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=1e-3, max_value=5.0),
    )
    def test_contraction(self, mod, phi, re_a, im_a):
        var = Mp2Variable(mod)
        zp = coset_variable(var, CosetLabel(complex(re_a, im_a), phi))
        assert abs(zp) < mod
        assert abs(abs(zp) - mod * math.exp(-im_a / 2.0)) <= 1e-14

    def test_vacuum_even(self):
        seq = coset_projection(Mp2Variable(0.0), CosetLabel(1j, 0.3), Parity.EVEN)
        assert seq.terms[0] == pytest.approx(INV_SQRT_2PI, rel=1e-14)

    def test_leading_weight(self):
        seq = coset_projection(
            Mp2Variable(0.5), CosetLabel(1j, math.pi / 3.0), Parity.EVEN
        )
        weight = abs(seq.terms[0]) / INV_SQRT_2PI
        assert weight == pytest.approx((1.0 - (0.5 * math.exp(-0.5)) ** 2) ** 0.25, abs=1e-4)

    def test_large_im_alpha_kills_odd_terms(self):
        seq = coset_projection(Mp2Variable(0.8), CosetLabel(30.0j, 1.0), Parity.ODD)
        assert np.max(np.abs(seq.terms)) < 1e-6

    @pytest.mark.parametrize("mod", [0.1, 0.5, 0.9])
    def test_tail_bound_across_disk(self, mod):
        var, lab = Mp2Variable(mod), CosetLabel(0.5 + 0.3j, 2.0)
        for parity in Parity:
            coarse = coset_projection(var, lab, parity, 8)
            fine = coset_projection(var, lab, parity, 16)
            assert abs(fine.norm_sq() - coarse.norm_sq()) <= coarse.tail_bound


def fiducial_overlap(label: CosetLabel) -> complex:
    """The fiducial scalar S(alpha, phi) = x [cos(alpha-phi) - sin(alpha-phi)]
    + y [cos + sin], whose product with S(alpha*, phi) = conj(S(alpha, phi))
    fiducial_overlap_sq computes in closed form."""
    w = label.alpha - label.phi
    c, s = cmath.cos(w), cmath.sin(w)
    return label.x * (c - s) + label.y * (c + s)


class TestCosetNormalization:
    def test_fiducial_product_identity(self):
        for alpha, phi, x, y in [
            (0.3 + 0.9j, 0.5, 1.0, 0.0),
            (-1.2 + 0.4j, 2.0, 0.7, -0.4),
            (2.5 + 1.7j, 4.9, 0.0, 1.0),
        ]:
            label = CosetLabel(alpha, phi, x, y)
            s = fiducial_overlap(label)
            assert abs(s) ** 2 == pytest.approx(fiducial_overlap_sq(label), rel=1e-12)

    def test_symmetric_fiducial_closed_form(self):
        # x = y = 1 with Re(alpha) = phi gives SS = 2 cosh(2 Im alpha) + 2
        for v in (0.2, 1.0, 3.0):
            label = CosetLabel(complex(0.7, v), 0.7, x=1.0, y=1.0)
            assert fiducial_overlap_sq(label) == pytest.approx(
                2.0 * math.cosh(2.0 * v) + 2.0, rel=1e-12
            )

    def test_growth_rate(self):
        # x=1, y=0, Re alpha = phi: norm ~ e^(2 Im alpha) / (4 pi)
        lo = coset_normalization(CosetLabel(complex(0.3, 10.0), 0.3))
        hi = coset_normalization(CosetLabel(complex(0.3, 12.0), 0.3))
        assert hi / lo == pytest.approx(math.exp(4.0), rel=1e-3)
        assert lo == pytest.approx(math.exp(20.0) / (4.0 * math.pi), rel=1e-3)

    def test_positive_and_finite(self):
        value = coset_normalization(CosetLabel(0.4 + 0.8j, 1.1, 0.6, -0.2))
        assert value > 0.0 and math.isfinite(value)

    def test_rejects_tiny_im_alpha(self):
        with pytest.raises(ValueError):
            coset_normalization(CosetLabel(1.0 + 1e-9j, 0.0))


class TestCatProjection:
    def test_vacuum(self):
        even = cat_projection(0.0, CircleLabel(0.0), Parity.EVEN)
        odd = cat_projection(0.0, CircleLabel(0.0), Parity.ODD)
        assert even.terms[0] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)
        assert np.all(even.terms[1:] == 0.0)
        assert np.all(odd.terms == 0.0)

    def test_term_ratio(self):
        seq = cat_projection(1.0, CircleLabel(0.0), Parity.EVEN)
        assert seq.terms[1] / seq.terms[0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_explicit_series(self):
        alpha, phi = 1.3 - 0.2j, 0.8
        atilde = alpha * cmath.exp(1j * phi)
        seq = cat_projection(alpha, CircleLabel(phi), Parity.ODD, 12)
        pref = math.exp(-abs(alpha) ** 2 / 2.0) / (2.0 * math.pi)
        for n in range(12):
            direct = pref * atilde ** (2 * n + 1) / math.sqrt(math.factorial(2 * n + 1))
            assert seq.terms[n] == pytest.approx(direct, rel=1e-11)

    def test_tail_bound_covers_refinement(self):
        coarse = cat_projection(2.0, CircleLabel(0.0), Parity.EVEN, 15)
        fine = cat_projection(2.0, CircleLabel(0.0), Parity.EVEN, 60)
        assert abs(fine.norm_sq() - coarse.norm_sq()) <= coarse.tail_bound


# Every slot is built by states.fock_series.  Each case is (slot(parity, N),
# r) with r the bound on |odd_n / even_n| of the earlier per-family grouped
# total slot, whose tail was even.tail (1 + r)^2.
def _circle_case(w, phi):
    var = Mp2Variable(w)
    return (lambda p, n: mp2_circle_projection(var, CircleLabel(phi), p, n), abs(w) / 2.0)


def _coset_case(w, alpha, phi):
    var, label = Mp2Variable(w), CosetLabel(alpha, phi)
    zp = coset_variable(var, label)
    return (lambda p, n: coset_projection(var, label, p, n), abs(zp) / 2.0)


def _cylinder_case(w, l, phi, squared):
    var, label = Mp2Variable(w), CylinderLabel(l, phi)
    record = mp2_cylinder_display_projection if squared else mp2_cylinder_projection
    r = abs(w) * math.exp(l) / 2.0 * math.exp(-0.5)
    return (lambda p, n: record(var, label, p, n), r)


def _cat_case(alpha, phi):
    return (lambda p, n: cat_projection(alpha, CircleLabel(phi), p, n), abs(alpha))


SLOT_CASES = {
    "circle-0.3": lambda: _circle_case(0.3 * cmath.exp(0.4j), 1.1),
    "circle-0.95": lambda: _circle_case(0.95 * cmath.exp(-2.0j), 0.2),
    "coset-0.5": lambda: _coset_case(0.5, 0.4 + 0.8j, 0.9),
    "coset-0.9": lambda: _coset_case(0.9 * cmath.exp(1.0j), -0.2 + 0.5j, 2.0),
    "cylinder-amplitude": lambda: _cylinder_case(0.7 * cmath.exp(0.3j), 1.0, 0.6, False),
    "cylinder-amplitude-l2": lambda: _cylinder_case(0.9, 2.0, 2.5, False),
    "cylinder-displayed": lambda: _cylinder_case(0.7 * cmath.exp(0.3j), 1.0, 0.6, True),
    "cylinder-displayed-l2": lambda: _cylinder_case(0.9, 2.0, 2.5, True),
    "cat-0.5": lambda: _cat_case(0.5 - 0.2j, 0.7),
    "cat-1.95": lambda: _cat_case(1.95 * cmath.exp(2.0j), 4.0),
}


@pytest.mark.parametrize("case", SLOT_CASES)
class TestFockSeries:
    @pytest.mark.parametrize("terms", [2, 6])
    def test_total_is_even_plus_odd(self, case, terms):
        slot, _ = SLOT_CASES[case]()
        total = slot(None, terms).terms
        both = slot(Parity.EVEN, terms).terms + slot(Parity.ODD, terms).terms
        np.testing.assert_array_max_ulp(total.real, both.real, maxulp=1)
        np.testing.assert_array_max_ulp(total.imag, both.imag, maxulp=1)

    @pytest.mark.parametrize(
        "parity", [Parity.EVEN, Parity.ODD, None], ids=["even", "odd", "total"]
    )
    @pytest.mark.parametrize("terms", [3, 6])
    def test_tail_bound_covers_refinement(self, case, parity, terms):
        slot, _ = SLOT_CASES[case]()
        coarse, fine = slot(parity, terms), slot(parity, 4 * terms).norm_sq()
        # each exactly rounded norm is off by up to half an ulp
        assert fine - coarse.norm_sq() <= coarse.tail_bound + math.ulp(fine)

    @pytest.mark.parametrize("terms", [3, 6])
    def test_total_tail_within_grouped_bound(self, case, terms):
        slot, r = SLOT_CASES[case]()
        even = slot(Parity.EVEN, terms)
        assert slot(None, terms).tail_bound <= even.tail_bound * (1.0 + r) ** 2


# A batch builds each slot bit for bit as its batch of one, and raises
# where the scalar call of one of its elements raises.
PARITIES = [Parity.EVEN, Parity.ODD, None]
BATCH_TERMS = [1, 2, 6, 40]
signs = st.sampled_from([1.0, -1.0])


@st.composite
def batch_zs(draw):
    """0, a real z with a +-0.0 imaginary part, or a z of modulus 2 e^x
    with x up to past the overflow guard of every log-weight."""
    kind = draw(st.sampled_from(["zero", "real", "polar"]))
    if kind == "zero":
        return complex(draw(signs) * 0.0, draw(signs) * 0.0)
    if kind == "real":
        return complex(draw(st.floats(-50.0, 50.0)), draw(signs) * 0.0)
    return 2.0 * cmath.exp(complex(draw(st.floats(-30.0, 40.0)), draw(angles)))


def _outcome(build):
    try:
        return build()
    except (ValueError, ArithmeticError) as exc:
        return exc


def _assert_batch(build, items, outcomes, parity, terms):
    # a batch with an item whose scalar call raises raises a ValueError or
    # ArithmeticError (the sweep names the failing point); the batch of the
    # items that build is their scalar slots, row by row, bit for bit
    good = [(item, x) for item, x in zip(items, outcomes) if not isinstance(x, Exception)]
    if len(good) < len(items):
        with pytest.raises((ValueError, ArithmeticError)):
            build(items)
    if not good:
        return
    items, outcomes = (list(column) for column in zip(*good))
    batch, size = build(items), len(items)
    assert isinstance(batch, SlotBatch)
    assert (batch.norms.dtype, batch.tails.dtype, batch.terms.dtype) == (float, float, complex)
    assert (batch.norms.shape, batch.tails.shape, batch.terms.shape) == (
        (size,), (size,), (size, terms))
    for norm, tail, row, expected in zip(batch.norms.tolist(), batch.tails.tolist(), batch.terms,
                                         outcomes):
        assert expected.parity is parity
        assert row.tobytes() == expected.terms.tobytes()
        assert tail.hex() == expected.tail_bound.hex()
        assert norm.hex() == expected.norm_sq().hex()


@settings(max_examples=60, deadline=None)
@given(
    zs=st.lists(batch_zs(), min_size=1, max_size=6),
    amps=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
    weight=st.sampled_from([None, mp2_cylinder_projection.g, mp2_cylinder_display_projection.g]),
    parity=st.sampled_from(PARITIES),
    terms=st.sampled_from(BATCH_TERMS),
)
# the odd term's imaginary part underflows: -0.0 in a batch of two and of one
@example(zs=[1 + 0j, 2 - 4.450147717014e-311j], amps=(0.0, 2.4692176507257314e-286), weight=None,
         parity=Parity.ODD, terms=1)
def test_fock_series_batch_is_its_batch_of_one(zs, amps, weight, parity, terms):
    _assert_batch(
        lambda zs: fock_series_batch(zs, [amps] * len(zs), parity, terms, weight), zs,
        [_outcome(lambda: fock_series.__wrapped__(z, amps, parity, terms, weight)) for z in zs],
        parity, terms,
    )


@pytest.mark.parametrize(
    ("middle", "error"),
    # amplitudes of opposite sign pass the magnitude guard, which reads the
    # larger one, while the even terms' |c_n|^2, each finite, overflow in
    # fsum; NaN amplitudes pass it too and give a NaN tail
    [((-5e152, 0.5), OverflowError), ((math.nan, math.nan), ValueError)],
    ids=["norm-overflows", "nan-tail"],
)
def test_a_slot_that_fails_after_its_tail_guard_fails_its_batch(middle, error):
    zs, amps = [2.0, 2.0 * math.e, 2.0], [(1.0, 1.0), middle, (1.0, 1.0)]
    outcomes = [_outcome(lambda: fock_series.__wrapped__(z, pair, Parity.EVEN, 6))
                for z, pair in zip(zs, amps)]
    assert isinstance(outcomes[1], error)
    _assert_batch(lambda items: fock_series_batch(*zip(*items), Parity.EVEN, 6),
                  list(zip(zs, amps)), outcomes, Parity.EVEN, 6)


def _disk(modulus, arg):
    return Mp2Variable(cmath.rect(modulus, arg))


# record -> strategy of one (variable, label) point; the cylinder's l and
# the cat's |alpha| reach past the magnitude guard and past e^l or
# |alpha|^2 overflowing
RECORD_POINTS = {
    "circle": (mp2_circle_projection, st.tuples(
        st.builds(_disk, disk_moduli, angles), st.builds(CircleLabel, angles))),
    "cylinder": (mp2_cylinder_projection, st.tuples(
        st.builds(_disk, disk_moduli, angles),
        st.builds(CylinderLabel, st.one_of(st.floats(-5.0, 40.0), st.floats(700.0, 800.0)),
                  angles))),
    "cylinder-display": (mp2_cylinder_display_projection, st.tuples(
        st.builds(_disk, disk_moduli, angles),
        st.builds(CylinderLabel, st.floats(-5.0, 40.0), angles))),
    "coset": (coset_projection, st.tuples(
        st.builds(_disk, disk_moduli, angles),
        st.builds(CosetLabel, st.builds(complex, st.floats(-3.0, 3.0), st.floats(1e-6, 5.0)),
                  angles))),
    "cat": (cat_projection, st.tuples(
        st.builds(cmath.rect, st.one_of(st.floats(0.0, 12.0), st.sampled_from([1e154, 1e300])),
                  angles),
        st.builds(CircleLabel, angles))),
}


@pytest.mark.parametrize("record", RECORD_POINTS)
@pytest.mark.parametrize("parity", PARITIES, ids=["even", "odd", "total"])
@pytest.mark.parametrize("terms", BATCH_TERMS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_a_batch_over_record_input_columns_is_the_record_call(record, parity, terms, data):
    # a sweep's slot item: fock_series_batch over the object columns z and
    # amps of record.inputs (p = 1), as a sweep's input item forms them,
    # each slot the record's call bit for bit, or raising where one of its
    # points' calls raises
    slots, point = RECORD_POINTS[record]
    points = data.draw(st.lists(point, min_size=1, max_size=5))
    inputs = np.frompyfunc(slots.inputs, 2, 2)

    def build(points):
        var, label = (np.array(column, object) for column in zip(*points))
        return fock_series_batch(*inputs(var, label), parity, terms, slots.g)

    _assert_batch(
        build, points,
        [_outcome(lambda: slots(var, label, parity, terms, False)) for var, label in points],
        parity, terms,
    )


@pytest.mark.parametrize("record", RECORD_POINTS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_record_inputs_are_z_then_the_amplitudes_at_that_z(record, data):
    # the one (z, amps) rule: one z call, then one amps call on its z
    slots, point = RECORD_POINTS[record]
    var, label = data.draw(point)
    calls = []

    def logged(name, function):
        def call(*args):
            calls.append((name, args))
            return function(*args)
        return call

    logging = replace(slots, z=logged("z", slots.z), amps=logged("amps", slots.amps))
    try:
        z = slots.z(var, label)
        expected = z, slots.amps(var, z)
    except (ValueError, ArithmeticError) as exc:
        with pytest.raises(type(exc)):
            logging.inputs(var, label)
        return
    assert logging.inputs(var, label) == expected
    assert calls == [("z", (var, label)), ("amps", (var, z))]


@pytest.mark.parametrize(
    ("terms", "message"),
    [(True, "truncation must be an integer, got True"),
     (1.0, "truncation must be an integer, got 1.0"),
     (2.5, "truncation must be an integer, got 2.5"),
     (0, "truncation must be >= 1, got 0")],
)
def test_a_bad_truncation_is_refused_past_the_slot_memo(terms, message):
    # True and 1.0 equal 1: the 1-term slot in the memo must not answer them
    calls = (
        lambda n: mp2_circle_projection(Mp2Variable(0.5), CircleLabel(0.0), Parity.EVEN, n),
        lambda n: fock_series(0.5 + 0j, (1.0, 1.0), Parity.EVEN, n),
    )
    fock_series.cache_clear()
    for call in calls:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(terms)
        call(1)
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(terms)
