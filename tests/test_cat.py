import cmath
import math

import numpy as np
import pytest

from mp2ent.cat_compare import (
    CatPairParams,
    cat_entangled_probability,
    cat_overlap_block,
    cat_overlap_block_norm,
    coherent_fock_vector,
    density_matrix_cat,
    density_matrix_mp2,
    purity,
    sector_off_diagonal_norm,
)
from mp2ent.entangle_circle import (
    CirclePairParams,
    SectorPair,
    probability_series,
)
from mp2ent.numerics import stable_norm_sq
from mp2ent.states import CircleLabel, Mp2Variable, Parity, cat_projection

ORTHO = math.pi / 2.0


def params(alpha, beta, delta, rho):
    return CatPairParams(alpha, beta, CircleLabel(0.7 + delta), CircleLabel(0.7), rho)


class TestCatProbability:
    def test_float_labels_are_coerced_to_circle_labels(self):
        p = CatPairParams(0.5, 0.5, 0.0, 1.0, 0.0)
        assert (p.phi, p.phi_prime) == (CircleLabel(0.0), CircleLabel(1.0))
        labelled = CatPairParams(0.5, 0.5, CircleLabel(0.0), CircleLabel(1.0), 0.0)
        for pair in SectorPair:
            assert cat_entangled_probability(p, pair, 20) == (
                cat_entangled_probability(labelled, pair, 20)
            )

    def test_same_cancellation_structure_as_sector_pairs(self):
        zero = cat_entangled_probability(params(0.0, 0.0, 0.0, 0.0), SectorPair.PP, 10)
        assert zero.value < 1e-30
        anti = cat_entangled_probability(params(0.0, 0.0, 0.0, math.pi), SectorPair.PP, 10)
        assert anti.value == pytest.approx(1.0, abs=1e-12)

    def test_null_odd_displacement_values(self):
        # an odd slot at zero displacement is exactly zero in the
        # unnormalized convention, so these pairs vanish exactly
        for alpha, beta, pair in (
            (0.0, 1.0, SectorPair.MM), (1.0, 0.0, SectorPair.MM),
            (0.0, 0.0, SectorPair.MM), (1.0, 0.0, SectorPair.PM),
        ):
            value = cat_entangled_probability(params(alpha, beta, ORTHO, 0.3), pair, 10).value
            assert value == 0.0
        # pm at alpha = 0: u1 = v1 = |0>, so P = |u2 - e^(i rho) v2|^2 / 4 with
        # |u2|^2 = |v2|^2 = e^(-1) sinh 1 and <u2, v2> imaginary at delta = pi/2
        pm = cat_entangled_probability(params(0.0, 1.0, ORTHO, 0.0), SectorPair.PM, 40)
        assert pm.value == pytest.approx((1.0 - math.exp(-2.0)) / 4.0, rel=1e-14)

    def test_coincident_separability(self):
        for pair in (SectorPair.PP, SectorPair.PM):
            ratios = [
                cat_entangled_probability(params(0.8, 1.2, 0.0, r), pair, 30).value
                / (1.0 - math.cos(r))
                for r in (math.pi / 3.0, math.pi / 2.0, math.pi)
            ]
            assert max(ratios) - min(ratios) <= 1e-10 * max(ratios)

    def test_orthogonal_cat_exceeds_mp2_at_sampled_point(self):
        cat = cat_entangled_probability(params(1.0, 1.0, ORTHO, 0.0), SectorPair.PM, 40)
        mp2 = probability_series(
            CirclePairParams(
                Mp2Variable(0.5), Mp2Variable(0.5),
                CircleLabel(0.7 + ORTHO), CircleLabel(0.7), 0.0,
            ),
            SectorPair.PM,
            40,
        )
        assert cat.value > mp2.value > 0.0

    def test_antipodal_vs_non_antipodal_differ_for_even_pair(self):
        # orthogonal-state even-even surfaces at rho = 0 and rho = pi differ
        # far beyond numerical tolerance
        for alpha, beta in ((0.5, 0.5), (1.0, 1.5), (1.9, 0.7)):
            p0 = cat_entangled_probability(params(alpha, beta, ORTHO, 0.0), SectorPair.PP).value
            ppi = cat_entangled_probability(params(alpha, beta, ORTHO, math.pi), SectorPair.PP).value
            assert abs(p0 - ppi) > 1e-11 * 10.0


class TestCatCompleteness:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_even_plus_odd_is_full_coherent_projection(self, alpha):
        label = CircleLabel(0.9)
        even = cat_projection(alpha, label, Parity.EVEN, 30)
        odd = cat_projection(alpha, label, Parity.ODD, 30)
        atilde = alpha * cmath.exp(1j * label.phi)
        pref = math.exp(-abs(alpha) ** 2 / 2.0) / (2.0 * math.pi)
        for k in range(60):
            full = pref * atilde**k / math.sqrt(math.factorial(k))
            got = even.terms[k // 2] if k % 2 == 0 else odd.terms[k // 2]
            assert abs(got - full) <= 1e-12


class TestDensityMatrices:
    def test_coherent_vector_must_be_decaying(self):
        # 5^k / sqrt(k!) still grows at k = 16
        with pytest.raises(ValueError, match="increase terms"):
            coherent_fock_vector(5.0, 16)

    def test_vacuum_even_cat_is_fock_vacuum(self):
        rho = density_matrix_cat(0.0, Parity.EVEN, 16)
        expect = np.zeros((16, 16))
        expect[0, 0] = 1.0
        assert np.allclose(rho.entries, expect, atol=1e-15)

    def test_odd_cat_rejected_at_zero(self):
        with pytest.raises(ValueError):
            density_matrix_cat(0.0, Parity.ODD, 16)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
    def test_unit_trace_and_purity(self, alpha, parity):
        rho = density_matrix_cat(alpha, parity, 32)
        assert abs(np.trace(rho.entries).real - 1.0) <= 1e-10
        assert purity(rho) == pytest.approx(1.0, abs=1e-8)
        assert abs(rho.trace_deficit) < 1e-8

    @pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
    def test_cat_lives_on_the_fock_states_of_its_offset(self, parity):
        rho = density_matrix_cat(1.0 + 0.5j, parity, 16)
        other = np.arange(16) % 2 != parity
        assert np.max(np.abs(rho.entries[other])) < 1e-12
        assert np.max(np.abs(rho.entries[:, other])) < 1e-12

    @pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
    def test_overlap_block_norm_closed_form(self, parity):
        # |(|-a><a| + |a><-a|)|_F^2 = 2 + 2 e^(-4|a|^2), over 2(1 +- e^(-2|a|^2))
        expected = math.sqrt(2.0 + 2.0 * math.exp(-4.0)) / (
            2.0 * (1.0 + (-1) ** parity * math.exp(-2.0))
        )
        assert cat_overlap_block_norm(1.0, parity, 32) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 0.8 - 1.1j, 2.0j])
    @pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
    def test_overlap_block_is_parity_diagonal(self, alpha, parity):
        # |-a><a| + |a><-a| = 2 (e e^+ - o o^+), e and o the even and odd
        # parts of |a>: its even/odd entries are 0 up to rounding, and its
        # norm is 2 sqrt(|e|^4 + |o|^4)/norm
        vec = coherent_fock_vector(alpha, 32)
        e, o = vec.copy(), vec.copy()
        e[1::2], o[::2] = 0.0, 0.0
        norm = 2.0 * (1.0 + (-1) ** parity * math.exp(-2.0 * abs(alpha) ** 2))
        vm = coherent_fock_vector(-alpha, 32)
        block = np.outer(vm, vec.conj()) + np.outer(vec, vm.conj())
        assert np.allclose(block, 2.0 * (np.outer(e, e.conj()) - np.outer(o, o.conj())),
                           rtol=0.0, atol=1e-15)
        ee, oo = np.vdot(e, e).real, np.vdot(o, o).real
        expected = 2.0 * math.sqrt(ee * ee + oo * oo) / norm
        assert cat_overlap_block_norm(alpha, parity, 32) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 0.8 - 1.1j, 2.0j])
    @pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
    def test_overlap_block_even_odd_entries_are_exactly_zero(self, alpha, parity):
        # built from |a> alone as 2 (e e^+ - o o^+)/norm, the block has no
        # rounding residue off its parity blocks, as the sector matrices
        # it is compared with have none
        block = cat_overlap_block(alpha, parity, 32)
        even = np.arange(32) % 2 == 0
        assert np.all(block[np.ix_(even, ~even)] == 0.0)
        assert np.all(block[np.ix_(~even, even)] == 0.0)
        assert np.any(block[np.ix_(even, even)] != 0.0) and np.any(block[np.ix_(~even, ~even)] != 0.0)
        assert cat_overlap_block_norm(alpha, parity, 32) == math.sqrt(stable_norm_sq(block))

    def test_even_cat_00_entry(self):
        # (0,0) entry from the two-coherent-state overlap structure
        alpha = 1.0
        rho = density_matrix_cat(alpha, Parity.EVEN, 32)
        v0 = math.exp(-abs(alpha) ** 2 / 2.0)
        expect = 4.0 * v0 * v0 / (2.0 * (1.0 + math.exp(-2.0 * abs(alpha) ** 2)))
        assert rho.entries[0, 0].real == pytest.approx(expect, rel=1e-10)

    def test_cat_matrix_has_off_sector_blocks(self):
        rho = density_matrix_cat(1.0, Parity.EVEN, 32)
        # even cat: odd Fock rows vanish entirely, but the representation is
        # checked against the mixed even/odd structure of the generalized state
        assert sector_off_diagonal_norm(rho) == pytest.approx(0.0, abs=1e-15)
        mixed = 0.5 * (
            density_matrix_cat(1.0, Parity.EVEN, 32).entries
            + density_matrix_cat(1.0, Parity.ODD, 32).entries
        )
        coherent = np.outer(
            coherent_fock_vector(1.0, 32), coherent_fock_vector(1.0, 32).conj()
        )
        even_idx = np.arange(32) % 2 == 0
        off = coherent[np.ix_(even_idx, ~even_idx)]
        assert np.max(np.abs(off)) > 1e-3
        assert np.max(np.abs(mixed)) > 0

    def test_mp2_matrices_are_sector_diagonal(self):
        even = Mp2Variable(0.6)
        seq_even = _mp2_ket(even, Parity.EVEN)
        seq_odd = _mp2_ket(even, Parity.ODD)
        for a, b in ((1.0, 0.0), (0.0, 1.0)):
            rho = density_matrix_mp2(a, b, seq_even, seq_odd)
            assert sector_off_diagonal_norm(rho) == 0.0
            assert purity(rho) == pytest.approx(1.0, abs=1e-10)

    def test_generalized_state_blocks(self):
        seq_even = _mp2_ket(Mp2Variable(0.6), Parity.EVEN)
        seq_odd = _mp2_ket(Mp2Variable(0.6), Parity.ODD)
        rho = density_matrix_mp2(1.0, 1.0, seq_even, seq_odd, sign=+1)
        assert sector_off_diagonal_norm(rho) > 0.1
        assert purity(rho) == pytest.approx(1.0, abs=1e-10)
        assert abs(np.trace(rho.entries).real - 1.0) <= 1e-10

    def test_total_slot_is_not_an_even_state(self):
        # the grouped even + odd slot carries no parity, so it cannot stand
        # in for the even sector state
        total = _mp2_ket(Mp2Variable(0.6), None)
        assert total.parity is None
        with pytest.raises(ValueError, match="matching parities"):
            density_matrix_mp2(1.0, 1.0, total, _mp2_ket(Mp2Variable(0.6), Parity.ODD))

    def test_minus_branch_degenerate_normalization_rejected(self):
        seq_even = _mp2_ket(Mp2Variable(0.6), Parity.EVEN)
        seq_odd = _mp2_ket(Mp2Variable(0.6), Parity.ODD)
        with pytest.raises(ValueError):
            density_matrix_mp2(1.0, 1.0, seq_even, seq_odd, sign=-1)

    def test_minus_branch_reports_renormalization(self):
        seq_even = _mp2_ket(Mp2Variable(0.6), Parity.EVEN)
        seq_odd = _mp2_ket(Mp2Variable(0.6), Parity.ODD)
        rho = density_matrix_mp2(1.0, 0.5, seq_even, seq_odd, sign=-1)
        assert abs(np.trace(rho.entries).real - 1.0) <= 1e-10
        # bracket trace (|A|^2+|B|^2)/(|A|^2-|B|^2) = 1.25/0.75
        assert rho.trace_deficit == pytest.approx(1.0 - 1.25 / 0.75, rel=1e-10)
        assert purity(rho) == pytest.approx(1.0, abs=1e-10)

    def test_purity_of_mixed_state(self):
        from mp2ent.cat_compare import DensityMatrix

        half = np.zeros((8, 8), dtype=complex)
        half[0, 0] = half[1, 1] = 0.5
        assert purity(DensityMatrix(half, "fock")) == pytest.approx(0.5, abs=1e-15)


def _mp2_ket(var, parity):
    # Fock coefficients of the basic sector states, phase-free label
    from mp2ent.states import mp2_circle_projection

    return mp2_circle_projection(var, CircleLabel(0.0), parity, 16, prefactor=False)
