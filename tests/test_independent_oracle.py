"""High-precision cross-checks with an independent arithmetic path.

Everything in the package flows through the same float64 log-space kernels,
so these tests rebuild the probability of every family and sector pair from
scratch in mpmath (40 digits, direct products and factorials, no shared code)
and compare.
"""

import pytest

mpmath = pytest.importorskip("mpmath")
from mpmath import mp, mpc  # noqa: E402

from mp2ent.cat_compare import CatPairParams, cat_entangled_probability
from mp2ent.entangle_circle import (
    CirclePairParams,
    SectorPair,
    probability_series,
)
from mp2ent.entangle_coset import CosetPairParams, probability_series_coset
from mp2ent.entangle_cylinder import CylinderPairParams, probability_series_cyl
from mp2ent.numerics import power_term
from mp2ent.states import (
    CircleLabel,
    CosetLabel,
    CylinderLabel,
    Mp2Variable,
)

mp.dps = 40
N = 50


def mp_term(z, k):
    return (z / 2) ** k / mp.sqrt(mp.factorial(k))


def disk_term(z, k, modulus):
    """w^(1/4) (z/2)^k / sqrt(k!) for even k, w^(3/4) (...) for odd k, with
    w = 1 - modulus^2."""
    return (1 - mp.mpf(modulus) ** 2) ** (mp.mpf(1 + 2 * (k % 2)) / 4) * mp_term(z, k)


# Fock-index term k of one state of each family, as it enters the pair
# summands (bra-side conjugation included).
def circle_term(var, phi, k):
    return mp.conj(disk_term(mpc(var) * mp.expj(phi), k, abs(mpc(var))))


def coset_term(var, label, k):
    alpha, phi = label
    z = mpc(var) * mp.expj(mp.mpf(phi) - mp.conj(mpc(alpha)) / 2)
    return mp.conj(disk_term(z, k, abs(z)))


def cylinder_term(var, label, k):
    # pair summands conjugate the disk variable only; the amplitude weight is
    # e^(-2n^2) for k = 2n and e^(-(2n+1)^2/2) for k = 2n+1, i.e. e^(-k^2/2)
    l, phi = label
    z = mp.conj(mpc(var)) * mp.exp(mpc(l, -phi))
    return disk_term(z, k, abs(mpc(var))) * mp.exp(-mp.mpf(k) ** 2 / 2)


def cat_term(alpha, phi, k):
    atilde = mpc(alpha) * mp.expj(phi)
    return mp.conj(mp.exp(-abs(mpc(alpha)) ** 2 / 2) * mp_term(2 * atilde, k))


def mp_slot(term, var, label, parity):
    """Fock 2n + parity of one state; parity None is the grouped total slot
    Fock 2n + Fock 2n+1."""
    if parity is None:
        return [term(var, label, 2 * n) + term(var, label, 2 * n + 1) for n in range(N)]
    return [term(var, label, 2 * n + parity) for n in range(N)]


def mp_probability(term, first, second, label, label_prime, rho, pair, swap_sign, pref):
    """sum_nm |p (u1_n u2_m + s e^(i rho) v1_n v2_m)|^2 over the four slots."""
    p1, p2 = PARITIES[pair]
    u1, u2 = mp_slot(term, first, label, p1), mp_slot(term, second, label_prime, p2)
    v1, v2 = mp_slot(term, first, label_prime, p1), mp_slot(term, second, label, p2)
    phase = swap_sign * mp.expj(rho)
    return sum(
        abs(pref * (u1[n] * u2[m] + phase * v1[n] * v2[m])) ** 2
        for n in range(N)
        for m in range(N)
    )


PARITIES = {
    SectorPair.PP: (0, 0),
    SectorPair.PM: (0, 1),
    SectorPair.MM: (1, 1),
    SectorPair.TOTAL: (None, None),
}

# family -> (term, swap sign, amplitude prefactor, sample point
# (first, second, label, label', rho), package series at that point)
FAMILIES = {
    "circle": (
        circle_term, -1, mp.mpf(1) / 2, (0.3, 0.8, 1.8, 0.7, 2.0),
        lambda w, s, lab, labp, rho, pair: probability_series(
            CirclePairParams(w, s, lab, labp, rho), pair, N
        ),
    ),
    "cylinder": (
        cylinder_term, 1, 1 / mp.sqrt(2), (0.3, 0.8, (0.4, 0.9), (-0.2, 0.7), 1.3),
        lambda w, s, lab, labp, rho, pair: probability_series_cyl(
            CylinderPairParams(w, s, CylinderLabel(*lab), CylinderLabel(*labp), rho),
            pair, N,
        ),
    ),
    "coset": (
        coset_term, 1, mp.mpf(1) / 2, (0.7, 0.3, (0.4 + 0.8j, 0.9), (-0.2 + 1.3j, 0.1), 1.2),
        lambda w, s, lab, labp, rho, pair: probability_series_coset(
            CosetPairParams(w, s, CosetLabel(*lab), CosetLabel(*labp), rho), pair, N
        ),
    ),
    "cat": (
        cat_term, -1, mp.mpf(1) / 2, (1.3, 0.6, 2.3, 0.7, 0.9),
        lambda a, b, lab, labp, rho, pair: cat_entangled_probability(
            CatPairParams(a, b, CircleLabel(lab), CircleLabel(labp), rho), pair, N
        ),
    ),
}


class TestAgainstMpmath:
    def test_power_term(self):
        for z, k in ((1.3 - 0.4j, 17), (3.9 + 0.1j, 120), (0.02, 5)):
            ref = complex(mp_term(mpc(z), k))
            assert power_term(z, k) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("pair", list(SectorPair), ids=lambda p: p.value)
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_pair_probability(self, family, pair):
        term, swap_sign, pref, point, package = FAMILIES[family]
        reference = float(mp_probability(term, *point, pair, swap_sign, pref))
        assert package(*point, pair).value == pytest.approx(reference, rel=1e-13)


class TestTruncationContract:
    def test_probability_refinement_within_tail(self):
        circle = CirclePairParams(
            Mp2Variable(0.9), Mp2Variable(0.8), CircleLabel(1.1), CircleLabel(0.2), 2.0
        )
        coarse = probability_series(circle, SectorPair.PP, 8)
        fine = probability_series(circle, SectorPair.PP, 32)
        assert abs(fine.value - coarse.value) <= coarse.tail_bound

        coset = CosetPairParams(
            Mp2Variable(0.9), Mp2Variable(0.8),
            CosetLabel(0.4 + 0.2j, 0.9), CosetLabel(-0.2 + 0.3j, 0.1), 1.0,
        )
        coarse = probability_series_coset(coset, SectorPair.MM, 6)
        fine = probability_series_coset(coset, SectorPair.MM, 24)
        assert abs(fine.value - coarse.value) <= coarse.tail_bound

        cat = CatPairParams(1.9, 1.5, CircleLabel(1.1), CircleLabel(0.2), 0.7)
        coarse = cat_entangled_probability(cat, SectorPair.PM, 10)
        fine = cat_entangled_probability(cat, SectorPair.PM, 40)
        assert abs(fine.value - coarse.value) <= coarse.tail_bound

        cyl = CylinderPairParams(
            Mp2Variable(0.9), Mp2Variable(0.8),
            CylinderLabel(0.5, 1.1), CylinderLabel(-0.3, 0.2), 0.4,
        )
        coarse = probability_series_cyl(cyl, SectorPair.PP, 4)
        fine = probability_series_cyl(cyl, SectorPair.PP, 16)
        assert abs(fine.value - coarse.value) <= coarse.tail_bound
