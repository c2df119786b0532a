"""The O(N) rank-2 pair norm and the slot memo behind it.

``CoefficientMatrix.norm_sq`` never builds the N x N matrix; the exactly
rounded sum over the materialised ``entries`` (``stable_norm_sq``) is kept
here as the O(N^2) reference it is checked against.  The per-point
expressions of the Gram form and of the pair tail bound are kept here too,
as the bit-for-bit references of ``gram_form`` and ``pair_tail``, the one
body each that every path calls on scalars or arrays.
"""

import cmath
import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mp2ent import states
from mp2ent.cat_compare import CatPairParams, cat_coefficient_matrix
from mp2ent.entangle_circle import (
    CirclePairParams,
    CoefficientMatrix,
    EntangledPair,
    SectorPair,
    coefficient_matrix,
    gram_form,
    pair_matrix,
    pair_tail,
)
from mp2ent.entangle_coset import CosetPairParams, coefficient_matrix_coset
from mp2ent.entangle_cylinder import (
    CYLINDER_DISPLAY_PAIR,
    CylinderPairParams,
    coefficient_matrix_cyl,
)
from mp2ent.grids import FAMILIES, AxisSpec, SweepSpec, grid_to_csv, grid_to_json, run_sweep
from mp2ent.numerics import stable_inner, stable_norm_sq
from mp2ent.states import (
    CircleLabel,
    CosetLabel,
    CylinderLabel,
    Mp2Variable,
    Parity,
    cat_projection,
    coset_projection,
    mp2_circle_projection,
    mp2_cylinder_display_projection,
    mp2_cylinder_projection,
)

U = 2.0**-53  # unit roundoff
TINY = 2.0**-1074  # smallest subnormal


def _matrix(family, pair, terms, w, s, phi, phi_p, rho, extra):
    """One pair matrix of ``family``; ``extra`` is the cylinder (l, l') or
    the coset Im(alpha), Im(alpha')."""
    if family == "circle":
        return coefficient_matrix(CirclePairParams(w, s, phi, phi_p, rho), pair, terms)
    if family.startswith("cylinder"):
        params = CylinderPairParams(
            w, s, CylinderLabel(extra[0], phi), CylinderLabel(extra[1], phi_p), rho
        )
        weights = "displayed" if family.endswith("displayed") else "amplitude"
        return coefficient_matrix_cyl(params, pair, terms, weights)
    if family == "coset":
        params = CosetPairParams(
            w, s, CosetLabel(complex(0.3, extra[0]), phi),
            CosetLabel(complex(-0.2, extra[1]), phi_p), rho,
        )
        return coefficient_matrix_coset(params, pair, terms)
    return cat_coefficient_matrix(
        CatPairParams(2.0 * w, 2.0 * s, CircleLabel(phi), CircleLabel(phi_p), rho),
        pair, terms,
    )


def _comparison_bound(m, fast, ref):
    """Bound on |norm_sq() - stable_norm_sq(entries)| from the two forward
    error bounds in the ``entangle_circle`` docstring,

        |norm_sq - P| <= 56 u sqrt(P S) + 13 u P + O(u^2 S)   (projected form)
        |ref - P|     <= 16 u sqrt(P S) +  3 u P + O(u^2 S)   (entries sum)

    with S = p^2 (|u1| |u2| + |phase| |v1| |v2|)^2.  The exact P is replaced
    by P^ = max(norm_sq, ref): sqrt(P S) <= sqrt(P^ S) + 71 u S, so the swap
    costs one more O(u^2 S) term.  The first-order constants are rounded up
    (72 -> 80, 16 -> 20) and every O(u^2 S) term is covered by 1e4 u^2 S.

    Both bounds assume no underflow.  Gradual underflow adds at most TINY/2
    per operation instead; the two computations make fewer than 100 N
    operations, and each such error is scaled afterwards by at most
    (1 + max |slot|^2)^2 (p <= 1).  sqrt(P^ S) is taken as sqrt(P^) sqrt(S),
    since the product P^ S itself can underflow to 0.
    """
    norms = [slot.norm_sq() for slot in m.slots]
    n1u, n2u, n1v, n2v = map(math.sqrt, norms)
    scale = (m.amp_prefactor * (n1u * n2u + abs(m.phase) * n1v * n2v)) ** 2
    p_hat = max(fast, ref)
    underflow = 100 * len(m.slots[0]) * TINY * (1.0 + max(norms)) ** 2
    return (
        80.0 * U * math.sqrt(p_hat) * math.sqrt(scale) + 20.0 * U * p_hat
        + 1e4 * U**2 * scale + underflow
    )


moduli = st.floats(min_value=0.0, max_value=0.95)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi)


class TestProjectedNorm:
    @settings(max_examples=300, deadline=None)
    @given(
        family=st.sampled_from(
            ["circle", "cylinder-amplitude", "cylinder-displayed", "coset", "cat"]
        ),
        pair=st.sampled_from(list(SectorPair)),
        terms=st.integers(min_value=1, max_value=40),
        w=moduli, s=moduli, arg_w=angles, arg_s=angles, phi=angles,
        # None: coincident labels, where the two rank-one terms can cancel
        phi_p=st.one_of(st.none(), angles),
        rho=st.one_of(st.just(0.0), st.just(math.pi), angles),
        extra=st.tuples(
            st.floats(min_value=0.5, max_value=2.0), st.floats(min_value=0.5, max_value=2.0)
        ),
    )
    # P S < 5e-324 here: sqrt(P S) underflowed to 0 in the test bound
    @example(
        family="coset", pair=SectorPair.MM, terms=1, w=0.5, s=4.411969406764022e-123,
        arg_w=0.0, arg_s=0.0, phi=0.0, phi_p=None, rho=math.pi, extra=(1.0, 2.0),
    )
    def test_matches_entries_sum_within_derived_bound(
        self, family, pair, terms, w, s, arg_w, arg_s, phi, phi_p, rho, extra
    ):
        w, s = w * cmath.exp(1j * arg_w), s * cmath.exp(1j * arg_s)
        if family.startswith("cylinder"):
            extra = (extra[0] - 1.5, extra[1] - 1.5)  # l, l' in [-1, 0.5]
        try:
            m = _matrix(family, pair, terms, w, s, phi, phi if phi_p is None else phi_p,
                        rho, extra)
        except ValueError:  # series not yet decaying
            assume(False)
        fast, ref = m.norm_sq(), stable_norm_sq(m.entries)
        assert fast >= 0.0
        assert abs(fast - ref) <= _comparison_bound(m, fast, ref)

    @pytest.mark.parametrize("pair", [SectorPair.PP, SectorPair.PM, SectorPair.MM])
    def test_coincident_rho_zero_is_exactly_zero(self, pair):
        for family in ("circle", "cat"):
            m = _matrix(family, pair, 30, 0.6j, 0.4, 1.1, 1.1, 0.0, None)
            assert m.norm_sq() == 0.0

    def test_null_first_slots(self):
        # at omega = 0 both odd first slots vanish, so the mm matrix is zero
        m = coefficient_matrix(CirclePairParams(0.0, 0.5, 1.0, 0.2, 0.4), SectorPair.MM, 8)
        assert m.norm_sq() == 0.0 == stable_norm_sq(m.entries)


def _old_slots(slot, first, second, label, label_p, pair):
    """The four slots u1 = (first, label), u2 = (second, label'),
    v1 = (first, label'), v2 = (second, label) of ``slot``."""
    p1, p2 = (None, None) if pair is SectorPair.TOTAL else pair.parities
    return (slot(first, label, p1), slot(second, label_p, p2),
            slot(first, label_p, p1), slot(second, label, p2))


def _old_entries(slot, first, second, label, label_p, pair, rho, swap_sign, p):
    """The N x N construction the pair matrix used before the rank-2 form,
    over the conjugated slots of :func:`_old_slots`."""
    slots = _old_slots(slot, first, second, label, label_p, pair)
    u1, u2, v1, v2 = (np.conj(s.terms) for s in slots)
    phase = swap_sign * cmath.exp(1j * rho)
    return p * (np.outer(u1, u2) + phase * np.outer(v1, v2))


N_BITS = 24
_W, _S, _RHO = 0.7 * cmath.exp(0.4j), 0.5j, 0.9
_CYL = (CylinderLabel(0.4, 1.7), CylinderLabel(-0.3, 0.5))
_COSET = (CosetLabel(0.2 + 0.7j, 0.3), CosetLabel(-0.5 + 1.4j, 2.9))

# family -> (pair matrix at one generic point, the same pair by the old
# construction from the family's slot builder)
BIT_CASES = {
    "circle": (
        lambda pair: coefficient_matrix(CirclePairParams(_W, _S, 1.3, 0.2, _RHO), pair, N_BITS),
        lambda pair: _old_entries(
            lambda var, phi, par: mp2_circle_projection(
                Mp2Variable(var), CircleLabel(phi), par, N_BITS, False),
            _W, _S, 1.3, 0.2, pair, _RHO, -1.0, 0.5,
        ),
    ),
    # the slots of the display pair's record, at z' = omega e^(l + i phi)
    "cylinder": (
        lambda pair: coefficient_matrix_cyl(CylinderPairParams(_W, _S, *_CYL, _RHO), pair, N_BITS),
        lambda pair: _old_entries(
            lambda var, lab, par: CYLINDER_DISPLAY_PAIR.record(Mp2Variable(var), lab, par, N_BITS),
            _W, _S, *_CYL, pair, _RHO, 1.0, 1.0 / math.sqrt(2.0),
        ),
    ),
    "coset": (
        lambda pair: coefficient_matrix_coset(
            CosetPairParams(_W, _S, *_COSET, _RHO), pair, N_BITS),
        lambda pair: _old_entries(
            lambda var, lab, par: coset_projection(Mp2Variable(var), lab, par, N_BITS, False),
            _W, _S, *_COSET, pair, _RHO, 1.0, 0.5,
        ),
    ),
    "cat": (
        lambda pair: cat_coefficient_matrix(
            CatPairParams(1.2 - 0.5j, 1.9j, CircleLabel(0.8), CircleLabel(5.0), _RHO),
            pair, N_BITS),
        lambda pair: _old_entries(
            lambda a, phi, par: cat_projection(a, CircleLabel(phi), par, N_BITS, False),
            1.2 - 0.5j, 1.9j, 0.8, 5.0, pair, _RHO, -1.0, 0.5,
        ),
    ),
}


@pytest.mark.parametrize("family", BIT_CASES)
@pytest.mark.parametrize("pair", list(SectorPair), ids=lambda p: p.value)
def test_entries_equal_outer_construction_bit_for_bit(family, pair):
    matrix, old = BIT_CASES[family]
    entries = matrix(pair).entries
    assert entries.shape == (N_BITS, N_BITS)
    assert entries.tobytes() == old(pair).tobytes()
    assert not entries.flags.writeable


def test_every_pair_is_its_record_swap_sign_and_prefactor():
    # one pair form: no family's slots enter unconjugated
    assert [f.name for f in dataclasses.fields(EntangledPair)] == [
        "record", "swap_sign", "amp_prefactor"]
    assert [f.name for f in dataclasses.fields(CoefficientMatrix)] == [
        "slots", "phase", "amp_prefactor", "tail_bound"]
    assert list(inspect.signature(pair_matrix).parameters) == [
        "slot1_u", "slot2_u", "slot1_v", "slot2_v", "rho", "swap_sign", "amp_prefactor"]


@settings(max_examples=150, deadline=None)
@given(
    pair=st.sampled_from(list(SectorPair)),
    weights=st.sampled_from(["displayed", "amplitude"]),
    terms=st.integers(min_value=1, max_value=40),
    w=st.one_of(st.sampled_from([0.0, -0.0, 0.5]), moduli).flatmap(
        lambda m: st.builds(lambda a: m * cmath.exp(1j * a), angles)),
    s=st.one_of(st.sampled_from([0.0, 0.5j]), st.builds(complex, moduli, st.floats(-0.3, 0.3))),
    labels=st.tuples(*[st.floats(-2.0, 2.0)] * 4),
    coincident=st.booleans(),
    rho=st.one_of(st.sampled_from([0.0, math.pi]), angles),
)
@example(pair=SectorPair.PP, weights="displayed", terms=24, w=-0.0, s=0.0,
         labels=(0.0, 0.0, 0.0, 0.0), coincident=True, rho=0.0)
def test_cylinder_pair_equals_the_unconjugated_slots_at_conjugate_omega(
    pair, weights, terms, w, s, labels, coincident, rho
):
    # the cylinder pair used to take the single-state slots at
    # conj(omega) e^(l - i phi) unconjugated; its conjugated slots at
    # z' = omega e^(l + i phi) are their conjugates, the amplitudes and
    # log-weights being real, so the entries are equal in value (the sign
    # of a zero imaginary part may differ) and the norm and tail bound
    # equal bit for bit
    label = CylinderLabel(labels[0], labels[1])
    label_p = label if coincident else CylinderLabel(labels[2], labels[3])
    matrix = coefficient_matrix_cyl(
        CylinderPairParams(w, s, label, label_p, rho), pair, terms, weights)
    record = mp2_cylinder_display_projection if weights == "displayed" else mp2_cylinder_projection
    u1, u2, v1, v2 = slots = _old_slots(
        lambda var, lab, par: record(Mp2Variable(complex(var).conjugate()), lab, par, terms),
        w, s, label, label_p, pair,
    )
    p, phase = 1.0 / math.sqrt(2.0), cmath.exp(1j * rho)
    entries = p * (np.outer(u1.terms, u2.terms) + phase * np.outer(v1.terms, v2.terms))
    assert np.array_equal(matrix.entries, entries)
    # the old unconjugated norm_sq, expression for expression
    uu = u1.norm_sq()
    mu = stable_inner(u1.terms, v1.terms) / uu if uu > 0.0 else 0j
    rr = stable_norm_sq(v1.terms - mu * u1.terms)
    norm = p * p * (uu * stable_norm_sq(u2.terms + (phase * mu) * v2.terms)
                    + abs(phase) ** 2 * rr * v2.norm_sq())
    assert _bits(matrix.norm_sq()) == _bits(norm)
    tail = pair_tail(p, [x.norm_sq() for x in slots], [x.tail_bound for x in slots])
    assert _bits(matrix.tail_bound) == _bits(tail)


class TestSlotMemo:
    @pytest.mark.parametrize("pair", [SectorPair.PM, SectorPair.TOTAL], ids=["pm", "total"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_cold_warm_and_unmemoized_sweeps_write_identical_csv(
        self, family, pair, monkeypatch
    ):
        names = {"cat": ("alpha", "beta")}.get(family, ("omega", "sigma"))
        start = 0.1 if family == "cat" else 0.0  # the odd cat sector is null at 0
        spec = SweepSpec(
            family=family, pair=pair,
            axis1=AxisSpec(names[0], start, 0.9, 7), axis2=AxisSpec(names[1], start, 0.9, 7),
            fixed=(("phi", 0.0), ("phi_prime", 2.0), ("rho", 1.0)), truncation=12,
        )
        states.fock_series.cache_clear()
        before = states.fock_series.cache_info()
        cold = grid_to_csv(run_sweep(spec))
        # a sweep builds its slots in batches, bypassing the memo: it
        # neither reads nor fills it, cold or warm
        warm = grid_to_csv(run_sweep(spec))
        assert states.fock_series.cache_info() == before
        monkeypatch.setattr(states, "fock_series", states.fock_series.__wrapped__)
        assert grid_to_csv(run_sweep(spec)) == cold == warm

    def test_total_closed_form_sweep_leaves_the_memo_unchanged(self, monkeypatch):
        # the total's four slot items, whose tails the closed form reports,
        # are unmemoized batches; through the memo, as the per-point record
        # call, the bytes are the same
        spec = SweepSpec(
            family="circle", pair=SectorPair.TOTAL, axis1=AxisSpec("phi", 0.0, 3.0, 8),
            axis2=AxisSpec("phi_prime", -1.0, 2.0, 8), truncation=12,
        )
        states.fock_series.cache_clear()
        before = states.fock_series.cache_info()
        grid = grid_to_json(run_sweep(spec, "closed_form"))
        assert states.fock_series.cache_info() == before

        batch = states.fock_series_batch

        def through_the_memo(zs, amps, parity, terms, g):
            # the memoized fock_series builds its slot of one with the
            # unpatched batch
            with monkeypatch.context() as unpatched:
                unpatched.setattr(states, "fock_series_batch", batch)
                slots = [states.fock_series(z, pair, parity, terms, g)
                         for z, pair in zip(zs, amps)]
            return states.SlotBatch(
                np.array([slot.norm_sq() for slot in slots]),
                np.array([slot.tail_bound for slot in slots]),
                np.reshape([slot.terms for slot in slots], (len(slots), terms)),
            )

        monkeypatch.setattr(states, "fock_series_batch", through_the_memo)
        assert grid_to_json(run_sweep(spec, "closed_form")) == grid
        assert states.fock_series.cache_info().misses > 0

    @pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD, None],
                             ids=["even", "odd", "total"])
    def test_signed_zero_keys_share_one_slot(self, parity):
        # -0.5 - 0j == -0.5 + 0j, but their phases are -pi and +pi
        amps = (0.7, 0.3)
        keys = [complex(-0.5, -0.0), complex(-0.5, 0.0)]
        direct = [states.fock_series.__wrapped__(z, amps, parity, 9).terms for z in keys]
        assert direct[0].tobytes() == direct[1].tobytes()
        for order in (keys, keys[::-1]):
            states.fock_series.cache_clear()
            for z in order:
                assert states.fock_series(z, amps, parity, 9).terms.tobytes() == (
                    direct[0].tobytes()
                )


def _reference_gram_form(p, n_u1, n_v1, g1, n_u2, n_v2, g2, swap_sign, rho):
    """pair_closed_form's Gram form as the per-point path wrote it."""
    cross = (swap_sign * cmath.exp(1j * rho) * (g1 * g2).conjugate()).real
    return p**2 * (n_u1 * n_u2 + n_v1 * n_v2 + 2.0 * cross)


class _Slot:
    def __init__(self, norm_sq, tail_bound):
        self.norm_sq, self.tail_bound = lambda: norm_sq, tail_bound


def _product_tail(s1, s2):
    """Bound on sum of |s1_n s2_m|^2 outside the retained (n, m) square."""
    n1, n2 = s1.norm_sq(), s2.norm_sq()
    t1, t2 = s1.tail_bound, s2.tail_bound
    return n1 * t2 + t1 * n2 + t1 * t2


def _reference_pair_tail(p, u1, u2, v1, v2):
    """pair_matrix's tail bound as the per-point path wrote it."""
    return 2.0 * p**2 * (_product_tail(u1, u2) + _product_tail(v1, v2))


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


# signed zeros, and magnitudes whose products stay finite: numpy warns on
# overflow where Python floats do not
reals = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e50, 1e50))
complexes = st.builds(complex, reals, reals)


@settings(max_examples=100, deadline=None)
@given(
    p=st.one_of(st.sampled_from([0.5, 1.0, -0.0]), st.floats(-4.0, 4.0)),
    points=st.lists(
        st.tuples(reals, reals, complexes, reals, reals, complexes,
                  st.sampled_from([1.0, -1.0]), st.floats(-10.0, 10.0)),
        min_size=1, max_size=5,
    ),
)
def test_gram_form_is_the_per_point_expression_on_scalars_and_arrays(p, points):
    expected = [_reference_gram_form(p, *point) for point in points]
    phases = [s * cmath.exp(1j * rho) for *_, s, rho in points]
    for (*entries, _, _), phase, value in zip(points, phases, expected):
        assert _bits(gram_form(p, *entries, phase)) == _bits(value)
    columns = [np.array(column) for column in zip(*points)][:6]
    assert _bits(gram_form(p, *columns, np.array(phases))) == _bits(expected)


@settings(max_examples=100, deadline=None)
@given(
    p=st.one_of(st.sampled_from([0.5, 1.0, -0.0]), st.floats(-4.0, 4.0)),
    points=st.lists(st.tuples(*[reals] * 8), min_size=1, max_size=5),
)
def test_pair_tail_is_the_per_point_expression_on_scalars_and_arrays(p, points):
    # each point: N then T of (u1, u2, v1, v2)
    expected = [
        _reference_pair_tail(p, *map(_Slot, point[:4], point[4:])) for point in points
    ]
    for point, value in zip(points, expected):
        assert _bits(pair_tail(p, point[:4], point[4:])) == _bits(value)
    columns = [np.array(column) for column in zip(*points)]
    assert _bits(pair_tail(p, columns[:4], columns[4:])) == _bits(expected)
