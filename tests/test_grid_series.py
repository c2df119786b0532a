"""The whole-grid series column against the point-by-point reference.

``run_sweep`` builds each distinct slot once and takes the pair norm one
block at a time, the whole grid or one row (``entangle_circle.pair_norm_grid``).
Here every value must equal the family's ``probability_series*`` at that
point bit for bit, ``tail_bound_max`` the largest per-point tail, and a
failing sweep must name the first failing point with the per-point loop's
message.
"""

import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mp2ent import cat_compare, entangle_circle, entangle_coset, entangle_cylinder, grids, numerics
from mp2ent.cat_compare import CatPairParams, cat_entangled_probability
from mp2ent.entangle_circle import CirclePairParams, SectorPair, probability_series
from mp2ent.entangle_coset import CosetPairParams, probability_series_coset
from mp2ent.entangle_cylinder import CylinderPairParams, probability_series_cyl
from mp2ent.grids import (
    DEFAULT_AXES,
    PARAMETERS,
    AxisSpec,
    GridDomainError,
    SweepSpec,
    grid_to_csv,
    grid_to_json,
    run_sweep,
)
from mp2ent.states import (
    CircleLabel,
    CoefficientSequence,
    CosetLabel,
    CylinderLabel,
    Parity,
    SlotBatch,
    fock_series,
    fock_series_batch,
)

SERIES = {
    "circle": probability_series,
    "cylinder": probability_series_cyl,
    "coset": probability_series_coset,
    "cat": cat_entangled_probability,
}
PAIR_OF = {
    "circle": entangle_circle.CIRCLE_PAIR,
    "cylinder": entangle_cylinder.CYLINDER_PAIR,
    "coset": entangle_coset.COSET_PAIR,
    "cat": cat_compare.CAT_PAIR,
}
CLOSED_FORM_PAIRS = {"circle": tuple(SectorPair), "coset": tuple(SectorPair)[:3]}


def _params(family, v):
    """One point's pair params, built from its parameter values."""

    def polar(name):
        return v[name] * np.exp(1j * v["arg_" + name])

    if family == "circle":
        return CirclePairParams(
            polar("omega"), polar("sigma"), CircleLabel(v["phi"]), CircleLabel(v["phi_prime"]),
            v["rho"],
        )
    if family == "cylinder":
        return CylinderPairParams(
            polar("omega"), polar("sigma"), CylinderLabel(v["l"], v["phi"]),
            CylinderLabel(v["l_prime"], v["phi_prime"]), v["rho"],
        )
    if family == "coset":
        return CosetPairParams(
            polar("omega"), polar("sigma"),
            CosetLabel(complex(v["alpha_re"], v["alpha_im"]), v["phi"], v["x"], v["y"]),
            CosetLabel(complex(v["alpha2_re"], v["alpha2_im"]), v["phi_prime"], v["x2"], v["y2"]),
            v["rho"],
        )
    return CatPairParams(
        polar("alpha"), polar("beta"), CircleLabel(v["phi"]), CircleLabel(v["phi_prime"]),
        v["rho"],
    )


def _point_by_point(spec):
    """The series sweep one point at a time: (values, tail max), or the
    GridDomainError of the first point that fails."""
    fixed = {name: default for name, (default, _) in PARAMETERS[spec.family].items()}
    fixed.update(spec.fixed)
    scale = PAIR_OF[spec.family].record.prefactor**4 if spec.convention == "full" else 1.0
    name1, name2 = spec.axis1.name, spec.axis2.name
    values = np.empty((spec.axis1.steps, spec.axis2.steps))
    tails = []
    for i, v1 in enumerate(spec.axis1.values()):
        for j, v2 in enumerate(spec.axis2.values()):
            try:
                params = _params(spec.family, {**fixed, name1: v1, name2: v2})
                sv = SERIES[spec.family](params, spec.pair, spec.truncation)
            except (ValueError, ArithmeticError) as exc:
                raise GridDomainError(f"point ({name1}={v1}, {name2}={v2}): {exc}") from exc
            values[i, j] = scale * float(sv.value)
            tails.append(scale * sv.tail_bound)
    return values, max(tails)


FIXED = {
    "circle": {"arg_omega": 0.3, "arg_sigma": -0.8, "phi": 1.1, "phi_prime": 0.4, "rho": 0.7},
    "cylinder": {"arg_omega": 0.3, "arg_sigma": -0.8, "l": 0.3, "l_prime": -0.5, "phi": 1.1,
                 "phi_prime": 0.4, "rho": 0.7},
    "coset": {"arg_omega": 0.3, "alpha_re": 0.2, "alpha_im": 0.9, "alpha2_im": 1.4, "x": 0.6,
              "y": -0.3, "phi": 1.1, "phi_prime": 0.4, "rho": 0.7},
    "cat": {"arg_alpha": 0.5, "arg_beta": -1.2, "phi": 1.1, "phi_prime": 0.4, "rho": 0.7},
}
RANGES = {
    "omega": (0.0, 0.9), "sigma": (0.1, 0.9), "phi": (0.0, 6.0), "rho": (-1.0, 4.0),
    "phi_prime": (0.0, 3.0), "l": (-1.5, 1.5), "l_prime": (-1.0, 2.0),
    "alpha_im": (0.5, 2.0), "x": (-1.0, 1.0), "alpha": (0.0, 1.9), "arg_alpha": (0.0, 3.0),
    "beta": (0.2, 1.9), "arg_omega": (-1.0, 2.0), "arg_sigma": (0.5, 3.0),
    "arg_beta": (-2.0, 1.0),
}
# the last three of each family's pairs: u1 and v1 vary along axis2 only
# (the reversed variables, phi' x phi), and only the arguments are swept
AXIS_PAIRS = {
    "circle": [None, ("phi", "rho"), ("omega", "phi_prime"), ("rho", "sigma"),
               ("sigma", "omega"), ("phi_prime", "phi"), ("arg_omega", "arg_sigma")],
    "cylinder": [None, ("phi", "rho"), ("omega", "phi_prime"), ("rho", "sigma"), ("l", "l_prime"),
                 ("sigma", "omega"), ("phi_prime", "phi"), ("arg_omega", "arg_sigma")],
    "coset": [None, ("phi", "rho"), ("omega", "phi_prime"), ("rho", "sigma"), ("alpha_im", "x"),
              ("sigma", "omega"), ("phi_prime", "phi"), ("arg_omega", "arg_sigma")],
    "cat": [None, ("phi", "rho"), ("alpha", "arg_alpha"), ("rho", "beta"),
            ("beta", "alpha"), ("phi_prime", "phi"), ("arg_alpha", "arg_beta")],
}
CASES = [(family, axes) for family, pairs in AXIS_PAIRS.items() for axes in pairs]


def _spec(family, axes, pair, convention, truncation=12):
    """A 4 x 3 sweep along ``axes`` (None: the default axes), N = 12 unless
    ``truncation`` is given."""
    if axes is None:
        (name1, lo1, hi1, _), (name2, lo2, hi2, _) = DEFAULT_AXES[family]
    else:
        (name1, (lo1, hi1)), (name2, (lo2, hi2)) = ((name, RANGES[name]) for name in axes)
    return SweepSpec(
        family=family, pair=pair, axis1=AxisSpec(name1, lo1, hi1, 4),
        axis2=AxisSpec(name2, lo2, hi2, 3),
        fixed=tuple((k, v) for k, v in FIXED[family].items() if k not in (name1, name2)),
        truncation=truncation, convention=convention,
    )


def _assert_equals_point_by_point(spec, values, tail_max):
    """run_sweep(spec), and under ``both`` where the family's closed form
    covers the pair, equals the point-by-point values and tail bit for bit."""
    covered = CLOSED_FORM_PAIRS.get(spec.family, ())
    for provenance in ["series"] + (["both"] if spec.pair in covered else []):
        grid = run_sweep(spec, provenance)
        assert grid.values.tobytes() == values.tobytes()
        assert grid.tail_bound_max == tail_max


@pytest.mark.parametrize("pair", list(SectorPair), ids=lambda p: p.value)
@pytest.mark.parametrize(
    ("family", "axes"), CASES, ids=[f"{f}-{'x'.join(a) if a else 'default'}" for f, a in CASES]
)
def test_grid_equals_the_per_point_series_bit_for_bit(family, axes, pair):
    for convention in ("stripped", "full"):
        spec = _spec(family, axes, pair, convention)
        _assert_equals_point_by_point(spec, *_point_by_point(spec))


@pytest.mark.parametrize("pair", list(SectorPair), ids=lambda p: p.value)
@pytest.mark.parametrize("truncation", [1, 40])
@pytest.mark.parametrize("family", list(FIXED))
def test_grid_equals_the_per_point_series_at_truncation_1_and_40(family, truncation, pair):
    for convention in ("stripped", "full"):
        spec = _spec(family, None, pair, convention, truncation)
        try:
            values, tail_max = _point_by_point(spec)
        except GridDomainError as expected:
            # cat at truncation 1: an even sector is not yet decaying once
            # |alpha| passes about 1.86
            assert (family, truncation) == ("cat", 1)
            with pytest.raises(GridDomainError) as got:
                run_sweep(spec)
            assert str(got.value) == str(expected)
            continue
        _assert_equals_point_by_point(spec, values, tail_max)


@pytest.mark.parametrize("pair", list(SectorPair), ids=lambda p: p.value)
@pytest.mark.parametrize("family", list(FIXED))
def test_grid_equals_the_per_point_series_where_the_phase_modulus_is_not_1(family, pair):
    # |s e^(i rho)|^2 rounds to 1 - 2^-53 at this rho, so the order of the
    # products |f|^2 |r|^2 N(v2) shows in the last bit
    spec = _spec(family, None, pair, "stripped")
    fixed = tuple((name, value) for name, value in spec.fixed if name != "rho")
    spec = dataclasses.replace(spec, fixed=(*fixed, ("rho", -0.9174587293646823)))
    _assert_equals_point_by_point(spec, *_point_by_point(spec))


@pytest.mark.parametrize(
    ("family", "axis1", "axis2", "pair", "truncation", "fixed"),
    [
        # not yet decaying at truncation 1 once |alpha| passes about 1.86
        ("cat", ("alpha", 0.0, 1.95, 5), ("beta", 0.0, 1.95, 5), SectorPair.PM, 1, ()),
        ("cat", ("rho", 0.0, 3.0, 3), ("beta", 0.5, 1.95, 5), SectorPair.TOTAL, 1, ()),
        # a label past the cylinder's magnitude guard
        ("cylinder", ("l", -1.0, 400.0, 5), ("l_prime", -1.0, 1.0, 5), SectorPair.PP, 12, ()),
        # u1 (l) and v1 (l') both past it at the first point: u1's l is named
        ("cylinder", ("l", 200.0, 400.0, 3), ("l_prime", 300.0, 400.0, 3), SectorPair.PP, 12,
         (("sigma", 0.0),)),
        # the fiducial (x, y) vanishes where x crosses 0 at y = 0
        ("coset", ("alpha_im", 0.5, 2.0, 4), ("x", -1.0, 1.0, 5), SectorPair.MM, 12,
         (("y", 0.0),)),
        # the label (x = y = 0) and the variable (|omega| rounds to 1) both
        # fail at the first point: the label is named
        ("coset", ("x", 0.0, 1.0, 3), ("omega", 0.9999999999999999, 0.5, 2), SectorPair.PP, 12,
         (("y", 0.0), ("arg_omega", 3.0245729463650424))),
    ],
    ids=["cat-trunc-1", "cat-trunc-1-total", "cylinder-overflow", "cylinder-overflow-u1-first",
         "coset-null-fiducial", "coset-label-beats-variable"],
)
def test_a_failing_sweep_names_the_per_point_first_failure(
    family, axis1, axis2, pair, truncation, fixed
):
    spec = SweepSpec(
        family=family, pair=pair, axis1=AxisSpec(*axis1), axis2=AxisSpec(*axis2), fixed=fixed,
        truncation=truncation,
    )
    with pytest.raises(GridDomainError) as expected:
        _point_by_point(spec)
    with pytest.raises(GridDomainError) as got:
        run_sweep(spec)
    assert str(got.value) == str(expected.value)


# (axis1, axis2, fixed, the point (i, j) named, what fails there).  Slots
# are built in axis batches before the walk over the points, so a slot
# that fails at a later row must not be raised before an earlier point's
# fault.  Cylinder u1 reads l (axis1) only and u2 reads l' (axis2) only;
# at l = 100 and beyond a slot passes the magnitude guard.
ORDER_CASES = [
    (("l", 0.0, 300.0, 4), ("l_prime", -1.0, 300.0, 4), (), (0, 1), "cylinder label"),
    (("l", 0.0, 300.0, 4), ("l_prime", -1.0, 1.0, 4), (), (1, 0), "cylinder label"),
    # omega = 1 - 2^-53 at this argument rounds to |omega| = 1: the variable
    # fails at the point where u1 also overflows, and is named
    (("l", 400.0, 500.0, 2), ("omega", 0.9999999999999999, 0.5, 2),
     (("arg_omega", 3.0245729463650424),), (0, 0), "|omega| must be < 1"),
    (("l", 400.0, 500.0, 2), ("omega", 0.9999999999999999, 0.5, 2), (), (0, 0),
     "cylinder label"),
]


@pytest.mark.parametrize(
    ("axis1", "axis2", "fixed", "named", "fault"), ORDER_CASES,
    ids=["axis2-slot-at-row-0", "axis1-slot-at-row-1", "component-beats-slot", "slot-alone"],
)
def test_batched_slot_faults_are_raised_in_point_order(axis1, axis2, fixed, named, fault):
    spec = SweepSpec(
        family="cylinder", pair=SectorPair.PP, axis1=AxisSpec(*axis1), axis2=AxisSpec(*axis2),
        fixed=fixed, truncation=12,
    )
    with pytest.raises(GridDomainError) as expected:
        _point_by_point(spec)
    with pytest.raises(GridDomainError) as got:
        run_sweep(spec)
    assert str(got.value) == str(expected.value)
    i, j = named
    point = f"point ({axis1[0]}={spec.axis1.values()[i]}, {axis2[0]}={spec.axis2.values()[j]}): "
    assert str(got.value).startswith(point + fault)


# (family, axes, pair, steps): blocks of one slice per term (64 x 64), of
# several terms per slice with a narrower last one (24 x 24: 7 of N = 40),
# and of one row each, where u2 or v2 reads both axes (sigma x phi, beta x
# phi'), each at N = 40
BLOCK_CASES = [
    ("circle", None, SectorPair.MM, 64),
    ("circle", None, SectorPair.TOTAL, 24),
    ("circle", ("phi", "rho"), SectorPair.PP, 24),
    ("circle", ("sigma", "phi"), SectorPair.PP, 24),
    ("cylinder", ("l", "l_prime"), SectorPair.PM, 24),
    ("cat", ("beta", "phi_prime"), SectorPair.TOTAL, 24),
]


@pytest.mark.parametrize(
    ("family", "axes", "pair", "steps"), BLOCK_CASES,
    ids=[f"{f}-{'x'.join(a) if a else 'default'}-{p.value}-{n}" for f, a, p, n in BLOCK_CASES],
)
def test_grid_blocks_equal_the_per_point_series_bit_for_bit(family, axes, pair, steps):
    spec = _spec(family, axes, pair, "stripped", 40)
    spec = dataclasses.replace(
        spec, axis1=dataclasses.replace(spec.axis1, steps=steps),
        axis2=dataclasses.replace(spec.axis2, steps=steps),
    )
    _assert_equals_point_by_point(spec, *_point_by_point(spec))


@pytest.mark.parametrize("family", list(FIXED))
def test_sweeps_write_identical_bytes_when_no_sum_is_certified(family, monkeypatch):
    # the cut's certificate rejects every point, and then the cascade over
    # all N terms does: every point's |w|^2 falls back to math.fsum
    spec = SweepSpec(family, SectorPair.MM, *(AxisSpec(*axis) for axis in DEFAULT_AXES[family]))
    certified = grid_to_csv(run_sweep(spec))
    rejected = []

    def reject(r, f, terms, rest):
        rejected.append((terms, r.size))
        return np.zeros(r.shape, bool)

    monkeypatch.setattr(numerics, "_certified", reject)
    assert grid_to_csv(run_sweep(spec)) == certified
    (cut, first), second = rejected
    assert cut < 40 and first == 64 * 64 and second == (40, 64 * 64)


def _summed_terms(monkeypatch):
    """A list that records, for each numerics._cascade call (a first stage
    or a second), the number of terms its slices hold per point and the
    number of points."""
    calls = []
    real = numerics._cascade

    def spy(slices, state=None):
        lanes = []

        def counted():
            for t in slices:
                lanes.append(len(t))
                yield t

        out = real(counted(), state)
        calls.append((sum(lanes), out[0][0].size))
        return out

    monkeypatch.setattr(numerics, "_cascade", spy)
    return calls


@pytest.mark.parametrize("pair", list(SectorPair), ids=[p.value for p in SectorPair])
@pytest.mark.parametrize("family", list(FIXED))
def test_default_axes_sweeps_sum_fewer_than_n_terms(family, pair, monkeypatch):
    spec = SweepSpec(family, pair, *(AxisSpec(*axis) for axis in DEFAULT_AXES[family]))
    calls = _summed_terms(monkeypatch)
    run_sweep(spec)
    # one cascade over the whole 64 x 64 grid, cut short of N = 40, and
    # no second stage
    ((terms, points),) = calls
    assert terms < spec.truncation == 40 and points == 64 * 64


@pytest.mark.parametrize(
    ("family", "pair", "axes", "truncation", "calls"),
    [
        # one-row blocks: one slice of N lanes each
        ("circle", SectorPair.PP, (("sigma", 0.0, 0.95, 64), ("phi", 0.0, 3.0, 64)), 40,
         [(40, 64)] * 64),
        # fine-low-trunc's shape: a short series keeps all N terms
        ("circle", SectorPair.MM, (("omega", 0.0, 0.95, 96), ("sigma", 0.0, 0.95, 96)), 6,
         [(6, 96 * 96)]),
    ],
    ids=["sigma-x-phi", "fine-low-trunc"],
)
def test_sweeps_the_cut_leaves_sum_all_n_terms(family, pair, axes, truncation, calls, monkeypatch):
    spec = SweepSpec(family, pair, *(AxisSpec(*axis) for axis in axes), truncation=truncation)
    summed = _summed_terms(monkeypatch)
    run_sweep(spec)
    assert summed == calls


def test_one_row_blocks_of_several_slices_are_cut(monkeypatch):
    # v2 reads sigma and phi, so every block is one row; a row of 150
    # points takes 27 lanes a slice, fewer than N = 40, so it is cut
    spec = dataclasses.replace(
        _spec("circle", ("phi", "sigma"), SectorPair.PM, "stripped", 40),
        axis1=AxisSpec("phi", 0.0, 6.0, 3), axis2=AxisSpec("sigma", 0.1, 0.9, 150),
    )
    calls = _summed_terms(monkeypatch)
    _assert_equals_point_by_point(spec, *_point_by_point(spec))
    assert [points for _, points in calls[:3]] == [150] * 3
    assert all(terms < 40 for terms, _ in calls[:3])


@pytest.mark.parametrize("pair", list(SectorPair), ids=[p.value for p in SectorPair])
@pytest.mark.parametrize("family", ["circle", "cat"])
def test_coincident_surfaces_at_rho_0_take_the_second_stage_and_are_0(family, pair, monkeypatch):
    # claim (2)(ii): phi = phi' and rho = 0 cancel exactly.  No point where
    # a skipped slot entry is nonzero can be certified by the cut, so those
    # continue over all N terms; each value is the per-point one, 0.0
    spec = dataclasses.replace(
        _spec(family, None, pair, "stripped", 40),
        axis1=AxisSpec(DEFAULT_AXES[family][0][0], 0.0, 0.9, 6),
        axis2=AxisSpec(DEFAULT_AXES[family][1][0], 0.0, 0.9, 24),
        fixed=(("phi", 1.0), ("phi_prime", 1.0), ("rho", 0.0)),
    )
    calls = _summed_terms(monkeypatch)
    values, tail_max = _point_by_point(spec)
    _assert_equals_point_by_point(spec, values, tail_max)
    assert not np.any(values)
    (cut, points), (rest, gathered) = calls[:2]
    assert cut < 40 and cut + rest == 40 and points == 6 * 24 and 0 < gathered <= points


@pytest.mark.parametrize(
    "axes", [DEFAULT_AXES["circle"], (("sigma", 0.0, 0.9, 0), ("phi", 0.0, 3.0, 0))],
    ids=["default", "sigma-x-phi"],
)
def test_a_sweep_forms_no_array_of_the_grid_times_n(axes):
    # one complex array of 96 x 96 x 40 would be 5.9 MB on its own; on
    # sigma x phi, v2 reads both axes, so every row is a block of its own
    axes = (AxisSpec(*axis[:3], 96) for axis in axes)
    spec = SweepSpec("circle", SectorPair.PP, *axes, truncation=40)
    run_sweep(spec)
    tracemalloc.start()
    try:
        run_sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_a_sweep_whose_projection_reads_both_axes_peaks_below_its_json():
    # u1 and the (u1, v1) projection read omega and arg_omega, so every block
    # is one row and no item is held for the whole grid at once: the sweep
    # peaks below writing its grid out as JSON
    def traced_peak(build):
        tracemalloc.start()
        try:
            return build(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    spec = SweepSpec("circle", SectorPair.PP, AxisSpec("omega", 0.0, 0.9, 64),
                     AxisSpec("arg_omega", 0.0, 3.0, 64), truncation=12)
    run_sweep(dataclasses.replace(spec, axis1=AxisSpec("omega", 0.0, 0.9, 2)))
    grid, sweep_peak = traced_peak(lambda: run_sweep(spec))
    _, json_peak = traced_peak(lambda: grid_to_json(grid))
    assert sweep_peak < json_peak


def test_an_earlier_rows_fsum_overflow_is_raised_before_a_later_rows_fault(monkeypatch):
    # mu = <u1, v1>/|u1|^2 = 1e154, so |w_k|^2 is about 1e308 and the sum of
    # two overflows in fsum; the blocks iterator fails only after its first
    # block, and run_sweep, which takes each block's kernel call before it
    # asks for the next block, meets the overflow first.  Every point of the
    # spec passes the replay, so the overflow is raised as it was.
    def slot(*terms):
        return CoefficientSequence(None, np.array(terms, dtype=complex), 0.0)

    u1, u2, v1, v2 = (_batch_of(slot(*terms)) for terms in
                      ((1e-154, 0.0), (0.0, 0.0), (1.0, 0.0), (1.0, 1.0)))
    phase = entangle_circle.CIRCLE_PAIR.swap_sign * cmath.exp(0j)

    def blocks(*args):
        items = (entangle_circle.projections(u1, v1), u2, v2, (np.array([phase]),))
        yield tuple([column.reshape(1, 1, *column.shape[1:]) for column in item] for item in items)
        raise GridDomainError("row 1")

    monkeypatch.setattr(grids, "_sweep_blocks", blocks)
    spec = SweepSpec("circle", SectorPair.PP, AxisSpec("omega", 0.1, 0.5, 2),
                     AxisSpec("sigma", 0.1, 0.5, 2), truncation=8)
    with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        run_sweep(spec)


def _batch_of(*slots):
    """Slot objects as one SlotBatch, row k the k-th slot."""
    return SlotBatch(np.array([slot.norm_sq() for slot in slots]),
                     np.array([slot.tail_bound for slot in slots]),
                     np.array([slot.terms for slot in slots]))


@st.composite
def slot_inputs(draw):
    """One slot's (z, amps): z 0 (the constant slot) or of modulus up to past
    the overflow guard; amps down to subnormal scale, or both 0 (a zero
    slot, so |u1|^2 = 0 and mu = 0j)."""
    z = draw(st.one_of(st.just(0j), st.builds(
        cmath.rect, st.one_of(st.floats(0.0, 8.0), st.floats(1e3, 1e5)), st.floats(-4.0, 4.0))))
    scale = draw(st.sampled_from([1.0, 1e-160, 1e-300, 2.0**-1060, 0.0]))
    amps = draw(st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)))
    return z, (scale * amps[0], scale * amps[1])


def _reference_projection(u1, v1):
    """|u1|^2, mu = <u1, v1>/|u1|^2 and |r|^2 = |v1 - mu u1|^2 of two slots,
    each one exactly rounded fsum over the slots' own terms."""
    uu, x, y = u1.norm_sq(), u1.terms, v1.terms
    inner = complex(math.fsum((x.real * y.real + x.imag * y.imag).tolist()),
                    math.fsum((x.real * y.imag - x.imag * y.real).tolist()))
    mu = inner / uu if uu > 0.0 else 0j
    return uu, mu, numerics.stable_norm_sq(y - mu * x)


@settings(max_examples=150, deadline=None)
@given(
    inputs=st.lists(st.tuples(slot_inputs(), slot_inputs()), min_size=1, max_size=6),
    parity=st.sampled_from([Parity.EVEN, Parity.ODD, None]),
    terms=st.sampled_from([1, 2, 6, 40]),
    same=st.booleans(),
)
def test_batched_projection_columns_are_the_per_point_projection(inputs, parity, terms, same):
    # over the (u1, v1) pairs whose slots both build (a z past the guard
    # fails its batch), the projection must be the reference's per row, as
    # must _projection's (a batch of one), and each norm column
    # stable_norm_sq's, bit for bit
    if same:  # v1 = u1: mu = 1 and r = 0 exactly wherever |u1|^2 > 0
        inputs = [(u, u) for u, _ in inputs]

    def builds(z, amps):
        try:
            fock_series.__wrapped__(z, amps, parity, terms)
        except (ValueError, ArithmeticError):
            return False
        return True

    inputs = [(u, v) for u, v in inputs if builds(*u) and builds(*v)]
    assume(inputs)
    size = len(inputs)
    u1 = fock_series_batch(*zip(*(u for u, _ in inputs)), parity, terms)
    v1 = fock_series_batch(*zip(*(v for _, v in inputs)), parity, terms)
    columns = entangle_circle.projections(u1, v1)
    assert [column.shape for column in columns] == [(size,)] * 6
    for k, ((zu, au), (zv, av)) in enumerate(inputs):
        su = fock_series.__wrapped__(zu, au, parity, terms)
        sv = fock_series.__wrapped__(zv, av, parity, terms)
        for batch, slot in ((u1, su), (v1, sv)):
            assert batch.norms[k].hex() == numerics.stable_norm_sq(slot.terms).hex()
        uu, mu, rr = _reference_projection(su, sv)
        for got in ([column[k].item() for column in columns], list(entangle_circle._projection(su, sv))):
            assert (got[1].real.hex(), got[1].imag.hex()) == (mu.real.hex(), mu.imag.hex())
            del got[1]
            assert [x.hex() for x in got[:2]] == [uu.hex(), rr.hex()]
        assert [columns[j][k].item().hex() for j in (3, 4, 5)] == [
            x.hex() for x in (su.tail_bound, sv.norm_sq(), sv.tail_bound)]
