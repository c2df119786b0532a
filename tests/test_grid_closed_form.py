"""The whole-grid closed-form column against the point-by-point reference.

Every closed form, the circle total's included, is one
``entangle_circle.pair_closed_form_grid`` call over the pair's Gram halves,
each built once per distinct value of the swept axes it reads.  Here every
value must equal ``closed_form_P``, ``closed_form_total`` or
``closed_form_coset`` at that point bit for bit, coincident labels must give
exactly 0, the total's truncated sums must report the series tail bound,
a failing or disagreeing sweep must name the first point in row-major
order, as the per-point loop did, and a sweep's blocks must stay small.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mp2ent import entangle_circle, entangle_coset
from mp2ent.entangle_circle import CirclePairParams, SectorPair, closed_form_P, closed_form_total
from mp2ent.entangle_coset import CosetPairParams, closed_form_coset
from mp2ent.grids import (
    PARAMETERS,
    AxisSpec,
    GridDomainError,
    SweepSpec,
    run_sweep,
)
from mp2ent.states import CircleLabel, CosetLabel, Parity, cat_projection

import per_value_writers

SECTOR_PAIRS = list(SectorPair)[:3]
# the "full" scale: the record's prefactor^4
SCALE = {family: form.record.prefactor**4 for family, form in (
    ("circle", entangle_circle.CIRCLE_PAIR), ("coset", entangle_coset.COSET_PAIR))}


def _params(family, v):
    """One point's pair params, built as the per-point loop built them."""
    omega = v["omega"] * np.exp(1j * v["arg_omega"])
    sigma = v["sigma"] * np.exp(1j * v["arg_sigma"])
    if family == "circle":
        return CirclePairParams(
            omega, sigma, CircleLabel(v["phi"]), CircleLabel(v["phi_prime"]), v["rho"]
        )
    return CosetPairParams(
        omega, sigma,
        CosetLabel(complex(v["alpha_re"], v["alpha_im"]), v["phi"], v["x"], v["y"]),
        CosetLabel(complex(v["alpha2_re"], v["alpha2_im"]), v["phi_prime"], v["x2"], v["y2"]),
        v["rho"],
    )


def _point_by_point(spec):
    """The closed-form sweep one point at a time, with the residue clamp, or
    the GridDomainError of the first point that fails."""
    closed_form = closed_form_P if spec.family == "circle" else closed_form_coset
    if spec.pair is SectorPair.TOTAL:
        def closed_form(params, pair):
            return closed_form_total(params, spec.truncation)
    fixed = {name: default for name, (default, _) in PARAMETERS[spec.family].items()}
    fixed.update(spec.fixed)
    scale = SCALE[spec.family] if spec.convention == "full" else 1.0
    name1, name2 = spec.axis1.name, spec.axis2.name
    values = np.empty((spec.axis1.steps, spec.axis2.steps))
    for i, v1 in enumerate(spec.axis1.values()):
        for j, v2 in enumerate(spec.axis2.values()):
            try:
                params = _params(spec.family, {**fixed, name1: v1, name2: v2})
                value = scale * closed_form(params, spec.pair)
            except (ValueError, ArithmeticError) as exc:
                raise GridDomainError(f"point ({name1}={v1}, {name2}={v2}): {exc}") from exc
            values[i, j] = 0.0 if -1e-12 < value < 0.0 else value
    return values


FIXED = {
    "circle": {"omega": 0.6, "sigma": 0.3, "arg_omega": 0.3, "arg_sigma": -0.8, "phi": 1.1,
               "phi_prime": 0.4, "rho": 0.7},
    "coset": {"omega": 0.6, "sigma": 0.3, "arg_omega": 0.3, "arg_sigma": -0.8,
              "alpha_re": 0.2, "alpha_im": 0.9, "alpha2_re": -0.4, "alpha2_im": 1.4,
              "x": 0.6, "y": -0.3, "x2": 1.2, "y2": 0.5, "phi": 1.1, "phi_prime": 0.4,
              "rho": 0.7},
}
RANGES = {
    "omega": (0.0, 0.9), "sigma": (0.1, 0.9), "arg_omega": (-3.0, 3.0),
    "arg_sigma": (0.0, 6.0), "phi": (0.0, 6.0), "phi_prime": (-1.0, 3.0), "rho": (-1.0, 4.0),
    "alpha_re": (-1.0, 1.0), "alpha_im": (0.5, 2.0), "alpha2_re": (-0.5, 0.5),
    "alpha2_im": (0.2, 3.0), "x": (0.2, 1.0), "y": (-1.0, 1.0), "x2": (-1.0, -0.1),
    "y2": (-0.5, 0.5),
}
# each axis kind on each axis, and axes read by one half, both halves, or
# only the phase: variable modulus, arg_*, phi/phi_prime, rho, and the coset
# alpha_*, x and y
AXIS_PAIRS = {
    "circle": [("omega", "sigma"), ("sigma", "omega"), ("arg_omega", "phi"),
               ("phi_prime", "arg_sigma"), ("rho", "phi"), ("phi", "rho"),
               ("omega", "rho"), ("phi", "phi_prime")],
    "coset": [("omega", "sigma"), ("arg_sigma", "arg_omega"), ("phi", "rho"),
              ("rho", "phi_prime"), ("alpha_re", "alpha_im"), ("alpha2_im", "alpha2_re"),
              ("x", "y2"), ("y", "x2"), ("omega", "alpha_im")],
}
CASES = [(family, axes) for family, pairs in AXIS_PAIRS.items() for axes in pairs]


def _spec(family, axes, pair, convention, fixed=None, terms=12):
    """A 4 x 5 sweep along ``axes``; the other parameters at ``fixed``."""
    (name1, (lo1, hi1)), (name2, (lo2, hi2)) = ((name, RANGES[name]) for name in axes)
    fixed = FIXED[family] if fixed is None else fixed
    return SweepSpec(
        family=family, pair=pair, axis1=AxisSpec(name1, lo1, hi1, 4),
        axis2=AxisSpec(name2, lo2, hi2, 5),
        fixed=tuple((k, v) for k, v in fixed.items() if k not in axes),
        truncation=terms, convention=convention,
    )


@pytest.mark.parametrize("convention", ["stripped", "full"])
@pytest.mark.parametrize("pair", SECTOR_PAIRS, ids=lambda p: p.value)
@pytest.mark.parametrize(
    ("family", "axes"), CASES, ids=[f"{family}-{'x'.join(axes)}" for family, axes in CASES]
)
def test_grid_closed_form_equals_the_per_point_kernel_bit_for_bit(
    family, axes, pair, convention
):
    spec = _spec(family, axes, pair, convention)
    grid = run_sweep(spec, "closed_form")
    assert grid.values.tobytes() == _point_by_point(spec).tobytes()


# the circle total along axes read by one half, both halves, or the phase
TOTAL_AXES = [("omega", "sigma"), ("phi", "rho"), ("arg_omega", "phi_prime"), ("phi", "phi_prime")]


@pytest.mark.parametrize("convention", ["stripped", "full"])
@pytest.mark.parametrize("terms", [1, 6, 40])
@pytest.mark.parametrize("axes", TOTAL_AXES, ids="x".join)
def test_total_grid_closed_form_equals_closed_form_total_bit_for_bit(axes, terms, convention):
    spec = _spec("circle", axes, SectorPair.TOTAL, convention, terms=terms)
    grid = run_sweep(spec, "closed_form")
    assert grid.values.tobytes() == _point_by_point(spec).tobytes()


@pytest.mark.parametrize("convention", ["stripped", "full"])
@pytest.mark.parametrize("terms", [1, 2, 6])
@pytest.mark.parametrize("axes", TOTAL_AXES, ids="x".join)
def test_total_closed_form_grid_reports_the_series_tail(axes, terms, convention):
    # the total's Gram entries are truncated sums, so the grid reports the
    # series pair tail; a sector pair's closed form is exact and reports 0
    spec = _spec("circle", axes, SectorPair.TOTAL, convention, terms=terms)
    closed = run_sweep(spec, "closed_form").tail_bound_max
    assert closed > 0.0
    assert closed == pytest.approx(run_sweep(spec, "series").tail_bound_max, rel=1e-12, abs=0.0)
    for pair in SECTOR_PAIRS:
        spec = _spec("circle", axes, pair, convention, terms=terms)
        assert run_sweep(spec, "closed_form").tail_bound_max == 0.0


@pytest.mark.parametrize(
    "axes", [("omega", "phi"), ("phi", "omega"), ("sigma", "phi"), ("phi", "sigma")],
    ids="x".join,
)
def test_total_closed_form_tail_where_one_half_has_none(axes):
    # at sigma = 0 the second half's truncated sums are exact (T = 0), so
    # the tail comes from the first half alone and must still be reported;
    # at omega = 0, the other way round
    zero = "sigma" if "omega" in axes else "omega"
    fixed = {**FIXED["circle"], zero: 0.0}
    spec = _spec("circle", axes, SectorPair.TOTAL, "stripped", fixed, terms=2)
    closed = run_sweep(spec, "closed_form").tail_bound_max
    assert closed > 0.0
    assert closed == pytest.approx(run_sweep(spec, "series").tail_bound_max, rel=1e-12, abs=0.0)


# labels equal, and the phase at which the family's swapped term cancels
COINCIDENT = {
    "circle": {"phi": 0.7, "phi_prime": 0.7, "rho": 0.0},
    "coset": {"alpha_re": 0.3, "alpha_im": 0.8, "alpha2_re": 0.3, "alpha2_im": 0.8,
              "x": 0.6, "y": -0.3, "x2": 0.6, "y2": -0.3, "phi": 0.7, "phi_prime": 0.7,
              "rho": math.pi},
}


@pytest.mark.parametrize("pair", SECTOR_PAIRS, ids=lambda p: p.value)
@pytest.mark.parametrize("family", ["circle", "coset"])
@pytest.mark.parametrize("axes", [("omega", "sigma"), ("arg_omega", "arg_sigma")])
def test_coincident_labels_give_exactly_zero_on_the_grid(family, pair, axes):
    fixed = {**FIXED[family], **COINCIDENT[family]}
    for convention in ("stripped", "full"):
        grid = run_sweep(_spec(family, axes, pair, convention, fixed), "closed_form")
        assert np.all(grid.values == 0.0)


@pytest.mark.parametrize("terms", [1, 6, 40])
@pytest.mark.parametrize("axes", [("omega", "sigma"), ("arg_omega", "arg_sigma")])
def test_coincident_labels_give_exactly_zero_total_on_the_grid(axes, terms):
    # the total's Gram form cancels bit for bit, as the sector pairs' does
    fixed = {**FIXED["circle"], **COINCIDENT["circle"]}
    for convention in ("stripped", "full"):
        spec = _spec("circle", axes, SectorPair.TOTAL, convention, fixed, terms)
        assert np.all(run_sweep(spec, "closed_form").values == 0.0)


def _shifted(offsets, rows):
    """A pair_closed_form_grid that adds ``offsets[(i, j)]`` to point (i, j)
    of the grid and appends each block's row count to ``rows``, by which it
    counts the blocks' rows off in order."""
    kernel = entangle_circle.pair_closed_form_grid

    def shifted(form, block):
        values, tails = np.broadcast_arrays(*kernel(form, block))
        values, start = values.copy(), sum(rows)
        for (i, j), offset in offsets.items():
            if start <= i < start + len(values):
                values[i - start, j] += offset
        rows.append(len(values))
        return values, tails

    return shifted


@pytest.mark.parametrize(
    ("offsets", "named"),
    [({(2, 3): 1e-3}, (2, 3)),
     ({(3, 0): 1e-3, (1, 4): -1e-3}, (1, 4)),
     ({(1, 4): 1e-3, (1, 2): 1e-3}, (1, 2))],
)
# on omega x sigma the sweep is one block of the grid; on phi x phi' both
# halves read both axes, so each of its 4 rows is a block
@pytest.mark.parametrize(("axes", "blocks"), [(("omega", "sigma"), [4]),
                                              (("phi", "phi_prime"), [1] * 4)],
                         ids=["omega-x-sigma", "phi-x-phi_prime"])
@pytest.mark.parametrize("family", ["circle", "coset"])
def test_both_names_the_first_disagreeing_point(monkeypatch, family, axes, blocks, offsets, named):
    spec = _spec(family, axes, SectorPair.PM, "stripped")
    series = run_sweep(spec, "series").values
    rows = []
    monkeypatch.setattr(entangle_circle, "pair_closed_form_grid", _shifted(offsets, rows))
    with pytest.raises(GridDomainError) as info:
        run_sweep(spec, "both")
    assert rows == blocks
    i, j = named
    v1, v2 = spec.axis1.values()[i], spec.axis2.values()[j]
    closed = float(_point_by_point(spec)[i, j] + offsets[named])
    assert str(info.value) == (
        f"series/closed-form disagreement at ({v1}, {v2}): {float(series[i, j])} vs {closed}"
    )


def test_both_accepts_an_offset_within_its_threshold(monkeypatch):
    spec = _spec("circle", ("omega", "sigma"), SectorPair.PP, "stripped")
    monkeypatch.setattr(entangle_circle, "pair_closed_form_grid", _shifted({(1, 1): 5e-10}, []))
    assert run_sweep(spec, "both").values.tobytes() == run_sweep(spec).values.tobytes()


@pytest.mark.parametrize("provenance", ["closed_form", "both"])
@pytest.mark.parametrize(
    ("axes", "fixed"),
    [
        # the fiducial (x, y) vanishes where x crosses 0 at y = 0, on either axis
        ((("x", -1.0, 1.0, 5), ("omega", 0.0, 0.9, 4)), (("y", 0.0),)),
        ((("alpha_im", 0.5, 2.0, 4), ("x", -1.0, 1.0, 5)), (("y", 0.0),)),
        # label' on both axes: first at (x2, y2) = (0, 0)
        ((("x2", -1.0, 1.0, 3), ("y2", -1.0, 1.0, 3)), ()),
    ],
    ids=["x-axis1", "x-axis2", "label-prime-both-axes"],
)
def test_a_coset_label_fault_names_the_per_point_first_failure(axes, fixed, provenance):
    spec = SweepSpec(
        family="coset", pair=SectorPair.MM, axis1=AxisSpec(*axes[0]),
        axis2=AxisSpec(*axes[1]), fixed=fixed, truncation=12,
    )
    with pytest.raises(GridDomainError) as expected:
        _point_by_point(spec)
    with pytest.raises(GridDomainError) as got:
        run_sweep(spec, provenance)
    assert str(got.value) == str(expected.value)


def _traced_peak(build):
    """The result of ``build()`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_whole_grid_sector_sweep_peaks_below_its_json():
    # neither half reads both axes, so the 256 x 256 sweep is one block;
    # its arrays stay below the peak of writing the grid out as JSON with one
    # repr a value (the reference writer; grid_to_json itself peaks lower)
    def sweep(steps):
        spec = SweepSpec("circle", SectorPair.PM, AxisSpec("omega", 0.0, 0.95, steps),
                         AxisSpec("sigma", 0.0, 0.95, steps), truncation=40)
        return lambda: run_sweep(spec, "closed_form")

    sweep(4)()
    grid, sweep_peak = _traced_peak(sweep(256))
    _, json_peak = _traced_peak(lambda: per_value_writers.grid_to_json(grid))
    assert sweep_peak < json_peak


def test_a_total_sweep_whose_halves_read_both_axes_peaks_by_the_row():
    # both Gram halves read phi and phi', so each block is one row: 16 rows
    # peak within a few times their output of 4 rows' peak (a whole-grid
    # block would hold every row's halves at once)
    def sweep(rows):
        spec = SweepSpec("circle", SectorPair.TOTAL, AxisSpec("phi", 0.0, 3.0, rows),
                         AxisSpec("phi_prime", -1.0, 2.0, 64), truncation=6)
        return lambda: run_sweep(spec, "closed_form")

    sweep(2)()
    _, small = _traced_peak(sweep(4))
    grid, large = _traced_peak(sweep(16))
    assert large < small + 4 * grid.values.nbytes


def _half_outcome(point, parity, terms):
    """A Gram half as one point computes it: gram_entries, then its two
    slots' tails, the first exception of the three in that order."""
    var, label, label_prime = point
    try:
        half = entangle_circle.gram_entries(cat_projection, *point, parity, terms)
        if parity is None:
            return (*half, *(cat_projection(var, lab, None, terms, False).tail_bound
                             for lab in (label, label_prime)))
        return (*half, 0.0, 0.0)
    except (ValueError, ArithmeticError) as exc:
        return exc


@settings(max_examples=60, deadline=None)
@given(
    points=st.lists(
        st.tuples(st.one_of(st.floats(0.0, 3.0), st.sampled_from([1e154, 1e300])),
                  st.floats(-3.0, 3.0)),
        min_size=1, max_size=5,
    ),
    parity=st.sampled_from([Parity.EVEN, Parity.ODD, None]),
    terms=st.sampled_from([1, 2, 6]),
)
def test_gram_halves_are_the_per_point_halves_or_raise(points, parity, terms):
    # at N = 1 a cat slot of |alpha| = 2 is not yet decaying while its
    # truncated Gram sums are fine; at |alpha| = 1e154 gram_entries fails.
    # Where any point fails the batch raises (the sweep names the point)
    points = [(cmath.rect(m, 0.3), CircleLabel(phi), CircleLabel(phi + 1.0)) for m, phi in points]
    expected = [_half_outcome(point, parity, terms) for point in points]
    if any(isinstance(x, Exception) for x in expected):
        with pytest.raises((ValueError, ArithmeticError)):
            entangle_circle.gram_halves(cat_projection, points, parity, terms, {})
        return
    halves = entangle_circle.gram_halves(cat_projection, points, parity, terms, {})
    # the halves come as columns, one entry per point
    assert list(zip(*(column.tolist() for column in halves))) == expected
