"""The verify battery as a table: every status pinned, honest rows, named
worst points, and a CLI that exits 0, 2 or 3 on any tolerance/truncation."""

import dataclasses
import json
import math
import os
from functools import partial
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mp2ent import entangle_circle, verify
from mp2ent.cli import main
from mp2ent.entangle_circle import CirclePairParams, SectorPair
from mp2ent.entangle_cylinder import CylinderPairParams
from mp2ent.states import CircleLabel, CylinderLabel, Mp2Variable
from mp2ent.verify import (
    BATTERY,
    PAIRS,
    cylinder_probability_corrected,
    cylinder_probability_printed,
    total_closed_form_printed,
    verify_all,
)

CFM = "corrected-form-match"
MISMATCH = "paper-form-mismatch"

# name -> (status, must_match) of the default run (tolerance 1e-9, 40 terms)
EXPECTED = {
    "theta-anchors": ("match", True),
    "circle-closed-form-pp": (CFM, True),
    "circle-closed-form-pm": (CFM, True),
    "circle-closed-form-mm": (CFM, True),
    "circle-coincident-limit-pp": ("match", True),
    "circle-coincident-limit-pm": ("match", True),
    "circle-coincident-limit-mm": (CFM, True),
    "circle-orthogonal-limit-pp": (CFM, True),
    "circle-orthogonal-limit-pm": (CFM, True),
    "circle-orthogonal-limit-mm": (CFM, True),
    "circle-degenerate-limit-pp": (CFM, True),
    "circle-degenerate-limit-pm": (CFM, True),
    "circle-degenerate-limit-mm": (CFM, True),
    "circle-total-closed-form": (CFM, True),
    "cylinder-probability-pp": (CFM, True),
    "cylinder-probability-pm": (CFM, True),
    "cylinder-probability-mm": (CFM, True),
    "cylinder-degenerate-pp": (MISMATCH, False),
    "cylinder-degenerate-pm": (MISMATCH, False),
    "cylinder-degenerate-mm": (MISMATCH, False),
    "cylinder-pre-theta-factor": ("informational", False),
    "coset-closed-form-pp": (CFM, True),
    "coset-closed-form-pm": ("match", True),
    "coset-closed-form-mm": (CFM, True),
    "coset-single-projection-norm": (CFM, True),
    "cat-completeness": ("match", True),
}


@pytest.fixture(scope="module")
def report():
    return verify_all()


def test_every_status_is_pinned(report):
    got = {c.name: (c.status, c.must_match) for c in report.comparisons}
    assert got == EXPECTED
    assert [c.name for c in report.comparisons] == list(EXPECTED)
    assert report.passed


def _computation(fn):
    """What a row callable computes: its code and everything it closes over,
    so two separately written copies of one lambda compare equal."""
    if isinstance(fn, partial):
        return (_computation(fn.func), fn.args)
    code = fn.__code__
    cells = tuple(c.cell_contents for c in fn.__closure__ or ())
    return (code.co_code, code.co_consts, code.co_names, cells, fn.__defaults__)


@pytest.mark.parametrize("row", BATTERY, ids=[row.name for row in BATTERY])
def test_no_row_compares_a_form_with_itself(row):
    forms = [fn for fn in (row.oracle, row.corrected, row.printed) if fn is not None]
    assert len(forms) >= 2
    for a, b in combinations(forms, 2):
        assert a is not b
        assert _computation(a) != _computation(b)
    if row.oracle is None:
        assert row.corrected is not None and row.printed is not None
        assert not row.must_match


# (omega, sigma, l, l', phi, phi', rho) -> pair -> (printed, corrected) at 40
# terms; a slip in one printed or series cosine argument moves these values
# while the row statuses above stay the same
CYLINDER_SUMS = {
    (0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 1.0): {
        "pp": (1.155309382112453, 1.155309382112453),
        "pm": (0.007551397474698058, 0.01992184965482923),
        "mm": (0.00013021430233667818, 0.00034352711041256727),
    },
    (0.3, 0.8, 0.4, -0.2, 0.9, 0.7, 1.3): {
        "pp": (0.7258163882725764, 0.7259636438467413),
        "pm": (0.007691146654430052, 0.02428055134329278),
        "mm": (1.9504122164565002e-05, 0.0001727414416735516),
    },
    (0.9, 0.6, 1.0, 0.5, 0.3, 0.0, 2.0): {
        "pp": (0.20846105456158665, 0.2062936969952493),
        "pm": (0.004616009335574671, 0.03319162828691509),
        "mm": (0.0007276711647670801, 0.0012265947826105455),
    },
}


@pytest.mark.parametrize("point", CYLINDER_SUMS)
@pytest.mark.parametrize("pair", ["pp", "pm", "mm"])
def test_cylinder_sums_are_pinned(point, pair):
    w, s, l, lp, phi, phip, rho = point
    params = CylinderPairParams(
        Mp2Variable(w), Mp2Variable(s), CylinderLabel(l, phi), CylinderLabel(lp, phip), rho
    )
    printed, corrected = CYLINDER_SUMS[point][pair]
    sector_pair = SectorPair.parse(pair)
    assert cylinder_probability_printed(params, sector_pair, 40) == pytest.approx(
        printed, rel=1e-13
    )
    assert cylinder_probability_corrected(params, sector_pair, 40) == pytest.approx(
        corrected, rel=1e-13
    )


def test_the_cylinder_gaussian_is_np_exp_bit_for_bit():
    # the cylinder sums' e^(-4(x^2 + y^2)) skips numpy's exp where it
    # underflows to 0.0; every bit must be plain np.exp's, the smallest
    # subnormal's neighbourhood and the cut at -746 included
    edges = [-746.0, -745.1332191019411, -745.1332191019412, -744.4400719213812, -708.4, -0.0]
    v = np.concatenate([np.linspace(-800.0, 0.0, 400001)]
                       + [np.array([np.nextafter(e, t) for t in (-np.inf, np.inf)] + [e]) for e in edges])
    assert np.array_equal(verify._exp(v).view(np.uint64), np.exp(v).view(np.uint64))


def test_rows_declare_named_points():
    assert len({row.name for row in BATTERY}) == len(BATTERY)
    for row in BATTERY:
        assert row.points.values
        assert all(len(pt) == len(row.points.names) for pt in row.points.values)


def test_samples_name_the_worst_point(report):
    rows = {row.name: row for row in BATTERY}
    for comp in report.comparisons:
        if comp.status == "match":
            assert comp.sample is None
            continue
        point = comp.sample["point"]
        names = rows[comp.name].points.names
        assert tuple(point) == names
        assert tuple(point[n] for n in names) in rows[comp.name].points.values
    by_name = {c.name: c for c in report.comparisons}
    pre_theta = by_name["cylinder-pre-theta-factor"]
    assert pre_theta.sample["point"] == {"rho": 0.3}
    assert "oracle" not in pre_theta.sample
    assert pre_theta.printed_deviation is None
    assert pre_theta.max_deviation == pytest.approx(1.956, abs=1e-3)
    assert pre_theta.max_deviation == pre_theta.sample["corrected"] - pre_theta.sample["printed"]
    degenerate = by_name["cylinder-degenerate-pm"]
    assert set(degenerate.sample) == {"oracle", "printed", "point"}
    assert degenerate.max_deviation == degenerate.printed_deviation
    assert by_name["coset-closed-form-pm"].printed_deviation is None


@settings(max_examples=25, deadline=None)
@given(
    tol=st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e-9, 1e-30]),
        st.floats(),
    ),
    trunc=st.integers(-2, 6),
)
@example(tol=math.nan, trunc=4)
@example(tol=math.inf, trunc=4)
def test_verify_argv_exits_0_2_or_3(tol, trunc):
    rc = main(["verify", f"--tol={tol!r}", f"--trunc={trunc}", "--report", os.devnull])
    assert rc in (0, 2, 3)
    if not (math.isfinite(tol) and tol > 0) or trunc < 1:
        assert rc == 2


@pytest.mark.parametrize(
    ("terms", "message"),
    [(2.5, "truncation must be an integer, got 2.5"),
     (True, "truncation must be an integer, got True"),
     (0, "truncation must be >= 1, got 0")],
)
def test_verify_all_checks_its_truncation_as_a_sweep_does(terms, message):
    # a float or a bool is refused with the sweep's text, not a numpy
    # TypeError or a run at N = 1
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_all(terms=terms)


@pytest.mark.parametrize(
    ("tol", "message"),
    [(True, "tolerance must be a real number, got True"),
     ("1e-9", "tolerance must be a real number, got '1e-9'"),
     (1e-9 + 0j, r"tolerance must be a real number, got \(1e-09\+0j\)"),
     (None, "tolerance must be a real number, got None"),
     (math.nan, "tolerance must be finite and > 0, got nan"),
     (0, "tolerance must be finite and > 0, got 0.0")],
)
def test_verify_all_checks_its_tolerance_is_a_real_number(tol, message):
    # True used to run and report "tolerance": true; the others raised a
    # TypeError from the comparison
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_all(tol)


def _asdict_json(comp) -> dict:
    # the deep copy the report was built from before it went shallow
    out = dataclasses.asdict(comp)
    if comp.sample is None:
        del out["sample"]
    return out


@pytest.mark.parametrize("tol", [1e-9, 1e-30])
def test_report_rows_serialize_as_their_deep_copy(tol):
    report = verify_all(tol)
    assert any(c.sample is not None for c in report.comparisons)
    for comp in report.comparisons:
        shallow = comp.to_json_dict()
        assert json.dumps(shallow, indent=1, sort_keys=True) == json.dumps(
            _asdict_json(comp), indent=1, sort_keys=True
        )
        if comp.sample is not None:  # the sample and its point are copies
            shallow["sample"]["point"].clear()
            shallow["sample"].clear()
            assert comp.sample and comp.sample["point"]


def _full_fsum(terms) -> float:
    return math.fsum(terms.ravel().tolist())


def _bits(compute):
    """The bits of a float result, or the type and text of its error."""
    try:
        return float(compute()).hex()
    except (ArithmeticError, ValueError, RuntimeWarning) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "terms", [[], [0.0], [-0.0, -0.0], [0.0, -0.0], [1e308, 1e308, 0.0], [math.inf, 0.0, -math.inf],
              [math.nan, 0.0], [1.0, -1.0, 0.0], [1e-320, 0.0, -1e-320, 1e16, 1.0, -1e16]],
)
def test_fsum_nonzero_is_fsum(terms):
    array = np.array(terms, dtype=float)
    assert _bits(lambda: verify._fsum_nonzero(array)) == _bits(lambda: math.fsum(terms))


finite_labels = st.floats(-2.5, 2.5)  # e^(4 l x) stays finite at every x < 40


@settings(max_examples=60, deadline=None)
@given(
    w=st.floats(0.0, 0.95), s=st.floats(0.0, 0.95),
    # up to past the slot oracle's overflow guard (|l| about 21 to 24),
    # where the sums' exponentials overflow and raise
    l=st.one_of(finite_labels, st.floats(-25.0, 25.0)),
    lp=st.one_of(finite_labels, st.floats(-25.0, 25.0)),
    phi=st.floats(-4.0, 4.0), phip=st.floats(-4.0, 4.0), rho=st.floats(-7.0, 7.0),
    terms=st.integers(1, 40),
)
# every term zero: the cross term cancels the direct ones everywhere
@example(w=0.5, s=0.5, l=0.0, lp=0.0, phi=0.7, phip=0.7, rho=math.pi, terms=40)
@example(w=0.0, s=0.0, l=0.0, lp=0.0, phi=0.7, phip=0.7, rho=math.pi, terms=1)
def test_nxn_sums_over_nonzero_terms_are_fsum_over_all(w, s, l, lp, phi, phip, rho, terms):
    cylinder = CylinderPairParams(
        Mp2Variable(w), Mp2Variable(s), CylinderLabel(l, phi), CylinderLabel(lp, phip), rho
    )
    circle = CirclePairParams(
        Mp2Variable(w), Mp2Variable(s), CircleLabel(phi), CircleLabel(phip), rho
    )

    def outcomes():
        return [
            _bits(lambda: verify._cylinder_sum(cylinder, pair, terms, printed))
            for pair in PAIRS for printed in (False, True)
        ] + [_bits(lambda: total_closed_form_printed(circle, terms))]

    got = outcomes()
    with mock.patch.object(verify, "_fsum_nonzero", _full_fsum):
        assert outcomes() == got


def test_the_all_zero_example_sums_no_nonzero_term():
    # the first example above: at l = l' = 0, delta = 0 and rho = pi every
    # series-argument term, and every printed even-even one, is exactly 0
    params = CylinderPairParams(
        Mp2Variable(0.5), Mp2Variable(0.5), CylinderLabel(0.0, 0.7), CylinderLabel(0.0, 0.7),
        math.pi,
    )
    seen = []
    original = verify._fsum_nonzero

    def recording(terms):
        seen.append(terms)
        return original(terms)

    with mock.patch.object(verify, "_fsum_nonzero", recording):
        values = [cylinder_probability_corrected(params, pair, 40) for pair in PAIRS]
        values.append(cylinder_probability_printed(params, SectorPair.PP, 40))
    assert len(seen) == 4 and not any(np.any(terms) for terms in seen)
    assert [v.hex() for v in values] == [(0.0).hex()] * 4


def _counting(monkeypatch, module, name):
    """Record the arguments of every call of ``module.name``."""
    calls = []
    kernel = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("terms", [40, 6])
def test_each_circle_oracle_point_is_evaluated_once_a_run(monkeypatch, terms):
    rows = [row for row in BATTERY
            if isinstance(row.oracle, partial) and row.oracle.func is verify._circle_series]
    keys = {(row.oracle.args[0], terms, pt) for row in rows for pt in row.points.values}
    evaluations = sum(len(row.points.values) for row in rows)
    calls = _counting(monkeypatch, entangle_circle, "probability_series")
    verify_all(terms=terms)
    assert len(calls) == len(set(calls)) == len(keys)
    assert {(pair, n) for _, pair, n in calls} == {(pair, n) for pair, n, _ in keys}
    assert (evaluations, len(keys)) == (168, 132)
    # a second run evaluates them again: nothing is kept between runs
    verify_all(terms=terms)
    assert len(calls) == 2 * len(keys)


def test_a_kernel_patched_between_runs_is_seen(monkeypatch):
    first = verify_all()
    kernel = entangle_circle.probability_series

    def shifted(params, pair, terms):
        value = kernel(params, pair, terms)
        return dataclasses.replace(value, value=value.value + 1e-3)

    monkeypatch.setattr(entangle_circle, "probability_series", shifted)
    second = verify_all()
    assert not second.passed
    moved = {c.name for a, c in zip(first.comparisons, second.comparisons) if a != c}
    assert moved == {row.name for row in BATTERY if row.name.startswith("circle-")}
    monkeypatch.setattr(entangle_circle, "probability_series", kernel)
    assert verify_all() == first
