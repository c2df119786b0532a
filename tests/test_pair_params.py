"""The one validation path of the four families' pair parameters
(:class:`mp2ent.entangle_circle.PairParams`) and of the per-point entries'
series truncation (:func:`mp2ent.numerics.check_truncation`)."""

import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

from mp2ent import numerics, states
from mp2ent.cat_compare import CatPairParams, cat_coefficient_matrix, cat_entangled_probability
from mp2ent.entangle_circle import (
    CIRCLE_PAIR,
    CirclePairParams,
    EntangledPair,
    PairParams,
    SectorPair,
    closed_form_total,
    coefficient_matrix,
    probability_series,
)
from mp2ent.entangle_coset import (
    COSET_PAIR,
    CosetPairParams,
    coefficient_matrix_coset,
    probability_series_coset,
)
from mp2ent.entangle_cylinder import (
    CylinderPairParams,
    coefficient_matrix_cyl,
    degenerate_limit_cyl,
    probability_series_cyl,
)
from mp2ent.states import CircleLabel, CosetLabel, CylinderLabel, Mp2Variable

CYL, CYL_PRIME = CylinderLabel(0.3, 0.4), CylinderLabel(-0.2, 1.1)
COSET, COSET_PRIME = CosetLabel(0.4 + 0.8j, 0.9), CosetLabel(-0.2 + 1.3j, 0.1)
# Im(alpha) > 0, so a valid coset label, but below the pair's 1e-6 floor
THIN = CosetLabel(0.1 + 1e-9j, 0.0)

# one valid (first, second, label, label') per family
VALID = {
    CirclePairParams: (0.3, 0.4 + 0.1j, 0.1, 1.2),
    CylinderPairParams: (0.3, 0.4 + 0.1j, CYL, CYL_PRIME),
    CosetPairParams: (0.3, 0.4 + 0.1j, COSET, COSET_PRIME),
    CatPairParams: (0.8 + 0.3j, 1.1 - 0.2j, 0.1, 1.2),
}
FAMILIES = list(VALID)


def test_each_family_is_a_pair_params_with_five_fields():
    for cls in FAMILIES:
        assert issubclass(cls, PairParams)
        assert len(dataclasses.fields(cls)) == 5 and cls.__match_args__[4] == "rho"
        assert "__post_init__" not in vars(cls) or cls is CosetPairParams


# (args, the first error's text): every value past the first bad one is bad
# too, so each case pins which check runs first
FIRST_ERRORS = {
    CirclePairParams: [
        ((2.0, 3.0, math.nan, math.inf, math.nan), r"^\|omega\| must be < 1 \(Bargmann disk\), got 2\.0$"),
        ((0.3, 3.0, math.nan, math.inf, math.nan), r"^\|omega\| must be < 1 \(Bargmann disk\), got 3\.0$"),
        ((0.3, 0.4, math.nan, math.inf, math.nan), r"^label angle phi must be finite, got nan$"),
        ((0.3, 0.4, 0.1, math.inf, math.nan), r"^label angle phi must be finite, got inf$"),
        ((0.3, 0.4, 0.1, 1.2, math.nan), r"^pair phase rho must be finite, got nan$"),
    ],
    CylinderPairParams: [
        ((2.0, 3.0, 0.3, 0.1, math.nan), r"^\|omega\| must be < 1 \(Bargmann disk\), got 2\.0$"),
        ((0.3, 3.0, 0.3, 0.1, math.nan), r"^\|omega\| must be < 1 \(Bargmann disk\), got 3\.0$"),
        ((0.3, 0.4, 0.3, 0.1, math.nan), r"^pair label must be a CylinderLabel, got 0\.3$"),
        ((0.3, 0.4, CYL, 0.1, math.nan), r"^pair label_prime must be a CylinderLabel, got 0\.1$"),
        ((0.3, 0.4, CYL, CYL_PRIME, math.inf), r"^pair phase rho must be finite, got inf$"),
    ],
    CosetPairParams: [
        ((2.0, 3.0, 0.3, CYL, math.nan), r"^\|omega\| must be < 1 \(Bargmann disk\), got 2\.0$"),
        ((0.3, 3.0, 0.3, CYL, math.nan), r"^\|omega\| must be < 1 \(Bargmann disk\), got 3\.0$"),
        ((0.3, 0.4, 0.3, CYL, math.nan), r"^pair label must be a CosetLabel, got 0\.3$"),
        ((0.3, 0.4, THIN, CYL, math.nan),
         r"^pair label_prime must be a CosetLabel, got CylinderLabel\(l=0\.3, phi=0\.4\)$"),
        ((0.3, 0.4, THIN, THIN, math.nan), r"^pair phase rho must be finite, got nan$"),
        ((0.3, 0.4, THIN, COSET, 0.5), r"^coset pair requires Im\(alpha\) >= 1e-06$"),
        ((0.3, 0.4, COSET, THIN, 0.5), r"^coset pair requires Im\(alpha\) >= 1e-06$"),
    ],
    CatPairParams: [
        ((math.inf, 1e400j, math.nan, math.inf, math.nan), r"^cat displacements must be finite$"),
        ((0.5, 1e400j, math.nan, math.inf, math.nan), r"^cat displacements must be finite$"),
        ((0.5, 0.7j, math.nan, math.inf, math.nan), r"^label angle phi must be finite, got nan$"),
        ((0.5, 0.7j, 0.1, math.inf, math.nan), r"^label angle phi must be finite, got inf$"),
        ((0.5, 0.7j, 0.1, 1.2, math.inf), r"^pair phase rho must be finite, got inf$"),
    ],
}


@pytest.mark.parametrize(
    "cls, args, message",
    [(cls, args, message) for cls, cases in FIRST_ERRORS.items() for args, message in cases],
)
def test_fields_are_checked_in_field_order(cls, args, message):
    # variables, then labels, then rho, then the coset's Im(alpha) floor
    with pytest.raises(ValueError, match=message):
        cls(*args)


def test_only_the_declared_fields_are_coerced():
    # a family coerces only what it declares: a circle label is made from
    # a real number, a cylinder label is taken as given
    with pytest.raises(ValueError, match=r"^label angle phi must be a real number, got None$"):
        CirclePairParams(0.3, 0.4, None, 0.0, 0.5)
    params = CylinderPairParams(0.3, 0.4, CYL, CYL_PRIME, 0.5)
    assert params.label is CYL and params.label_prime is CYL_PRIME


@pytest.mark.parametrize("value", [0.3, None, "label", CircleLabel(0.3)], ids=repr)
@pytest.mark.parametrize("name", ["label", "label_prime"])
@pytest.mark.parametrize("cls", [CylinderPairParams, CosetPairParams])
def test_a_label_the_family_takes_as_given_must_be_its_label(cls, name, value):
    # refused at construction, and not when a kernel first reads it
    kind = cls.__annotations__[name]
    args = dict(zip(cls.__match_args__, (*VALID[cls], 0.5)), **{name: value})
    message = rf"^pair {name} must be a {kind}, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        cls(**args)


@pytest.mark.parametrize("rho", [True, False, np.bool_(True), "1", 1j, 1 + 0j, None])
@pytest.mark.parametrize("cls", FAMILIES)
def test_a_bool_or_non_real_rho_is_refused(cls, rho):
    with pytest.raises(ValueError, match=r"^pair phase rho must be a real number, got "):
        cls(*VALID[cls], rho)


@pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf, np.float32("nan")])
@pytest.mark.parametrize("cls", FAMILIES)
def test_a_non_finite_rho_is_refused(cls, rho):
    with pytest.raises(ValueError, match=r"^pair phase rho must be finite, got (nan|inf|-inf)$"):
        cls(*VALID[cls], rho)


@pytest.mark.parametrize("rho", [1, np.int64(2), np.float32(0.5), np.float64(-3.0), 0.25])
@pytest.mark.parametrize("cls", FAMILIES)
def test_a_real_rho_is_stored_as_a_float(cls, rho):
    params = cls(*VALID[cls], rho)
    assert type(params.rho) is float and params.rho == float(rho)


def _fields(params):
    return tuple(getattr(params, f.name) for f in dataclasses.fields(params))


@pytest.mark.parametrize("cls", FAMILIES)
def test_parts_are_the_first_four_fields_through_every_copy(cls):
    params = cls(*VALID[cls], 0.5)
    assert params.parts == _fields(params)[:4]
    assert all(part is field for part, field in zip(params.parts, _fields(params)))
    assert "parts" not in {f.name for f in dataclasses.fields(params)}
    replaced = dataclasses.replace(params, rho=1.5)
    assert replaced.parts == _fields(replaced)[:4] and replaced.rho == 1.5
    moved = dataclasses.replace(params, **{cls.__match_args__[1]: VALID[cls][0]})
    assert moved.parts[1] == moved.parts[0] == params.parts[0]
    clone = pickle.loads(pickle.dumps(params))
    assert clone == params and hash(clone) == hash(params) and repr(clone) == repr(params)
    assert clone.parts == _fields(clone)[:4] == params.parts
    again = cls(*_fields(params))
    assert again == params and hash(again) == hash(params)
    assert "parts" not in repr(params)
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.parts = ()


def test_coercions_make_the_same_objects_as_explicit_construction():
    params = CirclePairParams(0.3, 0.4 + 0.1j, 0.1, 1.2, 0.5)
    explicit = CirclePairParams(
        Mp2Variable(0.3), Mp2Variable(0.4 + 0.1j), CircleLabel(0.1), CircleLabel(1.2), 0.5
    )
    assert params == explicit and params.parts == explicit.parts
    assert params.theta2 == explicit.sigma.arg
    cat = CatPairParams(1, 2, 0.1, 1.2, 0.5)
    assert (cat.alpha, cat.beta) == (1 + 0j, 2 + 0j) and type(cat.alpha) is complex


@pytest.mark.parametrize("cls", FAMILIES)
def test_delta_is_the_label_angle_difference(cls):
    params = cls(*VALID[cls], 0.5)
    label, label_prime = params.parts[2:]
    assert params.delta == label.phi - label_prime.phi


def test_coset_params_have_delta():
    # new with the shared base: the coset bundle had no delta
    assert CosetPairParams(0.3, 0.4, COSET, COSET_PRIME, 0.5).delta == 0.9 - 0.1


# --------------------------------------------------------------------------
# per-point truncations
# --------------------------------------------------------------------------

CIRCLE = CirclePairParams(0.3, 0.4, 0.1, 1.2, 0.5)
CYLINDER = CylinderPairParams(0.3, 0.4, CYL, CYL_PRIME, 0.5)
COSET_PARAMS = CosetPairParams(0.3, 0.4, COSET, COSET_PRIME, 0.5)
CAT = CatPairParams(0.8, 1.1, 0.1, 1.2, 0.5)
PP = SectorPair.PP

ENTRIES = {
    "coefficient_matrix": lambda n: coefficient_matrix(CIRCLE, PP, n),
    "probability_series": lambda n: probability_series(CIRCLE, PP, n),
    "coefficient_matrix_cyl": lambda n: coefficient_matrix_cyl(CYLINDER, PP, n),
    "probability_series_cyl": lambda n: probability_series_cyl(CYLINDER, PP, n),
    "coefficient_matrix_coset": lambda n: coefficient_matrix_coset(COSET_PARAMS, PP, n),
    "probability_series_coset": lambda n: probability_series_coset(COSET_PARAMS, PP, n),
    "cat_coefficient_matrix": lambda n: cat_coefficient_matrix(CAT, PP, n),
    "cat_entangled_probability": lambda n: cat_entangled_probability(CAT, PP, n),
    "closed_form_total": lambda n: closed_form_total(CIRCLE, n),
    # the sector closed forms, closed_form_P's and closed_form_coset's
    "pair_closed_form": lambda n: EntangledPair(COSET_PAIR.record, 1.0, 0.5).closed_form(
        COSET_PARAMS.parts, PP, 0.5, n
    ),
    "pair_closed_form_total": lambda n: CIRCLE_PAIR.closed_form(
        CIRCLE.parts, SectorPair.TOTAL, 0.5, n
    ),
    "degenerate_limit_cyl": lambda n: degenerate_limit_cyl(PP, 0.5, 0.0, 0.0, 0.3, terms=n),
    "degenerate_limit_cyl_theta": lambda n: degenerate_limit_cyl(SectorPair.MM, 0.0, 0.0, 0.0, 0.3, n),
    "theta2": lambda n: numerics.theta2(0.5, n),
    "theta3": lambda n: numerics.theta3(0.5, n),
    "theta3_at_0": lambda n: numerics.theta3(0.0, n),
    "fock_series_batch": lambda n: states.fock_series_batch([0.3 + 0.1j], [(1.0, 1.0)], None, n),
}
BAD_TRUNCATIONS = {
    True: r"^truncation must be an integer, got True$",
    2.5: r"^truncation must be an integer, got 2\.5$",
    0: r"^truncation must be >= 1, got 0$",
}


@pytest.mark.parametrize("terms", list(BAD_TRUNCATIONS))
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_a_per_point_entry_refuses_a_bad_truncation(entry, terms):
    # memoized slots at N = 1 first: True == 1 must not reach them as a key
    ENTRIES[entry](1)
    with pytest.raises(ValueError, match=BAD_TRUNCATIONS[terms]):
        ENTRIES[entry](terms)


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_a_per_point_entry_takes_a_numpy_integer_truncation(entry):
    assert repr(ENTRIES[entry](np.int64(7))) == repr(ENTRIES[entry](7))
