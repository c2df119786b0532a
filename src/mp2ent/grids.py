"""Parameter-sweep grids over the entanglement probabilities.

A sweep is two named axes plus fixed values for the remaining parameters of
one family (circle, cylinder, coset, cat).  This module is the one place
that knows which axes each item of the pair reads (a parameter, a
component, a slot input, a slot, a Gram half, the (u1, v1) projection):
:func:`_sweep_blocks` holds each item, by name, in one form, arrays shaped
(n1 or 1, n2 or 1, ...), the broadcast of its parents' shapes, built once
per distinct value of the swept axes it reads, and hands
:func:`entangle_circle.pair_norm_grid` (series) or
:func:`entangle_circle.pair_closed_form_grid` (closed form) one block at a
time, the whole grid or, where an item reads both axes, one row; each
kernel broadcasts its block and returns it, equal bit for bit to the
per-point kernels.  Everything runs in a fixed row-major order, so output
files are byte-identical across runs and processes.  CSV floats are
written as ``format(x, '.17g')`` writes them and JSON floats as Python's
shortest round-trip repr; both read back exactly.  The writers format a
grid's values in blocks of whole rows through :func:`floattext.float_text`,
which writes those same bytes in whole-array passes, straight into the
lines of one reusable buffer that holds the rest of each line's text.

The kernels compute the prefactor-stripped convention; under
``convention="full"`` :func:`run_sweep` multiplies each value and tail by the
family record's prefactor^4, since a probability is quartic in the slot
amplitudes.
"""

from __future__ import annotations

import cmath
import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from . import cat_compare, entangle_circle, entangle_coset, entangle_cylinder, floattext, states
from .entangle_circle import SectorPair
from .numerics import DEFAULT_TERMS, check_real, check_truncation
from .states import (
    MIN_COSET_IM_ALPHA,
    CircleLabel,
    CosetLabel,
    CylinderLabel,
    Mp2Variable,
)

TOOL_VERSION = "0.1.0"

FAMILIES = ("circle", "cylinder", "coset", "cat")
PROVENANCES = ("series", "closed_form", "both")
CONVENTIONS = ("stripped", "full")
FORMATS = ("csv", "json")

# Per-family parameter names, defaults, and validity domains (lo, hi, open
# upper end).  Disk moduli live in [0, 1); Im(alpha) must stay positive.
_DISK = (0.0, 1.0, True)
_ANGLE = (-math.inf, math.inf, False)
_REAL = (-math.inf, math.inf, False)
_POS_IM = (MIN_COSET_IM_ALPHA, math.inf, False)
_CAT_MOD = (0.0, math.inf, False)

PARAMETERS: dict[str, dict[str, tuple[float, tuple[float, float, bool]]]] = {
    "circle": {
        "omega": (0.5, _DISK),
        "sigma": (0.5, _DISK),
        "arg_omega": (0.0, _ANGLE),
        "arg_sigma": (0.0, _ANGLE),
        "phi": (math.pi / 2.0, _ANGLE),
        "phi_prime": (0.0, _ANGLE),
        "rho": (0.0, _ANGLE),
    },
    "cylinder": {
        "omega": (0.5, _DISK),
        "sigma": (0.5, _DISK),
        "arg_omega": (0.0, _ANGLE),
        "arg_sigma": (0.0, _ANGLE),
        "l": (0.0, _REAL),
        "l_prime": (0.0, _REAL),
        "phi": (math.pi / 2.0, _ANGLE),
        "phi_prime": (0.0, _ANGLE),
        "rho": (0.0, _ANGLE),
    },
    "coset": {
        "omega": (0.5, _DISK),
        "sigma": (0.5, _DISK),
        "arg_omega": (0.0, _ANGLE),
        "arg_sigma": (0.0, _ANGLE),
        "alpha_re": (0.0, _REAL),
        "alpha_im": (1.0, _POS_IM),
        "alpha2_re": (0.0, _REAL),
        "alpha2_im": (1.0, _POS_IM),
        "x": (1.0, _REAL),
        "y": (0.0, _REAL),
        "x2": (1.0, _REAL),
        "y2": (0.0, _REAL),
        "phi": (math.pi / 2.0, _ANGLE),
        "phi_prime": (0.0, _ANGLE),
        "rho": (0.0, _ANGLE),
    },
    "cat": {
        "alpha": (1.0, _CAT_MOD),
        "beta": (1.0, _CAT_MOD),
        "arg_alpha": (0.0, _ANGLE),
        "arg_beta": (0.0, _ANGLE),
        "phi": (math.pi / 2.0, _ANGLE),
        "phi_prime": (0.0, _ANGLE),
        "rho": (0.0, _ANGLE),
    },
}

# Captioned sweep defaults: circle/coset disks to 0.95, cat displacements
# to 1.95, 64 x 64.
DEFAULT_AXES: dict[str, tuple[tuple[str, float, float, int], tuple[str, float, float, int]]] = {
    "circle": (("omega", 0.0, 0.95, 64), ("sigma", 0.0, 0.95, 64)),
    "cylinder": (("omega", 0.0, 0.95, 64), ("sigma", 0.0, 0.95, 64)),
    "coset": (("omega", 0.0, 0.95, 64), ("sigma", 0.0, 0.95, 64)),
    "cat": (("alpha", 0.0, 1.95, 64), ("beta", 0.0, 1.95, 64)),
}


class GridDomainError(ValueError):
    """A grid point left a parameter's validity domain."""


@dataclass(frozen=True)
class AxisSpec:
    name: str
    start: float
    stop: float
    steps: int

    def __post_init__(self) -> None:
        for bound in ("start", "stop"):
            value = check_real(getattr(self, bound), f"axis {self.name} {bound}")
            object.__setattr__(self, bound, value)
        if not isinstance(self.steps, (int, np.integer)):
            raise ValueError(f"axis {self.name} steps must be an integer, got {self.steps!r}")
        object.__setattr__(self, "steps", int(self.steps))
        if self.steps < 2:
            raise ValueError("axis needs steps >= 2")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"axis {self.name} bounds must be finite")

    def values(self) -> list[float]:
        step = (self.stop - self.start) / (self.steps - 1)
        return [self.start + i * step for i in range(self.steps)]


@dataclass(frozen=True)
class SweepSpec:
    family: str
    pair: SectorPair
    axis1: AxisSpec
    axis2: AxisSpec
    fixed: tuple[tuple[str, float], ...] = ()
    truncation: int = DEFAULT_TERMS
    convention: str = "stripped"

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; use one of {FAMILIES}")
        for name, kind, what in (("pair", SectorPair, "a SectorPair"),
                                 ("axis1", AxisSpec, "an AxisSpec"),
                                 ("axis2", AxisSpec, "an AxisSpec")):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"sweep {name} must be {what}, got {getattr(self, name)!r}")
        fixed = tuple(self.fixed) if isinstance(self.fixed, Iterable) else None
        if fixed is None or not all(isinstance(item, (tuple, list)) and len(item) == 2
                                    and isinstance(item[0], str) for item in fixed):
            raise ValueError(f"sweep fixed must be (name, value) pairs, got {self.fixed!r}")
        if self.convention not in CONVENTIONS:
            raise ValueError(
                f"convention must be one of {CONVENTIONS}, got {self.convention!r}"
            )
        object.__setattr__(self, "truncation", check_truncation(self.truncation))
        names = [name for name, _ in fixed]
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"{self.family} parameter {name} is fixed twice")
        object.__setattr__(self, "fixed", tuple(sorted(
            (name, check_real(value, f"{self.family} parameter {name}"))
            for name, value in fixed)))
        catalog = PARAMETERS[self.family]
        for axis in (self.axis1, self.axis2):
            if axis.name not in catalog:
                raise ValueError(f"{self.family} has no parameter {axis.name!r}")
            for value in axis.values():
                _check_domain(self.family, axis.name, value)
        for name, value in self.fixed:
            if name not in catalog:
                raise ValueError(f"{self.family} has no parameter {name!r}")
            _check_domain(self.family, name, value)
        if self.axis1.name == self.axis2.name:
            raise ValueError("the two axes must name different parameters")
        for name, _ in self.fixed:
            if name in (self.axis1.name, self.axis2.name):
                raise ValueError(
                    f"{self.family} parameter {name} is swept by an axis and cannot be fixed"
                )

    def to_json_dict(self) -> dict:
        # shallow: dataclasses.asdict would deep-copy the whole spec
        return {**vars(self), "pair": self.pair.value, "fixed": dict(self.fixed),
                "axis1": dict(vars(self.axis1)), "axis2": dict(vars(self.axis2))}


def _check_domain(family: str, name: str, value: float) -> None:
    if not math.isfinite(value):
        raise GridDomainError(f"{family} parameter {name}={value} must be finite")
    lo, hi, open_hi = PARAMETERS[family][name][1]
    if value < lo or value > hi or (open_hi and value >= hi):
        raise GridDomainError(
            f"{family} parameter {name}={value} outside its validity domain"
        )


@dataclass(frozen=True, eq=False)
class ProbabilityGrid:
    spec: SweepSpec
    values: np.ndarray = field(repr=False)
    tail_bound_max: float
    provenance: str

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.shape != (self.spec.axis1.steps, self.spec.axis2.steps):
            raise ValueError("grid shape does not match the sweep spec")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise ValueError("grid values must be finite and non-negative")


def _polar(modulus: float, arg: float) -> complex:
    """The complex parameter of modulus ``modulus`` and argument ``arg``."""
    return modulus * np.exp(1j * arg)


def _disk_variable(modulus: float, arg: float) -> Mp2Variable:
    return Mp2Variable(_polar(modulus, arg))


# A pair component is the parameter names it reads and the builder that
# takes their values, in that order.  The components of a family are its
# pair's first variable, second variable, label and label'.
_DISK_VARIABLES = (
    (("omega", "arg_omega"), _disk_variable), (("sigma", "arg_sigma"), _disk_variable)
)
_CIRCLE_LABELS = ((("phi",), CircleLabel), (("phi_prime",), CircleLabel))


def _coset_label(re: float, im: float, phi: float, x: float, y: float) -> CosetLabel:
    return CosetLabel(complex(re, im), phi, x, y)


# family -> (entangled pair, its four components).  Both columns build the
# pair's slots or Gram halves from the components (see _sweep_blocks).
# Kernels are looked up on their modules at call time, so a wrapper
# installed on a module attribute sees every sweep.  The pair's record
# prefactor sets the "full" convention.
_FAMILY_TABLE = {
    "circle": (entangle_circle.CIRCLE_PAIR, _DISK_VARIABLES + _CIRCLE_LABELS),
    "cylinder": (
        entangle_cylinder.CYLINDER_PAIR,
        _DISK_VARIABLES
        + ((("l", "phi"), CylinderLabel), (("l_prime", "phi_prime"), CylinderLabel)),
    ),
    "coset": (
        entangle_coset.COSET_PAIR,
        _DISK_VARIABLES + (
            (("alpha_re", "alpha_im", "phi", "x", "y"), _coset_label),
            (("alpha2_re", "alpha2_im", "phi_prime", "x2", "y2"), _coset_label),
        ),
    ),
    "cat": (
        cat_compare.CAT_PAIR,
        (
            (("alpha", "arg_alpha"), lambda m, a: cat_compare.cat_displacement(_polar(m, a))),
            (("beta", "arg_beta"), lambda m, a: cat_compare.cat_displacement(_polar(m, a))),
        ) + _CIRCLE_LABELS,
    ),
}
# the pairs each family's closed form covers: circle all four, coset pp/pm/mm
_CLOSED_FORM_PAIRS = {"circle": tuple(SectorPair), "coset": tuple(SectorPair)[:3]}


def run_sweep(spec: SweepSpec, provenance: str = "series") -> ProbabilityGrid:
    """Evaluate the sweep; deterministic row-major order, identical output
    across runs.  The family's kernels and the convention's scale are read
    once.  Each column maps its kernel over the blocks of
    :func:`_sweep_blocks`, block by block: the series column
    :func:`entangle_circle.pair_norm_grid`, the closed form
    :func:`entangle_circle.pair_closed_form_grid` over its Gram halves.  The
    blocks' values and tails are broadcast, joined and scaled once a column
    (under ``both`` the two columns must agree within 1e-9 plus the series
    tail bound, or the first point in row-major order that does not is
    named; under ``closed_form`` the tail is that of the closed form's
    truncated sums, 0 for a sector pair).  If a block raises (invalid input
    or an arithmetic overflow), :func:`_replay` names the sweep's first
    failing point; domain checks are ``SweepSpec``'s, which checks every
    value it can emit."""
    if provenance not in PROVENANCES:
        raise ValueError(f"provenance must be one of {PROVENANCES}")
    form, components = _FAMILY_TABLE[spec.family]
    pair = spec.pair
    covered = _CLOSED_FORM_PAIRS.get(spec.family, ())
    if provenance != "series" and pair not in covered:
        raise ValueError(
            f"the {spec.family} closed form covers "
            f"{', '.join(p.value for p in covered)} only, not {pair.value}" if covered
            else f"closed-form provenance is available for {' and '.join(_CLOSED_FORM_PAIRS)} only"
        )
    scale = form.record.prefactor**4 if spec.convention == "full" else 1.0
    fixed = {name: default for name, (default, _) in PARAMETERS[spec.family].items()}
    fixed.update(spec.fixed)

    def column(name: str) -> tuple[np.ndarray, np.ndarray]:
        # the values and tails over the grid of the kernel ``name``, scaled;
        # if a block raises, the error of the first failing point, or its
        # own where no point fails on its own
        try:
            blocks = [np.broadcast_arrays(*getattr(entangle_circle, name)(form, block))
                      for block in _sweep_blocks(spec, form, components, fixed, name)]
        except (ValueError, ArithmeticError):
            _replay(spec, form, components, fixed, name)
            raise
        values, tails = (np.concatenate(col) for col in zip(*blocks))
        values *= scale
        tails *= scale
        return values, tails

    if provenance != "closed_form":
        values, tails = column("pair_norm_grid")
        if provenance == "series":
            return ProbabilityGrid(spec, values, float(tails.max()), provenance)
    closed, closed_tails = column("pair_closed_form_grid")
    if provenance == "closed_form":
        return ProbabilityGrid(
            spec, _clamp_residue(closed), float(closed_tails.max()), provenance)
    off = np.abs(values - closed) > 1e-9 + tails
    if off.any():
        i, j = np.unravel_index(off.argmax(), off.shape)
        raise GridDomainError(
            f"series/closed-form disagreement at ({spec.axis1.values()[i]}, "
            f"{spec.axis2.values()[j]}): {float(values[i, j])} vs {float(closed[i, j])}"
        )
    return ProbabilityGrid(spec, values, float(tails.max()), provenance)


def _replay(spec: SweepSpec, form, components, fixed: dict[str, float], kernel: str) -> None:
    """Walk the sweep point by point in row-major order through the
    per-point API, and raise at the first point that fails: a
    GridDomainError naming the point if its components (the labels first,
    as callers build the label objects before the params that take them)
    or the per-point twin of the kernel ``kernel`` (``form.matrix`` for
    ``pair_norm_grid``; ``form.closed_form`` and, for the total, its
    grouped slots, whose tails the grid reports, for
    ``pair_closed_form_grid``) raise, or the pair norm's own error unnamed.
    Returns if no point fails."""
    name1, name2 = spec.axis1.name, spec.axis2.name
    pair, terms = spec.pair, spec.truncation
    for v1 in spec.axis1.values():
        for v2 in spec.axis2.values():
            at = {**fixed, name1: v1, name2: v2}
            try:
                label, label_prime, first, second = (
                    builder(*(at[name] for name in names))
                    for names, builder in (components[k] for k in (2, 3, 0, 1))
                )
                parts = (first, second, label, label_prime)
                if kernel == "pair_closed_form_grid":
                    form.closed_form(parts, pair, at["rho"], terms)
                    if pair is SectorPair.TOTAL:
                        for var, lab in entangle_circle.SLOT_ROLES:
                            form.record(parts[var], parts[lab], None, terms, False)
                    continue
                matrix = form.matrix(parts, pair, terms, at["rho"])
            except (ValueError, ArithmeticError) as exc:
                raise GridDomainError(f"point ({name1}={v1}, {name2}={v2}): {exc}") from exc
            matrix.norm_sq()


# the items each sweep column's kernel reads, by name (see _sweep_blocks)
_COLUMNS = {"pair_norm_grid": ("proj", "u2", "v2", "f"),
            "pair_closed_form_grid": ("half1", "half2", "f")}


def _sweep_blocks(spec: SweepSpec, form, components, fixed: dict[str, float], kernel: str):
    """Yield the sweep in blocks of axis1 rows, each block the items that
    the kernel named ``kernel`` reads (:data:`_COLUMNS`): the (u1, v1)
    projection, u2, v2 and the phase f = s e^(i rho) for
    ``entangle_circle.pair_norm_grid``; the two Gram halves and f for
    ``pair_closed_form_grid``, then for the TOTAL pair the u1, u2, v1 and
    v2 slots, whose tails the closed form reports.  Another name raises.

    Items.  Each item is named and has one form: arrays shaped
    (n1 or 1, n2 or 1, ...), 1 along an axis it does not read.  A
    parameter is one object array: its axis values as an (n1, 1) column or
    a (1, n2) row, or its fixed value as (1, 1).  Any other item's shape is
    the broadcast of its parents' shapes.  A ufunc builder (a component's
    or an input item's ``np.frompyfunc``) takes its parents' arrays as they
    are and broadcasts them itself; any other builder (a batch builder, f)
    takes them broadcast to its shape and flattened (views, zero-stride
    along an axis a parent does not read, so no parent is copied), then
    the arguments its table entry lists, and returns a tuple of columns,
    reshaped to that shape.  So one call per distinct value of the axes an
    item reads builds it.  The table declares each item after its parents:
    the components first, second, label and label' (the family's builders
    over the parameters they name, object arrays) and f (complex); each
    slot role's input item (``u1-in``, ...: the object columns z and amps
    of ``record.inputs``, the only calls a sweep makes to the record's z
    and amps) right before its slot (the columns of a
    :class:`~mp2ent.states.SlotBatch` from ``states.fock_series_batch``),
    so that a slot batch that fails leaves the later roles' inputs
    unbuilt; the projection of u1 and v1
    (``entangle_circle.projections``); and the Gram halves over the input
    items of (u1, v1) and (u2, v2) (``entangle_circle.gram_halves``).  Only
    the items the kernel reads and their ancestors are built, in table
    order, and none reads or fills the fock_series memo.  A builder that
    fails raises its plain exception, which :func:`run_sweep` turns into
    the failing point's.

    Blocks.  Every parameter is read by some kernel item, so a block's
    arrays broadcast to (rows, n2).  An item reads both axes when both its
    dimensions pass 1 (an axis has at least 2 steps).  A block is the whole
    grid when no item reads both axes, and one row otherwise: an item that
    reads both is built a row at a time, the others once a sweep and
    viewed at each row.
    """
    if kernel not in _COLUMNS:
        raise ValueError(f"unknown sweep kernel {kernel!r}; use one of {tuple(_COLUMNS)}")
    reads = _COLUMNS[kernel]
    if kernel == "pair_closed_form_grid" and spec.pair is SectorPair.TOTAL:
        reads += ("u1", "u2", "v1", "v2")
    record, terms, (p1, p2) = form.record, spec.truncation, entangle_circle.slot_parities(spec.pair)
    inputs = np.frompyfunc(record.inputs, 2, 2)
    phase = np.frompyfunc(lambda rho: form.swap_sign * cmath.exp(1j * rho), 1, 1)
    batch, halves, g = states.fock_series_batch, entangle_circle.gram_halves, record.g

    # item -> (its parents, its builder, then the builder's arguments after
    # the parents' columns, which it takes parent after parent)
    table = dict(zip(("first", "second", "label", "label'"), (
        (names, np.frompyfunc(builder, len(names), 1)) for names, builder in components)))
    table.update({
        "f": (("rho",), lambda rho: (phase(rho).astype(complex),)),
        "u1-in": (("first", "label"), inputs), "u1": (("u1-in",), batch, p1, terms, g),
        "u2-in": (("second", "label'"), inputs), "u2": (("u2-in",), batch, p2, terms, g),
        "v1-in": (("first", "label'"), inputs), "v1": (("v1-in",), batch, p1, terms, g),
        "v2-in": (("second", "label"), inputs), "v2": (("v2-in",), batch, p2, terms, g),
        "proj": (("u1", "v1"), lambda *c: entangle_circle.projections(c[:3], c[3:])),
        "half1": (("u1-in", "v1-in"), halves, p1, terms),
        "half2": (("u2-in", "v2-in"), halves, p2, terms),
    })
    # the items the kernel reads and their ancestors, in table order
    needed = set(reads)
    for name in reversed(table):
        needed.update(table[name][0] if name in needed else ())
    order = [name for name in table if name in needed]

    def build(name: str, items: dict) -> tuple:
        # the item at the points of the parents' arrays in items
        parents, builder, *args = table[name]
        if isinstance(builder, np.ufunc):  # it broadcasts its parents' arrays itself
            columns = builder(*(col for p in parents for col in items[p]))
            return columns if builder.nout > 1 else (columns,)
        # each dimension is 1 or full, so the broadcast shape is the largest;
        # np.broadcast_to costs a few us a call, so only parents that need it
        shape = tuple(map(max, zip(*(items[p][0].shape[:2] for p in parents))))
        columns = builder(*(
            (col if col.shape[:2] == shape else np.broadcast_to(col, shape + col.shape[2:]))
            .reshape(-1, *col.shape[2:]) for p in parents for col in items[p]), *args)
        return tuple(col.reshape(*shape, *col.shape[1:]) for col in columns)

    # the parameters: each axis as a column or a row, each fixed value (1, 1)
    whole = {name: (np.full((1, 1), value, object),) for name, value in fixed.items()}
    whole[spec.axis1.name] = (np.array(spec.axis1.values(), object)[:, None],)
    whole[spec.axis2.name] = (np.array(spec.axis2.values(), object)[None, :],)
    # an item's shape is the broadcast of its parents'; each item that does
    # not read both axes is built once a sweep
    shapes = {name: item[0].shape for name, item in whole.items()}
    for name in order:
        shapes[name] = tuple(map(max, zip(*(shapes[p] for p in table[name][0]))))
        whole[name] = None if min(shapes[name]) > 1 else build(name, whole)
    both = [name for name in order if whole[name] is None]
    # one block of the whole grid, unless an item reads both axes; then one
    # row a block, so that such items (a slot's N terms, a projection or a
    # Gram half) are held a row at a time
    for rows in (slice(i, i + 1) for i in range(spec.axis1.steps)) if both else [slice(None)]:
        # an item that reads axis1 alone is viewed at the rows
        items = {name: tuple(col[rows] for col in item) if shapes[name][0] > 1 == shapes[name][1]
                 else item for name, item in whole.items()}
        for name in both:
            items[name] = build(name, items)
        yield tuple(items[name] for name in reads)


def _clamp_residue(values: np.ndarray) -> np.ndarray:
    # exact-cancellation points can round to a tiny negative in the closed
    # forms; the series value is a sum of squares and never needs this
    return np.where((-1e-12 < values) & (values < 0.0), 0.0, values)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# the most values the writers format a block: bounds their working arrays
# to a few hundred kB whatever the grid's size
_BLOCK = 2048


def grid_to_csv(grid: ProbabilityGrid) -> str:
    """Header ``axis1,axis2,value``; one row per point, row-major in axis1,
    each float as ``format(x, '.17g')`` writes it."""
    return _grid_bytes(grid, "csv").decode("ascii")


def grid_to_json(grid: ProbabilityGrid) -> str:
    """Sorted-key JSON at indent 1; ``json.dumps`` writes all but the values."""
    return _grid_bytes(grid, "json").decode("utf-8")


def _grid_bytes(grid: ProbabilityGrid, fmt: str) -> bytearray:
    """The UTF-8 bytes of :func:`grid_to_csv` (``fmt`` "csv") or
    :func:`grid_to_json` ("json").  In CSV each axis value is formatted
    once, and each line is its axis1 text, its ``,{axis2},`` text, its
    value and a newline (see :func:`_formatted`)."""
    if fmt == "csv":
        ax1 = floattext.byte_rows([_fmt(v) for v in grid.spec.axis1.values()])
        ax2 = floattext.byte_rows([f",{_fmt(v)}," for v in grid.spec.axis2.values()])
        text = bytearray(b"axis1,axis2,value\n")
        _formatted(text, grid.values, False, ax2, floattext.byte_rows(["\n"] * len(ax2)), ax1)
        return text
    payload = {
        "spec": grid.spec.to_json_dict(),
        "values": [],
        "tail_bound_max": float(grid.tail_bound_max),
        "provenance": grid.provenance,
        "tool_version": TOOL_VERSION,
    }
    head = json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1)
    # "values" sorts last, so the header ends in '"values": []' and "}"
    text = bytearray(head[: -len("[]\n}")].encode("utf-8"))
    _json_values(text, grid.values)
    text += b"\n}\n"
    return text


def _json_values(text: bytearray, values: np.ndarray) -> None:
    """Append the non-empty 2-D array of finite floats ``values`` to
    ``text`` as ``json.dumps`` writes it as a member of an indent-1 object,
    without the pure-Python encoder that ``indent`` selects: each float its
    repr, one per line, between the indent (and a row's opening ``[``)
    before it and the separator (or a row's closing ``]``) after it."""
    n2 = values.shape[1]
    before = floattext.byte_rows(["  [\n   "] + ["   "] * (n2 - 1))
    after = floattext.byte_rows([",\n"] * (n2 - 1) + ["\n  ],\n"])
    text += b"[\n"
    _formatted(text, values, True, before, after)
    # the last row's "]" closes the list
    text[-len(",\n") :] = b"\n ]"


def _formatted(text: bytearray, values: np.ndarray, shortest: bool, before: np.ndarray,
               after: np.ndarray, lead: np.ndarray | None = None) -> None:
    """Append the text of the 2-D ``values`` in row-major order to
    ``text``.  A value's text is, in order, the row of ``lead`` at its
    axis1 index (if given), the rows of ``before`` and then the value as
    :func:`floattext.float_text` writes it, and the row of ``after``, the
    last two at its axis2 index; each table is a
    :func:`floattext.byte_rows` table.

    The values go in blocks of whole grid rows, ``max(1, _BLOCK // n2)``
    rows a block, and a row longer than ``_BLOCK`` in chunks of ``_BLOCK``
    values.  One buffer holds a block's text, a line per value: lead and
    before, NULs to a word boundary, the value's ``WIDTH`` bytes (which
    float_text writes there as words), after and NULs to a word boundary.
    The axis2 pieces are written into it once a grid (once a chunk in a
    chunked row), the axis1 piece once a block, and
    :func:`floattext.compact` joins its lines."""
    n1, n2 = values.shape
    rows, cols = max(1, _BLOCK // n2), min(n2, _BLOCK)
    w1 = 0 if lead is None else lead.shape[1]
    w2 = w1 + before.shape[1]
    # the value's bytes begin and end on word boundaries, as does a line
    start = 8 * -(-w2 // 8)
    stop = start + floattext.WIDTH
    buffer = np.zeros((rows, cols, stop + 8 * -(-after.shape[1] // 8)), np.uint8)
    lines = buffer.reshape(rows * cols, -1)
    words = lines.view(np.uint64)[:, start // 8 : stop // 8]
    written = None  # the first axis2 index of the pieces in the buffer
    for i in range(0, n1, rows):
        for j in range(0, n2, cols):
            block = values[i : i + rows, j : j + cols]
            k, c = block.shape
            if j != written:
                buffer[:, :c, w1:w2] = before[j : j + c]
                buffer[:, :c, stop : stop + after.shape[1]] = after[j : j + c]
                written = j
            if lead is not None:
                buffer[:k, :c, :w1] = lead[i : i + k, None]
            # whole rows (c = cols) or one row (k = 1): the buffer's first lines
            floattext.float_text(block.ravel(), shortest, words[: block.size])
            text += floattext.compact(lines[: block.size])


def write_grid(grid: ProbabilityGrid, path: str, fmt: str, command: str = "") -> None:
    """Write the data file plus a ``<path>.meta.json`` sidecar holding the
    run's timestamp, command, format, tool version, series truncation and
    largest tail bound; timestamps only ever go in the sidecar so data files
    stay deterministic.  The data file is the bytes the writers build (the
    UTF-8 bytes of :func:`grid_to_csv` or :func:`grid_to_json`), written as
    they are, and the sidecar is written without newline translation, on
    every platform.  ``fmt`` is one of :data:`FORMATS`, checked before any
    file is opened."""
    import datetime

    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    data = _grid_bytes(grid, fmt)
    with open(path, "wb") as fh:
        fh.write(data)
    meta = {
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "tool_version": TOOL_VERSION,
        "command": command,
        "format": fmt,
        "truncation": grid.spec.truncation,
        "tail_bound_max": float(grid.tail_bound_max),
    }
    with open(path + ".meta.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
