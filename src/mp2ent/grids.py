"""Parameter-sweep grids over the entanglement probabilities.

A sweep is two named axes plus fixed values for the remaining parameters of
one family (circle, cylinder, coset, cat).  This module is the one place
that knows which axes each item of the pair reads (a component, a slot, a
Gram half, the (u1, v1) projection): :func:`_sweep_blocks` builds each item
once per distinct value of the swept axes it reads, in axis batches (a
slot batch and a projection batch come as arrays, one row per value),
reshapes each batch once into arrays shaped (n1 or 1, n2 or 1, ...), and
hands :func:`entangle_circle.pair_norm_grid` (series) or
:func:`entangle_circle.pair_closed_form_grid` (closed form) blocks of axis1
rows that they broadcast, equal bit for bit to the per-point kernels.
Everything runs in a fixed row-major order, so output files are
byte-identical across runs and processes.  CSV floats are written with 17 significant digits and JSON floats in Python's
shortest round-trip repr; both read back exactly.

The kernels compute the prefactor-stripped convention; under
``convention="full"`` :func:`run_sweep` multiplies each value and tail by the
family record's prefactor^4, since a probability is quartic in the slot
amplitudes.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import cat_compare, entangle_circle, entangle_coset, entangle_cylinder
from .entangle_circle import SectorPair
from .numerics import DEFAULT_TERMS, check_truncation
from .states import (
    MIN_COSET_IM_ALPHA,
    CircleLabel,
    CosetLabel,
    CylinderLabel,
    Mp2Variable,
    SlotBatch,
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
        if self.convention not in CONVENTIONS:
            raise ValueError(
                f"convention must be one of {CONVENTIONS}, got {self.convention!r}"
            )
        object.__setattr__(self, "truncation", check_truncation(self.truncation))
        object.__setattr__(self, "fixed", tuple(sorted(dict(self.fixed).items())))
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
        return {
            "family": self.family,
            "pair": self.pair.value,
            "axis1": {"name": self.axis1.name, "start": self.axis1.start,
                      "stop": self.axis1.stop, "steps": self.axis1.steps},
            "axis2": {"name": self.axis2.name, "start": self.axis2.start,
                      "stop": self.axis2.stop, "steps": self.axis2.steps},
            "fixed": {k: v for k, v in self.fixed},
            "truncation": self.truncation,
            "convention": self.convention,
        }


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
    once.  The series column is one :func:`entangle_circle.pair_norm_grid`
    call over the blocks of :func:`_sweep_blocks`, the closed form one
    :func:`entangle_circle.pair_closed_form_grid` call over its Gram halves
    (under ``both`` the two must agree within 1e-9 plus the series tail
    bound, or the first point that does not is named; under ``closed_form``
    the tail is that of the closed form's truncated sums, 0 for a sector
    pair).  If a column's rows raise (invalid input or an arithmetic
    overflow), :func:`_replay` names the sweep's first failing point;
    domain checks are ``SweepSpec``'s, which checks every value it can
    emit."""
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
    values = np.empty((spec.axis1.steps, spec.axis2.steps))
    tails = np.empty_like(values)

    def rows(kernel, halves: bool):
        # the kernel's rows; if they raise, the error of the first failing
        # point, or theirs where no point fails on its own
        try:
            yield from kernel(form, _sweep_blocks(spec, form, components, fixed, halves))
        except (ValueError, ArithmeticError):
            _replay(spec, form, components, fixed, halves)
            raise

    if provenance != "closed_form":
        for i, (row_values, row_tails) in enumerate(rows(entangle_circle.pair_norm_grid, False)):
            values[i], tails[i] = row_values, row_tails
        values *= scale
        tails *= scale
        if provenance == "series":
            return ProbabilityGrid(spec, values, float(tails.max()), provenance)
    ax1, ax2 = spec.axis1.values(), spec.axis2.values()
    for i, (row, row_tails) in enumerate(rows(entangle_circle.pair_closed_form_grid, True)):
        closed = scale * row
        if provenance == "closed_form":
            values[i], tails[i] = _clamp_residue(closed), scale * row_tails
            continue
        off = np.abs(values[i] - closed) > 1e-9 + tails[i]
        if off.any():
            j = int(off.argmax())
            raise GridDomainError(
                f"series/closed-form disagreement at ({ax1[i]}, {ax2[j]}): "
                f"{float(values[i, j])} vs {float(closed[j])}"
            )
    return ProbabilityGrid(spec, values, float(tails.max()), provenance)


def _replay(spec: SweepSpec, form, components, fixed: dict[str, float], halves: bool) -> None:
    """Walk the sweep point by point in row-major order through the
    per-point API, and raise at the first point that fails: a
    GridDomainError naming the point if its components (the labels first,
    as a point's params dataclass builds them) or its pair builder
    (``form.matrix``, or ``form.closed_form`` and, for the total, its
    grouped slots, whose tails the grid reports) raise, or the pair norm's
    own error unnamed.  Returns if no point fails."""
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
                if halves:
                    form.closed_form(*parts, pair, at["rho"], terms)
                    if pair is SectorPair.TOTAL:
                        for var, *labels in entangle_circle.GRAM_HALVES:
                            for lab in labels:
                                form.record(parts[var], parts[lab], None, terms, False)
                    continue
                matrix = form.matrix(*parts, pair, terms, at["rho"])
            except (ValueError, ArithmeticError) as exc:
                raise GridDomainError(f"point ({name1}={v1}, {name2}={v2}): {exc}") from exc
            matrix.norm_sq()


def _sweep_blocks(spec: SweepSpec, form, components, fixed: dict[str, float], halves: bool = False):
    """Yield the sweep in blocks of axis1 rows, each block the arrays that
    its kernel reads: the (u1, v1) projection, u2, v2 and the phase
    f = s e^(i rho) for ``entangle_circle.pair_norm_grid``, or with
    ``halves`` the two Gram halves and f for ``pair_closed_form_grid``.

    Items.  A component (first, second, label, label', f) reads the
    parameter names of its table entry, a slot role or Gram half those of
    its components, and the projection those of u1 and v1.  Each is built
    once per distinct value of the axes among them, in axis batches: one
    that reads only axis1 is one batch over axis1, one that reads only
    axis2 one batch over axis2, one that reads both one batch over axis2 per
    row, and one that reads neither a batch of one.  A component's batch is
    a list of its values; a derived item's is columns, arrays whose first
    axis runs over the batch.  Slots come from ``record.batch`` as a
    :class:`~mp2ent.states.SlotBatch` (N, T, terms), halves from
    ``entangle_circle.gram_halves`` (whose total tails are built once a
    sweep) and projections from ``entangle_circle.projections``, which
    takes the u1 and v1 rows its points read: the batch itself along the
    same axis (as a view), gathered from one broadcast along it; none reads
    or fills the fock_series memo.  A builder that fails raises its plain
    exception, which :func:`run_sweep` turns into the failing point's.  A
    kernel item is reshaped once per batch into arrays of shape
    (n1 or 1, n2 or 1, ...), 1 along an axis it does not read; a both-axes
    item's rows are stacked over a block.
    Every parameter is read by some kernel item, so a block's arrays
    broadcast to (rows, n2).  A block is the whole grid unless a kernel
    item other than the projection reads both axes; then it is one row.
    """
    name1, name2 = spec.axis1.name, spec.axis2.name
    ax1, ax2 = spec.axis1.values(), spec.axis2.values()
    record, terms, parities = form.record, spec.truncation, entangle_circle.slot_parities(spec.pair)
    components = (*components, (("rho",), lambda rho: form.swap_sign * cmath.exp(1j * rho)))
    n = len(components)
    tails: dict = {}  # the grouped total slots' tails of the Gram halves, built once a sweep

    def batcher(parity):
        if halves:
            return lambda *parts: entangle_circle.gram_halves(
                record, zip(*parts), parity, terms, tails)
        return lambda *parts: record.batch(zip(*parts), parity, terms)

    # the derived items: the items each reads, and its builder over their
    # values at the batch's points
    roles = entangle_circle.GRAM_HALVES if halves else entangle_circle.SLOT_ROLES
    derived = [(role, batcher(parities[role[0]])) for role in roles]
    if not halves:
        derived.append(((n, n + 2), entangle_circle.projections))  # of u1 and v1
    # what the kernel reads: the two halves, or the projection, u2 and v2; then f
    kernel_items = (n, n + 1, n - 1) if halves else (n + 4, n + 1, n + 3, n - 1)
    reads = [set(names) for names, _ in components]
    for parents, _ in derived:
        reads.append(set().union(*(reads[c] for c in parents)))
    on1 = [name1 in names for names in reads]
    on2 = [name2 in names for names in reads]
    # built[k]: item k at each axis1 value if it reads axis1 only, else at
    # each axis2 value of the current row (one entry if it reads neither):
    # a list for a component, else columns (arrays whose first axis runs
    # over the batch)
    built: list = [None] * len(reads)
    arrays: list = [None] * len(reads)

    def at(k: int, i: int, j: int) -> int:
        # the entry of item k's batch that point (i, j) reads
        return i if on1[k] and not on2[k] else j if on2[k] else 0

    def take(c: int, entries: list[int]):
        # item c's entries at the given indices; a derived item's columns
        # are sliced (a view) where the indices run over the whole batch, as
        # for a parent batched along the same axis, and gathered only where
        # one entry is broadcast along the batch
        if c < n:
            return [built[c][m] for m in entries]
        rows = slice(None) if entries == list(range(len(entries))) else entries
        return SlotBatch(*(col[rows] for col in built[c]))

    def batch(k: int, i: int) -> None:
        # build item k over its batch at row i, and shape it for the kernel
        points = ([(i1, 0) for i1 in range(len(ax1))] if on1[k] and not on2[k]
                  else [(i, j) for j in range(len(ax2) if on2[k] else 1)])
        if k < n:
            names, builder = components[k]
            built[k] = [builder(*(ax1[i1] if name == name1 else ax2[j] if name == name2
                                  else fixed[name] for name in names)) for i1, j in points]
        else:
            parents, builder = derived[k - n]
            built[k] = builder(*(take(c, [at(c, i1, j) for i1, j in points]) for c in parents))
        if k in kernel_items:
            columns = built[k] if k >= n else [np.array(built[k])]
            shape = (len(points), 1) if on1[k] and not on2[k] else (1, len(points))
            arrays[k] = [col.reshape(*shape, *col.shape[1:]) for col in columns]

    both = [k for k in range(len(reads)) if on1[k] and on2[k]]
    for k in range(len(reads)):
        if k not in both:
            batch(k, 0)
    # one block of the whole grid, unless a kernel item other than the
    # (u1, v1) projection reads both axes: then one row a block, so that
    # such items (a slot's N terms, or a Gram half) are held a row at a time
    step = 1 if any(k in both and k != n + 4 for k in kernel_items) else len(ax1)
    for i0 in range(0, len(ax1), step):
        rows = []  # the arrays of the both-axes kernel items, row by row
        for i in range(i0, i0 + step):
            for k in both:
                batch(k, i)
            rows.append({k: arrays[k] for k in both})
        yield tuple(
            [np.concatenate(cols) for cols in zip(*(row[k] for row in rows))]
            if k in both
            else [a[i0 : i0 + step] for a in arrays[k]] if on1[k] else arrays[k]
            for k in kernel_items
        )


def _clamp_residue(values: np.ndarray) -> np.ndarray:
    # exact-cancellation points can round to a tiny negative in the closed
    # forms; the series value is a sum of squares and never needs this
    return np.where((-1e-12 < values) & (values < 0.0), 0.0, values)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def grid_to_csv(grid: ProbabilityGrid) -> str:
    """Header ``axis1,axis2,value``; one row per point, row-major in axis1.
    Each axis value is formatted once, and each axis1 row is one ``%`` of
    its template ``{a1},{a2},%.17g`` per line (``'%.17g' % x`` is
    ``format(x, '.17g')``) over the row's values."""
    ax2 = [f",{_fmt(v)},%.17g\n" for v in grid.spec.axis2.values()]
    rows = ["axis1,axis2,value\n"]
    for v1, row in zip(grid.spec.axis1.values(), grid.values.tolist()):
        a1 = _fmt(v1)
        rows.append((a1 + a1.join(ax2)) % tuple(row))
    return "".join(rows)


def grid_to_json(grid: ProbabilityGrid) -> str:
    """Sorted-key JSON at indent 1; ``json.dumps`` writes all but the values."""
    payload = {
        "spec": grid.spec.to_json_dict(),
        "values": [],
        "tail_bound_max": float(grid.tail_bound_max),
        "provenance": grid.provenance,
        "tool_version": TOOL_VERSION,
    }
    head = json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1)
    # "values" sorts last, so the header ends in '"values": []' and "}"
    return head[: -len("[]\n}")] + _json_values(grid.values.tolist()) + "\n}\n"


def _json_values(rows: list[list[float]]) -> str:
    """Non-empty rows of finite floats as ``json.dumps`` writes them as a
    member of an indent-1 object, without the pure-Python encoder that
    ``indent`` selects: each float its repr, one per line."""
    return "[\n" + ",\n".join(
        "  [\n   " + ",\n   ".join(map(float.__repr__, row)) + "\n  ]" for row in rows
    ) + "\n ]"


def write_grid(grid: ProbabilityGrid, path: str, fmt: str, command: str = "") -> None:
    """Write the data file plus a ``<path>.meta.json`` sidecar holding the
    run's timestamp, command, format, tool version, series truncation and
    largest tail bound; timestamps only ever go in the sidecar so data files
    stay deterministic.  ``fmt`` is one of :data:`FORMATS`, checked before
    any file is opened."""
    import datetime

    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    text = grid_to_csv(grid) if fmt == "csv" else grid_to_json(grid)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    meta = {
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "tool_version": TOOL_VERSION,
        "command": command,
        "format": fmt,
        "truncation": grid.spec.truncation,
        "tail_bound_max": float(grid.tail_bound_max),
    }
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
