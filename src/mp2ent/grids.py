"""Parameter-sweep grids over the entanglement probabilities.

A sweep is two named axes plus fixed values for the remaining parameters of
one family (circle, cylinder, coset, cat).  Each slot of the pair (series)
or Gram half (closed form) is built once per distinct value of the swept
axes it reads, the slots in axis batches (``SlotMap.batch``);
:func:`entangle_circle.pair_norm_grid` and
:func:`entangle_circle.pair_closed_form_grid` then take one axis1 row at
once, equal bit for bit to the per-point kernels.  Everything runs in a
fixed row-major order, so output files are byte-identical across runs.  CSV
floats are written with 17 significant digits and JSON floats in Python's
shortest round-trip repr; both read back exactly.

The kernels compute the prefactor-stripped convention; under
``convention="full"`` :func:`run_sweep` multiplies each value and tail by the
family record's prefactor^4, since a probability is quartic in the slot
amplitudes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import cat_compare, entangle_circle, entangle_coset, entangle_cylinder
from .entangle_circle import SectorPair
from .numerics import DEFAULT_TERMS
from .states import MIN_COSET_IM_ALPHA, CircleLabel, CosetLabel, CylinderLabel, Mp2Variable

TOOL_VERSION = "0.1.0"

FAMILIES = ("circle", "cylinder", "coset", "cat")
PROVENANCES = ("series", "closed_form", "both")
CONVENTIONS = ("stripped", "full")

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
        if self.truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {self.truncation}")
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
# pair's slots or Gram halves from the components (see _grid_rows).
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
    call over the slots of :func:`_grid_rows`, the closed form one
    :func:`entangle_circle.pair_closed_form_grid` call over its Gram halves
    (under ``both`` the two must agree within 1e-9 plus the series tail
    bound, or the first point that does not is named; under ``closed_form``
    the tail is that of the closed form's truncated sums, 0 for a sector
    pair).  A point that fails
    (invalid input or an arithmetic overflow) aborts naming the point;
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
    if provenance != "closed_form":
        slots = _grid_rows(spec, form.record, components, fixed)
        rows = entangle_circle.pair_norm_grid(form, slots)
        for i, (row_values, row_tails) in enumerate(rows):
            values[i], tails[i] = row_values, row_tails
        values *= scale
        tails *= scale
        if provenance == "series":
            return ProbabilityGrid(spec, values, float(tails.max()), provenance)
    halves = _grid_rows(spec, form.record, components, fixed, halves=True)
    ax1, ax2 = spec.axis1.values(), spec.axis2.values()
    for i, (row, row_tails) in enumerate(entangle_circle.pair_closed_form_grid(form, halves)):
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


def _grid_rows(
    spec: SweepSpec, record, components, fixed: dict[str, float], halves: bool = False
):
    """Yield, row by row, the lists of the slots (u1, u2, v1, v2) or, with
    ``halves``, the two Gram halves of the points of each axis1 row, and
    their phases rho.  A list holds one item per axis2 value, or a single
    item where it does not vary along axis2; such a one-element list stays
    the same object for as long as its item does, so a kernel converts it
    once and broadcasts it.  A yielded list is never changed afterwards.

    A component reads some parameter names, and a slot or half those of its
    components; each is built once per distinct value of the axes among
    them and shared wherever those axes repeat.  Slots are built in axis
    batches by ``record.batch``, which bypasses the fock_series memo: a slot
    role that reads only axis1 is one batch over axis1, one that reads only
    axis2 one batch over axis2, one that reads both one batch over axis2 per
    row, and one that reads neither a batch of one.  Each point's item, or
    the exception building it raised, is stored; a walk in row-major point
    order, each point's new items in ``order`` (the labels before the
    variables, as a point's params dataclass builds them, so a point with
    two faults names the same one, then the slots or halves), raises the
    first stored exception it meets.  So the first point that fails, and its
    message, are those of a point-by-point loop.
    """
    name1, name2 = spec.axis1.name, spec.axis2.name
    ax1, ax2 = spec.axis1.values(), spec.axis2.values()
    terms = spec.truncation
    parities = entangle_circle.slot_parities(spec.pair)
    roles = entangle_circle.GRAM_HALVES if halves else entangle_circle.SLOT_ROLES
    reads = [set(names) for names, _ in components]
    reads += [set().union(*(reads[c] for c in role)) for role in roles]
    on1 = [name1 in names for names in reads]
    on2 = [name2 in names for names in reads]
    order = (2, 3, 0, 1) + tuple(range(len(components), len(reads)))
    # built[k]: item k (or its exception) at each axis1 value if it reads
    # axis1 only, else at each axis2 value of the current row (one entry if
    # it reads neither); a row-constant one-element list is kept as it is
    built: list[list] = [[] for _ in reads]

    def at(k: int, i: int, j: int):
        return built[k][i] if on1[k] and not on2[k] else built[k][j if on2[k] else 0]

    def build(k: int, points: list[tuple[int, int]]) -> list:
        # item k at each (i, j) of points: the item or the exception
        if k < len(components):
            names, builder = components[k]
            return [
                _attempt(builder, *(ax1[i] if n == name1 else ax2[j] if n == name2
                                    else fixed[n] for n in names))
                for i, j in points
            ]
        role = roles[k - len(components)]
        parts = [[at(c, i, j) for c in role] for i, j in points]
        # a point whose component failed is never read: the walk meets
        # that component first
        faults = [next((p for p in ps if isinstance(p, Exception)), None) for ps in parts]
        parity = parities[role[0]]
        if halves:
            return [
                _attempt(entangle_circle.gram_half, record, *ps, parity, terms)
                if fault is None else fault
                for fault, ps in zip(faults, parts)
            ]
        slots = iter(record.batch(
            [ps for fault, ps in zip(faults, parts) if fault is None], parity, terms, False
        ))
        return [next(slots) if fault is None else fault for fault in faults]

    def points(k: int, i: int) -> list[tuple[int, int]]:
        # the points of item k's batch: all of axis1 for one that reads
        # axis1 only, else axis2 along row i (one point if it reads neither)
        if on1[k] and not on2[k]:
            return [(i1, 0) for i1 in range(len(ax1))]
        return [(i, j) for j in range(len(ax2) if on2[k] else 1)]

    for k in range(len(reads)):
        built[k] = build(k, points(k, 0))
    both = [k for k in range(len(reads)) if on1[k] and on2[k]]
    rhos = ax2 if name2 == "rho" else [fixed["rho"]]
    for i, v1 in enumerate(ax1):
        for k in both if i else ():
            built[k] = build(k, points(k, i))
        # the items whose axes take a new value in this row: met at its
        # first point, and (those on axis2) again at every later point
        fresh = [k for k in order if i == 0 or on1[k]]
        along = [k for k in fresh if on2[k]]
        for j in range(len(ax2) if along else 1):
            for k in fresh if j == 0 else along:
                item = at(k, i, j)
                if isinstance(item, Exception):
                    raise GridDomainError(
                        f"point ({name1}={v1}, {name2}={ax2[j]}): {item}"
                    ) from item
        # the walk has met every item of the row: none is an exception
        yield (
            *([built[k][i]] if on1[k] and not on2[k] else built[k]
              for k in range(len(components), len(reads))),
            [v1] if name1 == "rho" else rhos,
        )


def _attempt(build, *args):
    """build(*args), or the ValueError or ArithmeticError it raised."""
    try:
        return build(*args)
    except (ValueError, ArithmeticError) as exc:
        return exc


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


def read_grid_csv(text: str) -> np.ndarray:
    """Rows of (axis1, axis2, value) back as an array, exactly as written."""
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    return np.array([[float(c) for c in row] for row in rows])


def write_grid(grid: ProbabilityGrid, path: str, fmt: str, command: str = "") -> None:
    """Write the data file plus a ``<path>.meta.json`` sidecar; timestamps
    only ever go in the sidecar so data files stay deterministic."""
    import datetime

    text = grid_to_csv(grid) if fmt == "csv" else grid_to_json(grid)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    meta = {
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "tool_version": TOOL_VERSION,
        "command": command,
        "format": fmt,
    }
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
