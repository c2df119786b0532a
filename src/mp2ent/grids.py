"""Parameter-sweep grids over the entanglement probabilities.

A sweep is two named axes plus fixed values for the remaining parameters of
one family (circle, cylinder, coset, cat).  Grids are evaluated point by
point in a fixed row-major order, so output files are byte-identical across
runs; all floats are serialized with 17 significant digits, which
round-trips exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import cat_compare, entangle_circle, entangle_coset, entangle_cylinder
from .entangle_circle import CirclePairParams, SectorPair, check_convention
from .entangle_coset import CosetPairParams
from .entangle_cylinder import CylinderPairParams
from .numerics import DEFAULT_TERMS
from .states import CircleLabel, CosetLabel, CylinderLabel

TOOL_VERSION = "0.1.0"

FAMILIES = ("circle", "cylinder", "coset", "cat")
PROVENANCES = ("series", "closed_form", "both")

# Per-family parameter names, defaults, and validity domains (lo, hi, open
# upper end).  Disk moduli live in [0, 1); Im(alpha) must stay positive.
_DISK = (0.0, 1.0, True)
_ANGLE = (-math.inf, math.inf, False)
_REAL = (-math.inf, math.inf, False)
_POS_IM = (1e-6, math.inf, False)
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
        check_convention(self.convention)
        if self.truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {self.truncation}")
        object.__setattr__(self, "fixed", tuple(sorted(dict(self.fixed).items())))
        catalog = PARAMETERS[self.family]
        for axis in (self.axis1, self.axis2):
            if axis.name not in catalog:
                raise ValueError(f"{self.family} has no parameter {axis.name!r}")
            for bound in (axis.start, axis.stop):
                _check_domain(self.family, axis.name, bound)
        for name, value in self.fixed:
            if name not in catalog:
                raise ValueError(f"{self.family} has no parameter {name!r}")
            _check_domain(self.family, name, value)
        if self.axis1.name == self.axis2.name:
            raise ValueError("the two axes must name different parameters")

    def resolved(self, v1: float, v2: float) -> dict[str, float]:
        values = {name: default for name, (default, _) in PARAMETERS[self.family].items()}
        values.update(dict(self.fixed))
        values[self.axis1.name] = v1
        values[self.axis2.name] = v2
        return values

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


def _polar(v: dict[str, float], name: str) -> complex:
    """The complex parameter of modulus ``name`` and argument ``arg_<name>``."""
    return v[name] * np.exp(1j * v["arg_" + name])


def _circle_closed_form(params, pair, terms, convention) -> float:
    if pair is SectorPair.TOTAL:
        return entangle_circle.closed_form_total(params, terms, convention)
    return entangle_circle.closed_form_P(params, pair, convention)


# family -> (resolved point -> pair params, series, closed form or None); the
# series and the closed form take (params, pair, terms, convention).  The
# kernels are looked up on their modules at call time, so a wrapper installed
# on a module attribute sees every sweep.
_FAMILY_TABLE = {
    "circle": (
        lambda v: CirclePairParams(
            _polar(v, "omega"), _polar(v, "sigma"),
            CircleLabel(v["phi"]), CircleLabel(v["phi_prime"]), v["rho"],
        ),
        lambda *args: entangle_circle.probability_series(*args),
        _circle_closed_form,
    ),
    "cylinder": (
        lambda v: CylinderPairParams(
            _polar(v, "omega"), _polar(v, "sigma"), CylinderLabel(v["l"], v["phi"]),
            CylinderLabel(v["l_prime"], v["phi_prime"]), v["rho"],
        ),
        lambda params, pair, terms, _: entangle_cylinder.probability_series_cyl(
            params, pair, terms
        ),
        None,
    ),
    "coset": (
        lambda v: CosetPairParams(
            _polar(v, "omega"), _polar(v, "sigma"),
            CosetLabel(complex(v["alpha_re"], v["alpha_im"]), v["phi"], v["x"], v["y"]),
            CosetLabel(
                complex(v["alpha2_re"], v["alpha2_im"]), v["phi_prime"], v["x2"], v["y2"]
            ),
            v["rho"],
        ),
        lambda *args: entangle_coset.probability_series_coset(*args),
        lambda params, pair, _, convention: entangle_coset.closed_form_coset(
            params, pair, convention
        ),
    ),
    "cat": (
        lambda v: cat_compare.CatPairParams(
            _polar(v, "alpha"), _polar(v, "beta"),
            CircleLabel(v["phi"]), CircleLabel(v["phi_prime"]), v["rho"],
        ),
        lambda *args: cat_compare.cat_entangled_probability(*args),
        None,
    ),
}
_CLOSED_FORM_FAMILIES = tuple(f for f, entry in _FAMILY_TABLE.items() if entry[2])


def evaluate_point(
    family: str,
    pair: SectorPair,
    values: dict[str, float],
    terms: int = DEFAULT_TERMS,
    convention: str = "stripped",
    provenance: str = "series",
):
    """One probability evaluation; returns (value, tail_bound).  Families
    without a closed form evaluate the series for any provenance."""
    for name, value in values.items():
        _check_domain(family, name, value)
    if family not in _FAMILY_TABLE:
        raise ValueError(f"unknown family {family!r}")
    make_params, series, closed_form = _FAMILY_TABLE[family]
    params = make_params(values)
    if provenance == "closed_form" and closed_form is not None:
        return closed_form(params, pair, terms, convention), 0.0
    sv = series(params, pair, terms, convention)
    return float(sv.value), sv.tail_bound


def run_sweep(spec: SweepSpec, provenance: str = "series") -> ProbabilityGrid:
    """Evaluate the sweep; deterministic row-major order, identical output
    across runs.  Per-point domain violations abort naming the point."""
    if provenance not in PROVENANCES:
        raise ValueError(f"provenance must be one of {PROVENANCES}")
    if provenance in ("closed_form", "both") and spec.family not in _CLOSED_FORM_FAMILIES:
        raise ValueError(
            "closed-form provenance is available for "
            f"{' and '.join(_CLOSED_FORM_FAMILIES)} only"
        )
    ax1, ax2 = spec.axis1.values(), spec.axis2.values()
    values = np.empty((spec.axis1.steps, spec.axis2.steps))
    tail_max = 0.0
    for i, v1 in enumerate(ax1):
        for j, v2 in enumerate(ax2):
            point = spec.resolved(v1, v2)
            try:
                p_series, tail = (
                    evaluate_point(spec.family, spec.pair, point, spec.truncation,
                                   spec.convention, "series")
                    if provenance != "closed_form"
                    else (None, 0.0)
                )
                if provenance != "series":
                    p_closed, _ = evaluate_point(
                        spec.family, spec.pair, point, spec.truncation,
                        spec.convention, "closed_form"
                    )
            except GridDomainError:
                raise
            except ValueError as exc:
                raise GridDomainError(
                    f"point ({spec.axis1.name}={v1}, {spec.axis2.name}={v2}): {exc}"
                ) from exc
            if provenance == "series":
                values[i, j] = p_series
            elif provenance == "closed_form":
                values[i, j] = _clamp_residue(p_closed)
            else:
                if abs(p_series - p_closed) > 1e-9 + tail:
                    raise GridDomainError(
                        f"series/closed-form disagreement at ({v1}, {v2}): "
                        f"{p_series} vs {p_closed}"
                    )
                values[i, j] = p_series
            tail_max = max(tail_max, tail)
    return ProbabilityGrid(spec, values, tail_max, provenance)


def _clamp_residue(value: float) -> float:
    # exact-cancellation points can round to a tiny negative in the closed
    # forms; the series value is a sum of squares and never needs this
    if -1e-12 < value < 0.0:
        return 0.0
    return value


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def grid_to_csv(grid: ProbabilityGrid) -> str:
    """Header ``axis1,axis2,value``; one row per point, row-major in axis1."""
    ax1, ax2 = grid.spec.axis1.values(), grid.spec.axis2.values()
    lines = ["axis1,axis2,value"]
    for i, v1 in enumerate(ax1):
        for j, v2 in enumerate(ax2):
            lines.append(f"{_fmt(v1)},{_fmt(v2)},{_fmt(grid.values[i, j])}")
    return "\n".join(lines) + "\n"


def grid_to_json(grid: ProbabilityGrid) -> str:
    payload = {
        "spec": grid.spec.to_json_dict(),
        "values": [[float(_fmt(v)) for v in row] for row in grid.values],
        "tail_bound_max": float(_fmt(grid.tail_bound_max)),
        "provenance": grid.provenance,
        "tool_version": TOOL_VERSION,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


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
