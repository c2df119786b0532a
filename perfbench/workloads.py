"""Seeded operation lists for the three benchmark workloads.

Each workload is a cycle of operations that one closed-loop client runs in
order: grid sweeps and ``mp2ent verify`` calls.  Series sweeps and verify
go through ``mp2ent.cli.main``; closed-form sweeps, which the CLI cannot
select, go through ``grids.run_sweep`` + ``grids.write_grid``.
The seed draws only the fixed ``--set`` values; grid sizes, truncations and
the operation order are the same on every seed, so the work size is too.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from mp2ent.grids import DEFAULT_AXES

WORKLOADS = ("figure-surfaces", "fine-low-trunc", "reconcile")

FAMILIES = ("circle", "cylinder", "coset", "cat")
PAIRS = ("pp", "pm", "mm", "total")
SECTOR_PAIRS = ("pp", "pm", "mm")

DEFAULT_TRUNC = 40

# Smallest truncation whose reported tail bound is <= 1e-16 over the whole
# captioned grid at the worst seeded labels (cylinder l = l' = 1, coset
# Im(alpha) = 0.5), found by scanning --trunc upwards at the grid corner.
LOW_TRUNC = {"circle": 6, "cylinder": 3, "coset": 6, "cat": 16}

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Op:
    """One client request.  ``key`` names the output file; operations with
    the same key are identical and must write identical bytes."""

    key: str
    kind: str  # "sweep" or "verify"
    family: str = ""
    pair: str = ""
    axes: tuple[tuple[str, float, float, int], ...] = ()
    fixed: tuple[tuple[str, float], ...] = ()
    trunc: int = DEFAULT_TRUNC
    fmt: str = "csv"
    provenance: str = "series"

    @property
    def points(self) -> int:
        return self.axes[0][3] * self.axes[1][3] if self.kind == "sweep" else 0

    @property
    def filename(self) -> str:
        return f"{self.key}.{self.fmt if self.kind == 'sweep' else 'json'}"

    def argv(self, out: str) -> list[str]:
        """The ``mp2ent`` command line of this operation."""
        if self.kind == "verify":
            return ["verify", "--report", out]
        argv = [self.family, "--pair", self.pair]
        if self.axes != DEFAULT_AXES[self.family]:
            for flag, (name, lo, hi, steps) in zip(("--axis1", "--axis2"), self.axes):
                argv += [flag, f"{name}:{lo!r}:{hi!r}:{steps}"]
        for name, value in self.fixed:
            argv += ["--set", f"{name}={value!r}"]
        if self.trunc != DEFAULT_TRUNC:
            argv += ["--trunc", str(self.trunc)]
        if self.fmt != "csv":
            argv += ["--format", self.fmt]
        return argv + ["--out", out]


def _default_axes(family: str, steps: int):
    return tuple((name, lo, hi, steps) for name, lo, hi, _ in DEFAULT_AXES[family])


def _axes(family: str, pair: str, steps: int):
    axes = _default_axes(family, steps)
    if family == "cat" and pair != "pp":
        # odd cat sectors are undefined at zero displacement, so these
        # sweeps start one grid spacing in, as the figure script does
        axes = tuple((name, hi / (steps - 1), hi, steps) for name, _, hi, steps in axes)
    return axes


def draw_fixed(rng: random.Random, family: str) -> tuple[tuple[str, float], ...]:
    """The seeded ``--set`` values of one sweep."""
    fixed = {
        "phi": rng.uniform(0.0, TWO_PI),
        "phi_prime": rng.uniform(0.0, TWO_PI),
        "rho": rng.uniform(0.0, TWO_PI),
    }
    if family == "cat":
        fixed["arg_alpha"] = rng.uniform(0.0, TWO_PI)
        fixed["arg_beta"] = rng.uniform(0.0, TWO_PI)
    else:
        fixed["arg_omega"] = rng.uniform(0.0, TWO_PI)
        fixed["arg_sigma"] = rng.uniform(0.0, TWO_PI)
    if family == "cylinder":
        # far below the overflow guard; LOW_TRUNC assumes |l| <= 1
        fixed["l"] = rng.uniform(-1.0, 1.0)
        fixed["l_prime"] = rng.uniform(-1.0, 1.0)
    if family == "coset":
        # LOW_TRUNC assumes Im(alpha) >= 0.5
        fixed["alpha_im"] = rng.uniform(0.5, 2.0)
        fixed["alpha2_im"] = rng.uniform(0.5, 2.0)
    return tuple(sorted(fixed.items()))


def build(workload: str, seed: int, steps: int | None = None) -> list[Op]:
    """The operation cycle of ``workload``; ``steps`` overrides the grid
    size (the smoke mode uses tiny grids)."""
    rng = random.Random(f"{workload}:{seed}")
    ops: list[Op] = []
    verify = Op(key="verify", kind="verify")

    if workload in ("figure-surfaces", "fine-low-trunc"):
        fine = workload == "fine-low-trunc"
        size = steps or (96 if fine else 64)
        for family in FAMILIES:
            for pair in PAIRS:
                ops.append(
                    Op(
                        key=f"{family}-{pair}",
                        kind="sweep",
                        family=family,
                        pair=pair,
                        axes=_axes(family, pair, size),
                        fixed=draw_fixed(rng, family),
                        trunc=LOW_TRUNC[family] if fine else DEFAULT_TRUNC,
                        fmt="json" if fine else "csv",
                    )
                )
                ops.append(verify)
    elif workload == "reconcile":
        size = steps or 256
        for family in ("circle", "coset"):
            for pair in SECTOR_PAIRS:
                ops.append(
                    Op(
                        key=f"{family}-{pair}",
                        kind="sweep",
                        family=family,
                        pair=pair,
                        axes=_axes(family, pair, size),
                        fixed=draw_fixed(rng, family),
                        fmt="json",
                        provenance="closed_form",
                    )
                )
                ops.append(verify)
    else:
        raise ValueError(f"unknown workload {workload!r}; use one of {WORKLOADS}")
    return ops
