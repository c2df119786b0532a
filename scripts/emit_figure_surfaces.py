#!/usr/bin/env python3
"""Emit the standard probability surfaces as CSV grids.

Covers the four families at their captioned ranges:

* coincident circle pairs (delta = 0) at rho = 0 and rho = pi,
* orthogonal circle pairs (delta = pi/2), antipodal and non-antipodal,
* orthogonal cat pairs over displacement moduli up to 1.95, in both the
  stripped and full prefactor conventions (the plotted convention is not
  pinned anywhere, so both are emitted),
* an orthogonal coset surface at a representative displacement.

Each grid lands in --outdir with a .meta.json sidecar.
"""

from __future__ import annotations

import argparse
import math
import os

from mp2ent.entangle_circle import SectorPair
from mp2ent.grids import CONVENTIONS, AxisSpec, SweepSpec, run_sweep, write_grid

ORTHO = math.pi / 2.0


def sweep(family, pair, axis_names, top, fixed, convention="stripped", steps=64):
    spec = SweepSpec(
        family=family,
        pair=pair,
        axis1=AxisSpec(axis_names[0], 0.0, top, steps),
        axis2=AxisSpec(axis_names[1], 0.0, top, steps),
        fixed=tuple(fixed.items()),
        truncation=40,
        convention=convention,
    )
    return run_sweep(spec)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="surfaces")
    parser.add_argument("--steps", type=int, default=64)
    args = parser.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    jobs = []
    for rho, tag in ((0.0, "rho0"), (math.pi, "rhopi")):
        jobs.append(
            (f"circle_pp_coincident_{tag}", "circle", SectorPair.PP,
             ("omega", "sigma"), 0.95,
             {"phi": 0.0, "phi_prime": 0.0, "rho": rho}, "stripped")
        )
        for pair in (SectorPair.PP, SectorPair.PM):
            jobs.append(
                (f"circle_{pair.value}_orthogonal_{tag}", "circle", pair,
                 ("omega", "sigma"), 0.95,
                 {"phi": ORTHO, "phi_prime": 0.0, "rho": rho}, "stripped")
            )
        for convention in CONVENTIONS:
            jobs.append(
                (f"cat_pm_orthogonal_{tag}_{convention}", "cat", SectorPair.PM,
                 ("alpha", "beta"), 1.95,
                 {"phi": ORTHO, "phi_prime": 0.0, "rho": rho}, convention)
            )
        jobs.append(
            (f"coset_pm_orthogonal_{tag}", "coset", SectorPair.PM,
             ("omega", "sigma"), 0.95,
             {"phi": ORTHO, "phi_prime": 0.0, "rho": rho,
              "alpha_im": 1.0, "alpha2_im": 1.0}, "stripped")
        )

    for name, family, pair, axes, top, fixed, convention in jobs:
        grid = sweep(family, pair, axes, top, fixed, convention, args.steps)
        path = os.path.join(args.outdir, name + ".csv")
        write_grid(grid, path, "csv", command=name)
        print(f"{path}: max={grid.values.max():.6g} tail<={grid.tail_bound_max:.1e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
