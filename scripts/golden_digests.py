#!/usr/bin/env python3
"""Committed golden digests: the bytes of a small fixed case set.

Each case is one sweep, written as ``grid_to_csv`` + ``grid_to_json`` and
hashed with sha256 (a sweep that raises hashes its error type and text):

* every family x sector pair x provenance the family covers (its closed
  form's pairs for ``closed_form`` and ``both``),
* on the family's default axes, on the angle axes phi x rho, on the
  label axes phi x phi' (there both Gram halves and the series projection
  read both axes, so every block of the sweep is one row), on the polar
  axes of the first variable, its modulus x its argument (there the slot
  inputs of u1 and v1 read both axes), and for the coset on its fiducial
  axes x x y (there the label reads both axes, so every block is one row),
* at 6 x 5 points and truncations N = 6 and N = 40,

plus the ``mp2ent verify`` report, exit code and stderr at the default
truncation.  ``--write`` stores the digests in tests/golden_digests.json;
``--check`` recomputes them and names the first case whose bytes differ
(exit 1).  A mismatch on another platform is a platform dependence of the
output, not a tolerance to widen; regenerating the file declares a byte
change.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from mp2ent import cli
from mp2ent.entangle_circle import SectorPair
from mp2ent.grids import (
    _CLOSED_FORM_PAIRS,
    DEFAULT_AXES,
    FAMILIES,
    PROVENANCES,
    AxisSpec,
    SweepSpec,
    grid_to_csv,
    grid_to_json,
    run_sweep,
)

DIGESTS = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests", "golden_digests.json"
))
STEPS = (6, 5)
TRUNCATIONS = (6, 40)
ANGLE_AXES = (("phi", 0.0, 3.0), ("rho", 0.0, 3.0))
LABEL_AXES = (("phi", 0.0, 3.0), ("phi_prime", 0.5, 2.5))
POLAR_AXES = (("omega", 0.1, 0.9), ("arg_omega", 0.0, 3.0))
CAT_POLAR_AXES = (("alpha", 0.1, 1.9), ("arg_alpha", 0.0, 3.0))
FIDUCIAL_AXES = (("x", 0.5, 2.0), ("y", -1.0, 1.0))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cases():
    """(name, spec, provenance) of every sweep case, in a fixed order."""
    for family in FAMILIES:
        axes = {
            "default": tuple(axis[:3] for axis in DEFAULT_AXES[family]),
            "angles": ANGLE_AXES,
            "labels": LABEL_AXES,
            "polar": CAT_POLAR_AXES if family == "cat" else POLAR_AXES,
        }
        if family == "coset":
            axes["fiducial"] = FIDUCIAL_AXES
        for pair in SectorPair:
            covered = pair in _CLOSED_FORM_PAIRS.get(family, ())
            for provenance in PROVENANCES if covered else ("series",):
                for axes_name, (ax1, ax2) in axes.items():
                    for terms in TRUNCATIONS:
                        spec = SweepSpec(
                            family, pair,
                            AxisSpec(*ax1, STEPS[0]), AxisSpec(*ax2, STEPS[1]),
                            truncation=terms,
                        )
                        name = f"{family}/{pair.value}/{provenance}/{axes_name}/N{terms}"
                        yield name, spec, provenance


def sweep_digest(spec: SweepSpec, provenance: str) -> str:
    try:
        grid = run_sweep(spec, provenance)
    except (ValueError, ArithmeticError) as exc:
        return _sha256(f"{type(exc).__name__}: {exc}")
    return _sha256(grid_to_csv(grid) + grid_to_json(grid))


def verify_digest() -> str:
    """The report file, exit code and stderr of ``mp2ent verify --report``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "verify.json")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = cli.main(["verify", "--report", path])
        with open(path, "rb") as fh:
            report = fh.read().decode("utf-8")
    return _sha256(f"{report}\nexit {status}\n{err.getvalue()}")


def compute() -> dict[str, str]:
    digests = {name: sweep_digest(spec, provenance) for name, spec, provenance in cases()}
    digests["verify/report"] = verify_digest()
    return digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="store the digests")
    mode.add_argument("--check", action="store_true", help="compare with the stored digests")
    parser.add_argument("--path", default=DIGESTS, help="the digest file")
    args = parser.parse_args(argv)
    digests = compute()
    if args.write:
        with open(args.path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(digests, fh, indent=1)
            fh.write("\n")
        print(f"wrote {len(digests)} digests to {args.path}")
        return 0
    with open(args.path, encoding="utf-8") as fh:
        stored = json.load(fh)
    for name in [*stored, *(name for name in digests if name not in stored)]:
        if stored.get(name) != digests.get(name):
            print(f"first differing case: {name} (stored {stored.get(name)}, "
                  f"computed {digests.get(name)})", file=sys.stderr)
            return 1
    print(f"{len(digests)} digests match")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
