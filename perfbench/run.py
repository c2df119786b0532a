#!/usr/bin/env python3
"""mp2ent benchmark: three closed-loop workloads driven through the public
entry points (``cli.main`` in-process; ``grids.run_sweep`` +
``grids.write_grid`` where the CLI cannot reach closed-form provenance).

    python3 perfbench/run.py --workload figure-surfaces --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the program is imported from
``src/``.  One client runs the workload's operation cycle (see
``workloads.py``) in order, whole cycles at a time, until at least
``--seconds`` of operation time is measured, so every run sees the same
mix of operations.  Every output is checked outside the timed region
(``checks.py``), and a repeated operation must write the same bytes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
program's layer functions (``tracing.py``) and prints per-layer metrics
instead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--smoke`` runs
every workload on tiny grids for two seeds in both modes and shows that a
corrupted grid value and a non-deterministic rerun are counted as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_STARTS = 9
OVERHEAD_PAIRS = 3
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); from mp2ent import cli; cli.build_parser()"


def load_program() -> None:
    """Import mp2ent from this checkout's sources, never from elsewhere."""
    if not (SRC / "mp2ent" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mp2ent

    if Path(mp2ent.__file__).resolve().parent != (SRC / "mp2ent").resolve():
        raise SystemExit(f"perfbench: imported mp2ent from {mp2ent.__file__}, not {SRC}")


def fresh_start_seconds() -> float:
    """Wall time of a new interpreter importing the CLI and building its
    parser: the start-up every ``mp2ent`` command pays."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"fresh start exited {proc.returncode}: {proc.stderr[-500:]!r}")
    return elapsed


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed, seconds, trace, steps=None, tamper=None,
                 setup_starts=SETUP_STARTS):
        import workloads

        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.ops = workloads.build(workload, seed, steps)
        self.tamper = tamper
        self.setup_starts = setup_starts
        self.outdir = OUT / workload
        self.occurrences: dict[str, int] = {}
        self.digests: dict[str, str] = {}
        self.verdicts: dict[str, list[str]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.sweep_times: list[float] = []
        self.verify_times: list[float] = []
        self.points = 0
        self.setup_times: list[float] = []
        self.tracer = None

    # -- operations -------------------------------------------------------

    def _call(self, op, path: Path):
        """The operation itself: the timed region."""
        from mp2ent import cli, grids
        from mp2ent.entangle_circle import SectorPair

        if op.provenance == "series":  # verify operations included
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return cli.main(op.argv(str(path)))
        spec = grids.SweepSpec(
            family=op.family, pair=SectorPair.parse(op.pair),
            axis1=grids.AxisSpec(*op.axes[0]), axis2=grids.AxisSpec(*op.axes[1]),
            fixed=op.fixed, truncation=op.trunc,
        )
        grid = grids.run_sweep(spec, op.provenance)
        grids.write_grid(grid, str(path), op.fmt)
        return 0

    def execute(self, op, index: int = -1) -> float:
        """Run, time and check one operation; returns its wall time."""
        path = self.outdir / op.filename
        error = None
        if self.tracer is not None:
            self.tracer.op, self.tracer.active = index, True
        t0 = time.perf_counter()
        try:
            code = self._call(op, path)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a failed operation is counted, the run goes on
            code, error = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
        finally:
            elapsed = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active = False
        self.attempted += 1
        occurrence = self.occurrences[op.key] = self.occurrences.get(op.key, 0) + 1
        if error is None and code != 0:
            error = f"exit code {code}"
        if error is None:
            if self.tamper is not None:
                self.tamper(op, occurrence, path)
            error = self._check(op, path.read_bytes())
        if error is not None:
            self.failures.append(f"{op.key} (run {occurrence}): {error}")
        return elapsed

    def _check(self, op, data: bytes):
        import checks

        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(op.key, digest) != digest:
            return "output bytes differ from the first run of this operation"
        if op.key not in self.verdicts:
            try:
                self.verdicts[op.key] = checks.check(op, data.decode("utf-8"), self.seed)
            except Exception as exc:  # an unreadable output is a failed operation
                self.verdicts[op.key] = [f"check raised {exc!r}"]
        problems = self.verdicts[op.key]
        return "; ".join(problems) if problems else None

    # -- the run ------------------------------------------------------------

    def warm_up(self) -> None:
        """Fill lazy tables (log factorials) before timing; not counted."""
        from mp2ent import grids
        from mp2ent.entangle_circle import SectorPair

        for op in self.ops:
            if op.kind == "sweep":
                (n1, lo1, hi1, _), (n2, lo2, hi2, _) = op.axes
                spec = grids.SweepSpec(
                    op.family, SectorPair.parse(op.pair), grids.AxisSpec(n1, lo1, hi1, 2),
                    grids.AxisSpec(n2, lo2, hi2, 2), op.fixed, op.trunc,
                )
                grids.run_sweep(spec, op.provenance)

    def cycles(self, setup_starts: int = 0) -> None:
        """Whole cycles of the operation list until ``seconds`` is measured.
        The first ``setup_starts`` verify operations are each followed by a
        fresh start: the starts' median is not taken from one moment of the
        machine's load, and no short verify call runs right after a start."""
        measured, index = 0.0, 0
        while True:
            for op in self.ops:
                elapsed = self.execute(op, index)
                index += 1
                measured += elapsed
                if op.kind == "sweep":
                    self.sweep_times.append(elapsed)
                    self.points += op.points
                    continue
                self.verify_times.append(elapsed)
                if len(self.setup_times) < setup_starts:
                    self.setup_times.append(fresh_start_seconds())
            if measured >= self.seconds:
                return

    def run(self) -> dict:
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)
        first = self.ops[0]  # every cycle starts with a sweep
        if self.trace:
            return self._run_traced(first)
        fresh_start_seconds()  # unmeasured: fills the page cache and __pycache__
        self.warm_up()
        self.cycles(self.setup_starts)
        if self.occurrences[first.key] == 1:
            self.execute(first)  # untimed rerun: outputs must be byte-identical
        return self.result(self.end_to_end())

    def _run_traced(self, first) -> dict:
        import tracing

        self.warm_up()
        # tracing overhead: the first sweep untraced and traced, alternately,
        # with throwaway spans; the untraced runs also give reference bytes
        untraced, traced = [], []
        for _ in range(OVERHEAD_PAIRS):
            untraced.append(self.execute(first))
            self.tracer = tracing.Tracer()
            with self.tracer.patched():
                traced.append(self.execute(first))
            self.tracer = None
        self.tracer = tracing.Tracer()
        with self.tracer.patched():
            self.cycles()
        self.tracer.save(self.outdir / "trace.npz")
        return self.result(self.per_layer(min(traced) / min(untraced)))

    # -- metrics ------------------------------------------------------------

    def end_to_end(self) -> dict:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "points_per_s": (self.points / sum(self.sweep_times), "pts/s"),
            "sweep_s_p50": (statistics.median(self.sweep_times), "s"),
            "verify_s_p50": (statistics.median(self.verify_times), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        print(
            f"perfbench: {len(self.sweep_times)} sweeps, {len(self.verify_times)} verify "
            f"calls, {len(self.setup_times)} fresh starts measured",
            file=sys.stderr,
        )
        return values

    def per_layer(self, overhead_ratio: float) -> dict:
        import tracing

        totals = self.tracer.layer_totals()
        counts = self.tracer.counts
        values = {}
        for layer in tracing.LAYERS:
            calls, self_s = totals[layer]
            values[f"{layer}.calls"] = (calls, "count")
            values[f"{layer}.self_s"] = (self_s, "s")
            values[f"{layer}.errors"] = (self.tracer.errors[layer], "count")
        entries = counts["numerics.norm.entries"]
        values.update({
            "entangle_circle.pair_matrix.entries": (counts["entangle_circle.pair_matrix.entries"], "count"),
            "numerics.norm.entries": (entries, "count"),
            "numerics.norm.useful_ratio": (counts["numerics.norm.useful"] / entries if entries else 0.0, "ratio"),
            "grids.serialize.bytes": (counts["grids.serialize.bytes"], "B"),
            "verify.battery.comparisons": (counts["verify.battery.comparisons"], "count"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        })
        busy = sum(totals[layer][1] for layer in tracing.LAYERS)
        shares = ", ".join(
            f"{layer} {100.0 * totals[layer][1] / busy:.1f}%" for layer in tracing.LAYERS
        )
        print(f"perfbench: self-time shares: {shares}", file=sys.stderr)
        return values

    def result(self, values: dict) -> dict:
        for failure in self.failures:
            print(f"perfbench: FAILED {failure}", file=sys.stderr)
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
        }


# --------------------------------------------------------------------------
# smoke mode: the benchmark's own tests
# --------------------------------------------------------------------------

def _rewrite_last_value(path: Path, fmt: str, change) -> None:
    text = path.read_text(encoding="utf-8")
    if fmt == "csv":
        head, _, last = text.rstrip("\n").rpartition("\n")
        a, b, value = last.split(",")
        text = f"{head}\n{a},{b},{change(float(value))!r}\n"
    else:
        payload = json.loads(text)
        payload["values"][-1][-1] = change(payload["values"][-1][-1])
        text = json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
    path.write_text(text, encoding="utf-8")


def smoke() -> int:
    import workloads

    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in contract["end_to_end"]},
        1: {m["name"]: m["unit"] for m in contract["per_layer"]},
    }
    problems = []
    for workload in workloads.WORKLOADS:
        for seed in (1, 2):
            for trace in (0, 1):
                result = Run(workload, seed, 0, trace, steps=4, setup_starts=2).run()
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                case = f"{workload} seed={seed} trace={trace}"
                if units != expected[trace]:
                    problems.append(f"{case}: metrics/units {units} != {expected[trace]}")
                if result["failed"] or not result["correct"]:
                    problems.append(f"{case}: {result['failed']} failed operations")
                print(f"smoke: {case}: {result['attempted']} operations ok", file=sys.stderr)

    def corrupt(op, occurrence, path):
        if op.key == "circle-pp" and occurrence == 1:
            _rewrite_last_value(path, op.fmt, lambda x: x + 1e-3)

    def nondeterministic(op, occurrence, path):
        if op.key == "circle-pp" and occurrence == 2:
            _rewrite_last_value(path, op.fmt, lambda x: math.nextafter(x, math.inf))

    for name, tamper, needle in (
        ("corrupted grid value", corrupt, "closed form"),
        ("non-deterministic rerun", nondeterministic, "bytes differ"),
    ):
        run = Run("figure-surfaces", 1, 0, 0, steps=4, tamper=tamper, setup_starts=1)
        result = run.run()
        if result["correct"] or not run.failures or needle not in run.failures[0]:
            problems.append(f"{name}: not counted as a failed operation: {run.failures}")
        print(f"smoke: {name}: {result['failed']} failed operation(s)", file=sys.stderr)
    for problem in problems:
        print(f"smoke: FAIL {problem}", file=sys.stderr)
    print("smoke: PASS" if not problems else "smoke: FAIL")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's own tests")
    args = parser.parse_args(argv)
    load_program()
    if args.smoke:
        return smoke()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    result = Run(args.workload, args.seed, args.seconds, args.trace).run()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
