"""Outside-in tracing: spans around the program's public calls.

``Tracer.patched()`` replaces each function of the layer table with a
wrapper at every place an ``mp2ent`` module binds it (``from .x import f``
gives the importing module its own name), and restores them on exit.  A
wrapper records a span (layer, start, end, parent span, operation id) in
memory only while ``tracer.active`` is set, so the benchmark's own
correctness checks are not traced.  A name missing from the program (for
instance after a refactor removes it) is skipped and its layer reports zero
calls.

Self time of a span is its duration minus the durations of its direct
children; spans nest strictly in one thread, so the children never overlap.
Work counts are computed after the wrapped call returns, inside a ``trace``
child span, so the counting cost is charged to neither layer.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from array import array

import numpy as np

EPS_SQ = 2.0**-53

# layer -> [(module, attribute path)]
LAYERS: dict[str, list[tuple[str, str]]] = {
    "cli": [("cli", "main")],
    "grids.driver": [("grids", "run_sweep"), ("grids", "evaluate_point")],
    "entangle.series": [
        ("entangle_circle", "probability_series"),
        ("entangle_cylinder", "probability_series_cyl"),
        ("entangle_coset", "probability_series_coset"),
        ("cat_compare", "cat_entangled_probability"),
    ],
    "entangle.closed_form": [
        ("entangle_circle", "closed_form_P"),
        ("entangle_circle", "closed_form_total"),
        ("entangle_coset", "closed_form_coset"),
    ],
    "states.slots": [
        ("entangle_circle", "coefficient_matrix"),
        ("entangle_cylinder", "coefficient_matrix_cyl"),
        ("entangle_coset", "coefficient_matrix_coset"),
        ("cat_compare", "cat_coefficient_matrix"),
    ],
    "entangle_circle.pair_matrix": [("entangle_circle", "pair_matrix")],
    "numerics.norm": [("entangle_circle", "CoefficientMatrix.norm_sq")],
    "grids.serialize": [("grids", "grid_to_csv"), ("grids", "grid_to_json")],
    "grids.write": [("grids", "write_grid")],
    "verify.battery": [("verify", "verify_all")],
}
TRACE = "trace"  # pseudo-layer of the tracer's own counting work

COUNTS = (
    "entangle_circle.pair_matrix.entries",
    "numerics.norm.entries",
    "numerics.norm.useful",
    "grids.serialize.bytes",
    "verify.battery.comparisons",
)


def _count_pair_matrix(counts, args, result) -> None:
    counts["entangle_circle.pair_matrix.entries"] += result.entries.size


def _count_norm(counts, args, result) -> None:
    # args[0] is the CoefficientMatrix; "useful" entries are those that can
    # still change the exactly rounded sum
    sq = np.abs(args[0].entries) ** 2
    counts["numerics.norm.entries"] += sq.size
    counts["numerics.norm.useful"] += int(np.count_nonzero(sq > EPS_SQ * sq.sum()))


def _count_serialize(counts, args, result) -> None:
    counts["grids.serialize.bytes"] += len(result.encode("utf-8"))


def _count_verify(counts, args, result) -> None:
    counts["verify.battery.comparisons"] += len(result.comparisons)


COUNTERS = {
    "entangle_circle.pair_matrix": _count_pair_matrix,
    "numerics.norm": _count_norm,
    "grids.serialize": _count_serialize,
    "verify.battery": _count_verify,
}


class Tracer:
    """In-memory span store and the wrappers that fill it."""

    def __init__(self) -> None:
        self.names = list(LAYERS) + [TRACE]
        self.span_layer = array("B")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.stack: list[int] = []
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.active = False
        self.op = -1

    def _open(self, layer: int) -> int:
        idx = len(self.span_layer)
        self.span_layer.append(layer)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, layer: str, fn):
        layer_id = self.names.index(layer)
        trace_id = self.names.index(TRACE)
        counter = COUNTERS.get(layer)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(layer_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                self._close(idx)
            if counter is not None:
                idx = self._open(trace_id)
                counter(self.counts, args, result)
                self._close(idx)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every layer function at every binding site; restore on exit."""
        restore = []
        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                try:
                    owner = importlib.import_module(f"mp2ent.{module_name}")
                except ImportError:
                    continue
                *prefix, attr = path.split(".")
                for part in prefix:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    continue
                wrapper = self.wrap(layer, original)
                holders = [owner] if prefix else [
                    mod for name, mod in list(sys.modules.items())
                    if name == "mp2ent" or name.startswith("mp2ent.")
                ]
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            restore.append((holder, name, original))
                            setattr(holder, name, wrapper)
        try:
            yield self
        finally:
            for holder, name, original in reversed(restore):
                setattr(holder, name, original)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """layer -> (calls, self time in seconds)."""
        layer = np.asarray(self.span_layer)
        start = np.asarray(self.span_start)
        end = np.asarray(self.span_end)
        parent = np.asarray(self.span_parent)
        duration = end - start
        child = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        self_time = np.bincount(layer, weights=duration - child, minlength=len(self.names))
        calls = np.bincount(layer, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(self_time[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write the spans (one row each) and the layer names."""
        np.savez(
            path,
            layers=np.array(self.names),
            layer=np.asarray(self.span_layer),
            start=np.asarray(self.span_start),
            end=np.asarray(self.span_end),
            parent=np.asarray(self.span_parent),
            op=np.asarray(self.span_op),
        )
