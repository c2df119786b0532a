"""The grid writers that format each float with its own call, kept as the
bit-for-bit reference of :func:`mp2ent.grids.grid_to_csv` and
:func:`mp2ent.grids.grid_to_json`: CSV floats are ``format(x, '.17g')``,
JSON floats ``float.__repr__``, as ``json.dumps`` writes them."""

from __future__ import annotations

import json

from mp2ent import grids


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def grid_to_csv(grid: grids.ProbabilityGrid) -> str:
    """Header ``axis1,axis2,value``; one line per point, row-major in axis1."""
    lines = ["axis1,axis2,value\n"]
    for v1, row in zip(grid.spec.axis1.values(), grid.values.tolist()):
        for v2, value in zip(grid.spec.axis2.values(), row):
            lines.append(f"{_fmt(v1)},{_fmt(v2)},{_fmt(value)}\n")
    return "".join(lines)


def grid_to_json(grid: grids.ProbabilityGrid) -> str:
    """Sorted-key JSON at indent 1; ``json.dumps`` writes all but the values."""
    payload = {
        "spec": grid.spec.to_json_dict(),
        "values": [],
        "tail_bound_max": float(grid.tail_bound_max),
        "provenance": grid.provenance,
        "tool_version": grids.TOOL_VERSION,
    }
    head = json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1)
    # "values" sorts last, so the header ends in '"values": []' and "}"
    return head[: -len("[]\n}")] + json_values(grid.values.tolist()) + "\n}\n"


def json_values(rows: list[list[float]]) -> str:
    """Non-empty rows of finite floats as ``json.dumps`` writes them as a
    member of an indent-1 object: each float its repr, one per line."""
    return "[\n" + ",\n".join(
        "  [\n   " + ",\n   ".join(map(float.__repr__, row)) + "\n  ]" for row in rows
    ) + "\n ]"
