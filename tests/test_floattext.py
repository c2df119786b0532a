"""The whole-array float text against the per-value calls it replaces.

``floattext.float_text`` must write each value exactly as ``float.__repr__``
(JSON) or ``format(x, '.17g')`` (CSV) does, on its fast path and on the
per-value fallback alike, and the grid writers built on it must write the
bytes of the per-value writers in ``per_value_writers`` for every grid
shape and block edge, without peaking above them.
"""

import math
import os
import struct
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mp2ent import floattext, grids
from mp2ent.entangle_circle import SectorPair
from mp2ent.grids import AxisSpec, ProbabilityGrid, SweepSpec, grid_to_csv, grid_to_json, run_sweep

import per_value_writers


def _texts(values, shortest):
    rows = floattext.float_text(np.array(values, dtype=float), shortest)
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in rows]


def _assert_per_value(values):
    values = [float(v) for v in values]
    assert _texts(values, True) == [repr(v) for v in values]
    assert _texts(values, False) == [format(v, ".17g") for v in values]
    assert floattext.compact(floattext.float_text(np.array(values), True)) == "".join(
        map(repr, values)
    ).encode("ascii")


def _bits(n: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", n))[0]


def _ulps(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


def _decimal(digits: int, mantissa: int, exponent: int) -> float:
    return float(f"{mantissa % 10**digits or 1}e{exponent}")


FLOATS = st.one_of(
    st.integers(0, 2**64 - 1).map(_bits),  # bit patterns: every sign, NaN and inf
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308]),
    st.integers(1, 2**52 - 1).map(_bits),  # subnormals
    # the neighbours of the fast path's range ends, and of 1e18
    st.tuples(st.sampled_from([1e-26, 1e15, 1e18]), st.integers(-3, 3)).map(lambda a: _ulps(*a)),
    st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e)),
    st.tuples(st.integers(-30, 25), st.integers(-1, 1)).map(lambda a: _ulps(10.0 ** a[0], a[1])),
    st.builds(_decimal, st.integers(1, 17), st.integers(0, 10**17), st.integers(-30, 22)),
    st.builds(lambda p, e: float("9" * p + f"e{e}"), st.integers(1, 17), st.integers(-35, 5)),
    st.sampled_from([0.9999999999999999, 9.999999999999999e-05, 99999999999999.98]),
    st.floats(1e-300, 1e-100) | st.floats(1e100, 1e300),  # three-digit exponents
    st.floats(0.0, 1.0),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(FLOATS, min_size=1, max_size=40))
@example([1e-05, 1.5e16, 1e16, 1e17, 123.0, 1e15, 0.1, 0.5, 1.0 / 3.0])
def test_float_text_is_the_per_value_text(values):
    _assert_per_value(values)


def test_float_text_at_every_power_of_two_and_around_every_power_of_ten():
    # the classes a random draw rarely reaches: a power of two's rounding
    # interval is asymmetric, and a value next to 10^n can round to 10^n at
    # its shortest, a carry into one more digit
    twos = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    tens = [_ulps(10.0**n, k) for n in range(-30, 25) for k in range(-3, 4)]
    _assert_per_value(twos + tens)


def test_the_certificate_rejects_what_it_cannot_decide():
    d = np.array([10**18, 10**19 - 1, 10**18 - 1, 10**19] + [10**18] * 4, np.uint64)
    frac = np.array([0.5, 0.5, 0.5, 0.5, 1e-7, 1.0 - 1e-7, 0.5, 0.5])
    margin = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1e-7, np.inf])
    assert floattext._certified(d, frac, margin).tolist() == [True, True] + [False] * 5 + [True]


@pytest.mark.parametrize("draw", ["bits", "unit", "decades"])
def test_float_text_over_random_arrays(draw):
    rng = np.random.default_rng(21)
    values = {
        "bits": rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(float),
        "unit": rng.random(20000),
        "decades": 10.0 ** rng.uniform(-30, 20, size=20000),
    }[draw]
    _assert_per_value(values)


def test_the_fast_path_certifies_grid_like_values(monkeypatch):
    # the fast path is what makes the writers fast: it must hold for all
    # but a sliver of ordinary probabilities (exact decimals fall back)
    rng = np.random.default_rng(4)
    values = rng.random(4096) * 10.0 ** -rng.integers(0, 8, 4096)
    certified = []
    real = floattext._certified

    def spy(*args):
        certified.append(real(*args))
        return certified[-1]

    monkeypatch.setattr(floattext, "_certified", spy)
    floattext.float_text(values, True)
    assert certified[0].mean() > 0.999


@pytest.mark.parametrize("digits", range(1, 18))
def test_values_of_every_digit_count_take_the_fast_path(digits):
    # repr's digit count from 1 to 17: the passes at p = 16 and 15 decide
    # it, as below 15 digits a value's digits are its 15-digit decimal's
    rng = np.random.default_rng(digits)
    mantissas = rng.integers(10 ** (digits - 1), 10**digits, 512).tolist()
    values = [float(f"{m}e{e - digits}") for m, e in zip(mantissas, rng.integers(-12, 1, 512).tolist())]
    values += [math.nextafter(v, math.inf) for v in values[:64]]
    _assert_per_value(values)
    assert floattext._digits(np.array(values), True)[2].mean() > 0.95


def _pattern_value(x, nd):
    """A value the fast path writes whose repr has ``nd`` significant digits
    and decimal exponent ``x``, or None if none of 400 draws is one."""
    rng = np.random.default_rng(100 * (x + 100) + nd)
    for m in rng.integers(10 ** (nd - 1), 10**nd, 400).tolist():
        value = float(f"{m}e{x - nd + 1}")
        text = Decimal(repr(value)).normalize()
        if (text.adjusted(), len(text.as_tuple().digits)) == (x, nd):
            if floattext._digits(np.array([value]), True)[2][0]:
                return value
    return None


def test_float_text_writes_every_fast_path_pattern():
    # every decimal exponent X of the tables and every significant-digit
    # count of a non-integral value there (nd > X + 1), each through its own
    # lead, exponent and mask words.  X = -27, the tables' first entry, only
    # indexes values whose log put them below 1e-26: their D is out of
    # range, so they are never certified and take the per-value call
    x_min, x_max = floattext._X_MIN, floattext._X_MAX
    assert (x_min, x_max) == (-27, 14)
    patterns = [(x, nd) for x in range(x_min + 1, x_max + 1) for nd in range(1, 18) if nd > x + 1]
    values = {pattern: _pattern_value(*pattern) for pattern in patterns}
    assert [p for p, v in values.items() if v is None] == []
    _assert_per_value(list(values.values()))
    edge = [_ulps(1e-26, k) for k in range(-3, 4)] + [9.87654321e-27, 1.23456789e-26]
    _, xi, ok = floattext._digits(np.array(edge), True)
    assert ok.any() and not (ok & (xi == 0)).any()
    _assert_per_value(edge)


def _grid(values):
    rows, cols = np.shape(values)
    spec = SweepSpec("circle", SectorPair.PP, AxisSpec("omega", 0.0, 0.9, rows),
                     AxisSpec("rho", -1.0, 2.5, cols))
    return ProbabilityGrid(spec, values, 0.0, "series")


def _assert_same_text(got, expected):
    # name the first difference: pytest's own diff of megabytes of text
    # takes minutes
    if got != expected:
        i = len(os.path.commonprefix([got, expected]))
        pytest.fail(f"texts differ at {i}: {got[i - 40 : i + 40]!r} != {expected[i - 40 : i + 40]!r}")


def _assert_reference_bytes(grid):
    _assert_same_text(grid_to_csv(grid), per_value_writers.grid_to_csv(grid))
    _assert_same_text(grid_to_json(grid), per_value_writers.grid_to_json(grid))


def _mixed(shape, seed):
    rng = np.random.default_rng(seed)
    size = shape[0] * shape[1]
    special = rng.choice([0.0, 5e-324, 1e-300, 1e-26, 0.5, 1.0, 3.0, 1e17, 1e300], size)
    scaled = rng.random(size) * 10.0 ** rng.integers(-8, 3, size)
    return np.where(rng.random(size) < 0.2, special, scaled).reshape(shape)


@pytest.mark.parametrize(
    "shape", [(2, 5000), (3, 1500), (2, 2), (2, 300), (300, 2), (7, 4097), (4097, 3)],
    ids=["n2-over-a-block", "rows-not-a-block-multiple", "2x2", "2xN", "Nx2", "7x4097", "4097x3"],
)
def test_writers_match_the_per_value_writers_at_block_edges(shape):
    _assert_reference_bytes(_grid(_mixed(shape, sum(shape))))


@pytest.mark.parametrize("block", [1, 3, 7, 64])
def test_writers_match_the_per_value_writers_for_any_block(block, monkeypatch):
    monkeypatch.setattr(grids, "_BLOCK", block)
    for shape in [(2, 2), (5, 3), (3, 5), (2, 9), (9, 2)]:
        _assert_reference_bytes(_grid(_mixed(shape, block)))


@pytest.mark.parametrize(
    "block, shapes",
    [(2048, [(9, 256), (17, 512), (13, 300), (5, 2047), (3, 4100), (2, 2049)]),
     (4, [(5, 2), (3, 4), (6, 3), (3, 7), (2, 9), (4, 5)])],
    ids=["default", "4"],
)
def test_whole_row_blocks_match_the_per_value_writers(block, shapes, monkeypatch):
    # a block is max(1, _BLOCK // n2) whole rows: n2 divides _BLOCK, or
    # does not (the last block short of rows), or n2 > _BLOCK, each row in
    # _BLOCK-value chunks with the last one shorter; a row's "[" and "]",
    # and CSV's axis1 text, must land at every block edge
    monkeypatch.setattr(grids, "_BLOCK", block)
    for shape in shapes:
        _assert_reference_bytes(_grid(_mixed(shape, block + sum(shape))))
    # one row: a grid has two at least, so through _json_values alone
    for n2 in (1, block - 1, block, block + 1, 2 * block + 3):
        rows = _mixed((1, n2), n2)
        text = bytearray()
        grids._json_values(text, rows)
        assert text.decode("ascii") == per_value_writers.json_values(rows.tolist())


SWEEPS = [
    (SweepSpec("circle", SectorPair.MM, AxisSpec("omega", 0.0, 0.95, 24),
               AxisSpec("sigma", 0.0, 0.95, 24), truncation=6), "series"),
    (SweepSpec("coset", SectorPair.PM, AxisSpec("omega", 0.0, 0.95, 20),
               AxisSpec("sigma", 0.0, 0.95, 30)), "closed_form"),
    (SweepSpec("cat", SectorPair.PP, AxisSpec("alpha", 0.0, 1.95, 9),
               AxisSpec("rho", -3.0, 3.0, 11), convention="full"), "series"),
]


@pytest.mark.parametrize("spec, provenance", SWEEPS, ids=["circle-mm", "coset-pm", "cat-full"])
def test_writers_give_the_same_bytes_when_no_value_is_certified(spec, provenance, monkeypatch):
    # every value but 0.0 then takes the per-value call
    grid = run_sweep(spec, provenance)
    certified = (grid_to_csv(grid), grid_to_json(grid))
    rejected = []

    def reject(d, frac, margin):
        rejected.append(d.size)
        return np.zeros(d.shape, bool)

    monkeypatch.setattr(floattext, "_certified", reject)
    _assert_same_text(grid_to_csv(grid), certified[0])
    _assert_same_text(grid_to_json(grid), certified[1])
    assert sum(rejected) == 2 * grid.values.size
    _assert_reference_bytes(grid)


def _traced_peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writers_peak_no_higher_than_the_per_value_writers():
    spec = SweepSpec("circle", SectorPair.PM, AxisSpec("omega", 0.0, 0.95, 256),
                     AxisSpec("sigma", 0.0, 0.95, 256))
    grid = run_sweep(spec, "closed_form")
    for writer, reference in [(grid_to_json, per_value_writers.grid_to_json),
                              (grid_to_csv, per_value_writers.grid_to_csv)]:
        writer(grid)
        assert _traced_peak(lambda: writer(grid)) <= _traced_peak(lambda: reference(grid))
