import _pyio
import cmath
import dataclasses
import importlib
import io
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mp2ent
from mp2ent import cli, entangle_circle, grids, states
from mp2ent.cli import main, parse_axis, parse_number
from mp2ent.entangle_circle import CirclePairParams, SectorPair
from mp2ent.entangle_coset import CosetPairParams
from mp2ent.verify import verify_all
from mp2ent.grids import (
    CONVENTIONS,
    DEFAULT_AXES,
    FAMILIES,
    PARAMETERS,
    PROVENANCES,
    AxisSpec,
    GridDomainError,
    SweepSpec,
    grid_to_csv,
    grid_to_json,
    run_sweep,
    write_grid,
)

import per_value_writers


def small_spec(**overrides):
    base = dict(
        family="circle",
        pair=SectorPair.PP,
        axis1=AxisSpec("omega", 0.0, 0.9, 7),
        axis2=AxisSpec("sigma", 0.0, 0.9, 5),
        fixed=(("phi", math.pi / 2.0), ("phi_prime", 0.0), ("rho", 0.0)),
        truncation=20,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestSweeps:
    def test_coincident_rho_zero_grid_is_all_zero(self):
        spec = small_spec(fixed=(("phi", 0.0), ("phi_prime", 0.0), ("rho", 0.0)))
        grid = run_sweep(spec)
        assert np.max(grid.values) < 1e-12

    def test_antipodal_is_twice_quarter_phase_pointwise(self):
        base = (("phi", 0.0), ("phi_prime", 0.0))
        g_pi = run_sweep(small_spec(fixed=base + (("rho", math.pi),)))
        g_half = run_sweep(small_spec(fixed=base + (("rho", math.pi / 2.0),)))
        assert np.allclose(g_pi.values, 2.0 * g_half.values, atol=1e-9)

    def test_closed_form_total_sweep_at_cancellation_point(self):
        # exact-cancellation residue (~ -1e-16) must not trip the grid's
        # non-negativity invariant
        spec = small_spec(
            pair=SectorPair.TOTAL,
            fixed=(("phi", 0.0), ("phi_prime", 0.0), ("rho", 0.0)),
        )
        grid = run_sweep(spec, provenance="closed_form")
        assert np.max(np.abs(grid.values)) < 1e-12

    def test_series_and_closed_form_provenance_agree(self):
        spec = small_spec(fixed=(("phi", 1.2), ("phi_prime", 0.3), ("rho", 0.8)))
        series = run_sweep(spec, provenance="series")
        closed = run_sweep(spec, provenance="closed_form")
        both = run_sweep(spec, provenance="both")
        assert np.allclose(series.values, closed.values, atol=1e-12)
        assert np.array_equal(series.values, both.values)
        assert (series.provenance, closed.provenance) == ("series", "closed_form")

    def test_axis_bounds_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(
                family="circle",
                pair=SectorPair.PP,
                axis1=AxisSpec("omega", 0.0, 1.0, 3),
                axis2=AxisSpec("sigma", 0.0, 0.9, 3),
            )

    def test_per_point_failure_names_the_point(self):
        # the l axis is domain-free but l = 300 overflows the n=1 term
        spec = SweepSpec(
            family="cylinder",
            pair=SectorPair.PP,
            axis1=AxisSpec("l", 0.0, 300.0, 3),
            axis2=AxisSpec("omega", 0.1, 0.5, 2),
            truncation=10,
        )
        with pytest.raises(GridDomainError, match=r"point \(l=150"):
            run_sweep(spec)

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            AxisSpec("omega", 0.0, 0.9, 1)
        with pytest.raises(ValueError):
            SweepSpec(
                family="circle",
                pair=SectorPair.PP,
                axis1=AxisSpec("omega", 0.0, 0.9, 4),
                axis2=AxisSpec("omega", 0.0, 0.9, 4),
            )
        with pytest.raises(ValueError):
            SweepSpec(
                family="circle",
                pair=SectorPair.PP,
                axis1=AxisSpec("nope", 0.0, 0.9, 4),
                axis2=AxisSpec("sigma", 0.0, 0.9, 4),
            )

    def test_unknown_fixed_parameter_rejected(self):
        with pytest.raises(ValueError):
            small_spec(fixed=(("bogus", 1.0),))

    @pytest.mark.parametrize("steps", [2.5, 3.0, "4", None])
    def test_non_integer_steps_are_refused_naming_the_axis(self, steps):
        with pytest.raises(ValueError, match=r"axis omega steps must be an integer"):
            AxisSpec("omega", 0.0, 0.5, steps)

    @pytest.mark.parametrize("truncation", [2.5, 12.0, "12", True, False, np.bool_(True)])
    def test_non_integer_truncation_is_refused(self, truncation):
        # a bool is an int, but not a truncation: True would sweep at N = 1
        with pytest.raises(ValueError, match="truncation must be an integer"):
            small_spec(truncation=truncation)

    def test_numpy_integer_steps_and_truncation_are_stored_as_int(self):
        spec = small_spec(axis1=AxisSpec("omega", 0.0, 0.9, np.int64(3)), truncation=np.int32(8))
        assert type(spec.axis1.steps) is int and type(spec.truncation) is int
        payload = json.loads(grid_to_json(run_sweep(spec)))
        assert (payload["spec"]["axis1"]["steps"], payload["spec"]["truncation"]) == (3, 8)

    def test_numpy_float_bounds_sweep_and_write_json(self):
        spec = small_spec(axis1=AxisSpec("omega", np.float32(0.0), np.float64(0.5), 2))
        assert [type(spec.axis1.start), type(spec.axis1.stop)] == [float, float]
        payload = json.loads(grid_to_json(run_sweep(spec)))
        assert (payload["spec"]["axis1"]["start"], payload["spec"]["axis1"]["stop"]) == (0.0, 0.5)

    def test_integer_bounds_and_fixed_values_are_stored_as_float(self):
        spec = small_spec(axis1=AxisSpec("rho", 0, np.int64(3), 2), fixed=(("phi", 1),))
        assert [type(value) for value in (spec.axis1.start, spec.axis1.stop)] == [float, float]
        assert spec.fixed == (("phi", 1.0),) and type(spec.fixed[0][1]) is float
        payload = json.loads(grid_to_json(run_sweep(spec)), parse_int=str, parse_float=str)
        axis, fixed = payload["spec"]["axis1"], payload["spec"]["fixed"]
        assert (axis["start"], axis["stop"], fixed["phi"]) == ("0.0", "3.0", "1.0")

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 1 + 0j, "0.5", None])
    @pytest.mark.parametrize("bound", ["start", "stop"])
    def test_a_bool_or_non_real_bound_is_refused_naming_the_axis(self, bound, value):
        bounds = {"start": 0.0, "stop": 0.5, bound: value}
        with pytest.raises(ValueError, match=rf"^axis omega {bound} must be a real number, got "):
            AxisSpec("omega", bounds["start"], bounds["stop"], 2)

    @pytest.mark.parametrize("value", [True, False, np.bool_(False), 1j, "1", None])
    def test_a_bool_or_non_real_fixed_value_is_refused_naming_the_parameter(self, value):
        # True is an int, but no parameter's value: it would sweep at rho = 1
        with pytest.raises(ValueError, match=r"^circle parameter rho must be a real number, got "):
            small_spec(fixed=(("rho", value),))

    def test_a_parameter_fixed_twice_is_refused(self):
        # neither value is silently kept: the two could be set far apart
        with pytest.raises(ValueError, match="^circle parameter rho is fixed twice$"):
            small_spec(fixed=(("rho", 1.0), ("phi", 0.0), ("rho", 2.0)))

    @pytest.mark.parametrize(
        ("name", "value", "kind"),
        [("pair", "pp", "a SectorPair"), ("pair", None, "a SectorPair"),
         ("axis1", ("omega", 0.0, 0.5, 2), "an AxisSpec"), ("axis1", "omega", "an AxisSpec"),
         ("axis2", None, "an AxisSpec")],
    )
    def test_a_pair_or_axis_of_another_type_is_refused_naming_the_field(self, name, value, kind):
        # refused at construction, not by the sweep, its writers or to_json_dict
        with pytest.raises(ValueError, match=rf"^sweep {name} must be {kind}, got "):
            small_spec(**{name: value})

    @pytest.mark.parametrize(
        "fixed", [{"x2": 1.0}, {"phi": 1.0}, (("phi", 1.0, 2.0),), None, "rho", (("rho",),),
                  ((1.0, "rho"),), ("rho", 1.0)],
    )
    def test_fixed_that_is_not_name_value_pairs_is_refused_naming_the_field(self, fixed):
        with pytest.raises(ValueError, match=r"^sweep fixed must be \(name, value\) pairs, got "):
            small_spec(family="coset", fixed=fixed)

    def test_fixed_domain_checked(self):
        with pytest.raises(GridDomainError):
            small_spec(fixed=(("sigma", 1.2),))

    def test_every_axis_value_checked_at_construction(self):
        # both bounds are inside the disk, but the last value rounds to 1.0
        with pytest.raises(GridDomainError, match=r"omega=1\.0 outside"):
            small_spec(axis1=AxisSpec("omega", 0.3, 0.9999999999999999, 2))


class TestSerialization:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_csv_round_trip_bit_exact(self, fmt):
        grid = run_sweep(small_spec(fixed=(("phi", 1.0), ("phi_prime", 0.2), ("rho", 2.0))))
        if fmt == "csv":
            rows = np.loadtxt(io.StringIO(grid_to_csv(grid)), delimiter=",", skiprows=1)
            assert rows.shape == (7 * 5, 3)
            values = rows[:, 2]
        else:
            payload = json.loads(grid_to_json(grid))
            values = np.array(payload["values"]).reshape(-1)
            assert payload["tail_bound_max"] == grid.tail_bound_max
        assert np.array_equal(values, grid.values.reshape(-1))

    def test_csv_header_and_order(self):
        grid = run_sweep(small_spec())
        lines = grid_to_csv(grid).splitlines()
        assert lines[0] == "axis1,axis2,value"
        # row-major in axis1: the first block holds axis1 = start
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0 and first[1] == 0.0

    @staticmethod
    def _bit_pattern_grid(seed):
        # edge values, then random bit patterns of non-negative finite floats
        edges = [0.0, -0.0, 5e-324, 1e-300, 1e16, 1e17, sys.float_info.max, 0.1, 1.0 / 3.0]
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 0x7FF0000000000000, size=40 * 50 - len(edges), dtype=np.uint64)
        values = np.concatenate([edges, bits.view(float)]).reshape(40, 50)
        spec = small_spec(
            axis1=AxisSpec("omega", 0.0, 0.9, 40), axis2=AxisSpec("sigma", 0.1, 0.7, 50)
        )
        return grids.ProbabilityGrid(spec, values, 0.0, "series")

    def test_csv_matches_the_per_value_writer(self):
        # the reference formats each value with format(x, '.17g')
        grid = self._bit_pattern_grid(5)
        assert grid_to_csv(grid) == per_value_writers.grid_to_csv(grid)

    def test_json_matches_the_per_value_writer(self):
        # the reference writes each value's float.__repr__
        grid = self._bit_pattern_grid(6)
        assert grid_to_json(grid) == per_value_writers.grid_to_json(grid)

    def test_write_is_deterministic(self, tmp_path):
        spec = small_spec(fixed=(("phi", 1.0), ("phi_prime", 0.2), ("rho", 2.0)))
        paths = []
        for i in range(2):
            path = tmp_path / f"grid{i}.csv"
            write_grid(run_sweep(spec), str(path), "csv")
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    @pytest.mark.parametrize("spec", [
        small_spec(),
        small_spec(fixed=(), truncation=1, convention="full", pair=SectorPair.TOTAL),
        SweepSpec(family="coset", pair=SectorPair.MM, axis1=AxisSpec("x", -1.0, -0.5, 3),
                  axis2=AxisSpec("alpha_im", 0.5, 2.0, 2),
                  fixed=(("rho", 0.25), ("alpha2_re", -0.3), ("y", 0.5))),
        SweepSpec(family="cat", pair=SectorPair.PM, axis1=AxisSpec("alpha", 0, 1, 2),
                  axis2=AxisSpec("arg_beta", np.float32(0.5), 3, 4)),
    ])
    def test_json_spec_is_the_dataclass_dict(self, spec):
        # the shallow dict writes the bytes of the deep asdict copy it replaced
        deep = {**dataclasses.asdict(spec), "pair": spec.pair.value, "fixed": dict(spec.fixed)}
        assert json.dumps(spec.to_json_dict(), sort_keys=True) == json.dumps(deep, sort_keys=True)
        # and it is the caller's: filling it in leaves the spec as it was
        before = repr(spec)
        data = spec.to_json_dict()
        data["axis1"]["start"], data["family"] = 9.0, "x"
        assert repr(spec) == before and spec.to_json_dict() == json.loads(json.dumps(deep))

    def test_json_spec_bytes(self):
        spec = small_spec(fixed=(("rho", 2.0), ("phi", 0.5)))
        assert json.dumps(spec.to_json_dict(), sort_keys=True) == (
            '{"axis1": {"name": "omega", "start": 0.0, "steps": 7, "stop": 0.9}, '
            '"axis2": {"name": "sigma", "start": 0.0, "steps": 5, "stop": 0.9}, '
            '"convention": "stripped", "family": "circle", "fixed": {"phi": 0.5, "rho": 2.0}, '
            '"pair": "pp", "truncation": 20}'
        )

    def test_json_payload_schema(self, tmp_path):
        grid = run_sweep(small_spec())
        payload = json.loads(grid_to_json(grid))
        assert set(payload) == {"spec", "values", "tail_bound_max", "provenance", "tool_version"}
        assert payload["spec"]["family"] == "circle"
        assert len(payload["values"]) == 7 and len(payload["values"][0]) == 5

    @pytest.mark.parametrize(
        ("spec", "provenance", "tail"),
        [
            (small_spec(axis1=AxisSpec("omega", 0.0, 0.9, 2), axis2=AxisSpec("sigma", 0.0, 0.9, 2)),
             "series", 0.0),
            (small_spec(axis1=AxisSpec("phi", 0.0, 6.0, 256), axis2=AxisSpec("rho", -1.0, 1.0, 3),
                        fixed=()),
             "closed_form", 1e-300),
            (SweepSpec(family="coset", pair=SectorPair.MM, axis1=AxisSpec("x", -1.0, -0.5, 3),
                       axis2=AxisSpec("alpha_im", 0.5, 2.0, 2),
                       fixed=(("rho", 0.25), ("alpha2_re", -0.3), ("y", 0.5)),
                       truncation=7, convention="full"),
             "both", 1.5e-17),
        ],
        ids=["2x2", "256x3", "coset-full"],
    )
    def test_json_is_the_json_dumps_of_its_payload(self, spec, provenance, tail):
        shape = (spec.axis1.steps, spec.axis2.steps)
        specials = [0.0, 5e-324, 1e-300, 0.1]
        values = np.resize(specials + np.random.default_rng(3).random(12).tolist(), shape)
        grid = grids.ProbabilityGrid(spec, values, tail, provenance)
        payload = {
            "spec": spec.to_json_dict(),
            "values": grid.values.tolist(),
            "tail_bound_max": tail,
            "provenance": provenance,
            "tool_version": grids.TOOL_VERSION,
        }
        expected = json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1)
        assert grid_to_json(grid) == expected + "\n"

    @pytest.mark.parametrize("shape", [(1, 2), (2, 1), (2, 2), (256, 3)])
    def test_json_values_block_matches_json_dumps(self, shape):
        rows = np.resize([0.0, 5e-324, 1e-300, 0.1, 0.5, 2.0 / 3.0], shape)
        expected = json.dumps({"values": rows.tolist()}, separators=(",", ": "), indent=1)
        text = bytearray(b'{\n "values": ')
        grids._json_values(text, rows)
        assert expected == text.decode("ascii") + "\n}"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_written_files_are_the_writers_bytes_on_any_platform(self, fmt, tmp_path, monkeypatch):
        # a text-mode file that translated newlines would write "\r\n" where
        # the platform's line separator is one; the pure-Python io module
        # reads os.linesep, so it stands in for such a platform here
        monkeypatch.setattr(os, "linesep", "\r\n")
        monkeypatch.setattr(grids, "open", _pyio.open, raising=False)
        grid = run_sweep(small_spec())
        path = tmp_path / f"g.{fmt}"
        write_grid(grid, str(path), fmt, command="circle")
        text = grid_to_csv(grid) if fmt == "csv" else grid_to_json(grid)
        assert path.read_bytes() == text.encode("utf-8")
        sidecar = (tmp_path / f"g.{fmt}.meta.json").read_bytes()
        assert b"\r" not in sidecar and sidecar.endswith(b"}\n")

    def test_sidecar_records_the_argv_that_ran(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["mp2ent", "cat", "--pair", "mm"])
        argv = ["circle", "--axis1", "omega:0:0.5:2", "--axis2", "sigma:0:0.5:2",
                "--trunc", "5", "--out", str(tmp_path / "a.csv")]
        assert main(argv) == 0
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert meta["command"] == " ".join(argv)
        # without an argv, main runs and records the process's own
        monkeypatch.setattr(sys, "argv", ["mp2ent"] + argv[:-1] + [str(tmp_path / "b.csv")])
        assert main() == 0
        meta = json.loads((tmp_path / "b.csv.meta.json").read_text())
        assert meta["command"] == " ".join(sys.argv[1:])

    def test_sidecar_metadata_holds_timestamp(self, tmp_path):
        path = tmp_path / "g.csv"
        grid = run_sweep(small_spec())
        write_grid(grid, str(path), "csv", command="circle")
        meta = json.loads((tmp_path / "g.csv.meta.json").read_text())
        assert "created_at" in meta and meta["command"] == "circle"
        assert "created_at" not in path.read_text()
        # the run's truncation and largest tail bound, exactly; the data
        # file is the writer's text alone
        assert set(meta) == {"command", "created_at", "format", "tail_bound_max", "tool_version",
                             "truncation"}
        assert meta["truncation"] == 20
        assert meta["tail_bound_max"].hex() == grid.tail_bound_max.hex() != 0.0.hex()
        assert path.read_text() == grid_to_csv(grid)

    def test_back_to_back_runs_leak_no_flags(self, tmp_path):
        # main parses with one parser a process: a run's --set and --axis1
        # must not reach the next run, whose grid and sidecar are those of a
        # run with the defaults
        first = ["circle", "--axis1", "phi:0:3:3", "--axis2", "sigma:0.1:0.5:2", "--set",
                 "rho=1", "--set", "omega=0.3", "--trunc", "12", "--out", str(tmp_path / "a.csv")]
        second = ["circle", "--out", str(tmp_path / "b.csv")]
        assert main(first) == 0 and main(second) == 0
        assert cli._parser() is cli._parser()
        assert cli._parser().parse_args(["circle"]).fixed == []
        default = SweepSpec("circle", SectorPair.PP, *(AxisSpec(*a) for a in DEFAULT_AXES["circle"]))
        grid = run_sweep(default)
        assert (tmp_path / "b.csv").read_text() == grid_to_csv(grid)
        meta = json.loads((tmp_path / "b.csv.meta.json").read_text())
        assert meta["command"] == " ".join(second) and meta["truncation"] == 40
        assert meta["tail_bound_max"] == grid.tail_bound_max

    @pytest.mark.parametrize("fmt", ["xml", "CSV", ""])
    def test_unknown_format_is_refused_before_any_file_is_opened(self, tmp_path, fmt):
        grid = run_sweep(small_spec())
        with pytest.raises(ValueError, match="format must be one of"):
            write_grid(grid, str(tmp_path / "g.xml"), fmt)
        assert list(tmp_path.iterdir()) == []

    def test_cli_formats_are_the_writer_formats(self):
        assert cli.FORMATS is grids.FORMATS and grids.FORMATS == ("csv", "json")
        parser = cli.build_parser()
        for fmt in grids.FORMATS:
            assert parser.parse_args(["circle", "--format", fmt]).format == fmt
        with pytest.raises(SystemExit):
            parser.parse_args(["circle", "--format", "xml"])


class TestCli:
    def test_parse_number_pi_suffix(self):
        assert parse_number("0.5pi") == pytest.approx(math.pi / 2.0)
        assert parse_number("pi") == math.pi
        assert parse_number("-pi") == -math.pi
        assert parse_number("2pi") == pytest.approx(2.0 * math.pi)
        assert parse_number("0.25") == 0.25

    def test_parse_axis(self):
        axis = parse_axis("rho:0:2pi:9")
        assert axis.name == "rho" and axis.steps == 9
        assert axis.stop == pytest.approx(2.0 * math.pi)
        with pytest.raises(ValueError):
            parse_axis("rho:0:1")

    def test_sweep_subcommand_writes_files(self, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main([
            "circle", "--pair", "pp",
            "--axis1", "omega:0:0.9:5", "--axis2", "sigma:0:0.9:5",
            "--set", "phi=0.5pi", "--set", "phi_prime=0", "--set", "rho=pi",
            "--trunc", "20", "--out", str(out),
        ])
        assert rc == 0
        assert out.exists() and (tmp_path / "grid.csv.meta.json").exists()

    def test_invalid_parameters_exit_2(self, tmp_path):
        rc = main(["circle", "--axis1", "omega:0:1.5:5", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        rc = main(["circle", "--pair", "zz", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize(
        ("argv", "named"),
        [
            (["circle", "--set", "phi=nan"], "phi=nan"),
            (["circle", "--set", "rho=inf"], "rho=inf"),
            (["circle", "--trunc", "0"], "truncation"),
            (["circle", "--axis1", "omega:0:inf:3"], "axis omega"),
            (["verify", "--tol", "nan"], "tolerance"),
            (["verify", "--tol", "inf"], "tolerance"),
            (["verify", "--tol", "-1"], "tolerance"),
            (["verify", "--trunc", "0"], "truncation"),
            (["verify", "--trunc", "1"], ("cat-completeness", "truncation 1")),
            (["cat", "--axis1", "alpha:0:1e300:2", "--axis2", "beta:0:0.5:2"],
             ("alpha=1e+300", "displacement", "e^(-|alpha|^2/2)")),
            (["circle", "--axis1", "omega:0:0.5:2", "--axis2", "sigma:0:0.5:2",
              "--set", "omega=0.9"], "parameter omega is swept"),
            (["circle", "--set", "rho=abc"], "--set rho"),
            (["circle", "--set", "rho=1", "--set", "rho=2"], "circle parameter rho is fixed twice"),
            (["circle", "--axis1", "omega:0:0.5:2x"], "axis omega steps"),
        ],
        ids=["phi-nan", "rho-inf", "trunc-0", "axis-inf",
             "verify-tol-nan", "verify-tol-inf", "verify-tol-negative", "verify-trunc-0",
             "verify-trunc-1", "cat-alpha-overflow", "set-swept", "set-unparseable",
             "set-twice", "axis-steps-unparseable"],
    )
    def test_non_finite_or_out_of_range_input_names_the_parameter(
        self, tmp_path, capsys, argv, named
    ):
        out = tmp_path / "x.csv"
        if argv[0] == "verify":
            argv = argv + ["--report", str(out)]
        elif "--axis2" in argv:
            argv = argv + ["--out", str(out)]
        else:
            argv = argv + ["--axis2", "sigma:0:0.9:3", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(argv)
        assert rc == 2
        err = capsys.readouterr().err
        for text in named if isinstance(named, tuple) else (named,):
            assert text in err
        assert not out.exists()

    @pytest.mark.parametrize(("label", "rc"), [(20, 0), (30, 2)], ids=["l20", "l30"])
    def test_cylinder_overflow_guard_fires_before_any_overflow(
        self, tmp_path, capsys, label, rc
    ):
        out = tmp_path / "cyl.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([
                "cylinder", "--set", f"l={label}",
                "--axis1", "omega:0:0.95:4", "--axis2", "sigma:0:0.95:4",
                "--out", str(out),
            ])
        assert code == rc
        if rc == 0:
            assert np.all(np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)))
        else:
            assert "non-physical label" in capsys.readouterr().err

    @pytest.mark.parametrize("pair", ["pp", "mm", "total"])
    @pytest.mark.parametrize("family", ["circle", "cylinder", "coset"])
    def test_one_term_sweeps_succeed(self, tmp_path, family, pair):
        # one retained term per sector still decays on the disk
        out = tmp_path / "one.csv"
        rc = main([
            family, "--pair", pair, "--trunc", "1", "--axis1", "omega:0:0.95:3",
            "--axis2", "sigma:0:0.95:3", "--out", str(out),
        ])
        assert rc == 0
        assert np.all(np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)))

    @pytest.mark.parametrize("pair", ["pm", "mm"])
    def test_default_cat_odd_sweeps_exit_0(self, tmp_path, pair):
        # the default axes start at alpha = beta = 0, where an odd cat slot
        # is exactly zero
        out = tmp_path / "cat.csv"
        assert main(["cat", "--pair", pair, "--out", str(out)]) == 0
        values = np.loadtxt(out, delimiter=",", skiprows=1)[:, 2].reshape(64, 64)
        assert np.all(values[:, 0] == 0.0)
        assert np.all(values[0, :] == 0.0) == (pair == "mm")

    def test_verify_exit_zero_and_report(self, tmp_path):
        report_path = tmp_path / "report.json"
        rc = main(["verify", "--trunc", "25", "--report", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        statuses = {c["name"]: c["status"] for c in report["comparisons"]}
        assert statuses["cylinder-degenerate-pm"] == "paper-form-mismatch"
        assert statuses["circle-closed-form-pp"] == "corrected-form-match"
        assert statuses["theta-anchors"] == "match"
        must_fail = [
            c for c in report["comparisons"] if c["must_match"] and not c["ok"]
        ]
        assert must_fail == []

    def test_verify_report_is_the_payload_bytes_on_any_platform(self, tmp_path, monkeypatch):
        # as for the grid writers: the pure-Python io module reads
        # os.linesep, so it stands in for a platform whose separator is "\r\n"
        monkeypatch.setattr(os, "linesep", "\r\n")
        monkeypatch.setattr(cli, "open", _pyio.open, raising=False)
        path = tmp_path / "report.json"
        assert main(["verify", "--report", str(path)]) == 0
        payload = json.dumps(verify_all().to_json_dict(), indent=1, sort_keys=True) + "\n"
        assert path.read_bytes() == payload.encode("utf-8")

    def test_verify_unreachable_tolerance_exits_3(self, tmp_path):
        rc = main(["verify", "--tol", "1e-30", "--trunc", "20",
                   "--report", str(tmp_path / "r.json")])
        assert rc == 3

    @pytest.mark.parametrize(
        "argv",
        [["circle", "--axis1", "omega:0:0.5:2", "--axis2", "sigma:0:0.5:2", "--out"],
         ["verify", "--trunc", "12", "--report"]],
        ids=["sweep", "verify"],
    )
    def test_unwritable_output_exits_2(self, tmp_path, capsys, argv):
        path = tmp_path / "missing" / "out.csv"
        assert main(argv + [str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {path}: " in err
        assert "Traceback" not in err

    def test_unwritable_output_is_refused_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        calls = {"run_sweep": 0}
        monkeypatch.setattr(cli, "run_sweep", _counting(calls, "run_sweep", cli.run_sweep))
        # a missing directory, and an existing directory as the output itself
        for path, reason in (
            (tmp_path / "missing" / "out.csv", "No such file or directory"),
            (tmp_path, "Is a directory"),
        ):
            assert main(["circle", "--out", str(path)]) == 2
            assert calls["run_sweep"] == 0
            assert f"error: cannot write {path}: {reason}" in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == []

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MP2E_OUT_DIR", str(tmp_path))
        rc = main([
            "circle", "--axis1", "omega:0:0.5:3", "--axis2", "sigma:0:0.5:3",
            "--trunc", "10",
        ])
        assert rc == 0
        assert (tmp_path / "circle_pp.csv").exists()
        os.remove(tmp_path / "circle_pp.csv")


# finite values near every domain, anything at all, and the overflow probes
WILD_FLOATS = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300]),
)


@st.composite
def sweep_argv(draw):
    family = draw(st.sampled_from(FAMILIES))
    names = list(PARAMETERS[family])
    axis = draw(st.sampled_from(names))
    # the first two parameters are the two moduli, in domain on [0, 0.5]
    second = names[1] if axis == names[0] else names[0]
    lo, hi = draw(WILD_FLOATS), draw(WILD_FLOATS)
    return [
        family, "--pair", draw(st.sampled_from(["pp", "pm", "mm", "total"])),
        "--set", f"{draw(st.sampled_from(names))}={draw(WILD_FLOATS)!r}",
        "--axis1", f"{axis}:{lo!r}:{hi!r}:{draw(st.integers(2, 3))}",
        "--axis2", f"{second}:0:0.5:2",
        "--trunc", str(draw(st.integers(-1, 8))),
        "--convention", draw(st.sampled_from(CONVENTIONS)),
    ]


def _swept_and_set(argv):
    """The two axis names of a sweep argv and the names it fixes with --set."""
    axes = [name for name, *_ in DEFAULT_AXES[argv[0]]]
    for k, flag in enumerate(("--axis1", "--axis2")):
        if flag in argv:
            axes[k] = argv[argv.index(flag) + 1].split(":")[0]
    fixed = [argv[i + 1].split("=")[0] for i, arg in enumerate(argv) if arg == "--set"]
    return axes, fixed


@settings(max_examples=40, deadline=None)
@given(argv=sweep_argv())
@example(argv=["cylinder", "--set", "l=800"])
@example(argv=["cat", "--axis1", "alpha:0:1e300:2", "--axis2", "beta:0:0.5:2"])
@example(argv=["circle", "--axis1", "omega:0:0.5:2", "--axis2", "sigma:0:0.5:2",
               "--set", "omega=0.9", "--convention", "full"])
def test_sweep_argv_exits_0_or_2(tmp_path_factory, argv):
    out = tmp_path_factory.getbasetemp() / "argv.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(argv + ["--out", str(out)])
    assert rc in (0, 2)
    axes, fixed = _swept_and_set(argv)
    if set(axes) & set(fixed):
        assert rc == 2


# family -> the series and pair-matrix kernels a sweep reaches once per point
KERNELS = {
    "circle": (("entangle_circle", "probability_series"),
               ("entangle_circle", "coefficient_matrix")),
    "cylinder": (("entangle_cylinder", "probability_series_cyl"),
                 ("entangle_cylinder", "coefficient_matrix_cyl")),
    "coset": (("entangle_coset", "probability_series_coset"),
              ("entangle_coset", "coefficient_matrix_coset")),
    "cat": (("cat_compare", "cat_entangled_probability"),
            ("cat_compare", "cat_coefficient_matrix")),
}


def _counting(counts, name, fn):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


@pytest.mark.parametrize("family", FAMILIES)
def test_sweep_looks_kernels_up_at_call_time(monkeypatch, family):
    # a wrapper installed on a module attribute must see every sweep (the
    # benchmark's tracer counts calls this way): the series column is one
    # grid-kernel call, with no per-point series, slot or pair-matrix call
    targets = (("entangle_circle", "pair_norm_grid"),) + KERNELS[family] + (
        ("entangle_circle", "pair_matrix"),
    )
    counts = {name: 0 for _, name in targets}
    for module, name in targets:
        owner = importlib.import_module(f"mp2ent.{module}")
        monkeypatch.setattr(owner, name, _counting(counts, name, getattr(owner, name)))
    names = list(PARAMETERS[family])[:2]
    spec = SweepSpec(
        family=family, pair=SectorPair.PM, axis1=AxisSpec(names[0], 0.1, 0.5, 2),
        axis2=AxisSpec(names[1], 0.1, 0.5, 2), truncation=8,
    )
    run_sweep(spec)
    assert counts == {**dict.fromkeys(counts, 0), "pair_norm_grid": 1}


@pytest.mark.parametrize("provenance", ["closed_form", "both"])
@pytest.mark.parametrize(
    ("family", "pair", "kernel"),
    [("circle", SectorPair.PM, "closed_form_P"), ("circle", SectorPair.TOTAL, "closed_form_total"),
     ("coset", SectorPair.MM, "closed_form_coset")],
)
def test_closed_form_sweep_calls_its_kernel_once_per_point(
    monkeypatch, family, pair, kernel, provenance
):
    # every closed-form column, the circle total's included, is one
    # grid-kernel call, with no per-point closed_form_P, closed_form_total
    # or closed_form_coset.  Both kernels are looked up on their modules at
    # call time.
    owner = importlib.import_module(f"mp2ent.entangle_{family}")
    counts = {kernel: 0, "pair_closed_form_grid": 0}
    monkeypatch.setattr(owner, kernel, _counting(counts, kernel, getattr(owner, kernel)))
    grid_kernel = entangle_circle.pair_closed_form_grid
    monkeypatch.setattr(
        entangle_circle, "pair_closed_form_grid",
        _counting(counts, "pair_closed_form_grid", grid_kernel),
    )
    spec = SweepSpec(
        family=family, pair=pair, axis1=AxisSpec("omega", 0.1, 0.5, 3),
        axis2=AxisSpec("sigma", 0.1, 0.5, 2), truncation=8,
    )
    run_sweep(spec, provenance=provenance)
    assert counts == {kernel: 0, "pair_closed_form_grid": 1}


@pytest.mark.parametrize("pair", [SectorPair.PM, SectorPair.TOTAL])
@pytest.mark.parametrize("family", FAMILIES)
def test_a_series_sweep_builds_no_slot_object(monkeypatch, family, pair):
    # a sweep's slots are SlotBatch arrays, with no CoefficientSequence per
    # slot, and it neither reads nor fills the fock_series memo
    counts = {"slots": 0}
    post_init = states.CoefficientSequence.__post_init__
    monkeypatch.setattr(states.CoefficientSequence, "__post_init__",
                        _counting(counts, "slots", post_init))
    states.fock_series.cache_clear()
    (name1, lo1, hi1, _), (name2, lo2, hi2, _) = DEFAULT_AXES[family]
    run_sweep(SweepSpec(family, pair, AxisSpec(name1, lo1, hi1, 4), AxisSpec(name2, lo2, hi2, 3),
                        fixed=(("phi_prime", 0.7),), truncation=8))
    info = states.fock_series.cache_info()
    assert (counts["slots"], info.hits, info.misses, info.currsize) == (0, 0, 0, 0)


def _counting_pair_builds(monkeypatch) -> dict:
    # the per-point pair builds, which a sweep makes only to name its first
    # failing point
    counts = {"matrix": 0, "closed_form": 0}
    for name in counts:
        method = getattr(entangle_circle.EntangledPair, name)
        monkeypatch.setattr(entangle_circle.EntangledPair, name, _counting(counts, name, method))
    return counts


def _named_point(spec, error) -> tuple[int, int]:
    # the (i, j) of the point a GridDomainError names
    head = str(error).split("): ")[0].removeprefix("point (")
    v1, v2 = (float(part.split("=")[1]) for part in head.split(", "))
    return spec.axis1.values().index(v1), spec.axis2.values().index(v2)


@pytest.mark.parametrize(
    ("family", "axis1", "axis2", "pair", "truncation"),
    [
        # a label past the cylinder's magnitude guard, on either axis
        ("cylinder", ("l", -1.0, 400.0, 5), ("l_prime", -1.0, 1.0, 5), SectorPair.PP, 12),
        ("cylinder", ("rho", 0.0, 3.0, 3), ("l", 0.0, 400.0, 4), SectorPair.TOTAL, 12),
        # not yet decaying at truncation 1 once |alpha| passes about 1.86
        ("cat", ("alpha", 0.0, 1.95, 5), ("beta", 0.0, 1.95, 5), SectorPair.PM, 1),
    ],
    ids=["cylinder-l-axis1", "cylinder-l-axis2", "cat-trunc-1"],
)
def test_a_failing_sweep_replays_the_points_up_to_its_first_failure(
    monkeypatch, family, axis1, axis2, pair, truncation
):
    # a slot batch raises, and the sweep is walked point by point in
    # row-major order, through EntangledPair.matrix, up to its first
    # failing point (i, j): i n2 + j + 1 calls, the last one failing
    spec = SweepSpec(family, pair, AxisSpec(*axis1), AxisSpec(*axis2), truncation=truncation)
    counts = _counting_pair_builds(monkeypatch)
    with pytest.raises(GridDomainError) as info:
        run_sweep(spec)
    i, j = _named_point(spec, info.value)
    assert counts == {"matrix": i * spec.axis2.steps + j + 1, "closed_form": 0}
    assert counts["matrix"] > 1


@pytest.mark.parametrize("provenance", ["closed_form", "both"])
@pytest.mark.parametrize("pair", [SectorPair.PM, SectorPair.TOTAL], ids=lambda p: p.value)
def test_a_failing_closed_form_sweep_replays_the_points_up_to_its_first_failure(
    monkeypatch, pair, provenance
):
    # a Gram entry that fails at the third omega fails a batch of halves;
    # the sweep then calls EntangledPair.closed_form point by point up to
    # (2, 0), and names that point with the entry's message
    spec = small_spec(pair=pair, truncation=8)
    # z of the slot u1 = (omega, phi = pi/2) there; no u2 = (sigma, 0) has it
    bad = entangle_circle.CIRCLE_PAIR.record.z(
        states.Mp2Variable(spec.axis1.values()[2]), states.CircleLabel(math.pi / 2.0))
    gram_entries = entangle_circle.gram_entries

    def failing(zu, *args):
        if zu == bad:
            raise ValueError("planted")
        return gram_entries(zu, *args)

    monkeypatch.setattr(entangle_circle, "gram_entries", failing)
    counts = _counting_pair_builds(monkeypatch)
    with pytest.raises(GridDomainError) as info:
        run_sweep(spec, provenance)
    assert str(info.value).endswith("): planted")
    assert _named_point(spec, info.value) == (2, 0)
    assert counts == {"matrix": 0, "closed_form": 2 * spec.axis2.steps + 1}


def test_a_failing_total_slot_is_named_by_the_replay(monkeypatch):
    # the grid reports the grouped total slots' tails, so the replay builds
    # those slots too: one that fails at the third omega names (2, 0)
    spec = small_spec(pair=SectorPair.TOTAL, truncation=8)
    bad = complex(spec.axis1.values()[2])  # z of the slot (omega, phi' = 0)
    batch = states.fock_series_batch

    def failing(zs, *args):
        zs = list(zs)
        if bad in zs:
            raise ValueError("planted")
        return batch(zs, *args)

    monkeypatch.setattr(states, "fock_series_batch", failing)
    states.fock_series.cache_clear()
    counts = _counting_pair_builds(monkeypatch)
    with pytest.raises(GridDomainError) as info:
        run_sweep(spec, "closed_form")
    assert str(info.value).endswith("): planted")
    assert _named_point(spec, info.value) == (2, 0)
    assert counts == {"matrix": 0, "closed_form": 2 * spec.axis2.steps + 1}


def test_a_pair_norm_error_is_raised_unnamed(monkeypatch):
    # the replay names a point whose components or pair builder fail; where
    # the per-point norm fails (at the first point here), its own error is
    # raised as it is
    planted = OverflowError("planted")

    def failing(*args):
        raise planted

    monkeypatch.setattr(entangle_circle, "projections", failing)
    monkeypatch.setattr(entangle_circle, "_projection", failing)
    counts = _counting_pair_builds(monkeypatch)
    with pytest.raises(OverflowError) as info:
        run_sweep(small_spec())
    assert info.value is planted
    assert counts == {"matrix": 1, "closed_form": 0}


@pytest.mark.parametrize("provenance", PROVENANCES)
@pytest.mark.parametrize("pair", [SectorPair.PM, SectorPair.TOTAL], ids=lambda p: p.value)
def test_a_successful_sweep_makes_no_per_point_call(monkeypatch, pair, provenance):
    # nor does it read or fill the fock_series memo
    counts = _counting_pair_builds(monkeypatch)
    states.fock_series.cache_clear()
    run_sweep(small_spec(pair=pair, truncation=8), provenance)
    info = states.fock_series.cache_info()
    assert counts == {"matrix": 0, "closed_form": 0}
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def _counting_record_calls(monkeypatch, family: str) -> dict:
    # the calls a sweep of ``family`` makes to its record's z and amps
    form, components = grids._FAMILY_TABLE[family]
    counts = {"z": 0, "amps": 0}
    record = dataclasses.replace(form.record, **{
        name: _counting(counts, name, getattr(form.record, name)) for name in counts})
    monkeypatch.setitem(
        grids._FAMILY_TABLE, family, (dataclasses.replace(form, record=record), components))
    return counts


@pytest.mark.parametrize(
    ("axes", "provenance"),
    [((("phi", 0.0, 3.0, 64), ("phi_prime", 0.5, 2.5, 64)), "closed_form"),
     (DEFAULT_AXES["circle"], "series")],
    ids=["phi-x-phi-prime-closed-form", "default-series"],
)
def test_a_sweep_evaluates_each_slot_input_once(monkeypatch, axes, provenance):
    # each of the four slot roles reads one axis here, so its (z, amps) are
    # 64 record calls: 256 for the sweep, not one per point and half
    counts = _counting_record_calls(monkeypatch, "circle")
    run_sweep(SweepSpec("circle", SectorPair.PM, AxisSpec(*axes[0]), AxisSpec(*axes[1])),
              provenance)
    assert counts == {"z": 256, "amps": 256}


@pytest.mark.parametrize(("failing", "made"), [(1, 8), (2, 13), (3, 21), (4, 26)],
                         ids=["u1", "u2", "v1", "v2"])
def test_a_failing_slot_batch_leaves_the_later_roles_inputs_unbuilt(monkeypatch, failing, made):
    # each slot is built right after its input item, so where the slot
    # batch of a role fails (the failing-th of u1, u2, v1, v2) the sweep has
    # made the record calls of that role's input item and the earlier
    # roles' only: 8 for one on omega, 5 for one on sigma
    counts = _counting_record_calls(monkeypatch, "circle")
    batches, batch = [], states.fock_series_batch

    def failing_batch(*args):
        batches.append(dict(counts))
        if len(batches) == failing:
            raise ValueError("planted")
        return batch(*args)

    def replay(*args):
        raise GridDomainError("replayed")

    monkeypatch.setattr(states, "fock_series_batch", failing_batch)
    monkeypatch.setattr(grids, "_replay", replay)
    with pytest.raises(GridDomainError, match="^replayed$"):
        run_sweep(SweepSpec("circle", SectorPair.PM, AxisSpec("omega", 0.0, 0.9, 8),
                            AxisSpec("sigma", 0.0, 0.9, 5), truncation=8))
    assert batches[-1] == {"z": made, "amps": made}


def test_a_both_disagreement_makes_no_per_point_call(monkeypatch):
    # the disagreement is a GridDomainError, a ValueError, raised over the
    # kernel's rows and not by them: it is not replayed
    kernel = entangle_circle.pair_closed_form_grid

    def shifted(form, block):
        values, tails = kernel(form, block)
        return values + 1e-3, tails

    monkeypatch.setattr(entangle_circle, "pair_closed_form_grid", shifted)
    counts = _counting_pair_builds(monkeypatch)
    with pytest.raises(GridDomainError, match=r"^series/closed-form disagreement at \("):
        run_sweep(small_spec(pair=SectorPair.PM), "both")
    assert counts == {"matrix": 0, "closed_form": 0}


@pytest.mark.parametrize("error", [ValueError, OverflowError])
@pytest.mark.parametrize(
    ("owner", "name", "provenance"),
    [(states, "fock_series_batch", "series"), (entangle_circle, "projections", "series"),
     (entangle_circle, "gram_halves", "closed_form")],
    ids=["slot-batch", "projections", "gram-halves"],
)
def test_a_fault_only_a_batch_builder_raises_propagates_unchanged(
    monkeypatch, owner, name, provenance, error
):
    # every point passes the replay, so the builder's own exception is
    # raised as it was: not swallowed, and not named as a point's
    planted = error("planted")
    builder = getattr(owner, name)

    def failing(*args):
        # the per-point slots are fock_series_batch's batches of one, which build
        if owner is states and len(args[0]) == 1:
            return builder(*args)
        raise planted

    monkeypatch.setattr(owner, name, failing)
    counts = _counting_pair_builds(monkeypatch)
    spec = small_spec(pair=SectorPair.TOTAL, truncation=8)
    with pytest.raises(error) as info:
        run_sweep(spec, provenance)
    assert info.value is planted
    walked = spec.axis1.steps * spec.axis2.steps
    expected = {"matrix": walked, "closed_form": 0} if provenance == "series" else {
        "matrix": 0, "closed_form": walked}
    assert counts == expected


def _counting_projections(monkeypatch) -> dict:
    # the batches of (u1, v1) rows that entangle_circle.projections takes
    # in a sweep, their rows in all, the u1 and v1 blocks that are views
    # rather than copies (each is a view of its slot block, broadcast to the
    # projection's points), and those of them that are zero-stride along
    # the batch (a slot that reads no axis the projection reads)
    counts = {"batches": 0, "rows": 0, "views": 0, "zero_stride": 0}
    projections = entangle_circle.projections

    def counting(u1, v1):
        (norms, _, _), blocks = u1, (u1[2], v1[2])
        counts["batches"] += 1
        counts["rows"] += len(norms)
        counts["views"] += sum(not block.flags.owndata for block in blocks)
        counts["zero_stride"] += sum(block.strides[0] == 0 for block in blocks)
        return projections(u1, v1)

    monkeypatch.setattr(entangle_circle, "projections", counting)
    return counts


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize(("reverse", "expected"), [(False, 8), (True, 5)],
                         ids=["default-axes", "reversed-axes"])
def test_series_sweep_projects_each_distinct_u1_v1_once(monkeypatch, family, reverse, expected):
    # |u1|^2, mu and |r|^2 depend on (u1, v1) only.  On the default axes
    # both read axis1 (8 distinct pairs on an 8 x 5 grid); reversed, both
    # read axis2 (5), and the row kernel reuses them on every row.
    counts = _counting_projections(monkeypatch)
    (name1, lo1, hi1, _), (name2, lo2, hi2, _) = DEFAULT_AXES[family]
    axes = [AxisSpec(name1, lo1, hi1, 8), AxisSpec(name2, lo2, hi2, 5)]
    if reverse:
        axes = [AxisSpec(name2, lo2, hi2, 8), AxisSpec(name1, lo1, hi1, 5)]
    run_sweep(SweepSpec(family, SectorPair.PP, *axes, truncation=8))
    assert counts == {"batches": 1, "rows": expected, "views": 2, "zero_stride": 0}


@pytest.mark.parametrize(
    ("family", "pair", "axes"),
    [("circle", SectorPair.PP, (("sigma", 0.0, 0.9), ("phi", 0.0, 3.0))),
     ("cat", SectorPair.PM, (("beta", 0.2, 1.9), ("phi_prime", 0.0, 3.0)))],
    ids=["circle-pp-sigma-x-phi", "cat-pm-beta-x-phi_prime"],
)
def test_single_row_block_sweeps_project_each_distinct_u1_v1_once(monkeypatch, family, pair, axes):
    # u2 or v2 reads both axes, so every block is one row, and u1 or v1
    # reads axis2: 7 distinct (u1, v1) on a 5 x 7 grid, projected once per
    # sweep and not once per block; the other of u1 and v1 reads neither
    # axis, so its one slot is broadcast along the batch: no slot block is
    # copied
    counts = _counting_projections(monkeypatch)
    kernel, blocks = entangle_circle.pair_norm_grid, []

    def recording(form, block):
        blocks.append(block)
        return kernel(form, block)

    monkeypatch.setattr(entangle_circle, "pair_norm_grid", recording)
    run_sweep(SweepSpec(family, pair, AxisSpec(*axes[0], 5), AxisSpec(*axes[1], 7), truncation=8))
    shapes = [np.broadcast_shapes(*(a.shape[:2] for item in b for a in item)) for b in blocks]
    assert shapes == [(1, 7)] * 5
    assert counts == {"batches": 1, "rows": 7, "views": 2, "zero_stride": 1}


# how each item of the pair reads the axes: "fixed" neither, "axis1",
# "axis2" or "both".  Series items are (u1, u2, v1, v2, rho), closed-form
# items (half 1, half 2, rho); u1 = (omega, phi), u2 = (sigma, phi'),
# v1 = (omega, phi'), v2 = (sigma, phi), half 1 = (omega, phi, phi'),
# half 2 = (sigma, phi', phi).  The series kernel reads the (u1, v1)
# projection, u2, v2 and the phase of rho; the closed form the halves and
# the phase.  A column is named by its kernel.  The last entry is the rows
# of a block: all 4 of the grid, unless an item reads both axes, then one.
SERIES, CLOSED = "pair_norm_grid", "pair_closed_form_grid"
ROW_LISTS = [
    ("omega", "rho", SERIES, ("axis1", "fixed", "axis1", "fixed", "axis2"), 4),
    ("omega", "rho", CLOSED, ("axis1", "fixed", "axis2"), 4),
    ("rho", "phi", SERIES, ("axis2", "fixed", "fixed", "axis2", "axis1"), 4),
    ("omega", "phi", SERIES, ("both", "fixed", "axis1", "axis2", "fixed"), 1),
    ("sigma", "phi", CLOSED, ("axis2", "both", "fixed"), 1),
]
KERNEL_IDS = {SERIES: "slots", CLOSED: "halves"}
AXES_OF = {"fixed": set(), "axis1": {1}, "axis2": {2}, "both": {1, 2}}


@pytest.mark.parametrize(
    ("name1", "name2", "kernel", "kinds", "rows"), ROW_LISTS,
    ids=[f"{a}x{b}-{KERNEL_IDS[k]}" for a, b, k, *_ in ROW_LISTS],
)
def test_sweep_blocks_shape_each_item_by_the_axes_it_reads(name1, name2, kernel, kinds, rows):
    # each kernel item comes as arrays of shape (rows or 1, 3 or 1), 1 along
    # an axis it does not read; one that does not vary along axis1 is
    # converted once, the same arrays in every block
    spec = SweepSpec(
        "circle", SectorPair.PM, AxisSpec(name1, 0.1, 0.5, 4), AxisSpec(name2, 0.2, 0.6, 3),
        truncation=6,
    )
    form, components = grids._FAMILY_TABLE["circle"]
    fixed = {name: default for name, (default, _) in PARAMETERS["circle"].items()}
    blocks = list(grids._sweep_blocks(spec, form, components, fixed, kernel))
    reads = [AXES_OF[kind] for kind in kinds]
    if kernel == SERIES:
        u1, u2, v1, v2, rho = reads
        reads = [u1 | v1, u2, v2, rho]
    assert len(blocks) == 4 // rows
    for k, axes in enumerate(reads):
        items = [block[k] for block in blocks]
        for arrays in items:
            shape = (rows if 1 in axes else 1, 3 if 2 in axes else 1)
            assert [a.shape[:2] for a in arrays] == [shape] * len(arrays)
        shared = [all(a is b for a, b in zip(arrays, items[0])) for arrays in items]
        assert shared == [True] + [1 not in axes] * (len(blocks) - 1)
    if kernel == SERIES:
        assert [a.shape[2:] for a in blocks[0][1] + blocks[0][2]] == [(), (), (6,)] * 2
    if name1 == "rho":
        (phase,) = blocks[0][-1]
        assert phase.ravel().tolist() == [-1.0 * cmath.exp(1j * v) for v in spec.axis1.values()]


@pytest.mark.parametrize("kernel", [SERIES, CLOSED], ids=KERNEL_IDS.get)
@pytest.mark.parametrize(
    ("name1", "name2"),
    list(dict.fromkeys((a, b) for a, b, *_ in ROW_LISTS)) + [("omega", "arg_omega")],
    ids=lambda name: name,
)
def test_sweep_blocks_build_each_component_once_per_distinct_value(
    monkeypatch, name1, name2, kernel
):
    # a component (first, second, label, label', the phase of rho) is built
    # n1 times a sweep if it reads axis1, n2 if axis2, n1 n2 if both (the
    # first variable on omega x arg_omega) and once if neither, whether the
    # blocks are the whole grid or one row each
    spec = SweepSpec(
        "circle", SectorPair.PM, AxisSpec(name1, 0.1, 0.5, 4), AxisSpec(name2, 0.2, 0.6, 3),
        truncation=6,
    )
    form, components = grids._FAMILY_TABLE["circle"]
    calls = [0] * (len(components) + 1)

    def counted(k, build):
        def counting(*values):
            calls[k] += 1
            return build(*values)
        return counting

    counted_components = tuple(
        (names, counted(k, build)) for k, (names, build) in enumerate(components))
    # the phase's builder is s e^(i rho), one cmath.exp call
    monkeypatch.setattr(grids, "cmath", type("cmath", (), {"exp": counted(-1, cmath.exp)}))
    fixed = {name: default for name, (default, _) in PARAMETERS["circle"].items()}
    list(grids._sweep_blocks(spec, form, counted_components, fixed, kernel))
    sizes = {name1: 4, name2: 3}
    reads = [names for names, _ in components] + [("rho",)]
    assert calls == [math.prod(sizes.get(name, 1) for name in names) for names in reads]


# every (pair, provenance) the coset covers: its closed form's pairs
# under closed_form and both
COSET_CASES = [(pair, provenance) for pair in SectorPair for provenance in PROVENANCES
               if provenance == "series" or pair in grids._CLOSED_FORM_PAIRS["coset"]]
# the fiducial axes, whose first vanishing (x, y) is the point (0, 1), and
# a vanishing (x2, y2), fixed, which fails at the first point
VANISHING_FIDUCIALS = [
    ((("x", 0.0, 1.0, 3), ("y", -1.0, 1.0, 3)), (), "x=0.0, y=0.0"),
    ((("omega", 0.0, 0.5, 3), ("sigma", 0.0, 0.5, 2)), (("x2", 0.0), ("y2", 0.0)),
     "omega=0.0, sigma=0.0"),
]


@pytest.mark.parametrize(("axes", "fixed", "named"), VANISHING_FIDUCIALS,
                         ids=["fiducial-axes", "fixed-x2-y2"])
@pytest.mark.parametrize(("pair", "provenance"), COSET_CASES,
                         ids=[f"{pair.value}-{provenance}" for pair, provenance in COSET_CASES])
def test_a_coset_sweep_names_its_first_vanishing_fiducial_point(
    pair, provenance, axes, fixed, named
):
    spec = SweepSpec("coset", pair, AxisSpec(*axes[0]), AxisSpec(*axes[1]), fixed=fixed,
                     truncation=8)
    with pytest.raises(GridDomainError) as info:
        run_sweep(spec, provenance)
    assert str(info.value) == f"point ({named}): fiducial coefficients (x, y) must not both vanish"


@pytest.mark.parametrize(
    ("flags", "named"),
    [(["--axis1", "x:0:1:3", "--axis2", "y:-1:1:3"], "x=0.0, y=0.0"),
     (["--set", "x2=0", "--set", "y2=0"], "omega=0.0, sigma=0.0")],
    ids=["fiducial-axes", "fixed-x2-y2"],
)
def test_a_vanishing_coset_fiducial_exits_2_naming_the_point(tmp_path, capsys, flags, named):
    out = tmp_path / "x.csv"
    assert main(["coset", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: point ({named}): fiducial coefficients (x, y) must not both vanish\n")
    assert not out.exists()


def test_sweep_blocks_refuse_an_unknown_kernel():
    spec = small_spec()
    form, components = grids._FAMILY_TABLE["circle"]
    fixed = {name: default for name, (default, _) in PARAMETERS["circle"].items()}
    with pytest.raises(ValueError, match="^unknown sweep kernel 'pair_matrix'; use one of "):
        next(grids._sweep_blocks(spec, form, components, fixed, "pair_matrix"))


@pytest.mark.parametrize(
    ("family", "pair", "slots"),
    [("circle", SectorPair.PM, 0), ("coset", SectorPair.MM, 0), ("circle", SectorPair.TOTAL, 4)],
    ids=["circle-pm", "coset-mm", "circle-total"],
)
@pytest.mark.parametrize("axes", [("omega", "sigma"), ("phi", "phi_prime")], ids="x".join)
def test_a_closed_form_sweep_builds_no_projection_and_only_the_totals_slots(
    monkeypatch, family, pair, slots, axes
):
    # a sector closed form reads the Gram halves and the phase, so it builds
    # no slot batch and no projection; the total's also reads its four
    # slots, once each (on phi x phi' each reads one axis), for their tails
    counts = {"fock_series_batch": 0, "projections": 0}
    for owner, name in ((states, "fock_series_batch"), (entangle_circle, "projections")):
        monkeypatch.setattr(owner, name, _counting(counts, name, getattr(owner, name)))
    spec = SweepSpec(family, pair, AxisSpec(axes[0], 0.1, 0.5, 4), AxisSpec(axes[1], 0.2, 0.6, 3),
                     truncation=6)
    run_sweep(spec, "closed_form")
    assert counts == {"fock_series_batch": slots, "projections": 0}


@pytest.mark.parametrize("provenance", PROVENANCES)
@pytest.mark.parametrize("family", ["circle", "coset"])
def test_sweep_builds_each_point_params_once(monkeypatch, family, provenance):
    # a sweep builds no params dataclass in either column, for the circle
    # total too: the series slots and the closed form's Gram halves are
    # built from the pair components.
    counts = {"params": 0}
    for cls in (CirclePairParams, CosetPairParams):
        monkeypatch.setattr(
            cls, "__post_init__", _counting(counts, "params", cls.__post_init__)
        )
    axes = {"axis1": AxisSpec("omega", 0.1, 0.5, 3), "axis2": AxisSpec("sigma", 0.1, 0.5, 2)}
    run_sweep(
        SweepSpec(family=family, pair=SectorPair.PM, truncation=8, **axes),
        provenance=provenance,
    )
    assert counts["params"] == 0
    if family == "circle":
        run_sweep(
            SweepSpec(family=family, pair=SectorPair.TOTAL, truncation=8, **axes),
            provenance=provenance,
        )
        assert counts["params"] == 0


@pytest.mark.parametrize("provenance", ["closed_form", "both"])
def test_unservable_closed_form_sweep_fails_before_any_point(monkeypatch, provenance):
    # the coset closed form covers pp/pm/mm only: the total pair is refused
    # up front, naming the family and the pair rather than a grid point
    owner = importlib.import_module("mp2ent.entangle_coset")
    counts = {"closed_form_coset": 0, "probability_series_coset": 0}
    for name in counts:
        monkeypatch.setattr(owner, name, _counting(counts, name, getattr(owner, name)))
    spec = small_spec(family="coset", pair=SectorPair.TOTAL, fixed=())
    with pytest.raises(ValueError) as info:
        run_sweep(spec, provenance=provenance)
    message = str(info.value)
    assert "coset" in message and "total" in message
    assert "point (" not in message
    assert counts == {"closed_form_coset": 0, "probability_series_coset": 0}


# the full convention is the stripped value times the record's prefactor^4:
# (2pi)^(-1/2) per circle and coset slot, (2pi)^(-1) per cat slot, 1 for the
# cylinder
FULL_SCALE = {
    "circle": (2.0 * math.pi) ** -2,
    "coset": (2.0 * math.pi) ** -2,
    "cat": (2.0 * math.pi) ** -4,
    "cylinder": 1.0,
}


class TestConventions:
    @pytest.mark.parametrize(
        ("family", "provenance"),
        [(family, "series") for family in FAMILIES]
        + [(family, prov) for family in ("circle", "coset") for prov in ("closed_form", "both")],
    )
    @pytest.mark.parametrize("pair", [SectorPair.PP, SectorPair.PM, SectorPair.MM])
    def test_full_scales_the_stripped_grid(self, family, provenance, pair):
        names = list(PARAMETERS[family])[:2]

        def grid(convention):
            spec = SweepSpec(
                family=family, pair=pair, axis1=AxisSpec(names[0], 0.1, 0.8, 3),
                axis2=AxisSpec(names[1], 0.2, 0.7, 4), truncation=30,
                fixed=(("phi", 1.0), ("phi_prime", 0.2), ("rho", 0.8)),
                convention=convention,
            )
            return run_sweep(spec, provenance)

        stripped, full = grid("stripped"), grid("full")
        if family == "cylinder":
            assert np.array_equal(full.values, stripped.values)
            assert full.tail_bound_max == stripped.tail_bound_max
            return
        scale = FULL_SCALE[family]
        assert full.values == pytest.approx(stripped.values * scale, rel=1e-12)
        assert full.tail_bound_max == pytest.approx(stripped.tail_bound_max * scale, rel=1e-12)
        assert full.spec.convention == "full"

    def test_rejects_unknown_convention(self):
        with pytest.raises(ValueError, match="convention"):
            small_spec(convention="bare")


def test_one_version_source():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        config = tomllib.load(fh)
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    attr = config["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "mp2ent.grids.TOOL_VERSION"
    module, name = attr.rsplit(".", 1)
    assert getattr(importlib.import_module(module), name) == mp2ent.__version__
