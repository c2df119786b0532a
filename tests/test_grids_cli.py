import importlib
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

import mp2ent
from mp2ent.cli import main, parse_axis, parse_number
from mp2ent.entangle_circle import SectorPair
from mp2ent.grids import (
    AxisSpec,
    GridDomainError,
    SweepSpec,
    grid_to_csv,
    grid_to_json,
    read_grid_csv,
    run_sweep,
    write_grid,
)


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

    def test_fixed_domain_checked(self):
        with pytest.raises(GridDomainError):
            small_spec(fixed=(("sigma", 1.2),))


class TestSerialization:
    def test_csv_round_trip_bit_exact(self, tmp_path):
        grid = run_sweep(small_spec(fixed=(("phi", 1.0), ("phi_prime", 0.2), ("rho", 2.0))))
        text = grid_to_csv(grid)
        rows = read_grid_csv(text)
        assert rows.shape == (7 * 5, 3)
        flat = grid.values.reshape(-1)
        assert np.array_equal(rows[:, 2], flat)

    def test_csv_header_and_order(self):
        grid = run_sweep(small_spec())
        lines = grid_to_csv(grid).splitlines()
        assert lines[0] == "axis1,axis2,value"
        # row-major in axis1: the first block holds axis1 = start
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0 and first[1] == 0.0

    def test_write_is_deterministic(self, tmp_path):
        spec = small_spec(fixed=(("phi", 1.0), ("phi_prime", 0.2), ("rho", 2.0)))
        paths = []
        for i in range(2):
            path = tmp_path / f"grid{i}.csv"
            write_grid(run_sweep(spec), str(path), "csv")
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_json_payload_schema(self, tmp_path):
        grid = run_sweep(small_spec())
        payload = json.loads(grid_to_json(grid))
        assert set(payload) == {"spec", "values", "tail_bound_max", "provenance", "tool_version"}
        assert payload["spec"]["family"] == "circle"
        assert len(payload["values"]) == 7 and len(payload["values"][0]) == 5

    def test_sidecar_metadata_holds_timestamp(self, tmp_path):
        path = tmp_path / "g.csv"
        write_grid(run_sweep(small_spec()), str(path), "csv", command="circle")
        meta = json.loads((tmp_path / "g.csv.meta.json").read_text())
        assert "created_at" in meta and meta["command"] == "circle"
        assert "created_at" not in path.read_text()


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
        ],
        ids=["phi-nan", "rho-inf", "trunc-0", "axis-inf"],
    )
    def test_non_finite_or_out_of_range_input_names_the_parameter(
        self, tmp_path, capsys, argv, named
    ):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(argv + ["--axis2", "sigma:0:0.9:3", "--out", str(out)])
        assert rc == 2
        assert named in capsys.readouterr().err
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
            assert np.all(np.isfinite(read_grid_csv(out.read_text())))
        else:
            assert "non-physical label" in capsys.readouterr().err

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

    def test_verify_unreachable_tolerance_exits_3(self, tmp_path):
        rc = main(["verify", "--tol", "1e-30", "--trunc", "20",
                   "--report", str(tmp_path / "r.json")])
        assert rc == 3

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MP2E_OUT_DIR", str(tmp_path))
        rc = main([
            "circle", "--axis1", "omega:0:0.5:3", "--axis2", "sigma:0:0.5:3",
            "--trunc", "10",
        ])
        assert rc == 0
        assert (tmp_path / "circle_pp.csv").exists()
        os.remove(tmp_path / "circle_pp.csv")


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
