"""The scripts under ``scripts/`` run end to end at tiny sizes."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_scripts_run_at_tiny_sizes(tmp_path):
    surfaces = run_script("emit_figure_surfaces.py", "--steps", "4", "--outdir", str(tmp_path))
    assert surfaces.returncode == 0, surfaces.stderr
    csvs = sorted(tmp_path.glob("*.csv"))
    assert len(csvs) == 12
    for path in csvs:
        lines = path.read_text().splitlines()
        assert lines[0] == "axis1,axis2,value"
        assert len(lines) == 1 + 4 * 4
        assert Path(f"{path}.meta.json").exists()

    curves = run_script("degenerate_theta_curves.py", "--steps", "3")
    assert curves.returncode == 0, curves.stderr
    lines = curves.stdout.splitlines()
    assert lines[0].split() == [
        "rho", "pp_theta", "pp_oracle", "pm_theta", "pm_oracle", "mm_theta", "mm_oracle",
    ]
    assert len(lines) == 1 + 3


def test_golden_digests_match_the_committed_file():
    # the committed digests are the output's bytes: a mismatch names its case
    check = run_script("golden_digests.py", "--check")
    assert check.returncode == 0, check.stderr
    assert check.stdout == "261 digests match\n"


def test_golden_digest_check_names_the_first_differing_case(tmp_path):
    digests = json.loads((ROOT / "tests" / "golden_digests.json").read_text())
    names = list(digests)
    digests[names[7]] = "0" * 64
    digests[names[9]] = "0" * 64
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(digests))
    check = run_script("golden_digests.py", "--check", "--path", str(path))
    assert check.returncode == 1
    assert check.stderr.startswith(f"first differing case: {names[7]} (stored {'0' * 64}, ")
    del digests[names[7]], digests[names[9]]
    path.write_text(json.dumps(digests))
    check = run_script("golden_digests.py", "--check", "--path", str(path))
    assert check.returncode == 1
    assert check.stderr.startswith(f"first differing case: {names[7]} (stored None, ")
