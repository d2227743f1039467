"""The scripts' command lines: bad input is refused with exit 2 before any
output, a valid sweep prints its table, and the scan ranks as the report does."""
import subprocess
import sys
from pathlib import Path

import pytest

from kalamidas import ExperimentConfig, run_experiment

SCRIPTS = Path(__file__).parents[1] / "scripts"
SWEEP = SCRIPTS / "parameter_sweep.py"
SCAN = SCRIPTS / "selective_scan.py"
ONE_POINT = ["--alphas", "0", "--ts", "0.6", "--phis", "0", "--trials", "3"]


def _run(script, *args):
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize(
    "script, args",
    [
        (SWEEP, ["--alphas", "0", "--ts", "1.5", "--phis", "0"]),
        (SWEEP, ONE_POINT + ["--tolerance", "inf"]),
        (SWEEP, ONE_POINT + ["--trials", "0"]),
        (SWEEP, ["--alphas", "0", "--ts", "0.6,1.5", "--phis", "0", "--trials", "3"]),
        (SCAN, ["--t", "1.5"]),
        (SCAN, ["--alpha-re", "nan"]),
        (SWEEP, ["--alphas", "50", "--ts", "0.6", "--phis", "0"]),
        (SCAN, ["--alpha-re", "50"]),
    ],
    ids=[
        "sweep-t", "sweep-tolerance", "sweep-trials", "sweep-late-point", "scan-t",
        "scan-alpha", "sweep-memory", "scan-memory",
    ],
)
def test_bad_input_exits_2_before_any_output(script, args):
    proc = _run(script, *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")


def test_one_point_sweep_prints_its_table():
    proc = _run(SWEEP, *ONE_POINT)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["alpha", "t", "phi", "trace_dist", "gap", "verdict"]
    assert lines[2].split()[:3] == ["0.000", "0.6000", "0.0000"]
    assert lines[2].endswith("pass")
    assert lines[-1] == (
        "all points within their tolerance, base 1e-09 + leakage: no signaling observed"
    )


def test_scan_names_the_reports_selective_outcome():
    proc = _run(SCAN, "--alpha-re", "0", "--top", "2")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    first = tuple(int(n) for n in lines[2].split()[:2])
    assert first == (0, 1)
    assert lines[5].startswith(f"top outcome {first}:")
    outcome = run_experiment(ExperimentConfig(alpha=0.0, trials=3)).selective["outcome"]
    assert (outcome["a2"], outcome["b2"]) == first
