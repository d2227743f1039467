"""The benchmark's output checks accept correct outputs and reject corrupted ones.

Run from the repository root: ``python3 -m pytest benchmark/tests -q``.
Correct outputs are built here from the closed forms and the sweep's row
layout; one test also reads a real sweep table from scripts/parameter_sweep.py.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402

SQRT_HALF = math.sqrt(0.5)
EXACT = (
    "heisenberg_left_pair", "heisenberg_arm_a", "heisenberg_arm_b",
    "channel_unitary", "channel_projective", "channel_kraus",
    "selective_mixture", "reduced_invariants",
)
REQUEST = dict(t=SQRT_HALF, phi=0.0, seed=3, trials=100, tolerance=1e-9)


def correct_report(alpha: float) -> dict:
    t = REQUEST["t"]
    right = checks.right_cutoff(alpha)
    outcome, probability, contrast = checks.expected_selective(alpha, t)
    return {
        "config": {
            "alpha": {"re": alpha, "im": 0.0},
            "phi": REQUEST["phi"],
            "t": t,
            "r": math.sqrt(1.0 - t * t),
            "cutoffs": {"a1": 1, "b1": 1, "a2": right, "b2": right, "a3": right, "b3": right},
            "seed": REQUEST["seed"],
            "trials": REQUEST["trials"],
            "tolerance": REQUEST["tolerance"],
        },
        "tolerances": {
            name: 1e-10 if name in EXACT else 1e-9 for name in checks.RESIDUAL_NAMES
        },
        "residuals": dict.fromkeys(checks.RESIDUAL_NAMES, 1e-16),
        "selective": {
            "outcome": outcome,
            "probability": probability,
            "conditional_trace_distance": contrast,
        },
        "verdict": "pass",
    }


def verdict_problems(report: dict, alpha: float, status: int = 0) -> list[str]:
    return checks.check_verdict(status, json.dumps(report), alpha=alpha, **REQUEST)


def test_closed_forms_match_the_stated_values():
    _, p, contrast = checks.expected_selective(1.0, SQRT_HALF)
    assert p == pytest.approx(0.75 / math.e, abs=1e-15)
    assert p == pytest.approx(0.2759095808, abs=1e-10)
    assert contrast == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert checks.expected_selective(0.0, SQRT_HALF)[1:] == pytest.approx((0.25, 0.5))
    assert checks.right_cutoff(1.0) == 21  # 22 levels on each right mode
    assert checks.right_cutoff(0.0) == 15  # 16 levels


@pytest.mark.parametrize("alpha", [1.0, 0.0])
def test_correct_report_passes(alpha):
    assert verdict_problems(correct_report(alpha), alpha) == []


def test_residual_above_tolerance_fails():
    report = correct_report(1.0)
    report["residuals"]["structure"] = 2 * report["tolerances"]["structure"]
    assert any("structure" in p for p in verdict_problems(report, 1.0))


def test_invariance_residual_above_limit_fails_even_under_a_loose_tolerance():
    report = correct_report(1.0)
    report["tolerances"]["channel_kraus"] = 1e-6
    report["residuals"]["channel_kraus"] = 1e-8
    assert any("channel_kraus" in p for p in verdict_problems(report, 1.0))


@pytest.mark.parametrize("alpha", [1.0, 0.0])
def test_probability_off_by_1e_6_fails(alpha):
    report = correct_report(alpha)
    report["selective"]["probability"] += 1e-6
    assert any("probability" in p for p in verdict_problems(report, alpha))


def test_wrong_outcome_contrast_cutoff_status_and_json_fail():
    cases = []
    report = correct_report(1.0)
    report["selective"]["outcome"] = {"a2": 0, "b2": 1}
    cases.append(report)
    report = correct_report(1.0)
    report["selective"]["conditional_trace_distance"] = 0.5
    cases.append(report)
    report = correct_report(1.0)
    report["config"]["cutoffs"]["a3"] = 20
    cases.append(report)
    for report in cases:
        assert verdict_problems(report, 1.0)
    assert verdict_problems(correct_report(1.0), 1.0, status=1)
    assert checks.check_verdict(0, "{", alpha=1.0, **REQUEST)


GRID = [(a, t, p) for a in (0.0, 0.5) for t in (0.6, 0.9) for p in (0.0, math.pi / 3, math.pi)]


def sweep_table(grid, gap=lambda i: 0.0) -> str:
    """A table in the sweep script's layout: alpha t phi trace_dist gap verdict."""
    header = f"{'alpha':>7} {'t':>7} {'phi':>7} {'trace_dist':>12} {'gap':>12} verdict"
    lines = [header, "-" * len(header)]
    for i, (alpha, t, phi) in enumerate(grid):
        lines.append(f"{alpha:7.3f} {t:7.4f} {phi:7.4f} {0.0:12.3e} {gap(i):12.3e} pass")
    lines += ["-" * len(header), "worst trace distance 0.000e+00, worst gap 0.000e+00"]
    return "\n".join(lines) + "\n"


def test_correct_sweep_passes():
    assert checks.check_sweep(0, sweep_table(GRID), GRID) == []


def test_missing_grid_row_fails():
    lines = sweep_table(GRID).splitlines()
    del lines[5]
    assert checks.check_sweep(0, "\n".join(lines), GRID)


def test_duplicated_grid_row_fails():
    lines = sweep_table(GRID).splitlines()
    lines.insert(5, lines[5])
    assert checks.check_sweep(0, "\n".join(lines), GRID)


def test_gap_of_1e_6_in_one_row_fails_even_with_a_pass_word():
    table = sweep_table(GRID, gap=lambda i: 1e-6 if i == 7 else 0.0)
    problems = checks.check_sweep(0, table, GRID)
    assert len(problems) == 1 and "gap" in problems[0]


def test_sweep_exit_status_fails():
    assert checks.check_sweep(1, sweep_table(GRID), GRID)


def test_real_sweep_table_passes_and_a_dropped_row_fails():
    grid = [(0.0, 0.6, 0.0), (0.0, 0.6, math.pi)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "parameter_sweep.py"),
         "--alphas", "0.0", "--ts", "0.6", "--phis", f"0.0,{math.pi!r}", "--trials", "5"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert checks.check_sweep(proc.returncode, proc.stdout, grid) == []
    kept = "\n".join(line for line in proc.stdout.splitlines() if "3.1416" not in line)
    assert checks.check_sweep(proc.returncode, kept, grid)
