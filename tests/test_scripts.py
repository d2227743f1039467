"""The scripts' command lines: bad input is refused with exit 2 before any
output, a valid sweep prints its table, and the scan ranks as the report does."""
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import child_env

from kalamidas import (
    MODE_LABELS, ExperimentConfig, cli, experiment, hilbert, nosignal, run_experiment,
)
from kalamidas.optics import _splitter_matrix

SCRIPTS = Path(__file__).parents[1] / "scripts"
SWEEP = SCRIPTS / "parameter_sweep.py"
SCAN = SCRIPTS / "selective_scan.py"
ONE_POINT = ["--alphas", "0", "--ts", "0.6", "--phis", "0", "--trials", "3"]
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run(script, *args):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, timeout=600, env=child_env(),
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
        (SWEEP, ["--alphas", "50", "--ts", "0.6", "--phis", "0", "--trials", "10000000000"]),
        (SCAN, ["--alpha-re", "50"]),
        (SWEEP, ["--alphas", "", "--ts", "0.6", "--phis", "0"]),
        (SWEEP, ["--alphas", "0", "--ts", " , ", "--phis", "0"]),
        (SWEEP, ["--alphas", "0", "--ts", "0.6", "--phis", ""]),
        (SCAN, ["--top", "0"]),
        (SCAN, ["--top", "-1"]),
    ],
    ids=[
        "sweep-t", "sweep-tolerance", "sweep-trials", "sweep-late-point", "scan-t",
        "scan-alpha", "sweep-memory", "sweep-trials-memory", "scan-memory", "sweep-no-alphas", "sweep-no-ts",
        "sweep-no-phis", "scan-top-zero", "scan-top-negative",
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
        "all points within the tolerance 1e-09 on normalized left states: no signaling observed"
    )


@pytest.mark.parametrize(
    "tolerance, printed",
    [("1.5e-9", "1.5e-09"), ("2.5e-10", "2.5e-10"), ("1.2345678901e-9", "1.2345678901e-09")],
)
def test_sweep_summary_prints_the_base_tolerance_as_given(tolerance, printed, monkeypatch, capsys):
    """The summary spells the base so that it reads back as the same float."""
    monkeypatch.setattr(sys, "argv", [str(SWEEP), *ONE_POINT, "--tolerance", tolerance])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SWEEP), run_name="__main__")
    assert done.value.code == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert f"the tolerance {printed} on normalized left states" in summary
    assert float(printed) == float(tolerance)


def test_a_nan_residual_fails_the_report_the_cli_and_the_sweep(monkeypatch, capsys):
    """With the trace-distance row patched to read NaN, the one rule that
    judges a row (``experiment.failing``) fails it for every reader: the
    verdict is fail, the CLI exits 1 naming the row on stderr and writes
    it as null in a report that a strict JSON parser reads, and the sweep
    prints FAIL for the point, nan as its worst trace distance, and exits 1."""
    stated = experiment.no_signaling_rows

    def nan_trace_distance(config, rho_with, rho_bare):
        (name, _, tol), gap = stated(config, rho_with, rho_bare)
        return (name, math.nan, tol), gap

    monkeypatch.setattr("kalamidas.experiment.no_signaling_rows", nan_trace_distance)
    toy = {m: 3 for m in ("a2", "b2", "a3", "b3")}
    report = run_experiment(ExperimentConfig(alpha=0.0, cutoffs=toy, trials=3))
    assert report.verdict == "fail"
    assert [name for name, _, _ in experiment.failing(report.checks)] == ["trace_distance"]

    toy_args = [arg for m, c in toy.items() for arg in ("--cutoff", f"{m}={c}")]
    assert cli.main(["--alpha-re", "0", *toy_args, "--trials", "3"]) == 1
    out, err = capsys.readouterr()
    assert err == "trace_distance: nan > 1.000e-09\n"

    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")

    written = json.loads(out, parse_constant=refuse)
    assert written["residuals"]["trace_distance"] is None
    assert written["verdict"] == "fail"

    monkeypatch.setattr(sys, "argv", [str(SWEEP), *ONE_POINT])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SWEEP), run_name="__main__")
    assert done.value.code == 1
    out = capsys.readouterr().out
    ((_, line),) = _table_rows(out)
    assert line.split()[3] == "nan"
    assert line.endswith("FAIL")
    *_, worst, verdict = out.splitlines()
    assert worst.startswith("worst trace distance nan, worst gap ")
    assert verdict == "1 point(s) not within the tolerance 1e-09 on normalized left states"


def _table_rows(stdout):
    """The (alpha, t, phi) columns and the full text of each table row."""
    lines = stdout.splitlines()
    end = lines.index(lines[1], 2)  # the closing rule
    return [(tuple(line.split()[:3]), line) for line in lines[2:end]]


GRID = {"alphas": (0.0, 0.5), "ts": (0.6, 0.9), "phis": (0.0, 1.0)}
GRID_ARGS = [
    arg for name, values in GRID.items() for arg in (f"--{name}", ",".join(map(str, values)))
]


def test_sweep_prints_one_row_per_point_nested_alpha_t_phi():
    proc = _run(SWEEP, *GRID_ARGS, "--trials", "3")
    assert proc.returncode == 0
    expected = [
        (f"{alpha:.3f}", f"{t:.4f}", f"{phi:.4f}")
        for alpha in GRID["alphas"]
        for t in GRID["ts"]
        for phi in GRID["phis"]
    ]
    rows = _table_rows(proc.stdout)
    assert [key for key, _ in rows] == expected
    assert all(line.endswith("pass") for _, line in rows)


def test_sweep_repeated_phi_prints_identical_rows():
    proc = _run(SWEEP, "--alphas", "0.5", "--ts", "0.6", "--phis", "0,0", "--trials", "3")
    assert proc.returncode == 0
    rows = _table_rows(proc.stdout)
    assert len(rows) == 2
    assert rows[0][1] == rows[1][1]


def test_sweep_builds_each_splitter_once(monkeypatch, capsys):
    """Per (alpha, t) the sweep needs the arm splitter at the config's
    cutoffs, which both preparations share, and no left splitter: its left
    states are the branches' Gram matrices. The cache must build each
    exactly once over the pass."""
    keys = set()
    for alpha in GRID["alphas"]:
        for t in GRID["ts"]:
            config = ExperimentConfig(alpha=alpha, t=t)
            arm = config.cutoffs_map["a2"] + 1, config.cutoffs_map["a3"] + 1
            keys.add((arm, math.atan2(config.r, config.t)))
    monkeypatch.setattr(sys, "argv", [str(SWEEP), *GRID_ARGS, "--trials", "3"])
    _splitter_matrix.cache_clear()
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SWEEP), run_name="__main__")
    assert done.value.code == 0
    assert "no signaling observed" in capsys.readouterr().out
    assert _splitter_matrix.cache_info().misses == len(keys)


BENCHMARK_GRID = {"alphas": (0.0, 0.5), "ts": (0.6, 0.9), "phis": (0.0, math.pi / 3, math.pi)}
BENCHMARK_GRID_ARGS = [
    arg
    for name, values in BENCHMARK_GRID.items()
    for arg in (f"--{name}", ",".join(map(repr, values)))
]


def test_a_warm_sweep_pass_builds_no_splitter_operator(monkeypatch, capsys):
    """Over the benchmark grid (2 alpha x 2 t x 3 phi) the first pass builds
    one validated operator per distinct (pair space, theta), both arms' per
    (alpha, t) and no left pair's, and the second pass builds none: every
    splitter it asks for is the operator already built over the cached
    blocks."""
    wanted = set()
    for alpha in BENCHMARK_GRID["alphas"]:
        for t in BENCHMARK_GRID["ts"]:
            config = ExperimentConfig(alpha=alpha, t=t)
            spec = config.hilbert_spec()
            arm_theta = math.atan2(config.r, config.t)
            wanted.add((spec.subspace(("a2", "a3")), arm_theta))
            wanted.add((spec.subspace(("b2", "b3")), arm_theta))
    init = hilbert.LinearOperator.__init__
    built = []

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(hilbert.LinearOperator, "__init__", recorded)
    monkeypatch.setattr(sys, "argv", [str(SWEEP), *BENCHMARK_GRID_ARGS, "--trials", "25"])
    _splitter_matrix.cache_clear()  # so the first pass builds every splitter and its operator
    per_pass = []
    for _ in range(2):
        built.clear()
        with pytest.raises(SystemExit) as done:
            runpy.run_path(str(SWEEP), run_name="__main__")
        assert done.value.code == 0
        assert "no signaling observed" in capsys.readouterr().out
        per_pass.append(list(built))
    first, second = per_pass
    assert second == []  # nor any other operator
    assert _splitter_matrix.cache_info().misses == 4

    def key(op):
        """The wanted (pair space, theta) whose cache entry keeps the operator
        over its blocks."""
        found = []
        for sub, theta in wanted:
            blocks, operators = _splitter_matrix(sub.dims, theta)
            if operators.get(sub) is op and op.blocks[0][1] is blocks[0][1]:
                found.append((sub, theta))
        (only,) = found
        return only

    keys = [key(op) for op in first]
    assert len(keys) == len(set(keys)) == len(wanted) == 8
    assert set(keys) == wanted


def test_an_alpha_0_group_builds_its_left_states_once(monkeypatch, capsys):
    """At alpha = 0 the bare preparation is the injected one, so the group's
    left states serve as both; every other group builds both."""
    build = experiment.left_states_over_phases
    calls = []

    def counted(config, phis, injected):
        calls.append((config.alpha, config.t, injected))
        return build(config, phis, injected)

    argv = ["--alphas", "0,0.5", "--ts", "0.6", "--phis", "0,1", "--trials", "3"]
    monkeypatch.setattr(experiment, "left_states_over_phases", counted)
    monkeypatch.setattr(sys, "argv", [str(SWEEP), *argv])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SWEEP), run_name="__main__")
    assert done.value.code == 0
    assert "no signaling observed" in capsys.readouterr().out
    assert calls == [(0, 0.6, True), (0.5, 0.6, True), (0.5, 0.6, False)]


def test_no_run_draws_a_left_observable(monkeypatch, capsys, tmp_path):
    """The gap and oracle rows are exact, so neither a CLI verdict nor a
    sweep pass over 2 alpha x 2 t x 3 phi draws a random observable."""
    draw = nosignal.random_left_observable
    draws = []

    def counted(spec, seed):
        draws.append(seed)
        return draw(spec, seed)

    monkeypatch.setattr(nosignal, "random_left_observable", counted)
    toy = ["--alpha-re", "0", "--seed", "8191"] + [
        arg for m in ("a2", "b2", "a3", "b3") for arg in ("--cutoff", f"{m}=3")
    ]
    assert cli.main(toy + ["--emit", str(tmp_path / "r.json")]) == 0
    phis = ",".join(map(str, (0.0, math.pi / 3, math.pi)))
    argv = ["--alphas", "0,0.5", "--ts", "0.6,0.9", "--phis", phis, "--seed", "8191"]
    monkeypatch.setattr(sys, "argv", [str(SWEEP), *argv])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SWEEP), run_name="__main__")
    assert done.value.code == 0
    assert "no signaling observed" in capsys.readouterr().out
    assert draws == []


def test_sweep_builds_no_six_mode_state(monkeypatch, capsys):
    """A sweep pass takes its left states from arm-pair vectors: no state
    over all six modes is constructed (the full evolution builds 24 on this
    grid of 2 alpha x 2 t x 3 phi)."""
    init = hilbert.PureState.__init__
    modes = []

    def recorded(self, spec, *args, **kwargs):
        modes.append(spec.modes)
        init(self, spec, *args, **kwargs)

    phis = ",".join(map(str, (0.0, math.pi / 3, math.pi)))
    argv = ["--alphas", "0,0.5", "--ts", "0.6,0.9", "--phis", phis, "--trials", "25"]
    monkeypatch.setattr(hilbert.PureState, "__init__", recorded)
    monkeypatch.setattr(sys, "argv", [str(SWEEP), *argv])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SWEEP), run_name="__main__")
    assert done.value.code == 0
    assert "no signaling observed" in capsys.readouterr().out
    assert modes  # the pair vectors are states too
    assert MODE_LABELS not in modes


def test_sweep_table_does_not_depend_on_the_blas_thread_count():
    """The default sweep, alpha = 2 sweep rows and the scan at alpha = 1
    print the same bytes at one and at two BLAS threads. The alpha = 2 row at
    phi = pi/3 tells vdot overlaps from a matrix product's, which BLAS may
    split across threads."""
    runs = [
        [str(SWEEP)],
        [str(SWEEP), "--alphas", "2", "--ts", "0.9", "--phis", "0,1.0471975511965976"],
        [str(SCAN), "--alpha-re", "1", "--top", "1000"],
    ]
    for args in runs:
        outputs = []
        for threads in ("1", "2"):
            env = {**child_env(), **dict.fromkeys(BLAS_THREADS, threads)}
            proc = subprocess.run(
                [sys.executable, *args], capture_output=True, text=True, timeout=600, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], args


def test_scan_names_the_reports_selective_outcome():
    proc = _run(SCAN, "--alpha-re", "0", "--top", "2")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    first = tuple(int(n) for n in lines[2].split()[:2])
    assert first == (0, 1)
    assert lines[5].startswith(f"top outcome {first}:")
    outcome = run_experiment(ExperimentConfig(alpha=0.0, trials=3)).selective["outcome"]
    assert (outcome["a2"], outcome["b2"]) == first


def test_scan_with_no_outcome_above_the_floor_exits_2(monkeypatch, capsys):
    # the scan takes no cutoffs, so the defaults it reads are undersized on
    # a3 and b3 to those of the CLI's alpha = 4 run, where no outcome reaches
    # the floor
    default_cutoffs = experiment.default_cutoffs

    def undersized(alpha):
        return {**default_cutoffs(alpha), "a3": 1, "b3": 1}

    monkeypatch.setattr(experiment, "default_cutoffs", undersized)
    monkeypatch.setattr(sys, "argv", [str(SCAN), "--alpha-re", "4"])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCAN), run_name="__main__")
    assert done.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "floor 1e-12" in err
    assert len(err.splitlines()) == 1


def test_scan_builds_no_six_mode_state(monkeypatch, capsys):
    def refused(*args):
        raise AssertionError("a six-mode state was built")

    monkeypatch.setattr(experiment, "evolve", refused)
    monkeypatch.setattr(experiment, "initial_state_with_coherent", refused)
    monkeypatch.setattr(sys, "argv", [str(SCAN), "--alpha-re", "1", "--top", "3"])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCAN), run_name="__main__")
    assert done.value.code == 0
    assert capsys.readouterr().out.splitlines()[2].split()[:2] == ["0", "0"]


class _Admitted(Exception):
    """Raised in place of the first stage after a script's memory gate."""


def _physical_memory(monkeypatch, gib):
    """Make os.sysconf report ``gib`` GiB of physical memory."""
    sysconf = os.sysconf
    pages = round(gib * 2**30 / sysconf("SC_PAGE_SIZE"))
    monkeypatch.setattr(
        os, "sysconf", lambda name: pages if name == "SC_PHYS_PAGES" else sysconf(name)
    )


def test_no_front_end_charges_a_six_mode_state(monkeypatch, capsys):
    """On 7.84 GiB at alpha = 5.5 (cutoffs 73) the scripts and the CLI,
    none of which builds a six-mode state, are admitted on one dense
    operator on their largest mode pair. Nothing past the gates runs.
    Refused at alpha = 50, each error names the pair operators and no
    amplitudes."""
    def admitted(*args, **kwargs):
        raise _Admitted

    monkeypatch.setattr(experiment, "left_states_over_phases", admitted)
    monkeypatch.setattr(experiment, "selective_ranking", admitted)
    monkeypatch.setattr(cli, "run_experiment", admitted)
    _physical_memory(monkeypatch, 7.84)
    assert ExperimentConfig(alpha=5.5).cutoffs_map["a2"] == 73
    for script, argv in [
        (SWEEP, ["--alphas", "5.5", "--ts", "0.6", "--phis", "0"]),
        (SCAN, ["--alpha-re", "5.5"]),
    ]:
        monkeypatch.setattr(sys, "argv", [str(script), *argv])
        with pytest.raises(_Admitted):
            runpy.run_path(str(script), run_name="__main__")
    with pytest.raises(_Admitted):
        cli.main(["--alpha-re", "5.5"])
    capsys.readouterr()

    assert cli.main(["--alpha-re", "50"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "mode pairs" in err
    assert "amplitudes" not in err

    for script, argv in [
        (SWEEP, ["--alphas", "50", "--ts", "0.6", "--phis", "0"]),
        (SCAN, ["--alpha-re", "50"]),
    ]:
        monkeypatch.setattr(sys, "argv", [str(script), *argv])
        with pytest.raises(SystemExit) as done:
            runpy.run_path(str(script), run_name="__main__")
        assert done.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "mode pairs" in err
        assert "amplitudes" not in err
