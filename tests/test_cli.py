"""Command line contract: flags, exit codes, emission, determinism."""
import contextlib
import io
import json
import os
import resource
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import child_env

from kalamidas import CutoffAdequacyWarning, experiment
from kalamidas.cli import build_parser, main
from kalamidas.experiment import SQRT_HALF

CLI = [sys.executable, "-m", "kalamidas"]
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
QUICK_ARGS = [
    "--alpha-re", "0",
    "--cutoff", "a2=3", "--cutoff", "b2=3", "--cutoff", "a3=3", "--cutoff", "b3=3",
    "--trials", "3",
]
# alpha = 1 below the adequacy rule: its truncation bound is of order 1e-2
RIGHT_8_ARGS = [
    "--alpha-re", "1", "--t", "0.6",
    "--cutoff", "a2=8", "--cutoff", "b2=8", "--cutoff", "a3=8", "--cutoff", "b3=8",
    "--trials", "3",
]
REPO = Path(__file__).parents[1]
# the six-mode reference that no run calls (see test_public_names)
SIX_MODE_NAMES = ("evolve", "initial_state_bare", "initial_state_with_coherent", "direct_final_state")
SWEEP = REPO / "scripts" / "parameter_sweep.py"

# What an installed console-script wrapper does: load the entry point, then
# exit with the return value of calling it on the process arguments.
_ENTRY_POINT_CHILD = """\
import sys
from importlib.metadata import EntryPoint
value = sys.argv[1]
sys.argv = ["kalamidas", "--help"]
main = EntryPoint(name="kalamidas", value=value, group="console_scripts").load()
sys.exit(main())
"""


def _run(*extra, args=None):
    argv = CLI + (list(args) if args is not None else QUICK_ARGS) + list(extra)
    return subprocess.run(argv, capture_output=True, text=True, timeout=600, env=child_env())


def test_quick_run_exits_zero_with_json_report():
    proc = _run()
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "pass"
    assert doc["config"]["cutoffs"]["a3"] == 3


def test_t_out_of_range_exits_2_and_names_the_constraint():
    proc = _run("--t", "1.2")
    assert proc.returncode == 2
    assert "[0, 1]" in proc.stderr


def test_unknown_flag_exits_2():
    proc = _run("--warp-factor", "9")
    assert proc.returncode == 2


def test_unsupported_format_exits_2():
    proc = _run("--format", "yaml")
    assert proc.returncode == 2


@pytest.mark.parametrize("bad", ["a3", "q7=3", "a3=three"])
def test_malformed_cutoff_exits_2(bad):
    proc = _run(args=["--cutoff", bad])
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_emit_writes_file_and_keeps_stdout_clean(tmp_path):
    target = tmp_path / "report.json"
    proc = _run("--emit", str(target))
    assert proc.returncode == 0
    assert proc.stdout == ""
    doc = json.loads(target.read_text())
    assert doc["verdict"] == "pass"


def test_repeated_runs_are_byte_identical():
    first = _run("--seed", "7")
    second = _run("--seed", "7")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


@pytest.mark.parametrize("args", [["--alpha-re", "0"], QUICK_ARGS], ids=["alpha=0", "toy"])
def test_the_report_does_not_depend_on_the_blas_thread_count(args):
    """run_experiment runs at one BLAS thread whatever the environment
    sets, so the CLI prints the same bytes at one and two threads; at
    alpha = 0 the Haar draws' QR rounds differently at two threads."""
    outputs = []
    for threads in ("1", "2"):
        env = {**child_env(), **dict.fromkeys(BLAS_THREADS, threads)}
        proc = subprocess.run(CLI + args, capture_output=True, text=True, timeout=600, env=env)
        assert proc.returncode == 0
        assert proc.stderr == ""
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_main_runs_at_one_blas_thread_and_restores_the_counts(
    blas_thread_counts, monkeypatch, capsys
):
    """The CLI's run goes through run_experiment's pin: its stages read one
    thread for both libraries, and both counts are back after main."""
    during = []
    stage = experiment.heisenberg_residuals

    def recording(*args):
        during.append(blas_thread_counts())
        return stage(*args)

    monkeypatch.setattr(experiment, "heisenberg_residuals", recording)
    assert main(QUICK_ARGS) == 0
    capsys.readouterr()
    assert during == [[1, 1]]
    assert blas_thread_counts() == [2, 2]


def test_a_python_caller_gets_the_cli_report_bytes():
    """run_experiment pins its own BLAS thread count, so at two threads a
    Python caller's report is the CLI's stdout, byte for byte."""
    env = {**child_env(), **dict.fromkeys(BLAS_THREADS, "2")}
    code = (
        "import sys; from kalamidas import ExperimentConfig, run_experiment; "
        "sys.stdout.write(run_experiment(ExperimentConfig(alpha=1.0)).to_json() + '\\n')"
    )
    outputs = []
    for argv in ([sys.executable, "-c", code], CLI + ["--alpha-re", "1"]):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_a_missing_blas_thread_setter_is_named_once_and_the_run_goes_on(monkeypatch, capsys):
    """Where a library exports no thread-count setter, run_experiment warns
    once, attributed to the first calling frame outside the package (this
    test), and the CLI run still passes."""
    monkeypatch.setattr(experiment, "_blas_thread_controls", lambda: ((), False))
    with pytest.warns(RuntimeWarning) as caught:
        assert main(QUICK_ARGS) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
    notices = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(notices) == 1
    assert "BLAS thread count" in str(notices[0].message)
    assert notices[0].filename == __file__


def test_a_missing_blas_thread_setter_names_no_file_of_the_package():
    code = (
        "import sys; from kalamidas import cli, experiment; "
        "experiment._blas_thread_controls = lambda: ((), False); "
        f"sys.exit(cli.main({QUICK_ARGS!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=600, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning: could not set the BLAS thread count" in proc.stderr
    assert str(REPO / "src" / "kalamidas") not in proc.stderr
    assert "cli.py" not in proc.stderr and "experiment.py" not in proc.stderr


def test_forced_failure_exits_1():
    proc = _run("--tolerance", "1e-30")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["verdict"] == "fail"


def test_failing_checks_are_named_on_stderr(capsys):
    """At alpha = 1, t = 0.6 and right cutoffs 8 the no-signaling rows read
    rounding of order 1e-33, so a tolerance of 1e-40 fails several rows:
    each is named on stderr, in report order."""
    with pytest.warns(CutoffAdequacyWarning):
        assert main(RIGHT_8_ARGS + ["--tolerance", "1e-40"]) == 1
    out, err = capsys.readouterr()
    doc = json.loads(out)
    over = {
        name: (res, doc["tolerances"][name])
        for name, res in doc["residuals"].items()
        if res > doc["tolerances"][name]
    }
    assert set(over) == {"trace_distance", "signaling_gap", "left_oracle"}
    assert err.splitlines() == [
        f"{name}: {res:.3e} > {tol:.3e}" for name, (res, tol) in over.items()
    ]
    assert main(QUICK_ARGS) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("ignore::kalamidas.CutoffAdequacyWarning")
@pytest.mark.parametrize(
    "args, zero",
    [
        (QUICK_ARGS + ["--t", repr(SQRT_HALF)], True),
        (QUICK_ARGS + ["--t", "0.6"], True),
        (QUICK_ARGS + ["--t", "0.8"], True),
        (["--alpha-re", "0", "--t", "0.6", "--cutoff", "b3=0"], False),
        (RIGHT_8_ARGS, False),
    ],
    ids=["t=sqrt_half", "t=0.6", "t=0.8", "b3=0", "alpha=1,right-8"],
)
def test_left_oracle_reads_zero_on_the_toy_config_and_takes_the_base_tolerance(
    args, zero, capsys
):
    """On the toy config the branches' Gram matrix, normalized, is exactly
    I / 2 at every t, so the oracle reads 0.0. Its tolerance is the base
    --tolerance alone, also at b3=0 and at alpha = 1 with right cutoffs 8,
    where the truncation bound widens the structure tolerance."""
    main(args + ["--tolerance", "1e-30"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["tolerances"]["left_oracle"] == 1e-30
    if zero:
        assert doc["residuals"]["left_oracle"] == 0.0
    if args is RIGHT_8_ARGS:
        assert doc["tolerances"]["structure"] > 1e-6


def test_readme_cli_table_lists_the_parsers_flags():
    """The flags in README's ``## CLI reference`` table, in order, are the
    parser's option strings, ``-h``/``--help`` aside."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI reference\n", 1)[1].split("\n## ", 1)[0]
    table = [
        line.split("|")[1].strip().strip("`")
        for line in section.splitlines()
        if line.startswith("| `-")
    ]
    flags = [
        option
        for action in build_parser()._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    ]
    assert table == flags


def test_readme_python_quick_start_runs():
    """The first Python block under README's ``## Quick start`` runs as
    written, prints the verdict ``pass``, and then the trace distance of the
    two six-mode reductions, at rounding."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    verdict, distance = out.getvalue().splitlines()
    assert verdict.split()[0] == "pass"
    assert float(distance) <= 1e-12


def _declared_script_help():
    """Run ``kalamidas --help`` through the entry point that pyproject.toml
    declares, loaded from this source tree."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    value = project["scripts"]["kalamidas"]
    return subprocess.run(
        [sys.executable, "-c", _ENTRY_POINT_CHILD, value],
        capture_output=True, text=True, timeout=120, env=child_env(),
    )


def test_console_script_is_installed():
    proc = _declared_script_help()
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: kalamidas")
    assert "--cutoff MODE=N" in proc.stdout


@pytest.mark.skipif(
    shutil.which("kalamidas") is None,
    reason="no kalamidas executable on PATH; install the package to run this",
)
def test_installed_executable_matches_declared_entry_point():
    proc = subprocess.run(
        ["kalamidas", "--help"], capture_output=True, text=True, timeout=120
    )
    declared = _declared_script_help()
    assert proc.returncode == declared.returncode == 0
    assert proc.stdout == declared.stdout


def test_main_returns_exit_codes_in_process(tmp_path, capsys):
    target = tmp_path / "r.json"
    code = main(QUICK_ARGS + ["--emit", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["verdict"] == "pass"
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["--t", "2"]) == 2


class _BatteryReached(Exception):
    """Raised in place of run_experiment, to stop main at the battery."""


def _stop_at_battery(monkeypatch):
    def reached(config):
        raise _BatteryReached

    monkeypatch.setattr("kalamidas.cli.run_experiment", reached)


@pytest.mark.parametrize("where", ["missing_dir/r.json", "."])
def test_unwritable_emit_exits_2_before_the_battery(tmp_path, capsys, monkeypatch, where):
    _stop_at_battery(monkeypatch)
    target = str(tmp_path / where)
    assert main(QUICK_ARGS + ["--emit", target]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert target in err
    assert "Traceback" not in err


@pytest.mark.parametrize("alpha", ["50", "1e200"])
def test_oversized_alpha_exits_2_before_allocating(capsys, monkeypatch, alpha):
    _stop_at_battery(monkeypatch)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert main(["--alpha-re", alpha]) == 2
    grown_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "alpha" in err
    assert grown_kb < 16 * 1024


def test_oversized_pair_operator_exits_2_before_allocating(capsys, monkeypatch):
    # an 11.6 MB state whose (a2, a3) channels would be dense 90601 x 90601 matrices
    _stop_at_battery(monkeypatch)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    argv = ["--alpha-re", "0", "--cutoff", "a2=300", "--cutoff", "a3=300",
            "--cutoff", "b2=1", "--cutoff", "b3=0", "--trials", "3"]
    assert main(argv) == 2
    grown_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "mode pairs" in err
    assert grown_kb < 16 * 1024


# Runs the CLI in a grandchild and prints its resident peak in KiB.
_CLI_PEAK = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "kalamidas", *sys.argv[1:]], check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5])
def test_a_verdict_peaks_within_its_memory_charge(alpha, tmp_path, monkeypatch):
    """The memory gate charges a verdict at least the resident peak of the
    CLI that runs it: on a machine whose physical memory were that peak, it
    would refuse the run. At alpha = 0 and 0.5 (charges 71.0 and 79.9 MiB)
    the fixed overheads outside the battery set most of the peak; at 1.5
    (124.8 MiB) the battery does."""
    argv = ["--alpha-re", repr(alpha), "--emit", str(tmp_path / "r.json")]
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_PEAK, *argv],
        capture_output=True, text=True, timeout=600, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    peak = int(proc.stdout.split()[-1]) * 1024
    sysconf = os.sysconf
    pages = peak // sysconf("SC_PAGE_SIZE")
    monkeypatch.setattr(
        os, "sysconf", lambda name: pages if name == "SC_PHYS_PAGES" else sysconf(name)
    )
    with pytest.raises(ValueError, match="physical memory"):
        experiment.check_pair_memory(experiment.ExperimentConfig(alpha=alpha))


def test_oversized_trials_exit_2_before_allocating(capsys, monkeypatch):
    """An oversized --trials neither trips nor masks the memory gate: on a
    point too large to hold, 1e10 trials exit 2 before allocating, with the
    error of the same point at --trials 3, which names no trials."""
    _stop_at_battery(monkeypatch)
    errors = []
    for trials in ("3", "10000000000"):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert main(["--alpha-re", "50", "--trials", trials]) == 2
        grown_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        errors.append(capsys.readouterr().err)
        assert grown_kb < 16 * 1024
    assert errors[0].startswith("error:")
    assert "trials" not in errors[0]
    assert errors[1] == errors[0]


def test_trials_is_validated_and_otherwise_ignored(tmp_path, capsys, monkeypatch):
    """No stage reads --trials: at 1e10 the toy config writes the report of
    --trials 3 with only config.trials changed, and the sweep prints the same
    table; fewer than one trial is still a usage error."""
    few, many = tmp_path / "few.json", tmp_path / "many.json"
    assert main(QUICK_ARGS + ["--emit", str(few)]) == 0
    assert main(QUICK_ARGS + ["--trials", "10000000000", "--emit", str(many)]) == 0
    assert json.loads(many.read_text())["config"]["trials"] == 10**10
    assert many.read_bytes().replace(b'"trials": 10000000000', b'"trials": 3') == few.read_bytes()
    capsys.readouterr()
    assert main(QUICK_ARGS + ["--trials", "0"]) == 2
    assert capsys.readouterr().err == "error: trials must be >= 1\n"

    tables = []
    for trials in ("3", "10000000000"):
        argv = ["--alphas", "0,0.5", "--ts", "0.6", "--phis", "0,1", "--trials", trials]
        monkeypatch.setattr(sys, "argv", [str(SWEEP), *argv])
        with pytest.raises(SystemExit) as done:
            runpy.run_path(str(SWEEP), run_name="__main__")
        assert done.value.code == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]


def test_alpha_two_passes_the_memory_check(monkeypatch):
    _stop_at_battery(monkeypatch)
    with pytest.raises(_BatteryReached):
        main(["--alpha-re", "2"])


@pytest.mark.parametrize("tolerance", ["inf", "1e400"])
def test_infinite_tolerance_exits_2_before_the_battery(capsys, monkeypatch, tolerance):
    _stop_at_battery(monkeypatch)
    assert main(QUICK_ARGS + ["--tolerance", tolerance]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "tolerance" in err


def test_zero_right_cutoffs_run_without_a_traceback(capsys):
    # no pair sector is exactly representable at cutoff 0, so the Heisenberg
    # residuals of the arm splitters read 0; at t = 0.6 the photon reflected
    # into b3 is cut, structure reads 0.283 inside its truncation bound of
    # sqrt2, and a base tolerance below rounding fails the run cleanly
    argv = ["--alpha-re", "0", "--trials", "3", "--cutoff", "a3=0", "--cutoff", "b3=0"]
    assert main(argv + ["--t", "1"]) == 0
    out, err = capsys.readouterr()
    residuals = json.loads(out)["residuals"]
    assert residuals["heisenberg_arm_a"] == residuals["heisenberg_arm_b"] == 0
    assert err == ""
    argv = ["--alpha-re", "0", "--trials", "3", "--t", "0.6", "--cutoff", "b3=0"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["residuals"]["structure"] == pytest.approx(0.2828427, abs=1e-7)
    assert doc["truncation"]["structure_bound"] == pytest.approx(2**0.5, abs=1e-15)
    assert main(argv + ["--tolerance", "1e-30"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("left_oracle: ") and err.endswith(" > 1.000e-30\n")


def test_scan_with_no_outcome_above_the_floor_exits_2():
    # at cutoff 1 on a3 and b3 the alpha = 4 state keeps a norm squared of
    # 3.7e-12, and no (a2, b2) outcome reaches the 1e-12 floor
    proc = _run(args=["--alpha-re", "4", "--cutoff", "a3=1", "--cutoff", "b3=1"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert "floor 1e-12" in errors[0]


def test_scan_with_no_outcome_exits_2_before_any_six_mode_state(capsys, monkeypatch):
    """The scan runs on the arm-pair vectors right after the Heisenberg
    checks, and a run whose scan is empty exits 2 with every six-mode
    reference name raising."""
    def refused(*args):
        raise AssertionError("a six-mode reference was called")

    for name in SIX_MODE_NAMES:
        monkeypatch.setattr(experiment, name, refused)
    monkeypatch.setattr("kalamidas.nosignal.reduce_left", refused)
    assert main(["--alpha-re", "4", "--cutoff", "a3=1", "--cutoff", "b3=1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and "floor 1e-12" in err


def test_adequacy_warning_names_no_file_of_the_package():
    """Run as the program, the CLI names itself, not a package file and not
    the interpreter's frame that started it."""
    proc = _run(args=["--alpha-re", "0.5", "--cutoff", "a3=0"])
    assert "CutoffAdequacyWarning" in proc.stderr
    assert str(REPO / "src" / "kalamidas") not in proc.stderr
    assert "experiment.py" not in proc.stderr
    assert "<frozen" not in proc.stderr
    assert proc.stderr.startswith("kalamidas: CutoffAdequacyWarning: right-mode cutoffs ['a3']")


def test_other_errors_inside_the_battery_are_not_exit_2(monkeypatch):
    def broken(config):
        raise ValueError("a fault inside the battery")

    monkeypatch.setattr("kalamidas.cli.run_experiment", broken)
    with pytest.raises(ValueError, match="inside the battery"):
        main(QUICK_ARGS)
