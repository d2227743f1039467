"""Command line contract: flags, exit codes, emission, determinism."""
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from kalamidas.cli import main

CLI = [sys.executable, "-m", "kalamidas"]
QUICK_ARGS = [
    "--alpha-re", "0",
    "--cutoff", "a2=3", "--cutoff", "b2=3", "--cutoff", "a3=3", "--cutoff", "b3=3",
    "--trials", "3",
]
REPO = Path(__file__).parents[1]

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
    return subprocess.run(argv, capture_output=True, text=True, timeout=600)


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


def test_forced_failure_exits_1():
    proc = _run("--tolerance", "1e-30")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["verdict"] == "fail"


def test_failing_checks_are_named_on_stderr(capsys):
    assert main(QUICK_ARGS + ["--tolerance", "1e-30"]) == 1
    out, err = capsys.readouterr()
    doc = json.loads(out)
    over = {
        name: (res, doc["tolerances"][name])
        for name, res in doc["residuals"].items()
        if res > doc["tolerances"][name]
    }
    assert set(over) == {"structure", "left_oracle"}
    assert err.splitlines() == [
        f"{name}: {res:.3e} > {tol:.3e}" for name, (res, tol) in over.items()
    ]
    assert main(QUICK_ARGS) == 0
    assert capsys.readouterr().err == ""


def _declared_script_help():
    """Run ``kalamidas --help`` through the entry point that pyproject.toml
    declares, loaded from this source tree."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    value = project["scripts"]["kalamidas"]
    pythonpath = os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", _ENTRY_POINT_CHILD, value],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": pythonpath},
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
    # an 11.6 MB state whose (a2, a3) splitter would be a dense 90601 x 90601 matrix
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
