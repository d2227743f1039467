"""The public surface: the names the package exports, the names the
benchmark's tracer wraps, the rule that the package holds only what its
front-ends run, and which front ends load SciPy.

The tracer only warns when a name it wraps is missing, and its per-layer
figures then read 0, so a rename would go unseen without these checks; its
count hooks read attributes of the package's objects, so a traced run is made
here too. A function or class, public or private, that only the tests call
belongs in the tests' helper module, ``fock``, not in the package; the
six-mode reference the tracer wraps is the one exception, and no front end
may call it."""
import ast
import importlib
import importlib.util
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import child_env

import kalamidas
import kalamidas.cli
import kalamidas.experiment
from kalamidas import hilbert
from kalamidas.hilbert import LEFT_LABELS

REPO = Path(__file__).parents[1]
TRACER = REPO / "benchmark" / "tracer.py"
PACKAGE = REPO / "src" / "kalamidas"
SCRIPTS = REPO / "scripts"

TOY_ARGS = [
    "--alpha-re", "0",
    "--cutoff", "a2=3", "--cutoff", "b2=3", "--cutoff", "a3=3", "--cutoff", "b3=3",
    "--trials", "3",
]


def _tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = []
    for module_name, names in _tracer().TRACED.items():
        module = importlib.import_module(f"kalamidas.{module_name}")
        for name in names:
            owner = module
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"kalamidas.{module_name}.{name}")
    assert not missing


def test_all_lists_existing_names_once():
    names = kalamidas.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(kalamidas, name)] == []


def _names_in(node):
    """Every name a piece of code reads: bare names and attributes."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def _unread(private):
    """The top-level functions and classes of the package modules, public or
    private, that no other top-level statement of the package (``__init__``
    aside) or of a script reads and the tracer does not wrap. Imports do not
    count as reads."""
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    statements = [(stmt, _names_in(stmt)) for tree in modules.values() for stmt in tree.body]
    for path in sorted(SCRIPTS.glob("*.py")):
        statements.append((None, _names_in(ast.parse(path.read_text(encoding="utf-8")))))
    traced = {
        (module, name.partition(".")[0])
        for module, names in _tracer().TRACED.items()
        for name in names
    }
    return [
        f"{module}.{stmt.name}"
        for module, tree in modules.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") == private
        and (module, stmt.name) not in traced
        and not any(stmt.name in names for other, names in statements if other is not stmt)
    ]


def test_every_public_definition_is_run_by_the_package_or_a_script():
    """A public top-level function or class of a package module must be read
    by another top-level statement of the package or by a script, or be
    wrapped by the tracer."""
    assert _unread(private=False) == []


def test_every_private_definition_is_read_by_the_package_or_a_script():
    """A private top-level helper that only the tests read, such as an old
    name kept for them, belongs in the tests, not in the package."""
    assert _unread(private=True) == []


def test_no_script_imports_a_private_name_of_the_package():
    """The scripts are front ends of the package's public surface: no
    ``from kalamidas... import _name``, and no private module of it."""
    private = []
    for path in sorted(SCRIPTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kalamidas"):
                names = node.module.split(".") + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [
                    part for alias in node.names if alias.name.startswith("kalamidas")
                    for part in alias.name.split(".")
                ]
            else:
                continue
            private += [f"{path.name}: {name}" for name in names if name.startswith("_")]
    assert private == []


def _warn_callers(node, owner=None):
    """The innermost function around each ``warnings.warn`` call under
    node, None at module level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _warn_callers(child, child.name)
            continue
        if isinstance(child, ast.Call) and ast.unparse(child.func) == "warnings.warn":
            yield owner
        yield from _warn_callers(child, owner)


def test_the_package_calls_warnings_warn_in_one_function():
    """Every warning of the package goes through ``experiment._warn``, so
    one rule says which frame a warning names."""
    callers, imports = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callers += [f"{path.stem}.{owner}" for owner in _warn_callers(tree)]
        imports += [
            path.stem for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "warnings"
        ]
    assert callers == ["experiment._warn"]
    assert imports == []


def test_the_tracer_runs_against_the_package(tmp_path):
    tracer = _tracer()
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    status = kalamidas.cli.main(TOY_ARGS + ["--emit", str(plain)])
    config = kalamidas.ExperimentConfig(
        alpha=0.0, cutoffs={"a2": 3, "b2": 3, "a3": 3, "b3": 3}, trials=3
    )
    recorder = tracer.Tracer()
    with recorder.installed(0):
        assert kalamidas.cli.main(TOY_ARGS + ["--emit", str(traced)]) == status
        kalamidas.experiment.left_states_over_phases(config, [0.0, 1.0], True)
    metrics = recorder.metrics()
    assert metrics["cli.main.calls"] == 1
    assert {name: metrics[name] for name in tracer.COUNT_NAMES if metrics[name] <= 0} == {}
    assert traced.read_bytes() == plain.read_bytes()


# The six-mode reference the tracer pins by name: importable where it is,
# called by the tests alone.
SIX_MODE_REFERENCE = {
    "experiment": (
        "evolve", "initial_state_bare", "initial_state_with_coherent", "direct_final_state",
    ),
    "nosignal": ("reduce_left",),
}


def test_no_front_end_calls_the_six_mode_reference(monkeypatch, capsys, tmp_path):
    """With every name of the six-mode reference raising, in every module
    that holds it, the toy-config CLI, a one-point sweep and the scan still
    succeed, and none of them constructs a state on a space with a left
    mode."""
    def refused(*args, **kwargs):
        raise AssertionError("a front end called the six-mode reference")

    modules = [kalamidas] + [importlib.import_module(f"kalamidas.{m}") for m in _tracer().TRACED]
    for names in SIX_MODE_REFERENCE.values():
        for name in names:
            for module in modules:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refused)
    init = hilbert.PureState.__init__
    spaces = []

    def recorded(self, spec, *args, **kwargs):
        spaces.append(spec.modes)
        init(self, spec, *args, **kwargs)

    monkeypatch.setattr(hilbert.PureState, "__init__", recorded)
    assert kalamidas.cli.main(TOY_ARGS + ["--emit", str(tmp_path / "r.json")]) == 0
    one_point = ["--alphas", "0.5", "--ts", "0.6", "--phis", "0", "--trials", "3"]
    for script, argv in (("parameter_sweep.py", one_point), ("selective_scan.py", ["--top", "2"])):
        monkeypatch.setattr(sys, "argv", [str(SCRIPTS / script), *argv])
        with pytest.raises(SystemExit) as done:
            runpy.run_path(str(SCRIPTS / script), run_name="__main__")
        assert done.value.code == 0
    capsys.readouterr()
    assert spaces  # the arm-pair vectors are states too
    assert [modes for modes in spaces if set(modes) & set(LEFT_LABELS)] == []


# Runs a script, or a module such as the CLI, as __main__ with the given
# arguments, then prints whether any SciPy module is loaded.
_RUN_THEN_PROBE = """
import runpy, sys
target, *sys.argv[1:] = sys.argv[1:]
run = runpy.run_path if target.endswith(".py") else runpy.run_module
try:
    run(target, run_name="__main__")
except SystemExit as done:
    assert not done.code, done.code
print("scipy loaded:", any(m.partition(".")[0] == "scipy" for m in sys.modules))
"""


def _loads_scipy(target, *argv):
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_THEN_PROBE, target, *argv],
        capture_output=True, text=True, timeout=600, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "scipy loaded: True"


def test_scipy_loads_for_the_haar_draws_alone(tmp_path):
    """SciPy serves the Haar draws' QR (and the tests' dense references):
    importing the package and building a config, a one-point sweep and the
    scan never load it; a verdict, which draws, does."""
    config = tmp_path / "config.py"
    config.write_text("import kalamidas\nkalamidas.ExperimentConfig(alpha=1.0)\n")
    one_point = ["--alphas", "0.5", "--ts", "0.6", "--phis", "0", "--trials", "3"]
    assert not _loads_scipy(str(config))
    assert not _loads_scipy(str(SCRIPTS / "parameter_sweep.py"), *one_point)
    assert not _loads_scipy(str(SCRIPTS / "selective_scan.py"), "--top", "2")
    assert _loads_scipy("kalamidas", *TOY_ARGS, "--emit", str(tmp_path / "r.json"))
