"""The public surface: the names the package exports and the names the
benchmark's tracer wraps. The tracer only warns when a name it wraps is
missing, and its per-layer figures then read 0, so a rename would go unseen
without this check."""
import importlib
import importlib.util
from pathlib import Path

import kalamidas

TRACER = Path(__file__).parents[1] / "benchmark" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    missing = []
    for module_name, names in _traced().items():
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
