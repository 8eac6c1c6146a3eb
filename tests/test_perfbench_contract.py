"""The names the benchmark's tracer wraps must exist in the program.

``perfbench/tracing.py`` wraps entry points by name (``ENTRIES``) and
reads ``SimStats`` fields by name (``_STATS``).  A rename or deletion
there only shows up as an incorrect traced run, so this test reads both
tables (without importing the benchmark) and checks every name.
"""

import ast
import importlib
from pathlib import Path

import pytest

from repro.simulator.core import SimStats

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _table(name):
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING}")


ENTRIES = _table("ENTRIES")
STATS = _table("_STATS")


def _entry_names():
    for key, modname, clsname, names in ENTRIES:
        for name in names:
            yield pytest.param(modname, clsname, name, id=f"{key}:{name}")


@pytest.mark.parametrize("modname, clsname, name", _entry_names())
def test_wrapped_entry_point_exists(modname, clsname, name):
    mod = importlib.import_module(modname)
    if clsname is None:
        assert callable(getattr(mod, name, None)), f"{modname}.{name}"
    else:
        # The tracer patches the class's own attribute, not an inherited one.
        assert name in vars(getattr(mod, clsname)), f"{modname}.{clsname}.{name}"


def test_job_run_exists():
    from repro.shmem.job import ShmemJob

    assert "run" in vars(ShmemJob)


def test_stats_fields_exist():
    assert STATS, "_STATS is empty"
    missing = [field for field in STATS if field not in SimStats.__slots__]
    assert missing == []
