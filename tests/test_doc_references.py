"""The docs name only code that exists.

Every backticked dotted ``repro.…`` name in the user-facing docs must
import as a module or resolve as an attribute, and every backticked
``….py`` path must name a file of the repo (``file.py::name`` must also
define ``name``).  ``ROADMAP.md`` and ``CHANGES.md`` are left out: they
name deleted code as history.
"""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    *sorted(str(p.relative_to(ROOT)) for p in (ROOT / "docs").glob("*.md")),
    "examples/README.md",
]

_SPAN = re.compile(r"(`+)([^`]+?)\1")
_NAME = re.compile(r"\brepro(?:\.\w+)+")
_PATH = re.compile(r"([\w./-]+\.py)(?:::(\w+))?")
_PY_FILES = sorted(p.relative_to(ROOT) for p in ROOT.rglob("*.py") if ".git" not in p.parts)


def _spans():
    for doc in DOCS:
        for m in _SPAN.finditer((ROOT / doc).read_text()):
            yield doc, m.group(2)


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            return False
    return True


def _repo_file(path: str):
    """The repo's ``.py`` file that ``path`` names, relative to the root
    or as a tail of a longer path (``fastpath.py``, ``msg/engine.py``)."""
    for candidate in _PY_FILES:
        if f"/{candidate.as_posix()}".endswith(f"/{path}"):
            return ROOT / candidate
    return None


def test_docs_name_only_importable_repro_names():
    stale = sorted(
        {f"{doc}: {name}" for doc, span in _spans() for name in _NAME.findall(span) if not _resolves(name)}
    )
    assert not stale, stale


def test_docs_name_only_existing_py_paths():
    stale = set()
    for doc, span in _spans():
        for path, name in _PATH.findall(span):
            found = _repo_file(path)
            if found is None:
                stale.add(f"{doc}: {path}")
            elif name and not re.search(rf"^\s*(?:def|class) {name}\b", found.read_text(), re.M):
                stale.add(f"{doc}: {path}::{name}")
    assert not stale, sorted(stale)
