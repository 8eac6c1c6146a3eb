"""The docs name only code that exists.

Every backticked dotted ``repro.…`` name in the user-facing docs must
import as a module or resolve as an attribute, every backticked
``….py`` path must name a file of the repo (``file.py::name`` must also
define ``name``), and every method ``docs/api.md`` lists for
``ShmemContext`` must exist on it.  A backticked ``bench_…`` name
must be the stem of a repo ``.py`` file, and a backticked
``benchmarks/results/….txt`` path an archived golden.  ``ROADMAP.md`` and ``CHANGES.md``
are left out: they name deleted code as history.
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
_BENCH = re.compile(r"(?<![\w.])bench_\w+")
_GOLDEN = re.compile(r"benchmarks/results/[\w.-]+\.txt")
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



def test_docs_name_only_existing_benchmark_files():
    stems = {p.stem for p in _PY_FILES}
    stale = set()
    for doc, span in _spans():
        stale.update(f"{doc}: {name}" for name in _BENCH.findall(span) if name not in stems)
        stale.update(f"{doc}: {path}" for path in _GOLDEN.findall(span) if not (ROOT / path).is_file())
    assert not stale, sorted(stale)

# Backticked lowercase names in the ShmemContext section that are not
# methods: the program argument and a collective's parameter.
_NOT_METHODS = {"program", "sync_slot"}
_METHOD = re.compile(r"([a-z_][a-z0-9_]*)(?:\(|$)")


def _shmem_context_section() -> str:
    text = (ROOT / "docs" / "api.md").read_text()
    start = text.index("\n## ShmemContext")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_api_names_only_existing_shmem_context_methods():
    from repro.shmem.context import ShmemContext

    named = set()
    for m in _SPAN.finditer(_shmem_context_section()):
        method = _METHOD.match(m.group(2))
        if method:
            named.add(method.group(1))
    assert named - _NOT_METHODS, "no method names found in docs/api.md's ShmemContext section"
    missing = sorted(n for n in named - _NOT_METHODS if not hasattr(ShmemContext, n))
    assert not missing, missing
