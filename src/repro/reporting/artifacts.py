"""Shared JSON artifact envelope + atomic writer.

Every benchmark/CI artifact this repo archives (`BENCH_smoke.json`,
the perf-smoke baseline, the `repro serve` smoke and chaos reports)
used to hand-roll its own ``json.dumps`` + ``write_text``.
That had two costs: no common schema marker for downstream tooling to
dispatch on, and non-atomic writes — a crash (or Ctrl-C) mid-dump
leaves a torn file that later parses as garbage.  This module is the
single source of truth for both concerns:

* :func:`artifact_doc` wraps a payload in the standard envelope
  (``{"schema": "repro/<kind>/v<N>", ...payload}``);
* :func:`write_json_artifact` writes any JSON document atomically
  (write to a temp file in the destination directory, ``os.replace``)
  so readers only ever observe empty-or-complete files;
* :func:`read_json_artifact` loads a document and optionally checks
  the envelope kind, so a gate script fed the wrong report fails
  loudly instead of silently reading zeros.

The ``repro serve`` write-ahead journal (DESIGN.md §10) adds an
append-only flavour of the same concerns:

* :func:`append_ndjson` appends one JSON document as a single
  ``\\n``-terminated line and flushes it, so a killed process loses at
  most the line it was mid-writing — never an earlier one;
* :func:`read_ndjson` streams a journal back, tolerating exactly one
  torn *trailing* line (the mid-write casualty of a crash) while still
  failing loudly on corruption anywhere else.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

#: Every envelope schema id starts with this.
SCHEMA_PREFIX = "repro"


def artifact_doc(kind: str, payload: Dict[str, Any], version: int = 1) -> Dict[str, Any]:
    """Wrap ``payload`` in the standard artifact envelope.

    ``kind`` names the report shape (``serve_chaos``, ``sweep``,
    ``perf_baseline``, ``serve_soak``, ...); the resulting document
    carries ``schema = "repro/<kind>/v<version>"`` as its first key.
    """
    if not kind or "/" in kind:
        raise ValueError(f"artifact kind must be a bare name, got {kind!r}")
    doc: Dict[str, Any] = {"schema": f"{SCHEMA_PREFIX}/{kind}/v{version}"}
    for key, value in payload.items():
        if key == "schema":
            raise ValueError("payload must not carry its own 'schema' key")
        doc[key] = value
    return doc


def write_json_artifact(
    path: Union[str, Path], doc: Dict[str, Any], indent: int = 2
) -> Path:
    """Atomically write ``doc`` as JSON (+ trailing newline) to ``path``.

    The document is serialised first and written to a temporary file in
    the destination directory, then renamed over ``path`` — a reader
    (or a crash) can never observe a half-written artifact.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    body = json.dumps(doc, indent=indent) + "\n"
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def append_ndjson(
    fh, doc: Dict[str, Any], fsync: bool = False
) -> None:
    """Append ``doc`` to an open NDJSON file handle as one line.

    The line is written in a single ``write`` call and flushed, so an
    abrupt process death (SIGKILL) can tear at most this line — bytes
    already flushed reach the OS page cache, which survives the
    process.  Pass ``fsync=True`` to additionally survive machine
    crashes at a large per-append cost.
    """
    fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
    fh.flush()
    if fsync:
        os.fsync(fh.fileno())


def read_ndjson(path: Union[str, Path], tolerate_torn_tail: bool = True):
    """Yield documents from an NDJSON file, skipping a torn last line.

    A crash mid-append leaves at most one incomplete trailing line;
    with ``tolerate_torn_tail`` (the default) that line is silently
    dropped.  An unparsable line anywhere *else* is real corruption
    and raises ``ValueError`` naming the offending line number.
    """
    path = Path(path)
    if not path.exists():
        return
    lines = path.read_text().splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            yield json.loads(line)
        except ValueError:
            if tolerate_torn_tail and lineno == len(lines):
                return
            raise ValueError(f"{path}:{lineno}: corrupt NDJSON record") from None


def read_json_artifact(path: Union[str, Path], kind: Optional[str] = None) -> Dict[str, Any]:
    """Load a JSON artifact, optionally verifying its envelope ``kind``."""
    doc = json.loads(Path(path).read_text())
    if kind is not None:
        schema = doc.get("schema", "")
        if not schema.startswith(f"{SCHEMA_PREFIX}/{kind}/"):
            raise ValueError(
                f"{path}: expected a {kind!r} artifact, got schema {schema!r}"
            )
    return doc
