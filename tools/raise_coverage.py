"""List the ``raise`` statements in ``src/ual`` that no tier-1 test executes.

Usage, from the repository root::

    python tools/raise_coverage.py [pytest arguments]

The tier-1 suite (``pytest -q`` over ``tests/``, or the given arguments)
runs in this process under a ``sys.settrace`` line trace of the frames whose
code lives in ``src/ual``; every other frame runs untraced. Then each
``raise`` statement of ``src/ual`` none of whose lines ran is printed as
``src/ual/<file>:<line>: <source>``, followed by a count. Lines that run only
in a child process (the CLI tests that start ``python -m ual.cli``) are not
seen. The traced suite runs about twice as slowly as the plain one. This is
a survey tool, not a gate: it exits with the suite's status.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ual"


def raise_spans(path: Path) -> list[tuple[int, int]]:
    """The first and last line of each ``raise`` statement in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted((node.lineno, node.end_lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Raise))


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``args`` and return its status and the lines run per file."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}
    files: dict[str, set[int] | None] = {}  # co_filename -> its line set, None when not ours

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = os.path.abspath(name)
            files[name] = ran.setdefault(path, set()) if path.startswith(prefix) else None
        lines = files[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(status), ran


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    status, ran = traced_run(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path), set())
        source = path.read_text(encoding="utf-8").splitlines()
        for first, last in raise_spans(path):
            if not lines.intersection(range(first, last + 1)):
                unrun.append(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    print("\n".join(unrun))
    print(f"{len(unrun)} raise statement(s) in src/ual never run (pytest status {status})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
