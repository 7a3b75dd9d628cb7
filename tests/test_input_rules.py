"""Each rule for reading an input file lives in one function of ``src/ual``.

``numerics.open_data_file`` is the only caller of the builtin ``open`` and of
``os.remove``, which removes a failed output file, and each error that
opening, decoding or parsing a file raises is caught in one place, so that
every reader names the file (and the line) the same way.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ual"
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scopes_holding(predicate) -> set[str]:
    """``module.function`` (``module.Class.method``) of each function in
    ``src/ual`` that directly holds a node passing ``predicate``."""
    found = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if predicate(child):
                found.add(scope)
            walk(child, f"{scope}.{child.name}" if isinstance(child, _SCOPES) else scope)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def _calls_open(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "open")


def _calls_os_remove(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "remove" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "os")


def _catches(name: str):
    """A predicate: ``node`` is an ``except`` clause whose types include ``name``."""
    def predicate(node) -> bool:
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            return False
        names = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(node.type) if isinstance(n, ast.Attribute)}
        return name in names
    return predicate


def test_only_open_data_file_calls_open():
    assert _scopes_holding(_calls_open) == {"numerics.open_data_file"}


def test_only_open_data_file_removes_a_file():
    assert _scopes_holding(_calls_os_remove) == {"numerics.open_data_file"}


@pytest.mark.parametrize("error,scopes", [
    ("OSError", {"numerics.open_data_file", "cli._out_dir"}),
    ("UnicodeDecodeError", {"numerics._decode"}),
    ("JSONDecodeError", {"numerics.parse_json"}),
])
def test_each_read_error_is_caught_in_one_place(error, scopes):
    assert _scopes_holding(_catches(error)) == scopes
