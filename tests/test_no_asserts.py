"""The library raises its checks (`errors.IntegrityError` and the rest),
so it behaves the same under `python -O`: no `assert` statement in
src/deltapath."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "deltapath"


def test_library_holds_no_assert():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert SRC.is_dir() and not found, found
