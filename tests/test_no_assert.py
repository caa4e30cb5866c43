"""No module of the package checks an invariant with `assert`: `python -O`
strips assert statements, so invariants are explicit raises."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "unrealizer"
MODULES = sorted(SRC.glob("*.py"))


def _assert_lines(source):
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert _assert_lines(path.read_text()) == []


def test_detects_an_assert_statement():
    source = "def f(x):\n    assert x > 0, x\n    return x\n"
    assert _assert_lines(source) == [2]
