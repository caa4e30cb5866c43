"""Every module of the package, and every test module, uses each name it
imports."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
SRC = TESTS.parent / "src" / "unrealizer"
MODULES = (sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
           + sorted(TESTS.glob("*.py")))


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module != "__future__":
                    imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize(
    "path", MODULES,
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import queue\nimport threading\nfrom os import sep\nsep\n"
    assert _unused_imports(source) == [(1, "queue"), (2, "threading")]
