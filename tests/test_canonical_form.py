"""Only `semilinear` builds `LinearSet` and `SemiLinearSet` values.

The semiring's fast paths (`extend` and `combine` returning an operand,
products built without `linset`) are exact only because every value is
canonical: built by `sls`/`linset`, or by the operations of its own
module.  A module that called either constructor directly could make a
value with unsorted, duplicate or zero generators."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "unrealizer"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "semilinear.py")
CONSTRUCTORS = {"LinearSet", "SemiLinearSet"}


def _constructor_calls(source):
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else \
            f.attr if isinstance(f, ast.Attribute) else None
        if name in CONSTRUCTORS:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_values_are_built_only_by_the_semilinear_module(path):
    assert _constructor_calls(path.read_text()) == []


def test_detects_a_constructor_call():
    source = ("from . import semilinear as sl\n"
              "from .semilinear import LinearSet\n"
              "a = sl.SemiLinearSet(())\n"
              "b = LinearSet((0,), ((0,),))\n"
              "c = sl.linset((0,))\n")
    assert _constructor_calls(source) == [3, 4]
