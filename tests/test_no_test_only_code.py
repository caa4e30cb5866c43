"""Every function, class, method and module-level name defined in the
package is reached from the package itself or from the benchmark in
`perfbench/`.

A name is reached when some code mentions it outside its own definition:
as a name, an attribute, an imported name, or a string (the benchmark's
tracer looks attributes up by their names).  The benchmark's own tests
in `perfbench/tests/` do not count.  Code that only tests reach belongs
under `tests/`; the names the README's "Library use" section documents,
and `format_problem`, are kept for library callers.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "unrealizer"
PERFBENCH = ROOT / "perfbench"

LIBRARY_API = {
    "clia.solve", "clia.SolveResult.value", "cegis.check_unrealizable",
    "cegis.run_cegis", "frontend.parse_problem", "grammar.ExampleSet",
    "cegis.Verdict.to_json", "frontend.format_problem",
}


def _definitions(tree):
    """(qualified name, name, first line, last line) of the top-level
    functions, classes and assigned names and of the non-dunder methods
    of the top-level classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.name, node.lineno, node.end_lineno))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                for name in ast.walk(t):
                    if (isinstance(name, ast.Name)
                            and not name.id.startswith("__")):
                        out.append((name.id, name.id, node.lineno,
                                    node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    out.append((f"{node.name}.{item.name}", item.name,
                                item.lineno, item.end_lineno))
    return out


def _mentions(tree):
    """(name, line) of every identifier the code mentions."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.value, node.lineno))
    return out


def unreached(sources, checked):
    """Names defined in the `checked` files of `sources` (path -> source
    text) that no file mentions outside the definition itself."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    mentions = [(name, path, line) for path, tree in trees.items()
                for name, line in _mentions(tree)]
    out = []
    for path in checked:
        module = Path(path).stem
        for qualname, name, first, last in _definitions(trees[path]):
            if f"{module}.{qualname}" in LIBRARY_API:
                continue
            if not any(m == name and not (p == path and first <= line <= last)
                       for m, p, line in mentions):
                out.append(f"{path}:{first} {name}")
    return out


def test_src_defines_only_what_the_commands_reach():
    checked = sorted(str(p.relative_to(ROOT)) for p in SRC.glob("*.py"))
    readers = sorted(str(p.relative_to(ROOT)) for p in PERFBENCH.glob("*.py"))
    sources = {path: (ROOT / path).read_text() for path in checked + readers}
    assert unreached(sources, checked) == []


def test_detects_a_definition_nothing_else_mentions():
    lib = ("def used(n):\n"
           "    return n\n"
           "def only_tests(n):\n"
           "    return only_tests(n - 1) if n else used(0)\n"
           "class Box:\n"
           "    def __repr__(self):\n"
           "        return 'Box'\n"
           "    def unused(self):\n"
           "        return 1\n"
           "    def named(self):\n"
           "        return 2\n"
           "LIMIT, SPARE = 3, 4\n"
           "TABLE: dict = {'k': LIMIT}\n"
           "ALONE = ALONE_TOO = 5\n")
    bench = ("from lib import Box, TABLE\ngetattr(Box(), 'named')\n"
             "print(ALONE_TOO)\n")
    assert unreached({"lib.py": lib, "bench.py": bench}, ["lib.py"]) == \
        ["lib.py:3 only_tests", "lib.py:8 unused", "lib.py:12 SPARE",
         "lib.py:14 ALONE"]
    # the library API is kept without a caller, under its module's name
    api = "def format_problem(p):\n    return p\n"
    assert unreached({"frontend.py": api}, ["frontend.py"]) == []
    assert unreached({"other.py": api}, ["other.py"]) == \
        ["other.py:1 format_problem"]
