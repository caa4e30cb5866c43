"""Problem files: a small s-expression dialect for synthesis problems.

A problem declares one function to synthesize, its grammar, and a
quantifier-free specification relating the function's output to its
inputs.  The specification may use the full relational vocabulary
(= < <= > >= distinct); grammars are restricted to the solver alphabet.
"""

from dataclasses import dataclass

from . import grammar as gr
from . import logic
from .grammar import (
    BOOL, INT, PLUS, SPELLING, Production, Rtg, Symbol, leaf, num, plus, var,
)

OUT = "%out"  # stand-in for the synthesized function's output in spec atoms

_LOGICS = ("LIA", "CLIA")
_CLIA_ONLY = {"IfThenElse", "And", "Not", "LessThan"}


class ParseError(Exception):
    def __init__(self, message, line=None, col=None):
        self.line, self.col = line, col
        where = f"line {line}, col {col}: " if line is not None else ""
        super().__init__(where + message)


@dataclass(frozen=True)
class Problem:
    name: str
    grammar: Rtg
    spec: logic.LiaFormula
    variables: tuple[str, ...]
    options: dict

    @property
    def logic_name(self):
        return self.options.get("logic", "CLIA")


@dataclass(frozen=True)
class PointSpec:
    """Specification specialized to concrete inputs: one formula per example,
    each over its own output coordinate o1, o2, ..."""

    formulas: tuple[logic.LiaFormula, ...]

    def conjunction(self):
        return logic.conj(*self.formulas)

    def evaluate(self, outputs):
        env = {o: int(v) for o, v in zip(logic.output_names(len(outputs)),
                                         outputs)}
        return all(logic.evaluate(f, env) for f in self.formulas)


# --- s-expression reader ----------------------------------------------------

@dataclass(frozen=True)
class _Node:
    kind: str  # "int", "sym" or "list"
    value: object
    line: int
    col: int


def read_numeral(word, line=None, col=None):
    """The integer `word` writes as ASCII -?[0-9]+, or None for any other
    word; a ParseError (at `line`, `col`) past the interpreter's digit
    limit."""
    digits = word[1:] if word[:1] == "-" else word
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(word)
    except ValueError:
        raise ParseError(f"numeral of {len(digits)} digits is too long",
                         line, col) from None


def _tokenize(text):
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        ch = text[i]
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            line, col = line + 1, 1
            i += 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if ch in "()":
            yield (ch, ch, line, col)
            i, col = i + 1, col + 1
            continue
        j = i
        while j < n and text[j] not in " \t\r\n();":
            j += 1
        word = text[i:j]
        value = read_numeral(word, line, col)
        if value is not None:
            yield ("int", value, line, col)
        else:
            yield ("sym", word, line, col)
        col += j - i
        i = j


# Deepest list nesting accepted.  The passes after parsing recurse once or
# twice per level, so this keeps them well inside the interpreter's default
# recursion limit of 1000 frames.
MAX_DEPTH = 256


def parse_sexprs(text):
    stack, top = [], []
    marks = []
    for kind, value, line, col in _tokenize(text):
        if kind == "(":
            if len(stack) == MAX_DEPTH:
                raise ParseError(f"nesting deeper than {MAX_DEPTH} levels",
                                 line, col)
            stack.append(top)
            marks.append((line, col))
            top = []
        elif kind == ")":
            if not stack:
                raise ParseError("unbalanced ')'", line, col)
            node = _Node("list", tuple(top), *marks.pop())
            top = stack.pop()
            top.append(node)
        else:
            top.append(_Node(kind, value, line, col))
    if stack:
        line, col = marks[-1]
        raise ParseError("unclosed '('", line, col)
    return tuple(top)


def _expect_sym(node, what):
    if node.kind != "sym":
        raise ParseError(f"expected {what}", node.line, node.col)
    return node.value


# --- grammar parsing --------------------------------------------------------

_SORTS = {"Int": INT, "Bool": BOOL}


def _parse_sort(node):
    name = _expect_sym(node, "a sort")
    if name not in _SORTS:
        raise ParseError(f"unknown sort {name!r}", node.line, node.col)
    return _SORTS[name]


def _negated_numeral(node):
    """-n for a node `(- n)` on a numeral n, the SMT-LIB spelling of a
    negative constant; None for any other node."""
    if node.kind != "list" or len(node.value) != 2:
        return None
    op, arg = node.value
    if op.kind != "sym" or op.value != SPELLING[gr.MINUS] or arg.kind != "int":
        return None
    return -arg.value


def _parse_arg(node, nts, variables):
    if node.kind == "int":
        return leaf(num(node.value))
    n = _negated_numeral(node)
    if n is not None:
        return leaf(num(n))
    name = _expect_sym(node, "a nonterminal, variable or literal")
    if name in nts:
        return name
    if name in variables:
        return leaf(var(name))
    raise ParseError(f"unknown symbol {name!r}", node.line, node.col)


def _parse_production(lhs, node, nts, variables):
    if node.kind != "list" or _negated_numeral(node) is not None:
        arg = _parse_arg(node, nts, variables)
        if isinstance(arg, str):
            return Production(lhs, None, (arg,))
        return Production(lhs, arg.symbol, ())
    items = node.value
    if not items or items[0].kind != "sym":
        raise ParseError("expected an operator application", node.line, node.col)
    op = items[0].value
    args = tuple(_parse_arg(a, nts, variables) for a in items[1:])
    kind = next((k for k, s in SPELLING.items() if s == op), None)
    if kind is None:
        raise ParseError(f"unknown grammar operator {op!r}",
                         node.line, node.col)
    if kind == PLUS:
        if len(args) < 2:
            raise ParseError("'+' needs at least two arguments",
                             node.line, node.col)
        return Production(lhs, plus(len(args)), args)
    sym = Symbol(kind)
    if len(args) != sym.rank:
        raise ParseError(f"{op!r} needs exactly {sym.rank} arguments",
                         node.line, node.col)
    return Production(lhs, sym, args)


def _parse_grammar(node, start_sort, variables):
    if node.kind != "list" or not node.value:
        raise ParseError("expected a grammar definition", node.line, node.col)
    entries = []
    for entry in node.value:
        if entry.kind != "list" or len(entry.value) != 3:
            raise ParseError("expected (Nonterminal Sort (productions...))",
                             entry.line, entry.col)
        name = _expect_sym(entry.value[0], "a nonterminal name")
        if "^" in name:
            raise ParseError("'^' is reserved in nonterminal names",
                             entry.value[0].line, entry.value[0].col)
        entries.append((name, _parse_sort(entry.value[1]), entry.value[2]))
    nts = tuple((name, sort) for name, sort, _ in entries)
    names = {name for name, _, _ in entries}
    if len(names) != len(entries):
        raise ParseError("duplicate nonterminal", node.line, node.col)
    start = entries[0][0]
    if entries[0][1] != start_sort:
        raise ParseError("start nonterminal sort must match the return sort",
                         node.line, node.col)
    productions = []
    for name, _, prods in entries:
        if prods.kind != "list":
            raise ParseError("expected a production list", prods.line, prods.col)
        for p in prods.value:
            productions.append(_parse_production(name, p, names, variables))
    return Rtg(nts, start, tuple(productions))


# --- specification parsing --------------------------------------------------

def _parse_linterm(node, fname, variables):
    if node.kind == "int":
        return logic.lin(const=node.value)
    if node.kind == "sym":
        if node.value in variables:
            return logic.lin(((node.value, 1),))
        raise ParseError(f"unknown variable {node.value!r}", node.line, node.col)
    items = node.value
    if not items or items[0].kind != "sym":
        raise ParseError("expected an arithmetic term", node.line, node.col)
    op = items[0].value
    if op == fname:
        given = tuple(a.value for a in items[1:] if a.kind == "sym")
        if given != variables or len(items) - 1 != len(variables):
            raise ParseError(
                f"{fname!r} must be applied to the declared inputs "
                f"({' '.join(variables)})", node.line, node.col)
        return logic.lin(((OUT, 1),))
    args = [_parse_linterm(a, fname, variables) for a in items[1:]]
    if op == "+":
        if not args:
            raise ParseError("'+' needs arguments", node.line, node.col)
        out = args[0]
        for a in args[1:]:
            out = logic.lin_add(out, a)
        return out
    if op == "-":
        if len(args) == 1:
            return logic.lin_scale(args[0], -1)
        if len(args) == 2:
            return logic.lin_sub(args[0], args[1])
        raise ParseError("'-' needs one or two arguments", node.line, node.col)
    if op == "*":
        if len(args) != 2:
            raise ParseError("'*' needs two arguments", node.line, node.col)
        consts = [a for a in args if not a.coeffs]
        others = [a for a in args if a.coeffs]
        if not others:
            return logic.lin(const=args[0].const * args[1].const)
        if len(consts) != 1:
            raise ParseError("multiplication must have a constant operand",
                             node.line, node.col)
        return logic.lin_scale(others[0], consts[0].const)
    raise ParseError(f"unknown arithmetic operator {op!r}", node.line, node.col)


_RELS = {"=": "=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
         "distinct": "!="}


def _parse_formula(node, fname, variables, fsort):
    if node.kind == "sym":
        if node.value == "true":
            return logic.TRUE
        if node.value == "false":
            return logic.FALSE
        raise ParseError(f"expected a formula, got {node.value!r}",
                         node.line, node.col)
    if node.kind != "list" or not node.value or node.value[0].kind != "sym":
        raise ParseError("expected a formula", node.line, node.col)
    op = node.value[0].value
    rest = node.value[1:]
    if op == "and" or op == "or":
        subs = [_parse_formula(a, fname, variables, fsort) for a in rest]
        return logic.conj(*subs) if op == "and" else logic.disj(*subs)
    if op == "not":
        if len(rest) != 1:
            raise ParseError("'not' needs one argument", node.line, node.col)
        return logic.neg(_parse_formula(rest[0], fname, variables, fsort))
    if op in _RELS:
        if len(rest) != 2:
            raise ParseError(f"{op!r} needs two arguments", node.line, node.col)
        lhs = _parse_linterm(rest[0], fname, variables)
        rhs = _parse_linterm(rest[1], fname, variables)
        return logic.atom(lhs, _RELS[op], rhs)
    if op == fname and fsort == BOOL:
        term = _parse_linterm(node, fname, variables)
        return logic.atom(term, "=", 1)
    raise ParseError(f"unknown specification operator {op!r}",
                     node.line, node.col)


# --- problems ---------------------------------------------------------------

def parse_problem(text):
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    forms = parse_sexprs(text)
    logic_name = None
    fun = None
    constraints = []
    options = {}
    saw_check = False
    for form in forms:
        if form.kind != "list" or not form.value or form.value[0].kind != "sym":
            raise ParseError("expected a top-level command", form.line, form.col)
        head = form.value[0].value
        if saw_check:
            raise ParseError("nothing may follow (check-synth)",
                             form.line, form.col)
        if head == "set-logic":
            if logic_name is not None:
                raise ParseError("duplicate set-logic", form.line, form.col)
            if len(form.value) != 2:
                raise ParseError("set-logic needs one argument",
                                 form.line, form.col)
            logic_name = _expect_sym(form.value[1], "a logic name")
            if logic_name not in _LOGICS:
                raise ParseError(f"unsupported logic {logic_name!r}",
                                 form.value[1].line, form.value[1].col)
        elif head == "set-option":
            # a list value would not print back as the text it was read from
            if (len(form.value) != 3 or form.value[1].kind != "sym"
                    or form.value[2].kind == "list"):
                raise ParseError("set-option needs a :key and an atom value",
                                 form.line, form.col)
            options[form.value[1].value.lstrip(":")] = form.value[2].value
        elif head == "synth-fun":
            if fun is not None:
                raise ParseError("only one synth-fun is supported",
                                 form.line, form.col)
            fun = _parse_synth_fun(form)
        elif head == "constraint":
            if fun is None:
                raise ParseError("constraint before synth-fun",
                                 form.line, form.col)
            if len(form.value) != 2:
                raise ParseError("constraint needs one argument",
                                 form.line, form.col)
            name, variables, fsort, _ = fun
            constraints.append(
                _parse_formula(form.value[1], name, variables, fsort))
        elif head == "check-synth":
            saw_check = True
        else:
            raise ParseError(f"unknown command {head!r}", form.line, form.col)
    if logic_name is None:
        raise ParseError("missing (set-logic ...)")
    if fun is None:
        raise ParseError("missing (synth-fun ...)")
    if not saw_check:
        raise ParseError("missing (check-synth)")
    name, variables, fsort, g = fun
    if logic_name == "LIA":
        for p in g.productions:
            if p.symbol is not None and p.symbol.kind in _CLIA_ONLY:
                raise ParseError(f"{p.symbol.kind} requires (set-logic CLIA)")
    errors = gr.validate(g)
    if errors:
        raise ParseError("; ".join(errors))
    options["logic"] = logic_name
    spec = logic.conj(*constraints)
    return Problem(name, g, spec, variables, options)


def _parse_synth_fun(form):
    if len(form.value) != 5:
        raise ParseError("synth-fun needs name, arguments, sort and grammar",
                         form.line, form.col)
    _, name_n, args_n, sort_n, grammar_n = form.value
    name = _expect_sym(name_n, "a function name")
    if args_n.kind != "list":
        raise ParseError("expected an argument list", args_n.line, args_n.col)
    variables = []
    for a in args_n.value:
        if a.kind != "list" or len(a.value) != 2:
            raise ParseError("expected (name Int)", a.line, a.col)
        vname = _expect_sym(a.value[0], "an argument name")
        if _parse_sort(a.value[1]) != INT:
            raise ParseError("only Int arguments are supported",
                             a.value[1].line, a.value[1].col)
        if vname in variables:
            raise ParseError(f"duplicate argument {vname!r}", a.line, a.col)
        variables.append(vname)
    fsort = _parse_sort(sort_n)
    g = _parse_grammar(grammar_n, fsort, tuple(variables))
    return name, tuple(variables), fsort, g


def holds(spec, variables, row, out):
    """Whether `spec` holds at the input `row` (values of `variables`)
    with the function's output `out`."""
    env = dict(zip(variables, row))
    env[OUT] = out
    return logic.evaluate(spec, env)


def specialize(spec, e, first=0):
    """Substitute each concrete input row from the `first`-th on, mapping
    the output slot of row j to o_(j+1)."""
    formulas = []
    for row, o in zip(e.rows[first:], logic.output_names(e.dimension)[first:]):
        mapping = dict(zip(e.variables, row))
        mapping[OUT] = logic.lin(((o, 1),))
        formulas.append(logic.substitute(spec, mapping))
    return PointSpec(tuple(formulas))


# --- pretty-printing --------------------------------------------------------

def _format_production(p):
    if p.is_alias:
        return p.args[0]
    if p.symbol.rank == 0:
        return leaf(p.symbol).to_sexpr()
    args = " ".join(a if isinstance(a, str) else a.to_sexpr() for a in p.args)
    return f"({SPELLING[p.symbol.kind]} {args})"


def format_problem(p):
    """Canonical text form; parsing it back yields an identical Problem."""
    lines = [f"(set-logic {p.logic_name})"]
    for key in sorted(p.options):
        if key != "logic":
            lines.append(f"(set-option :{key} {p.options[key]})")
    args = " ".join(f"({v} Int)" for v in p.variables)
    ret = p.grammar.sorts[p.grammar.start]
    lines.append(f"(synth-fun {p.name} ({args}) {ret}")
    lines.append("  (")
    for nt, sort in p.grammar.nonterminals:
        prods = " ".join(_format_production(q) for q in p.grammar.by_lhs[nt])
        lines.append(f"    ({nt} {sort} ({prods}))")
    lines.append("  ))")
    app = " ".join((p.name,) + p.variables)
    names = {OUT: f"({app})"}
    if p.spec.op == "and":
        for g in p.spec.args:
            lines.append(f"(constraint {logic.render(g, names)})")
    elif p.spec.op != "true":
        lines.append(f"(constraint {logic.render(p.spec, names)})")
    lines.append("(check-synth)")
    return "\n".join(lines) + "\n"
