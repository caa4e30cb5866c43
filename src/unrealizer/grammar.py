"""Ranked alphabet, regular tree grammars and example-set semantics.

The alphabet covers conditional linear integer arithmetic:

    Plus (n-ary, n >= 2 at the surface, binary after expansion), Minus,
    Num(c), Var(x), NegVar(x)                 -> Int
    IfThenElse(Bool, Int, Int)                -> Int
    And, Not, LessThan(Int, Int)              -> Bool
    Double, Inc (unary Int helpers used by the predicate-abstraction domain)

Semantics is relative to a finite example set E: a term denotes the vector
of its values on each example, computed componentwise.  IfThenElse selects
per coordinate from the two integer vectors according to the Boolean guard
vector.

Production arguments are nonterminal names or inline rank-0 leaf terms
(Num/Var/NegVar), and a production may be a plain alias for another
nonterminal; both shapes occur in the natural way of writing grammars like
``S2 ::= Plus(S3, Var x)`` and ``Start ::= ... | Exp2``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

INT = "Int"
BOOL = "Bool"

PLUS = "Plus"
MINUS = "Minus"
NUM = "Num"
VAR = "Var"
NEGVAR = "NegVar"
ITE = "IfThenElse"
AND = "And"
NOT = "Not"
LESSTHAN = "LessThan"
DOUBLE = "Double"
INC = "Inc"

_RESULT_SORT = {PLUS: INT, MINUS: INT, NUM: INT, VAR: INT, NEGVAR: INT,
                ITE: INT, AND: BOOL, NOT: BOOL, LESSTHAN: BOOL,
                DOUBLE: INT, INC: INT}
_FIXED_ARGS = {MINUS: (INT, INT), NUM: (), VAR: (), NEGVAR: (),
               ITE: (BOOL, INT, INT), AND: (BOOL, BOOL), NOT: (BOOL,),
               LESSTHAN: (INT, INT), DOUBLE: (INT,), INC: (INT,)}

# The surface spelling of each operator, in problem files and in printed
# witnesses alike.
SPELLING = {PLUS: "+", MINUS: "-", ITE: "ite", AND: "and", NOT: "not",
            LESSTHAN: "<", DOUBLE: "double", INC: "inc"}


def numeral(n: int) -> str:
    """SMT-LIB integer literal: SMT-LIB numerals are nonnegative, and
    the reader takes `-1` for a symbol, so a negative n is `(- |n|)`."""
    return str(n) if n >= 0 else f"(- {-n})"


class GrammarError(Exception):
    pass


class IterationOverrun(Exception):
    """A fixpoint loop exceeded its proven iteration bound."""


@dataclass(frozen=True)
class Symbol:
    kind: str
    value: int | None = None   # Num payload
    name: str | None = None    # Var / NegVar payload
    arity: int | None = None   # Plus only; None means the fixed rank

    @property
    def rank(self) -> int:
        if self.kind == PLUS:
            return self.arity if self.arity is not None else 2
        return len(_FIXED_ARGS[self.kind])

    @property
    def sort(self) -> str:
        return _RESULT_SORT[self.kind]

    @property
    def arg_sorts(self) -> tuple[str, ...]:
        if self.kind == PLUS:
            return (INT,) * self.rank
        return _FIXED_ARGS[self.kind]

    def __str__(self) -> str:
        if self.kind == NUM:
            return f"Num {self.value}"
        if self.kind in (VAR, NEGVAR):
            return f"{self.kind} {self.name}"
        return self.kind


def num(c: int) -> Symbol:
    return Symbol(NUM, value=int(c))


def var(x: str) -> Symbol:
    return Symbol(VAR, name=x)


def negvar(x: str) -> Symbol:
    return Symbol(NEGVAR, name=x)


def plus(arity: int = 2) -> Symbol:
    if arity < 2:
        raise GrammarError("Plus needs at least two arguments")
    return Symbol(PLUS, arity=arity)


@dataclass(frozen=True)
class Term:
    symbol: Symbol
    children: tuple["Term", ...] = ()

    def __post_init__(self):
        if len(self.children) != self.symbol.rank:
            raise GrammarError(f"{self.symbol} expects {self.symbol.rank} children, "
                               f"got {len(self.children)}")

    @property
    def sort(self) -> str:
        return self.symbol.sort

    def __str__(self) -> str:
        if not self.children:
            return str(self.symbol)
        return f"{self.symbol.kind}({', '.join(str(c) for c in self.children)})"

    def to_sexpr(self) -> str:
        k = self.symbol.kind
        if k == NUM:
            return numeral(self.symbol.value)
        if k == VAR:
            return self.symbol.name
        if k == NEGVAR:
            return f"(- 0 {self.symbol.name})"
        return ("(" + SPELLING[k] + " "
                + " ".join(c.to_sexpr() for c in self.children) + ")")


def leaf(symbol: Symbol) -> Term:
    return Term(symbol)


Arg = Union[str, Term]  # nonterminal reference or inline leaf term


@dataclass(frozen=True)
class Production:
    lhs: str
    symbol: Symbol | None      # None marks an alias production lhs ::= args[0]
    args: tuple[Arg, ...]

    @property
    def is_alias(self) -> bool:
        return self.symbol is None

    def __str__(self) -> str:
        def arg(a: Arg) -> str:
            return a if isinstance(a, str) else str(a)
        if self.is_alias:
            return f"{self.lhs} ::= {arg(self.args[0])}"
        if not self.args:
            return f"{self.lhs} ::= {self.symbol}"
        return f"{self.lhs} ::= {self.symbol.kind}({', '.join(arg(a) for a in self.args)})"


@dataclass(frozen=True)
class Rtg:
    nonterminals: tuple[tuple[str, str], ...]  # (name, sort) in declaration order
    start: str
    productions: tuple[Production, ...]

    @cached_property
    def sorts(self) -> dict[str, str]:
        return dict(self.nonterminals)

    @cached_property
    def by_lhs(self) -> dict[str, tuple[Production, ...]]:
        out: dict[str, list[Production]] = {n: [] for n, _ in self.nonterminals}
        for p in self.productions:
            out.setdefault(p.lhs, []).append(p)
        return {n: tuple(ps) for n, ps in out.items()}

    def __str__(self) -> str:
        return "\n".join(str(p) for p in self.productions)


def _arg_sort(g: Rtg, a: Arg) -> str | None:
    if isinstance(a, str):
        return g.sorts.get(a)
    return a.sort


def validate(g: Rtg) -> list[str]:
    """Every sort, arity and declaration fault of g, one message each.  A
    nonterminal that derives no finite tree is not a fault: its language
    is empty and the solvers give it the bottom value."""
    out: list[str] = []
    declared = g.sorts
    if g.start not in declared:
        out.append(f"start symbol {g.start!r} is not declared")
    seen = set()
    for name, _ in g.nonterminals:
        if name in seen:
            out.append(f"nonterminal {name!r} declared twice")
        seen.add(name)
    for p in g.productions:
        if p.lhs not in declared:
            out.append(f"production uses undeclared nonterminal {p.lhs!r}")
            continue
        for a in p.args:
            if isinstance(a, str) and a not in declared:
                out.append(f"{p} references undeclared nonterminal {a!r}")
            if isinstance(a, Term) and a.children:
                out.append(f"{p} inlines a non-leaf term")
        if p.is_alias:
            if len(p.args) != 1 or not isinstance(p.args[0], str):
                out.append(f"alias production {p} needs exactly one nonterminal")
                continue
            tgt = p.args[0]
            if tgt in declared and declared[tgt] != declared[p.lhs]:
                out.append(f"{p}: alias target has sort {declared[tgt]}, "
                           f"lhs has {declared[p.lhs]}")
            continue
        if len(p.args) != p.symbol.rank:
            out.append(f"{p}: {p.symbol.kind} expects {p.symbol.rank} arguments")
            continue
        if declared[p.lhs] != p.symbol.sort:
            out.append(f"{p}: {p.symbol.kind} produces {p.symbol.sort}, "
                       f"lhs has sort {declared[p.lhs]}")
        for a, want in zip(p.args, p.symbol.arg_sorts):
            got = _arg_sort(g, a)
            if got is not None and got != want:
                out.append(f"{p}: argument of sort {got} where {want} expected")
    return out


def check(g: Rtg) -> Rtg:
    """g itself; raises GrammarError with every fault `validate` finds."""
    errors = validate(g)
    if errors:
        raise GrammarError("; ".join(errors))
    return g


def reachable(g: Rtg, roots: Iterable[str]) -> set[str]:
    seen = set(roots)
    work = list(seen)
    while work:
        nt = work.pop()
        for p in g.by_lhs.get(nt, ()):
            for a in p.args:
                if isinstance(a, str) and a not in seen:
                    seen.add(a)
                    work.append(a)
    return seen


# -- example-set semantics ---------------------------------------------------

@dataclass(frozen=True)
class ExampleSet:
    variables: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]  # one row per example, aligned with variables

    def __post_init__(self):
        if not self.rows:
            raise GrammarError("an example set needs at least one example")
        for r in self.rows:
            if len(r) != len(self.variables):
                raise GrammarError("example row arity mismatch")

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def var_vector(self, x: str) -> tuple[int, ...]:
        try:
            i = self.variables.index(x)
        except ValueError:
            raise GrammarError(f"unbound variable {x!r}") from None
        return tuple([r[i] for r in self.rows])


def eval_term(t: Term, e: ExampleSet) -> tuple:
    """Componentwise value of a term on every example; Int terms yield an
    int vector, Bool terms a bool vector."""
    k = t.symbol.kind
    if k == NUM:
        return (t.symbol.value,) * e.dimension
    if k == VAR:
        return e.var_vector(t.symbol.name)
    if k == NEGVAR:
        return tuple([-v for v in e.var_vector(t.symbol.name)])
    return apply_symbol(t.symbol, [eval_term(c, e) for c in t.children])


def apply_symbol(sym: Symbol, vals: list[tuple]) -> tuple:
    """Componentwise value of ``sym`` on its argument vectors."""
    # tuple([...]), not tuple(<generator>): see semilinear.linset
    k = sym.kind
    if k == PLUS:
        return tuple([sum(col) for col in zip(*vals)])
    if k == MINUS:
        return tuple([a - b for a, b in zip(*vals)])
    if k == DOUBLE:
        return tuple([2 * a for a in vals[0]])
    if k == INC:
        return tuple([a + 1 for a in vals[0]])
    if k == ITE:
        b, x, y = vals
        return tuple([xi if bi else yi for bi, xi, yi in zip(b, x, y)])
    if k == AND:
        return tuple([a and b for a, b in zip(*vals)])
    if k == NOT:
        return tuple([not a for a in vals[0]])
    if k == LESSTHAN:
        return tuple([a < b for a, b in zip(*vals)])
    raise GrammarError(f"cannot apply symbol {sym}")


# -- n-ary Plus expansion ----------------------------------------------------

def expand_nary(g: Rtg) -> Rtg:
    """Binarize every Plus of arity n > 2 with a chain of fresh nonterminals.

    ``X ::= Plus(a1, .., an)`` becomes ``X ::= Plus(S1, an)`` with
    ``Si ::= Plus(S(i+1), a(n-i))`` and the chain bottoming out in a1 (a
    fresh unit nonterminal when a1 is an inline leaf, a1 itself when it is
    a nonterminal).  Fresh names count S1, S2, .. skipping declared names.
    Binary grammars come back unchanged.
    """
    if all(p.is_alias or p.symbol.kind != PLUS or p.symbol.rank == 2
           for p in g.productions):
        return g

    taken = {n for n, _ in g.nonterminals}
    counter = itertools.count(1)

    def fresh() -> str:
        while True:
            name = f"S{next(counter)}"
            if name not in taken:
                taken.add(name)
                return name

    new_nts: list[tuple[str, str]] = list(g.nonterminals)
    new_prods: list[Production] = []
    for p in g.productions:
        if p.is_alias or p.symbol.kind != PLUS or p.symbol.rank == 2:
            new_prods.append(p)
            continue
        args = p.args
        n = len(args)
        chain_len = n - 1 if isinstance(args[0], Term) else n - 2
        names = [fresh() for _ in range(chain_len)]
        for name in names:
            new_nts.append((name, INT))
        top = names[0]
        new_prods.append(Production(p.lhs, plus(2), (top, args[-1])))
        for i in range(chain_len - 1):
            below = names[i + 1]
            new_prods.append(Production(names[i], plus(2), (below, args[n - 2 - i])))
        if isinstance(args[0], Term):
            new_prods.append(Production(names[-1], args[0].symbol, ()))
        else:
            new_prods.append(Production(names[-1], plus(2), (args[0], args[1])))
    return Rtg(tuple(new_nts), g.start, tuple(new_prods))
