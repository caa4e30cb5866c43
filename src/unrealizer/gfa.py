"""Equation systems assigning each nonterminal an abstract value.

Every production contributes one monomial to its left-hand side's
equation; the equation's value is the join of its monomials.  Integer
monomials are products of a constant semi-linear coefficient with
nonterminal factors (optionally under a pending coordinate projection);
conditional and Boolean productions keep their operator symbolic until
the mixed solver freezes or expands them.
"""

from dataclasses import dataclass
from typing import NamedTuple

from . import semilinear as sl
from .booldom import bset_str, mask_str
from .grammar import (
    AND, BOOL, ITE, LESSTHAN, MINUS, NEGVAR, NOT, NUM, PLUS, VAR,
    GrammarError, Term, eval_term,
)


class Factor(NamedTuple):
    var: str
    mask: tuple[bool, ...] | None = None  # projection applied to the value


class IntMonomial(NamedTuple):
    coeff: sl.SemiLinearSet
    factors: tuple[Factor, ...] = ()


class IteMonomial(NamedTuple):
    guard: object      # nonterminal name or a frozen set of Boolean vectors
    then_arg: object   # nonterminal name or a constant SemiLinearSet
    else_arg: object


class BoolMonomial(NamedTuple):
    op: str            # "copy", "not", "and" or "lessthan"
    args: tuple = ()   # names, Boolean-vector sets, or SemiLinearSets


@dataclass
class PolynomialSystem:
    equations: dict            # nonterminal -> tuple of monomials
    dimension: int
    sorts: dict                # nonterminal -> Int/Bool

    def has_ite(self):
        return any(isinstance(m, IteMonomial)
                   for monos in self.equations.values() for m in monos)

    def dump(self):
        lines = []
        for nt, monos in self.equations.items():
            rhs = " (+) ".join(_mono_str(m, self.dimension) for m in monos)
            lines.append(f"n({nt}) = {rhs or '{}'}")
        return "\n".join(lines) + "\n"


def _ref_str(arg):
    if isinstance(arg, str):
        return f"n({arg})"
    if isinstance(arg, (frozenset, set)):
        return bset_str(arg)
    return str(arg)


def _mono_str(m, dim):
    if isinstance(m, IntMonomial):
        parts = []
        if m.coeff != sl.one(dim) or not m.factors:
            parts.append(str(m.coeff))
        for f in m.factors:
            if f.mask is None:
                parts.append(f"n({f.var})")
            else:
                parts.append(f"proj(n({f.var}), {mask_str(f.mask)})")
        return " (x) ".join(parts)
    if isinstance(m, IteMonomial):
        return (f"ite({_ref_str(m.guard)}, {_ref_str(m.then_arg)}, "
                f"{_ref_str(m.else_arg)})")
    if m.op == "copy":
        return _ref_str(m.args[0])
    return f"{'lt' if m.op == 'lessthan' else m.op}(" + \
        ", ".join(_ref_str(a) for a in m.args) + ")"


def _leaf_value(term, e):
    out = eval_term(term, e)
    if isinstance(out[0], bool):
        raise GrammarError("Boolean leaves have no constant abstraction")
    return sl.singleton(out)


def _int_ref(arg, e):
    """Nonterminal name, or constant value of an inline leaf."""
    return arg if isinstance(arg, str) else _leaf_value(arg, e)


def build_equations(g, e):
    """One equation per nonterminal over the example-vector domain."""
    d = e.dimension
    sorts = dict(g.nonterminals)
    equations = {nt: [] for nt, _ in g.nonterminals}
    for p in g.productions:
        if p.is_alias:
            if sorts[p.args[0]] == BOOL:
                mono = BoolMonomial("copy", (p.args[0],))
            else:
                mono = IntMonomial(sl.one(d), (Factor(p.args[0]),))
            equations[p.lhs].append(mono)
            continue
        kind = p.symbol.kind
        if kind in (NUM, VAR, NEGVAR):
            equations[p.lhs].append(
                IntMonomial(_leaf_value(Term(p.symbol, ()), e)))
        elif kind == PLUS:
            coeff, factors = sl.one(d), []
            for a in p.args:
                if isinstance(a, str):
                    factors.append(Factor(a))
                else:
                    coeff = coeff.extend(_leaf_value(a, e))
            equations[p.lhs].append(IntMonomial(coeff, tuple(factors)))
        elif kind == ITE:
            guard, then_arg, else_arg = p.args
            equations[p.lhs].append(
                IteMonomial(guard, _int_ref(then_arg, e), _int_ref(else_arg, e)))
        elif kind == NOT:
            equations[p.lhs].append(BoolMonomial("not", (p.args[0],)))
        elif kind == AND:
            equations[p.lhs].append(BoolMonomial("and", tuple(p.args)))
        elif kind == LESSTHAN:
            equations[p.lhs].append(
                BoolMonomial("lessthan",
                             tuple([_int_ref(a, e) for a in p.args])))
        elif kind == MINUS:
            raise GrammarError("Minus must be eliminated before equation "
                               "construction")
        else:
            raise GrammarError(f"no exact abstraction for {kind}")
    return PolynomialSystem({nt: tuple(monos) for nt, monos in equations.items()},
                            d, sorts)


def _references(mono):
    refs = []
    if isinstance(mono, IntMonomial):
        refs.extend(f.var for f in mono.factors)
    elif isinstance(mono, IteMonomial):
        refs.extend(a for a in (mono.guard, mono.then_arg, mono.else_arg)
                    if isinstance(a, str))
    else:
        refs.extend(a for a in mono.args if isinstance(a, str))
    return refs


def dependencies(sys):
    """nonterminal -> set of nonterminals its equation reads."""
    return {nt: {r for m in monos for r in _references(m)}
            for nt, monos in sys.equations.items()}


def stratify(sys):
    """SCCs of the dependence graph, each a name-sorted tuple, in the
    order Tarjan's algorithm finishes them: a stratum reads only itself
    and earlier strata.  Roots and successors are visited in name order,
    so the order is reproducible.
    """
    deps = dependencies(sys)
    index, low, onstack = {}, {}, set()
    stack, work, sccs = [], [], []

    def push(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        onstack.add(v)
        work.append((v, iter(sorted(deps[v]))))

    for root in sorted(deps):
        if root in index:
            continue
        push(root)
        while work:
            v, it = work[-1]
            for w in it:
                if w not in deps:
                    continue
                if w not in index:
                    push(w)
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            else:  # every successor is done, so v finishes
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    i = stack.index(v)
                    comp = stack[i:]
                    del stack[i:]
                    onstack.difference_update(comp)
                    sccs.append(tuple(sorted(comp)))
    return sccs


def substitute(sys, solved):
    """Replace references to already-solved nonterminals with constants."""
    def sub_ref(a):
        if isinstance(a, str) and a in solved:
            return solved[a]
        return a

    equations = {}
    for nt, monos in sys.equations.items():
        if nt in solved:
            continue
        out = []
        for m in monos:
            if isinstance(m, IntMonomial):
                coeff, factors = m.coeff, []
                for f in m.factors:
                    if f.var in solved:
                        coeff = coeff.extend(solved[f.var])
                    else:
                        factors.append(f)
                out.append(IntMonomial(coeff, tuple(factors)))
            elif isinstance(m, IteMonomial):
                out.append(IteMonomial(sub_ref(m.guard), sub_ref(m.then_arg),
                                       sub_ref(m.else_arg)))
            else:
                out.append(BoolMonomial(m.op,
                                        tuple([sub_ref(a) for a in m.args])))
        equations[nt] = tuple(out)
    return PolynomialSystem(equations, sys.dimension,
                            {nt: s for nt, s in sys.sorts.items()
                             if nt not in solved})


def restrict(sys, names):
    keep = set(names)
    return PolynomialSystem(
        {nt: monos for nt, monos in sys.equations.items() if nt in keep},
        sys.dimension,
        {nt: s for nt, s in sys.sorts.items() if nt in keep})
