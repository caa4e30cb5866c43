"""Grammar and equation normalizations.

``normalize`` is the one grammar pipeline before equation building:
binarize n-ary sums, validate, then eliminate Minus.  ``to_plus_form``
removes Minus by introducing a negated twin for every integer
nonterminal and pushing the sign down to the leaves, where it lands on
literals and variable references.  ``rem_if`` removes pending
coordinate projections from an equation system by indexing nonterminals
with the projection mask, so a system produced by conditional expansion
becomes a plain join-of-products system.
"""

from collections import deque

from .booldom import all_true, conj, mask_str
from .grammar import (
    BOOL, INT, ITE, MINUS, NEGVAR, NUM, PLUS, VAR,
    GrammarError, Production, Rtg, check, expand_nary, leaf, negvar, num, plus,
    reachable, var,
)
from .gfa import Factor, IntMonomial, PolynomialSystem

NEG_MARK = "^-"


def negative(name):
    return name + NEG_MARK


def _neg_leaf(term):
    sym = term.symbol
    if sym.kind == NUM:
        return leaf(num(-sym.value))
    if sym.kind == VAR:
        return leaf(negvar(sym.name))
    if sym.kind == NEGVAR:
        return leaf(var(sym.name))
    raise GrammarError(f"cannot negate leaf {term}")


def _neg_arg(arg):
    if isinstance(arg, str):
        return negative(arg)
    return _neg_leaf(arg)


def to_plus_form(g):
    """Equivalent grammar over Plus/Num/Var/NegVar plus the conditional and
    Boolean symbols; no Minus remains."""
    if not any(p.symbol is not None and p.symbol.kind == MINUS
               for p in g.productions):
        return g
    sorts = dict(g.nonterminals)
    productions = []
    for p in g.productions:
        if sorts[p.lhs] == BOOL:
            productions.append(p)  # Booleans have no negated twin
            continue
        neg_lhs = negative(p.lhs)
        if p.is_alias:
            productions.append(p)
            productions.append(Production(neg_lhs, None, (negative(p.args[0]),)))
            continue
        kind = p.symbol.kind
        if kind == NUM:
            productions.append(p)
            productions.append(Production(neg_lhs, num(-p.symbol.value), ()))
        elif kind == VAR:
            productions.append(p)
            productions.append(Production(neg_lhs, negvar(p.symbol.name), ()))
        elif kind == NEGVAR:
            productions.append(p)
            productions.append(Production(neg_lhs, var(p.symbol.name), ()))
        elif kind == PLUS:
            productions.append(p)
            productions.append(Production(
                neg_lhs, p.symbol, tuple(_neg_arg(a) for a in p.args)))
        elif kind == MINUS:
            a1, a2 = p.args
            productions.append(Production(p.lhs, plus(2), (a1, _neg_arg(a2))))
            productions.append(Production(neg_lhs, plus(2), (_neg_arg(a1), a2)))
        elif kind == ITE:
            guard, then_arg, else_arg = p.args
            productions.append(p)
            productions.append(Production(
                neg_lhs, p.symbol,
                (guard, _neg_arg(then_arg), _neg_arg(else_arg))))
        else:
            raise GrammarError(
                f"cannot eliminate Minus across {kind} productions")
    nonterminals = list(g.nonterminals)
    nonterminals.extend((negative(nt), INT)
                        for nt, sort in g.nonterminals if sort == INT)
    keep = reachable(Rtg(tuple(nonterminals), g.start, tuple(productions)),
                     (g.start,))
    return Rtg(tuple((nt, s) for nt, s in nonterminals if nt in keep),
               g.start,
               tuple(p for p in productions if p.lhs in keep))


def normalize(g):
    """Binary, validated grammar in plus form, ready for equation building."""
    return to_plus_form(check(expand_nary(g)))


def masked(name, mask):
    return f"{name}^{mask_str(mask)}"


def rem_if(sys, roots):
    """Index every nonterminal occurrence with its pending projection mask.

    The input system's monomials must be integer products whose factors
    may carry projection masks.  Starting from each root under the
    identity (all-true) mask, a factor ``proj(n(X), b')`` inside an
    equation instantiated at mask ``b`` becomes the variable
    ``n(X^(b and b'))``; constants are projected outright.  Only masks
    actually reached this way are instantiated.
    """
    d = sys.dimension
    top = all_true(d)
    pending = deque((root, top) for root in roots)
    seen = set(pending)
    equations = {}
    order = []
    while pending:
        name, mask = pending.popleft()
        new_name = masked(name, mask)
        monos = []
        for m in sys.equations[name]:
            if not isinstance(m, IntMonomial):
                raise GrammarError("conditional monomials must be expanded "
                                   "before mask indexing")
            coeff = m.coeff.project(mask)
            factors = []
            for f in m.factors:
                sub = mask if f.mask is None else conj(mask, f.mask)
                factors.append(Factor(masked(f.var, sub)))
                if (f.var, sub) not in seen:
                    seen.add((f.var, sub))
                    pending.append((f.var, sub))
            monos.append(IntMonomial(coeff, tuple(factors)))
        equations[new_name] = tuple(monos)
        order.append(new_name)
    return PolynomialSystem({nt: equations[nt] for nt in order}, d,
                            {nt: INT for nt in order})
