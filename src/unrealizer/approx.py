"""Sound-but-incomplete backends: predicate abstraction over a finite
predicate partition, and export of the equation system as constrained
Horn clauses for external solvers.

Both trade the exactness of the semi-linear domain for speed or for
offloading: predicate abstraction can prove unrealizability but never
realizability; the Horn export delegates the fixpoint to a CHC solver.
"""

from dataclasses import dataclass

from . import logic as lg
from .grammar import (
    AND, BOOL, DOUBLE, INC, INT, ITE, LESSTHAN, MINUS, NOT, NUM, NEGVAR,
    PLUS, VAR, GrammarError, IterationOverrun, Term, eval_term, numeral,
)
from .rewrite import to_plus_form


@dataclass(frozen=True)
class Predicate:
    name: str
    test: object       # int -> bool
    condition: object  # output variable name -> LiaFormula


@dataclass(frozen=True)
class PredicateDomain:
    """Finite partition of the integers: predicates are pairwise
    disjoint and jointly exhaustive; abstract values are name subsets.
    The one domain is parity (`parity_domain`)."""

    predicates: tuple  # of Predicate

    @property
    def names(self):
        return frozenset(p.name for p in self.predicates)

    def abstract(self, vector):
        if len(vector) != 1:
            raise GrammarError(
                "per-output predicates need exactly one example")
        return frozenset(p.name for p in self.predicates
                         if p.test(vector[0]))

    def concretize(self, subset, names):
        if len(names) != 1:
            raise GrammarError(
                "per-output predicates need exactly one example")
        by_name = {p.name: p for p in self.predicates}
        return lg.disj(*(by_name[n].condition(names[0])
                         for n in sorted(subset)))

    def transform(self, kind, args):
        """Parity of an operator's result from its arguments' parities;
        an operator parity does not track may give either."""
        if any(not a for a in args):
            return frozenset()
        if kind in (PLUS, MINUS):
            out = args[0]
            for a in args[1:]:
                out = frozenset("even" if p == q else "odd"
                                for p in out for q in a)
            return out
        if kind == DOUBLE:
            return frozenset({"even"})
        if kind == INC:
            return frozenset("odd" if p == "even" else "even" for p in args[0])
        if kind == ITE:
            return args[0] | args[1]
        return self.names


def _even(o):
    return lg.exists(("k",), lg.atom(lg.lin(((o, 1),)), "=",
                                     lg.lin((("k", 2),))), nonneg=False)


def _odd(o):
    return lg.exists(("k",), lg.atom(lg.lin(((o, 1),)), "=",
                                     lg.lin((("k", 2),), 1)), nonneg=False)


def parity_domain():
    return PredicateDomain((
        Predicate("even", lambda v: v % 2 == 0, _even),
        Predicate("odd", lambda v: v % 2 != 0, _odd),
    ))


def predabs_solve(g, e, dom):
    """Least fixpoint of the abstract semantics over subsets of the
    predicate partition; sound overapproximation of reachable outputs."""
    int_nts = [n for n, s in g.nonterminals if s == INT]
    nu = {n: frozenset() for n in int_nts}
    bound = (2 ** len(dom.predicates)) * max(1, len(int_nts)) + 1
    iterations = 0
    while True:
        iterations += 1
        if iterations > bound:
            raise IterationOverrun(
                f"predicate iteration exceeded its bound of {bound}")
        new = dict(nu)
        for p in g.productions:
            if g.sorts.get(p.lhs) != INT:
                continue
            if p.is_alias:
                value = _pred_arg(p.args[0], nu, dom, e)
            else:
                k = p.symbol.kind
                if k in (NUM, VAR, NEGVAR):
                    value = dom.abstract(eval_term(Term(p.symbol), e))
                elif k == ITE:
                    value = dom.transform(
                        ITE, [_pred_arg(p.args[1], nu, dom, e),
                              _pred_arg(p.args[2], nu, dom, e)])
                else:
                    value = dom.transform(
                        k, [_pred_arg(a, nu, dom, e) for a in p.args])
            new[p.lhs] = new[p.lhs] | value
        if new == nu:
            return nu
        nu = new


def _pred_arg(a, nu, dom, e):
    if isinstance(a, Term):
        return dom.abstract(eval_term(a, e))
    return nu.get(a, frozenset())


# --- constrained-Horn-clause export ------------------------------------------

def _ground(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    return numeral(v)


def horn_export(g, e, ps):
    """SMT-LIB2 HORN script: one uninterpreted predicate per nonterminal
    over |E| arguments, one clause per production, and a query clause
    sending derivable outputs meeting the specification to false.  A
    solver reporting sat has proved the example-restricted problem
    unrealizable."""
    g = to_plus_form(g)
    if g.sorts[g.start] != INT:
        raise GrammarError("Horn export needs an integer-sorted start symbol")
    d = e.dimension
    lines = ["(set-logic HORN)"]
    for nt, sort in g.nonterminals:
        args = " ".join(["Bool" if sort == BOOL else "Int"] * d)
        lines.append(f"(declare-fun {nt} ({args}) Bool)")
    for p in g.productions:
        lines.append(_clause(g, p, e, d))
    names = lg.output_names(d)
    decls = " ".join(f"({o} Int)" for o in names)
    body = " ".join([f"({g.start} {' '.join(names)})"]
                    + [lg.render(f) for f in ps.formulas])
    lines.append(f"(assert (forall ({decls}) (=> (and {body}) false)))")
    lines.append("(check-sat)")
    return ("\n".join(lines) + "\n").encode()


def _clause(g, p, e, d):
    if p.is_alias:
        vs = [f"v0_{j + 1}" for j in range(d)]
        sort = "Bool" if g.sorts[p.lhs] == BOOL else "Int"
        decls = " ".join(f"({v} {sort})" for v in vs)
        return (f"(assert (forall ({decls}) "
                f"(=> ({p.args[0]} {' '.join(vs)}) ({p.lhs} {' '.join(vs)}))))")
    k = p.symbol.kind
    if k in (NUM, VAR, NEGVAR) or all(isinstance(a, Term) for a in p.args):
        vec = eval_term(Term(p.symbol, p.args), e)
        args = " ".join(_ground(v) for v in vec)
        return f"(assert ({p.lhs} {args}))"

    # one fresh variable block per nonterminal argument
    decls, body, vs = [], [], []
    for i, a in enumerate(p.args):
        if isinstance(a, Term):
            vs.append([_ground(v) for v in eval_term(a, e)])
            continue
        sort = "Bool" if g.sorts[a] == BOOL else "Int"
        block = [f"v{i}_{j + 1}" for j in range(d)]
        decls += [f"({v} {sort})" for v in block]
        body.append(f"({a} {' '.join(block)})")
        vs.append(block)

    if k == PLUS:
        head = [f"(+ {' '.join(col)})" for col in zip(*vs)]
    elif k == DOUBLE:
        head = [f"(* 2 {v})" for v in vs[0]]
    elif k == INC:
        head = [f"(+ {v} 1)" for v in vs[0]]
    elif k == ITE:
        head = [f"(ite {b} {x} {y})" for b, x, y in zip(*vs)]
    elif k == AND:
        head = [f"(and {a} {b})" for a, b in zip(*vs)]
    elif k == NOT:
        head = [f"(not {a})" for a in vs[0]]
    elif k == LESSTHAN:
        # explicit defining equalities keep the head variables first-order
        block = [f"b_{j + 1}" for j in range(d)]
        decls += [f"({b} Bool)" for b in block]
        body += [f"(= {b} (< {x} {y}))"
                 for b, x, y in zip(block, vs[0], vs[1])]
        head = block
    else:
        raise GrammarError(f"cannot export {k} to Horn clauses")
    guard = body[0] if len(body) == 1 else f"(and {' '.join(body)})"
    return (f"(assert (forall ({' '.join(decls)}) "
            f"(=> {guard} ({p.lhs} {' '.join(head)}))))")
