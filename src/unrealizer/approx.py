"""Sound-but-incomplete backends: predicate abstraction over the parity
partition, and export of the equation system as constrained Horn clauses
for external solvers.

Both trade the exactness of the semi-linear domain for speed or for
offloading: predicate abstraction can prove unrealizability but never
realizability; the Horn export delegates the fixpoint to a CHC solver.

The predicates are {even, odd}: disjoint, and true of every integer
between them.  An abstract value is a set of them, read as their
disjunction, and abstracts the output on one example.
"""

from . import logic as lg
from .grammar import (
    AND, DOUBLE, INC, INT, ITE, LESSTHAN, NOT, NUM, NEGVAR, PLUS, VAR,
    GrammarError, IterationOverrun, Term, eval_term, numeral,
)
from .rewrite import to_plus_form

PARITY = ("even", "odd")  # PARITY[v % 2] is the predicate that holds of v


def abstract(v):
    return frozenset({PARITY[v % 2]})


def concretize(value, names):
    """Formula on the one output in ``names``: its parity is in ``value``."""
    (o,) = names
    return lg.disj(*(  # o = 2k + r for the remainder r of each parity
        lg.exists(("k",), lg.atom(lg.lin(((o, 1),)), "=",
                                  lg.lin((("k", 2),), r)), nonneg=False)
        for r, p in enumerate(PARITY) if p in value))


def transform(kind, args):
    """Parities the result of `+`, `-`, `double`, `inc` or `ite` may
    take, from the parities of its integer arguments; an `ite` passes
    only its branches, since parity does not track its guard."""
    if not all(args):
        return frozenset()  # an empty argument denies the production
    if kind == DOUBLE:
        return frozenset({"even"})
    if kind == INC:
        return frozenset(PARITY[p == "even"] for p in args[0])
    if kind == ITE:
        return args[0] | args[1]
    out = args[0]  # a sum or a difference: odd when the parities differ
    for a in args[1:]:
        out = frozenset(PARITY[p != q] for p in out for q in a)
    return out


def predabs_solve(g, e):
    """Least fixpoint of the parity semantics on the one example in
    ``e``: a sound overapproximation of each integer nonterminal's
    outputs."""
    if e.dimension != 1:
        raise GrammarError("parity predicates need exactly one example")
    if g.sorts[g.start] != INT:
        raise GrammarError("parity predicates abstract integer outputs")
    int_nts = [n for n, s in g.nonterminals if s == INT]
    nu = {n: frozenset() for n in int_nts}
    # every pass but the last adds a predicate to some nonterminal
    bound = len(PARITY) * max(1, len(int_nts)) + 1
    for _ in range(bound):
        new = dict(nu)
        for p in g.productions:
            if g.sorts.get(p.lhs) != INT:
                continue
            if p.is_alias:
                value = _pred_arg(p.args[0], nu, e)
            elif p.symbol.kind in (NUM, VAR, NEGVAR):
                value = _pred_arg(Term(p.symbol), nu, e)
            else:
                args = p.args[1:] if p.symbol.kind == ITE else p.args
                value = transform(p.symbol.kind,
                                  [_pred_arg(a, nu, e) for a in args])
            new[p.lhs] = new[p.lhs] | value
        if new == nu:
            return nu
        nu = new
    raise IterationOverrun(f"predicate iteration exceeded its bound of {bound}")


def _pred_arg(a, nu, e):
    if isinstance(a, Term):
        (v,) = eval_term(a, e)
        return abstract(v)
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
        args = " ".join([sort] * d)
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
        decls = " ".join(f"({v} {g.sorts[p.lhs]})" for v in vs)
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
        block = [f"v{i}_{j + 1}" for j in range(d)]
        decls += [f"({v} {g.sorts[a]})" for v in block]
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
