"""Reference definitions the tests check the package against.

Each one is the plain, eager form of something the package computes
another way: the read relation of an equation system's monomials, and
Tarjan's algorithm over it, for the strata read off the grammar; bounded
tree and value enumeration for the equation solvers, every size split
for the enumerator's pool-aware split walk, Kleene iteration for
Newton's method, the guard-pattern sum for `ite`, the one-shot
`LessThan`, negation normal form and the DNF branches with their ILP
systems for the lazy walk in `logic.decide`, the concretization formula
built with `lin` and `atom`, and the bottom-up facts of an exported Horn
script for a check without a Horn solver.  Bounded concretization of
semi-linear values, the operator symbols the tests write productions
with, and a solver stand-in that refutes nothing are here too.  The
package itself never calls them.  pytest does not collect this module
(its name does not start with ``test_``); the tests import it by name.
"""

import itertools
import math
from typing import NamedTuple

from unrealizer import ilp
from unrealizer import logic as lg
from unrealizer import semilinear as sl
from unrealizer.booldom import LessThanCache, neg
from unrealizer.frontend import parse_sexprs
from unrealizer.gfa import IntMonomial, IteMonomial
from unrealizer.grammar import (
    AND, DOUBLE, INC, ITE, LESSTHAN, MINUS, NOT, ExampleSet, GrammarError,
    Symbol, Term, apply_symbol, eval_term,
)
from unrealizer.newton import monomial_value

MINUS_SYM = Symbol(MINUS)
ITE_SYM = Symbol(ITE)
AND_SYM = Symbol(AND)
NOT_SYM = Symbol(NOT)
LESSTHAN_SYM = Symbol(LESSTHAN)
DOUBLE_SYM = Symbol(DOUBLE)
INC_SYM = Symbol(INC)

# --- terms and example sets -------------------------------------------------


def height(t):
    return 1 + max((height(c) for c in t.children), default=0)


def term_size(t):
    return 1 + sum(term_size(c) for c in t.children)


def sls_size(v):
    """Sum over components of (generator count + 1)."""
    return sum(len(c.gens) + 1 for c in v.components)


def compositions(total, k):
    """All k-tuples of positive ints summing to total, lexicographic: the
    size splits the enumerator once walked in full."""
    if k == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - k + 2):
        for rest in compositions(total - first, k - 1):
            yield (first,) + rest


def example_set(points, variables=None):
    """The example set of a list of {variable: value} points; variables
    sorted by name unless given."""
    points = list(points)
    if variables is None:
        variables = sorted({v for p in points for v in p})
    vs = tuple(variables)
    return ExampleSet(vs, tuple([tuple([int(p[v]) for v in vs])
                                 for p in points]))


def enumerate_trees(g, nt, depth):
    """Every tree of height <= depth derivable from nt, each exactly once.

    Deterministic order: by height, then production declaration order, then
    child combinations left to right.  A leaf has height 1; alias
    productions add no node and no height.
    """
    upto = {n: [] for n, _ in g.nonterminals}
    seen = {n: set() for n, _ in g.nonterminals}

    def materialize(a, h):
        if isinstance(a, Term):
            return [a] if h >= 1 else []
        return [t for t in upto[a] if height(t) <= h]

    for h in range(1, depth + 1):
        added = True
        # alias productions may chain; iterate until the level is stable
        while added:
            added = False
            for p in g.productions:
                if p.is_alias:
                    for t in list(upto[p.args[0]]):
                        if height(t) <= h and t not in seen[p.lhs]:
                            seen[p.lhs].add(t)
                            upto[p.lhs].append(t)
                            added = True
                    continue
                if p.symbol.rank == 0:
                    t = Term(p.symbol)
                    if t not in seen[p.lhs]:
                        seen[p.lhs].add(t)
                        upto[p.lhs].append(t)
                        added = True
                    continue
                pools = [materialize(a, h - 1) for a in p.args]
                if any(not pool for pool in pools):
                    continue
                for combo in itertools.product(*pools):
                    t = Term(p.symbol, tuple(combo))
                    if t not in seen[p.lhs]:
                        seen[p.lhs].add(t)
                        upto[p.lhs].append(t)
                        added = True
    yield from sorted(upto.get(nt, []), key=height)


def reachable_values(g, nt, depth, e, max_values=200_000):
    """Output vector -> one representative tree, over all trees of height
    <= depth from nt.  Equivalent trees are merged as they are built, so
    this scales where full tree enumeration cannot; it is the bounded
    oracle for the combine-over-all-derivations semantics."""
    banks = {n: {} for n, _ in g.nonterminals}

    def settle_aliases():
        moved = True
        while moved:
            moved = False
            for p in g.productions:
                if not p.is_alias:
                    continue
                for v, t in list(banks[p.args[0]].items()):
                    if v not in banks[p.lhs]:
                        banks[p.lhs][v] = t
                        moved = True

    def argvals(a):
        if isinstance(a, Term):
            return [(eval_term(a, e), None)]
        return list(banks[a].items())

    for _ in range(depth):
        fresh = []
        for p in g.productions:
            if p.is_alias:
                continue
            if p.symbol.rank == 0:
                t = Term(p.symbol)
                v = eval_term(t, e)
                if v not in banks[p.lhs]:
                    fresh.append((p.lhs, v, t))
                continue
            pools = [argvals(a) for a in p.args]
            if any(not pool for pool in pools):
                continue
            for combo in itertools.product(*pools):
                children = tuple(a if isinstance(a, Term) else t
                                 for a, (_, t) in zip(p.args, combo))
                vec = apply_symbol(p.symbol, [v for v, _ in combo])
                if vec not in banks[p.lhs]:
                    fresh.append((p.lhs, vec, Term(p.symbol, children)))
        for lhs, v, t in fresh:
            if v not in banks[lhs]:
                banks[lhs][v] = t
        settle_aliases()
        if sum(len(b) for b in banks.values()) > max_values:
            raise GrammarError(
                f"value enumeration exceeded {max_values} entries")
    return dict(banks.get(nt, {}))


# --- strata -----------------------------------------------------------------

def equation_reads(sys):
    """nonterminal -> the nonterminals its equation reads, off the
    monomials of one equation system: the relation `gfa.stratify` once
    rebuilt for each system, where it now reads the grammar."""
    out = {}
    for nt, monos in sys.equations.items():
        refs = set()
        for m in monos:
            if isinstance(m, IntMonomial):
                refs.update(f.var for f in m.factors)
                continue
            args = (m.guard, m.then_arg, m.else_arg) \
                if isinstance(m, IteMonomial) else m.args
            refs.update(a for a in args if isinstance(a, str))
        out[nt] = refs
    return out


def tarjan(deps):
    """Strongly connected components of the relation `deps` (name -> the
    names it reads, every one a key), each name-sorted, in the order the
    recursive form of Tarjan's algorithm finishes them, with roots and
    successors visited in name order."""
    index, low, stack, sccs = {}, {}, [], []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        for w in sorted(deps[v]):
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            i = stack.index(v)
            sccs.append(tuple(sorted(stack[i:])))
            del stack[i:]

    for v in sorted(deps):
        if v not in index:
            visit(v)
    return sccs


# --- abstract domains and fixpoints -----------------------------------------

def gamma_bounded(value, budget):
    """All points u + sum(l_i * v_i) of the value's components <u, V>
    with every 0 <= l_i <= budget: a finite underapproximation of its
    concretization."""
    pts = set()
    for c in value.components:
        layer = {c.base}
        for g in c.gens:
            # each point of the layer plus l*g for l = 0..budget
            steps = [tuple([l * x for x in g]) for l in range(budget + 1)]
            layer = {tuple([x + y for x, y in zip(p, s)])
                     for p in layer for s in steps}
        pts |= layer
    return frozenset(pts)


def kleene_solve(sys, max_steps=200):
    """Plain iteration to a fixpoint; diverges on star-requiring systems,
    so it is compared with `npa_solve` only where it converges."""
    nu = {x: sl.ZERO for x in sys.equations}
    for _ in range(max_steps):
        new = {}
        for x, monos in sys.equations.items():
            total = nu[x]
            for m in monos:
                total = total.combine(monomial_value(m, nu))
            new[x] = total
        if new == nu:
            return nu
        nu = new
    raise RuntimeError("no fixpoint within the step budget")


def ite_abstract(bset, sl1, sl2):
    """Exact conditional on abstract values: for every guard pattern,
    the true coordinates come from the then-value and the rest from the
    else-value."""
    out = sl.ZERO
    for b in sorted(bset, reverse=True):
        out = out.combine(sl1.project(b).extend(sl2.project(neg(b))))
    return out


def parse_mask(s):
    return tuple([c == "t" for c in s])


def proj_z(v, b):
    """Zero out the coordinates where b is false."""
    return tuple([x if m else 0 for x, m in zip(v, b)])


def abs_less_than(sl1, sl2, solver):
    """`LessThan` of two values with a fresh cache."""
    return LessThanCache(solver).abs_less_than(sl1, sl2)


# --- formulas ---------------------------------------------------------------

def free_vars(f):
    if f.op == "atom":
        return f.atom[0].variables() | f.atom[2].variables()
    if f.op == "exists":
        return free_vars(f.args[0]) - set(f.bound)
    out = set()
    for g in f.args:
        out |= free_vars(g)
    return out


class Branch(NamedTuple):
    """One DNF branch: a conjunction of normalized atoms, and its bound
    variables by sign."""

    atoms: tuple
    nonneg: frozenset = frozenset()
    free_bound: frozenset = frozenset()


def nnf(f, negate=False):
    """Negation normal form with atoms over {=, <, <=}, on its own: the
    pass `logic._prepare` makes together with renaming bound variables."""
    if f.op == "true":
        return lg.FALSE if negate else lg.TRUE
    if f.op == "false":
        return lg.TRUE if negate else lg.FALSE
    if f.op == "atom":
        lhs, rel, rhs = f.atom
        return lg._positive_atom(lhs, lg.COMPLEMENT[rel] if negate else rel,
                                 rhs)
    if f.op == "not":
        return nnf(f.args[0], not negate)
    if f.op == "and":
        sub = [nnf(g, negate) for g in f.args]
        return lg.disj(*sub) if negate else lg.conj(*sub)
    if f.op == "or":
        sub = [nnf(g, negate) for g in f.args]
        return lg.conj(*sub) if negate else lg.disj(*sub)
    if f.op == "exists":
        if negate:
            raise ValueError("negation over a quantifier is not supported")
        return lg.exists(f.bound, nnf(f.args[0]), f.nonneg)
    raise ValueError(f.op)


def reference_dnf(g, renaming, fresh):
    """The eager DNF expansion of a formula in negation normal form that
    the lazy walk in `logic._branches` replaced: whole branch lists per
    subformula, cross products at every conjunction."""
    if g.op == "true":
        return [Branch(())]
    if g.op == "false":
        return []
    if g.op == "atom":
        lhs, _, rhs = g.atom
        ren = {v: lg.lin(((renaming[v], 1),)) for v in
               (lhs.variables() | rhs.variables()) & renaming.keys()}
        return [Branch(((lg.substitute(g, ren) if ren else g).atom,))]
    if g.op == "or":
        return [b for h in g.args for b in reference_dnf(h, renaming, fresh)]
    if g.op == "and":
        branches = [Branch(())]
        for h in g.args:
            sub = reference_dnf(h, renaming, fresh)
            branches = [Branch(b.atoms + s.atoms, b.nonneg | s.nonneg,
                               b.free_bound | s.free_bound)
                        for b in branches for s in sub]
        return branches
    ren = dict(renaming)
    names = set()
    for v in g.bound:
        ren[v] = f"q{next(fresh)}"
        names.add(ren[v])
    return [Branch(b.atoms, b.nonneg | names, b.free_bound) if g.nonneg
            else Branch(b.atoms, b.nonneg, b.free_bound | names)
            for b in reference_dnf(g.args[0], ren, fresh)]


def dnf_branches(f):
    """DNF of a formula; bound variables are freshened to q1, q2, ..."""
    return reference_dnf(nnf(f), {}, itertools.count(1))


class RefutesNothing:
    """A solver stand-in whose `feasible` refutes no system, so that
    `logic._branches` prunes no partial conjunction and yields the
    closure of every DNF branch."""

    def feasible(self, closure, witness=True):
        return ilp.Feasibility("sat")


def branch_system(b):
    """The ILP system of one DNF branch, built eagerly: a row per atom
    (lhs - rhs <rel> 0) over the variables of every atom, those whose
    coefficients cancel included, and the bound ones, nonneg where the
    branch says so."""
    names = set(b.nonneg) | set(b.free_bound)
    cons = []
    for lhs, rel, rhs in b.atoms:
        diff = lg.lin_sub(lhs, rhs)
        cons.append(ilp.constraint(dict(diff.coeffs), rel, -diff.const))
        names |= lhs.variables() | rhs.variables()
    return ilp.system({v: v in b.nonneg for v in sorted(names)}, cons)


def concretize_by_lin(value, names):
    """`logic.concretize` as written with `lin` and `atom`: one `lin` per
    side of each output's equation."""
    parts = []
    for comp in value.components:
        gens = tuple(comp.gens)
        lams = tuple([f"l{i + 1}" for i in range(len(gens))])
        eqs = []
        for j, name in enumerate(names):
            rhs = lg.lin({lams[i]: g[j] for i, g in enumerate(gens)},
                         comp.base[j])
            eqs.append(lg.atom(lg.lin(((name, 1),)), "=", rhs))
        parts.append(lg.exists(lams, lg.conj(*eqs)))
    return lg.disj(*parts)


# --- Horn clauses -------------------------------------------------------------

def _horn_value(node, env):
    """Value of a ground head or guard term of an exported Horn script."""
    if node.kind == "int":
        return node.value
    if node.kind == "sym":
        return node.value == "true" if node.value in ("true", "false") \
            else env[node.value]
    op = node.value[0].value
    vals = [_horn_value(a, env) for a in node.value[1:]]
    if op == "-" and len(vals) == 1:
        return -vals[0]
    return {"+": sum, "*": math.prod, "and": all,
            "ite": lambda v: v[1] if v[0] else v[2],
            "not": lambda v: not v[0],
            "<": lambda v: v[0] < v[1]}[op](vals)


def horn_facts(script, rounds):
    """predicate -> set of argument tuples derived from the clauses of an
    exported Horn script in `rounds` bottom-up rounds, the query left out.

    A round applies every clause that is not an alias clause to the facts
    of the rounds before it (a ground fact holds in every round), then
    closes the facts under the alias clauses (X v => Y v), which add no
    node; a `<` guard binds its Boolean through its defining equality.
    This is how `reachable_values` counts tree height."""
    ground, rules, aliases = [], [], []
    for node in parse_sexprs(script.decode()):
        if node.value[0].value != "assert":
            continue
        body = node.value[1]
        if body.value[0].value != "forall":
            ground.append((body.value[0].value,
                           tuple(_horn_value(a, {}) for a in body.value[1:])))
            continue
        _, guard, head = body.value[2].value
        if head.kind == "sym":  # the query: (=> ... false)
            continue
        atoms = guard.value[1:] if guard.value[0].value == "and" \
            else (guard,)
        preds = [(a.value[0].value, [v.value for v in a.value[1:]])
                 for a in atoms if a.value[0].value != "="]
        eqs = [(a.value[1].value, a.value[2])
               for a in atoms if a.value[0].value == "="]
        out = (head.value[0].value, head.value[1:])
        if not eqs and len(preds) == 1 and \
                [v.value for v in out[1]] == preds[0][1]:
            aliases.append((preds[0][0], out[0]))
        else:
            rules.append((preds, eqs, out))
    facts = {}
    for _ in range(rounds):
        new = list(ground)
        for preds, eqs, (name, args) in rules:
            pools = [facts.get(p, ()) for p, _ in preds]
            for combo in itertools.product(*pools):
                env = {}
                for (_, vs), vals in zip(preds, combo):
                    env.update(zip(vs, vals))
                for b, rhs in eqs:
                    env[b] = _horn_value(rhs, env)
                new.append((name, tuple(_horn_value(a, env) for a in args)))
        for name, vals in new:
            facts.setdefault(name, set()).add(vals)
        moved = True
        while moved:
            moved = False
            for src, dst in aliases:
                extra = facts.get(src, set()) - facts.get(dst, set())
                if extra:
                    facts.setdefault(dst, set()).update(extra)
                    moved = True
    return facts
