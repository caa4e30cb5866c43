"""Linear integer arithmetic formulas over named variables.

Two layers share this representation: specifications (atoms over the
declared inputs plus the function-output slot) and concretizations of
abstract values (atoms over output coordinates ``o1..od`` with
existentially quantified multiplier variables).  Deciding a formula
walks its disjunctive normal form depth first, splitting one disjunction
at a time.  Each partial conjunction before a split and each branch is
decided exactly, by one feasibility check: a refuted partial conjunction
is dropped with all of its branches, and the first sat branch decides.
Each partial conjunction and branch carries its system as an
`ilp.Closure` (exact bound propagation), its parent's extended by the
atoms it added; propagation is monotone, so that is the closure of its
whole system.  The solver answers from it where propagation settles the
system.  A partial conjunction, and a branch whose caller reads no
witness, is asked for its status only, so exact elimination settles it
where it can; the rest reach branch and bound.
"""

import itertools
from typing import NamedTuple

from . import ilp
from .grammar import numeral

RELOPS = ("=", "<", "<=", ">", ">=", "!=")
# the relation that holds exactly where `rel` does not
COMPLEMENT = {"=": "!=", "<": ">=", "<=": ">", ">": "<=", ">=": "<",
              "!=": "="}


class LinTerm(NamedTuple):
    """Integer-linear expression: sum of coeff*var products plus a constant."""

    coeffs: tuple[tuple[str, int], ...]
    const: int = 0

    def evaluate(self, env):
        return sum(c * int(env[v]) for v, c in self.coeffs) + self.const

    def variables(self):
        return {v for v, _ in self.coeffs}

    def __str__(self):
        parts = []
        for v, c in self.coeffs:
            parts.append(f"{c}*{v}" if c != 1 else v)
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


def lin(coeffs=(), const=0):
    if hasattr(coeffs, "items"):
        coeffs = coeffs.items()
    acc = {}
    for v, c in coeffs:
        acc[v] = acc.get(v, 0) + c
    return LinTerm(tuple(sorted((v, c) for v, c in acc.items() if c)), const)


def lin_add(a, b):
    return lin(tuple(a.coeffs) + tuple(b.coeffs), a.const + b.const)


def lin_scale(a, k):
    return lin(tuple([(v, k * c) for v, c in a.coeffs]), k * a.const)


def lin_sub(a, b):
    return lin_add(a, lin_scale(b, -1))


class LiaFormula(NamedTuple):
    """op is one of true/false/atom/and/or/not/exists.

    Atoms hold (lhs, relop, rhs); exists binds integer variables that
    are nonnegative when ``nonneg`` is set (the multiplier convention).
    """

    op: str
    args: tuple = ()
    atom: tuple = None
    bound: tuple = ()
    nonneg: bool = True


TRUE = LiaFormula("true")
FALSE = LiaFormula("false")


def atom(lhs, rel, rhs):
    if rel not in RELOPS:
        raise ValueError(f"unknown relation {rel!r}")
    if not isinstance(lhs, LinTerm):
        lhs = lin(const=int(lhs))
    if not isinstance(rhs, LinTerm):
        rhs = lin(const=int(rhs))
    return LiaFormula("atom", atom=(lhs, rel, rhs))


def conj(*fs):
    flat = []
    for f in fs:
        if f.op == "false":
            return FALSE
        if f.op == "true":
            continue
        flat.extend(f.args if f.op == "and" else (f,))
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return LiaFormula("and", tuple(flat))


def disj(*fs):
    flat = []
    for f in fs:
        if f.op == "true":
            return TRUE
        if f.op == "false":
            continue
        flat.extend(f.args if f.op == "or" else (f,))
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return LiaFormula("or", tuple(flat))


def neg(f):
    return LiaFormula("not", (f,))


def exists(bound, body, nonneg=True):
    if not bound:
        return body
    return LiaFormula("exists", (body,), bound=tuple(bound), nonneg=nonneg)


def evaluate(f, env):
    """Evaluate a quantifier-free formula under an integer environment."""
    if f.op == "true":
        return True
    if f.op == "false":
        return False
    if f.op == "atom":
        lhs, rel, rhs = f.atom
        a, b = lhs.evaluate(env), rhs.evaluate(env)
        return {"=": a == b, "<": a < b, "<=": a <= b,
                ">": a > b, ">=": a >= b, "!=": a != b}[rel]
    if f.op == "and":
        return all(evaluate(g, env) for g in f.args)
    if f.op == "or":
        return any(evaluate(g, env) for g in f.args)
    if f.op == "not":
        return not evaluate(f.args[0], env)
    raise ValueError(f"cannot evaluate quantified formula ({f.op})")


def substitute(f, mapping):
    """Replace variables by LinTerms (or ints) throughout a formula."""
    terms = {v: t if isinstance(t, LinTerm) else lin(const=int(t))
             for v, t in mapping.items()}
    return _substitute(f, terms)


def _substitute(f, terms):
    if f.op == "atom":
        lhs, rel, rhs = f.atom
        return LiaFormula("atom", atom=(_sub_term(lhs, terms), rel,
                                        _sub_term(rhs, terms)))
    if f.op in ("true", "false"):
        return f
    if f.op == "exists" and any(v in terms for v in f.bound):
        raise ValueError("substitution would capture a bound variable")
    return LiaFormula(f.op, tuple([_substitute(g, terms) for g in f.args]),
                      bound=f.bound, nonneg=f.nonneg)


def _sub_term(t, terms):
    """t with every mapped variable replaced: coefficients are summed in
    one dict and sorted once, the canonical form `lin` gives."""
    acc = {}
    const = t.const
    for v, c in t.coeffs:
        s = terms.get(v)
        if s is None:
            acc[v] = acc.get(v, 0) + c
            continue
        const += c * s.const
        for w, k in s.coeffs:
            acc[w] = acc.get(w, 0) + c * k
    return LinTerm(tuple(sorted((v, c) for v, c in acc.items() if c)), const)


# --- normal forms -----------------------------------------------------------

def _positive_atom(lhs, rel, rhs):
    # normalize to {=, <, <=} with possibly a disjunctive split
    if rel == ">":
        return atom(rhs, "<", lhs)
    if rel == ">=":
        return atom(rhs, "<=", lhs)
    if rel == "!=":
        return disj(atom(lhs, "<", rhs), atom(rhs, "<", lhs))
    return atom(lhs, rel, rhs)


def _prepare(f, negate, renaming, fresh):
    """f, negated when `negate` is set, in negation normal form with atoms
    over {=, <, <=} and every bound variable renamed: the binders take
    q1, q2, ... from `fresh` in pre-order, and `renaming` maps the names
    bound around f to theirs."""
    # a module-level recursion, not a nested closure: a closure that calls
    # itself is a reference cycle left to the cyclic collector on every call
    op = f.op
    if op == "atom":
        lhs, rel, rhs = f.atom
        renamed = renaming and not renaming.keys().isdisjoint(
            lhs.variables() | rhs.variables())
        if renamed:
            lhs, rhs = _rename(lhs, renaming), _rename(rhs, renaming)
        if negate:
            return _positive_atom(lhs, COMPLEMENT[rel], rhs)
        if not renamed and rel in ("=", "<", "<="):
            return f
        return _positive_atom(lhs, rel, rhs)
    if op == "and" or op == "or":
        sub = [_prepare(g, negate, renaming, fresh) for g in f.args]
        return disj(*sub) if (op == "and") == negate else conj(*sub)
    if op == "not":
        return _prepare(f.args[0], not negate, renaming, fresh)
    if op == "exists":
        if negate:
            raise ValueError("negation over a quantifier is not supported")
        ren = dict(renaming)
        names = []
        for v in f.bound:
            ren[v] = f"q{next(fresh)}"
            names.append(ren[v])
        return exists(tuple(names), _prepare(f.args[0], False, ren, fresh),
                      f.nonneg)
    if op == "true" or op == "false":
        return FALSE if (op == "true") == negate else TRUE
    raise ValueError(op)


def _rename(t, renaming):
    """t with its variables renamed: `_sub_term` with each renamed
    variable mapped to its new name, summed in one dict, sorted once."""
    acc = {}
    for v, c in t.coeffs:
        v = renaming.get(v, v)
        acc[v] = acc.get(v, 0) + c
    return LinTerm(tuple(sorted((v, c) for v, c in acc.items() if c)), t.const)


def _branches(f, solver, rows):
    """Yield the closures of the DNF branches of f in order, splitting
    disjunctions lazily.

    Each pending entry holds a cons list of subformulas still to conjoin,
    the `ilp.Closure` of the atoms taken in so far, and the atoms and
    bound variables met since then.  The partial conjunction is checked
    at a disjunction whenever it gained atoms since its last check: its
    closure is extended by the new atoms' rows (the closure of a parent
    plus rows is the closure of the whole conjunction, so nothing is
    propagated twice), and one that `Solver.feasible` decides unsat is
    dropped with every branch extending it.  Only that status is read, so
    the check asks for no witness.  A yielded closure holds all of its
    branch's atoms and variables, so it is the branch's system: a row per
    atom, over the variables of every atom (those whose coefficients
    cancel too) and the bound ones, nonneg where their quantifier says
    so.  `rows` maps an atom to its row and variables, built once per
    atom (`_atom_row`).
    """
    stack = [((_prepare(f, False, {}, itertools.count(1)), None),
              ilp.Closure(), (), ())]
    while stack:
        todo, closure, atoms, bound = stack.pop()
        while todo is not None:
            g, todo = todo
            if g.op == "atom":
                atoms += (g.atom,)
            elif g.op == "and":
                for h in reversed(g.args):
                    todo = (h, todo)
            elif g.op == "exists":
                bound += tuple([(v, g.nonneg) for v in g.bound])
                todo = (g.args[0], todo)
            elif g.op == "or":
                if atoms:
                    closure = _extend(closure, atoms, bound, rows)
                    atoms = bound = ()
                    if solver.feasible(closure, witness=False).status \
                            == "unsat":
                        break
                for h in reversed(g.args):
                    stack.append(((h, todo), closure, atoms, bound))
                break
            elif g.op == "false":
                break
            elif g.op != "true":
                raise ValueError(g.op)
        else:
            yield _extend(closure, atoms, bound, rows)


def _atom_row(a, rows):
    """The row of atom a and the variables of both its sides, from `rows`
    or built there."""
    row = rows.get(a)
    if row is None:
        lhs, rel, rhs = a
        coeffs = dict(lhs.coeffs)  # lhs - rhs <rel> 0
        for v, k in rhs.coeffs:
            coeffs[v] = coeffs.get(v, 0) - k
        row = rows[a] = (ilp.constraint(coeffs, rel, rhs.const - lhs.const),
                         lhs.variables() | rhs.variables())
    return row


def _extend(closure, atoms, bound, rows):
    """`closure` with the `bound` variables ((name, nonneg) pairs) and the
    variables of `atoms` declared, and their rows taken in.  A bound
    variable is declared before any atom names it; the other atom
    variables are free."""
    variables = list(bound)
    cons = []
    for a in atoms:
        c, names = _atom_row(a, rows)
        cons.append(c)
        variables += [(v, False) for v in names]
    return closure.add(cons, variables)


def decide(f, solver, rows=None, witness=True):
    """Return ('sat', witness) or ('unsat', None); may raise BudgetExceeded.

    The witness is that of the first sat branch in DNF order; with
    `witness=False` the answer is ('sat', None), and each branch is asked
    for its status only.
    Each atom's row is built once and shared by the partial conjunctions
    and the branches that contain it: once per call, or once for every
    call given the same `rows` dict (an atom's row depends on the atom
    alone).  The solver decides each branch's closure where propagation
    settles it, by elimination where only the status is asked and no row
    is left, and by branch and bound on the full system otherwise.
    """
    for closure in _branches(f, solver, {} if rows is None else rows):
        res = solver.feasible(closure, witness=witness)
        if res.status == "sat":
            return "sat", dict(res.witness) if witness else None
    return "unsat", None


# --- concretization ---------------------------------------------------------

def output_names(dim):
    return tuple([f"o{j + 1}" for j in range(dim)])


def concretize(value, names=None):
    """Formula over the output coordinates whose models are the set's points:
    per component, exists l1..lk >= 0 with o_j = base_j + sum_i l_i g_ij.
    Each side is built in `lin`'s canonical form (coefficients sorted by
    name, zeros dropped), the multipliers sorted once per component."""
    if names is None:
        if value.dim is None:
            return FALSE
        names = output_names(value.dim)
    outs = [LinTerm(((name, 1),)) for name in names]
    parts = []
    for comp in value.components:
        gens = tuple(comp.gens)
        lams = tuple([f"l{i + 1}" for i in range(len(gens))])
        by_name = sorted(zip(lams, gens))  # l10 sorts before l2
        eqs = []
        for j, out in enumerate(outs):
            rhs = LinTerm(tuple([(lam, g[j]) for lam, g in by_name if g[j]]),
                          comp.base[j])
            eqs.append(LiaFormula("atom", atom=(out, "=", rhs)))
        parts.append(exists(lams, conj(*eqs)))
    return disj(*parts)


def concretize_bools(bset, names):
    """Formula over 0/1 output coordinates matching a set of Boolean vectors."""
    return disj(*[conj(*[atom(lin(((n, 1),)), "=", b)
                         for n, b in zip(names, p)]) for p in points(bset)])


def points(value):
    """The output vectors of a start value, in the order `concretize` and
    `concretize_bools` list their disjuncts: a semi-linear set's component
    bases in canonical order, or a Boolean set's vectors sorted in reverse
    and written as 0/1.  None when a component has a generator, so the
    value is not a finite set of points."""
    if isinstance(value, (frozenset, set)):
        return [tuple([1 if b else 0 for b in vec])
                for vec in sorted(value, reverse=True)]
    if any(comp.gens for comp in value.components):
        return None
    return [comp.base for comp in value.components]


def build_query(value, ps):
    """Abstract start value constrained by the per-example specification."""
    names = output_names(len(ps.formulas))
    if isinstance(value, (frozenset, set)):
        gamma = concretize_bools(value, names)
    else:
        gamma = concretize(value, names)
    return conj(gamma, *ps.formulas)


# --- SMT-LIB rendering ------------------------------------------------------

def render_lin(t, names=None):
    """S-expression of a linear term; `names` maps a variable to the text
    written in its place."""
    parts = []
    for v, c in t.coeffs:
        v = names.get(v, v) if names else v
        if c == 1:
            parts.append(v)
        else:
            parts.append(f"(* {numeral(c)} {v})")
    if t.const or not parts:
        parts.append(numeral(t.const))
    if len(parts) == 1:
        return parts[0]
    return "(+ " + " ".join(parts) + ")"


def render(f, names=None):
    """S-expression of a quantifier-free formula; `names` as for
    `render_lin`."""
    if f.op == "atom":
        lhs, rel, rhs = f.atom
        op = "distinct" if rel == "!=" else rel
        return f"({op} {render_lin(lhs, names)} {render_lin(rhs, names)})"
    if f.op in ("and", "or"):
        return f"({f.op} " + " ".join(render(g, names) for g in f.args) + ")"
    if f.op == "not":
        return f"(not {render(f.args[0], names)})"
    if f.op in ("true", "false"):
        return f.op
    raise ValueError(f"cannot render {f.op}: formulas here are "
                     f"quantifier-free")
