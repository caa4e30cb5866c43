"""Solving mixed Boolean/integer equation systems.

Boolean-only systems are finite-domain and fall to plain iteration.
Mixed systems alternate: solve the Boolean equations against the last
integer valuation, then freeze the guards, expand every conditional
into projection products, index away the projections, and resolve the
integer equations.  The alternation stops when the Boolean valuations
repeat, which is guaranteed within one round per nonterminal and
Boolean pattern.
"""

from dataclasses import dataclass, field

from . import semilinear as sl
from .booldom import LessThanCache, abs_and, abs_not, all_true, neg
from .gfa import (
    Factor, IntMonomial, PolynomialSystem,
    build_equations, restrict, stratify, substitute,
)
from .grammar import BOOL, IterationOverrun
from .ilp import Solver
from .newton import npa_solve
from .rewrite import masked, normalize, rem_if


def _ref(arg, nu):
    """Value of a nonterminal reference, or the constant argument itself."""
    return nu[arg] if isinstance(arg, str) else arg


def _bool_value(m, nu_bool, nu_int, lt):
    if m.op == "copy":
        return _ref(m.args[0], nu_bool)
    if m.op == "not":
        return abs_not(_ref(m.args[0], nu_bool))
    if m.op == "and":
        return abs_and(_ref(m.args[0], nu_bool),
                       _ref(m.args[1], nu_bool))
    if m.op == "lessthan":
        return lt.abs_less_than(_ref(m.args[0], nu_int),
                                _ref(m.args[1], nu_int))
    raise ValueError(m.op)


def solve_bool(equations, nu_int, lt, dimension):
    """Least fixpoint of Boolean-vector-set equations by plain iteration.

    Returns (valuation, iterations); the count includes the final
    confirming pass and stays within 2^d per Boolean nonterminal.
    """
    bound = (2 ** dimension) * max(1, len(equations)) + 1
    nu = {b: frozenset() for b in equations}
    iterations = 0
    while True:
        iterations += 1
        if iterations > bound:
            raise IterationOverrun(
                f"Boolean iteration exceeded its bound of {bound}")
        new = {}
        for b, monos in equations.items():
            acc = set(nu[b])
            for m in monos:
                acc |= _bool_value(m, nu, nu_int, lt)
            new[b] = frozenset(acc)
        if new == nu:
            return nu, iterations
        nu = new


def expand_ite(sys, guards):
    """Replace every conditional by projection products under frozen
    guards: one monomial proj(then, b) (x) proj(else, not b) per guard
    pattern b.  Returns the integer-sorted part of the system."""
    equations = {}
    for nt, monos in sys.equations.items():
        if sys.sorts[nt] == BOOL:
            continue
        out = []
        for m in monos:
            if isinstance(m, IntMonomial):
                out.append(m)
                continue
            bset = _ref(m.guard, guards)
            for b in sorted(bset, reverse=True):
                coeff = None
                factors = []
                if isinstance(m.then_arg, str):
                    factors.append(Factor(m.then_arg, b))
                else:
                    coeff = m.then_arg.project(b)
                nb = neg(b)
                if isinstance(m.else_arg, str):
                    factors.append(Factor(m.else_arg, nb))
                else:
                    part = m.else_arg.project(nb)
                    coeff = part if coeff is None else coeff.extend(part)
                if coeff is None:
                    coeff = sl.one(len(b))
                out.append(IntMonomial(coeff, tuple(factors)))
        equations[nt] = tuple(out)
    return PolynomialSystem(equations, sys.dimension,
                            {nt: s for nt, s in sys.sorts.items()
                             if s != BOOL})


@dataclass
class MutualResult:
    values: dict
    outer_iterations: int


def solve_mutual(sys, solver, trace=None):
    """Alternating solve for a stratum with a Boolean nonterminal or a
    conditional; a Boolean-only one settles in one round."""
    d = sys.dimension
    int_names = [nt for nt in sys.equations if sys.sorts[nt] != BOOL]
    bool_eqs = {nt: monos for nt, monos in sys.equations.items()
                if sys.sorts[nt] == BOOL}
    lt = LessThanCache(solver)
    bound = len(sys.equations) * (2 ** d)
    nu_int = {nt: sl.ZERO for nt in int_names}
    prev_bool = None
    outer = 0
    while True:
        nu_bool, _ = solve_bool(bool_eqs, nu_int, lt, d)
        if trace is not None:
            trace.append({"iteration": outer, "bool": dict(nu_bool)})
        if prev_bool is not None and nu_bool == prev_bool:
            return MutualResult({**nu_int, **nu_bool}, outer)
        if outer > bound:
            raise IterationOverrun(
                f"alternation exceeded its bound of {bound}")
        prev_bool = nu_bool
        masked_sys = rem_if(expand_ite(sys, nu_bool), int_names)
        solved = npa_solve(masked_sys, solver)
        top = all_true(d)
        nu_int = {nt: solved[masked(nt, top)] for nt in int_names}
        outer += 1


@dataclass
class SolveResult:
    values: dict                      # nonterminal -> abstract value
    strata: list = field(default_factory=list)
    mutual_iterations: dict = field(default_factory=dict)

    def value(self, nt):
        return self.values[nt]


class Compiled:
    """A grammar normalized, and its strata, made once for every example
    set: the strata are read off the normalized grammar's productions."""

    def __init__(self, g):
        self.grammar = normalize(g)
        self.strata = stratify(self.grammar)


def solve(g, e, solver=None, trace=None, compiled=None):
    """Full pipeline: normalize the grammar, build equations, and solve
    stratum by stratum in dependence order.  A caller that solves `g` on
    many example sets passes one `Compiled(g)` to every call, so `g` is
    normalized and stratified once."""
    solver = solver if solver is not None else Solver()
    compiled = compiled if compiled is not None else Compiled(g)
    sys = build_equations(compiled.grammar, e)
    values = {}
    result = SolveResult(values, compiled.strata)
    for stratum in compiled.strata:
        sub = substitute(restrict(sys, stratum), values)
        mixed = any(sys.sorts[nt] == BOOL for nt in stratum) or sub.has_ite()
        if mixed:
            res = solve_mutual(sub, solver, trace)
            values.update(res.values)
            result.mutual_iterations[stratum] = res.outer_iterations
        else:
            values.update(npa_solve(sub, solver, trace=trace))
    return result
