"""Fixpoint solving of join-of-products equation systems over semi-linear sets.

The least solution of ``X_i = join of monomials over the X_j`` is found
by Newton iteration: linearize the right-hand sides at the current
valuation via a formal derivative, solve the resulting linear system
exactly with star-based Gaussian elimination, and join the increment
into the valuation.  Over this commutative idempotent domain the least
fixpoint is reached after at most one iteration per variable, and the
iteration stops at the first step that leaves the valuation as it was.
"""

from . import semilinear as sl
from .gfa import IntMonomial


def monomial_value(m, nu):
    out = m.coeff
    for f in m.factors:
        out = out.extend(nu[f.var])
    return out


def derivative(m, wrt, nu):
    """Formal partial derivative of a product monomial at a valuation."""
    out = sl.ZERO
    for i, f in enumerate(m.factors):
        if f.var != wrt:
            continue
        if f.mask is not None:
            raise ValueError("projection masks must be removed before solving")
        part = m.coeff
        for j, other in enumerate(m.factors):
            if j != i:
                part = part.extend(nu[other.var])
        out = out.combine(part)
    return out


def solve_linear(variables, a, c, dimension):
    """Least solution of Y_i = join_j a[i,j] (x) Y_j (+) c[i] (`a` maps
    (i, j) to a semi-linear set, zero entries absent) by variable
    elimination with X = a* (x) b."""
    a = dict(a)
    c = dict(c)
    remaining = list(variables)
    solved_rows = []
    while remaining:
        occurrences = {v: 0 for v in remaining}
        for (i, j), value in a.items():
            if not value.is_zero:
                occurrences[i] += 1
                occurrences[j] += 1
        x = min(remaining, key=lambda v: (occurrences[v], v))
        remaining.remove(x)
        self_loop = a.pop((x, x), sl.ZERO)
        star = self_loop.star(dimension)
        row = {}
        for j in remaining:
            entry = a.pop((x, j), sl.ZERO)
            if not entry.is_zero:
                row[j] = star.extend(entry)
        const = star.extend(c.get(x, sl.ZERO))
        solved_rows.append((x, row, const))
        for i in remaining:
            k = a.pop((i, x), sl.ZERO)
            if k.is_zero:
                continue
            for j, entry in row.items():
                a[(i, j)] = a.get((i, j), sl.ZERO).combine(k.extend(entry))
            c[i] = c.get(i, sl.ZERO).combine(k.extend(const))
    values = {}
    for x, row, const in reversed(solved_rows):
        acc = const
        for j, entry in row.items():
            acc = acc.combine(entry.extend(values[j]))
        values[x] = acc
    return values


def npa_solve(sys, solver=None, trace=None):
    """Least fixpoint by Newton iteration: at most one step per variable,
    and none after the first step that leaves the valuation unchanged.

    Stopping there is exact.  A step's linear system has the right-hand
    sides f(nu) as its constant part, so its solution contains f(nu); if
    joining it into nu changes nothing, nu is a pre-fixpoint, and Newton
    iterates never exceed the least fixpoint, so nu is that fixpoint.
    A step is a function of nu alone, so every later step would repeat
    it.  Each step's valuation is appended to `trace`, the repeating one
    included.  A system with no factor in any monomial runs no step and
    appends nothing: its initial valuation, the join of its constants, is
    what its one step would return.
    """
    variables = tuple(sys.equations)
    member = solver.member if solver is not None else None

    def tidy(value):
        return sl.prune(value, member) if member is not None else value

    nu = {}
    for x, monos in sys.equations.items():
        consts = [m.coeff for m in monos
                  if isinstance(m, IntMonomial) and not m.factors]
        if any(not isinstance(m, IntMonomial) for m in monos):
            raise ValueError("only integer product monomials can be solved here")
        nu[x] = tidy(sl.combine_all(consts))
    if not any(m.factors for monos in sys.equations.values() for m in monos):
        return nu

    for step in range(len(variables)):
        a, c = {}, {}
        for x, monos in sys.equations.items():
            total = sl.ZERO
            for m in monos:
                total = total.combine(monomial_value(m, nu))
                for y in {f.var for f in m.factors}:
                    d = derivative(m, y, nu)
                    if not d.is_zero:
                        a[(x, y)] = a.get((x, y), sl.ZERO).combine(d)
            c[x] = total
        delta = solve_linear(variables, a, c, sys.dimension)
        new = {x: tidy(nu[x].combine(delta[x])) for x in variables}
        if trace is not None:
            trace.append({x: str(new[x]) for x in variables})
        if new == nu:
            break
        nu = new
    return nu

