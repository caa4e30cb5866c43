"""Exact integer linear feasibility.

Systems are conjunctions of linear constraints with integer coefficients
over integer variables, some restricted to be nonnegative.  Decisions are
exact.  A system is a `Closure`: its variables and rows, each row
normalized (`presolve_row`), and the integer bounds propagated from
them: rows on one variable become bounds, fixed variables are
substituted, and a system whose bounds cross, or that pins every
variable to one point, is decided there with 0 nodes (singleton-row and
fixed-column reduction; Andersen & Andersen 1995, Savelsbergh 1994).  A
closure is extended row by row and never changed in place.  Propagation
is monotone (bounds only tighten, fixed variables only accumulate), so
extending a parent's closure by one row gives the closure the whole
system would get from scratch: the prefix searches of `booldom` and
`logic` extend their parents' closures and hand each one to
`Solver.feasible`.  The solver answers from the closure where
propagation decides, and only the systems it leaves open are counted,
exported and searched.

A caller that reads only sat/unsat (a CEGIS round's check, a partial
conjunction of `logic`, `Solver.member`) has an open system decided by
exact elimination first: an equality with a unit coefficient on a
variable no other row mentions is solved for that variable, whose
bounds become rows on the rest (column-singleton substitution, same
reference).  A system with no row left is decided there, with 0 nodes.
A one-variable row, from propagation or elimination, becomes an integer
bound in `Closure._row_bound` alone.

Every other system, and every one whose witness is read, goes to branch
and bound on its normalized rows in the order they were taken in, over
its variables sorted by name, not on the reduced rows, so its LP path,
vertex and witness are those of the full system.  The LP relaxations
are solved with a phase-1 simplex over Python ints (fraction-free
Bareiss pivoting, Bland's rule), and integrality is recovered by branch
and bound.  Before the first branch, the equality rows are checked for
an integer solution (Hermite normal form), which settles lattice gaps
outright.  Completeness on unbounded
polyhedra comes from an a-priori magnitude bound: if an integer solution
exists at all, one exists inside a computable box.  The search deepens
its box from |x| <= 16 by squaring up to that bound (computed only once
a node past the root needs the box), so a dive along an unbounded ray of
the relaxation is cut off early, every search tree is finite, and the
last box makes "unsat" exact.

Every sat answer is re-verified by substituting the witness into all
constraints; a failed recheck raises, it is never reported as a result.

`Solver.member` decides membership in a linear set with at most one
generator g by arithmetic: p - u = lam * g for one integer lam >= 0,
read off a nonzero coordinate of g by division.  Only a set with two or
more generators makes a system.

`Constraint` and `Feasibility` are `typing.NamedTuple`s: they compare,
order and hash as the tuples of their fields, as a frozen dataclass
does, but in C, which matters on the hot paths.  They are never
iterated, unpacked or mixed with plain tuples in one dict or set.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, repeat
from operator import gt
from typing import NamedTuple

from .grammar import numeral

EQ, LE, LT = "=", "<=", "<"


class Constraint(NamedTuple):
    coeffs: tuple[tuple[str, int], ...]  # sorted by variable name, no zero coeffs
    rel: str                             # "=", "<=" or "<"
    rhs: int

    def __str__(self) -> str:
        lhs = " + ".join(f"{c}*{v}" for v, c in self.coeffs) or "0"
        return f"{lhs} {self.rel} {self.rhs}"


def constraint(coeffs: dict[str, int], rel: str, rhs: int) -> Constraint:
    if rel not in (EQ, LE, LT):
        raise ValueError(f"unknown relation {rel!r}")
    items = tuple(sorted((v, int(c)) for v, c in coeffs.items() if c != 0))
    return Constraint(items, rel, int(rhs))


class Feasibility(NamedTuple):
    status: str                      # "sat" or "unsat"
    witness: dict[str, int] | None = None
    nodes: int = 0


class BudgetExceeded(Exception):
    pass


def _check_witness(variables, constraints, w: dict[str, int]) -> None:
    """Raise AssertionError unless w satisfies every (name, nonneg) pair
    of `variables` and every constraint."""
    for name, nonneg in variables:
        if nonneg and w.get(name, 0) < 0:
            raise AssertionError(f"witness violates {name} >= 0")
    for c in constraints:
        lhs = sum(k * w.get(v, 0) for v, k in c.coeffs)
        ok = lhs == c.rhs if c.rel == EQ else lhs <= c.rhs if c.rel == LE else lhs < c.rhs
        if not ok:
            raise AssertionError(f"witness violates {c}")


def _magnitude_bound(closure: Closure) -> int:
    """Box radius within which some integer solution lies, if any does.

    Uses the classical small-solution bound for integer programs in
    standard form Ax = b, x >= 0: a feasible system has a solution with
    entries at most n * (m * a)^(2m + 1) where a bounds the absolute values
    of all coefficients.  Inequalities contribute slack variables and free
    variables are split into differences of nonnegative ones before
    counting, so the bound applies to the original variables as well.
    """
    n = 0
    for nonneg in closure.variables.values():
        n += 1 if nonneg else 2
    m = len(closure.constraints)
    n += sum(1 for c in closure.constraints if c.rel != EQ)
    a = 1
    for c in closure.constraints:
        for _, k in c.coeffs:
            a = max(a, abs(k))
        rhs = c.rhs if c.rel != LT else c.rhs - 1
        a = max(a, abs(rhs))
    if m == 0:
        return 1
    return max(1, n) * (max(1, m) * a) ** (2 * m + 1)


def _phase1_simplex(rows: list[list[int]], nvars: int) -> list[int | Fraction] | None:
    """Feasible point of {x >= 0 : Ax = b} or None.

    `rows` holds [A | b] with b >= 0 (callers normalize signs).  Artificial
    variables are appended and driven out by minimizing their sum; Bland's
    rule guarantees termination.  The tableau [A | I | b] is built here,
    so `rows` is never changed.

    The tableau is kept fraction-free (Edmonds; Bareiss 1968): integer rows
    `tab` and `obj` over one positive common denominator `den`, which is the
    determinant of the current basis.  Pivoting on p = tab[r][c] leaves row
    r as it is and maps every other entry x of row i to
    (p * x - tab[i][c] * tab[r][j]) / den, a division that is always exact;
    then den = p.  Every pivot is positive, so signs and the ratio test
    (by cross-multiplication) read as they do on the rational tableau, and
    the pivot sequence is exactly that of the rational simplex.  The point
    is an int where `den` divides its numerator, a `Fraction` elsewhere.

    The tableaux here are wide and sparse, and most pivots have p == den.
    Such a pivot leaves a row whose entering entry f is 0 as it is, and
    maps an entry x of any other row to x - f * y / den, where y is the
    pivot row's entry in that column (exact, as above): x itself where y
    is 0.  So only the rows with f != 0 are touched, in place, and only
    on the pivot row's support, collected once per pivot (the scans run in
    C, by `compress`).  Every entry written is the one the full-row update
    writes, which keeps Bland's choice of entering column, the ratio
    test's tie-break and hence the pivot path and the vertex as they are.
    """
    m = len(rows)
    if m == 0:
        return [0] * nvars
    total = nvars + m
    tab = []
    for i, row in enumerate(rows):
        unit = [0] * m
        unit[i] = 1
        tab.append(row[:nvars] + unit + row[nvars:])
    # objective row: minimize sum of artificials, expressed over nonbasic columns
    sums = list(map(sum, zip(*rows)))
    obj = sums[:nvars] + [0] * m + sums[nvars:]
    basis = list(range(nvars, total))
    den = 1
    zeros = repeat(0)
    columns, width, height = range(total), range(total + 1), range(m)

    while True:
        enter = next(compress(columns, map(gt, obj, zeros)), -1)
        if enter < 0:
            break
        col = [row[enter] for row in tab]
        leave, num, dnm = -1, 0, 1
        for i in compress(height, map(gt, col, zeros)):
            a = col[i]
            # tab[i][total] / a against the best ratio so far, num / dnm
            lhs, rhs = tab[i][total] * dnm, num * a
            if leave < 0 or lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave, num, dnm = i, tab[i][total], a
        if leave < 0:
            # unbounded phase-1 objective cannot happen (bounded below by 0)
            return None
        prow = tab[leave]
        piv = col[leave]
        if piv == den:
            support = [(j, prow[j]) for j in compress(width, prow)]
            col[leave] = 0
            for i in compress(height, col):
                row, f = tab[i], col[i]
                for j, y in support:
                    row[j] -= f * y // den
            f = obj[enter]
            if f:
                for j, y in support:
                    obj[j] -= f * y // den
        else:
            for i, row in enumerate(tab):
                if i != leave:
                    tab[i] = _pivoted(row, prow, piv, den, col[i])
            obj = _pivoted(obj, prow, piv, den, obj[enter])
        den = piv
        basis[leave] = enter

    if obj[total] != 0:
        return None
    point = [0] * total
    for i, b in enumerate(basis):
        x = tab[i][total]
        point[b] = x // den if x % den == 0 else Fraction(x, den)
    # artificials may linger in the basis, but only at value zero
    if any(point[nvars:]):
        return None
    return point[:nvars]


def _pivoted(row: list[int], prow: list[int], piv: int, den: int,
             f: int) -> list[int]:
    """`row` (entry f in the pivot column) after the full-row update of a
    pivot on piv != den in `prow`."""
    if f == 0:
        return [piv * x // den for x in row]
    if den == 1:
        return [piv * x - f * y for x, y in zip(row, prow)]
    return [(piv * x - f * y) // den for x, y in zip(row, prow)]


def _lp_feasible(varnames: list[str], lower: dict[str, int | None],
                 upper: dict[str, int | None],
                 constraints: list[tuple[dict[str, int], str, int]],
                 ) -> dict[str, int | Fraction] | None:
    """Rational point satisfying constraints and bounds, or None.

    A variable with a known lower bound is shifted (x = lo + x', x' >= 0);
    one without is split into a difference of nonnegatives.  Upper bounds
    become rows only when present, so the enormous a-priori box never
    enters the tableau.  Each row of [A | b] is written once, with the
    sign that makes b >= 0.
    """
    col: dict[str, int] = {}  # a variable's column; a free one also has col + 1
    shift: dict[str, int | None] = {}  # its lower bound, None when free
    ncols = 0
    for v in varnames:
        col[v], shift[v] = ncols, lower[v]
        ncols += 1 if lower[v] is not None else 2

    raw = list(constraints)
    for v in varnames:
        if upper[v] is not None:
            raw.append(({v: 1}, LE, upper[v]))

    nslack = sum(1 for _, rel, _ in raw if rel == LE)
    width = ncols + nslack
    rows: list[list[int]] = []
    slack = ncols
    for coeffs, rel, rhs in raw:
        b = rhs
        for v, k in coeffs.items():
            if shift[v]:
                b -= k * shift[v]
        s = -1 if b < 0 else 1
        row = [0] * width
        for v, k in coeffs.items():
            j = col[v]
            row[j] += s * k
            if shift[v] is None:
                row[j + 1] -= s * k
        if rel == LE:
            row[slack] = s
            slack += 1
        row.append(s * b)
        rows.append(row)

    point = _phase1_simplex(rows, width)
    if point is None:
        return None
    return {v: point[col[v]] + shift[v] if shift[v] is not None
            else point[col[v]] - point[col[v] + 1] for v in varnames}


def presolve_row(c: Constraint) -> tuple[dict[str, int], str, int] | None:
    """The row of one constraint, normalized; None when it alone has no
    integer solution.

    A strict inequality becomes nonstrict and the row is divided by the
    gcd of its coefficients; an equality whose gcd does not divide its
    right-hand side is a lattice infeasibility.  A row on no variable is
    returned as it is, for propagation to check.
    """
    coeffs = dict(c.coeffs)
    rhs = c.rhs - 1 if c.rel == LT else c.rhs
    rel = EQ if c.rel == EQ else LE
    if coeffs:
        g = math.gcd(*coeffs.values())
        if g > 1:
            if rel == EQ:
                if rhs % g:
                    return None
                rhs //= g
            else:
                rhs //= g  # floor: an integer row rounds its bound inward
            coeffs = {v: k // g for v, k in coeffs.items()}
    return coeffs, rel, rhs


class Closure:
    """Exact bound propagation over a conjunction that grows row by row.

    A closure is a system: it holds the declared variables and every row
    it has taken in, in order, and what propagation made of their
    presolved forms: the integer bounds (a nonneg variable starts with
    lower bound 0), the variables whose bounds meet (fixed),
    and the rows still on two or more unfixed variables (reduced by the
    fixed ones).  A row left with one variable becomes a bound on it,
    rounded to an integer (a*x <= b gives x <= floor(b/a) for a > 0,
    x >= ceil(b/a) for a < 0; a*x = b gives both, so it fixes x, or
    crosses them when a does not divide b).  A fixed variable is
    substituted into every row, which may leave rows empty (checked) or
    with one variable (a new bound); this repeats until no variable is
    newly fixed (singleton-row and fixed-column reduction; Andersen &
    Andersen 1995, Savelsbergh 1994).  Each step is an integer
    consequence of the rows, so crossed bounds or a violated row mean
    "unsat", and when every variable ends fixed that point is the only
    integer solution, the one branch and bound would return too.

    `add` returns a new closure and leaves its parent as it was.  A child
    that declares nothing new shares its parent's `variables`, `lower`,
    `upper` and `fixed` dicts, and `_bound` copies the last three before
    its first write, so a row that tightens no bound copies nothing.  Bounds
    only tighten and fixed variables only accumulate, so the closure of a
    parent's rows plus one more row equals the closure of all of them
    taken in at once, in any order: a search that extends a prefix by one
    row reuses the prefix's work and decides exactly what a from-scratch
    presolve of the whole system decides (Dutertre & de Moura, CAV 2006,
    keep such state for the simplex; here it is the presolve's).
    """

    __slots__ = ("variables", "constraints", "lower", "upper", "fixed",
                 "pending", "unsat", "checked")

    def __init__(self):
        self.variables: dict[str, bool] = {}  # declared: name -> nonneg
        self.constraints: tuple = ()  # every Constraint taken in, in order
        self.lower: dict[str, int | None] = {}
        self.upper: dict[str, int | None] = {}
        self.fixed: dict[str, int] = {}
        self.pending: tuple = ()  # reduced rows on two or more variables
        self.unsat = False
        self.checked = 0  # leading rows that `verdict` rechecked

    def add(self, constraints=(), variables=()) -> Closure:
        """This closure with `variables` ((name, nonneg) pairs) declared
        and `constraints` taken in.  The first declaration of a name
        wins: declaring it again free keeps what it was, and declaring a
        free name nonneg raises ValueError, as does a row on an
        undeclared variable.  An unsat closure still takes in what it is
        given, so that it holds the whole system."""
        new = Closure.__new__(Closure)
        new.unsat, new.pending = self.unsat, self.pending
        new.checked = self.checked
        declared = self.variables
        new.lower, new.upper, new.fixed = self.lower, self.upper, self.fixed
        for v, nonneg in variables:
            if v in declared:
                if nonneg and not declared[v]:
                    raise ValueError(
                        f"free variable {v!r} declared again as nonneg")
                continue
            if declared is self.variables:
                declared = dict(declared)
                new._own(self)
            declared[v] = nonneg
            new.lower[v] = 0 if nonneg else None
            new.upper[v] = None
        new.variables = declared
        seen = len(new.fixed)
        constraints = tuple(constraints)
        scan = []
        for c in constraints:
            for v, _ in c.coeffs:
                if v not in declared:
                    raise ValueError(
                        f"constraint mentions undeclared variable {v!r}")
            row = presolve_row(c)
            if row is None:
                new.unsat = True
            scan.append(row)
        new.constraints = self.constraints + constraints
        if new.unsat:
            return new
        left = list(self.pending)
        fixed = new.fixed
        while True:
            for coeffs, rel, rhs in scan:
                if not fixed.keys().isdisjoint(coeffs):
                    rhs -= sum(k * fixed[v] for v, k in coeffs.items()
                               if v in fixed)
                    coeffs = {v: k for v, k in coeffs.items()
                              if v not in fixed}
                if len(coeffs) > 1:
                    left.append((coeffs, rel, rhs))
                    continue
                if not coeffs:
                    if (rhs != 0) if rel == EQ else (rhs < 0):
                        new.unsat = True
                        return new
                    continue
                ((v, a),) = coeffs.items()
                if not new._row_bound(v, a, rel, rhs, self):
                    return new
                fixed = new.fixed  # a copy once `_bound` has written
            if len(fixed) == seen:
                break
            # a newly fixed variable may reduce rows taken in earlier
            seen = len(fixed)
            scan, left = left, []
        new.pending = tuple(left)
        return new

    def _own(self, parent: Closure) -> None:
        """Copy the bound dicts this closure still shares with `parent`."""
        if self.lower is parent.lower:
            self.lower = dict(self.lower)
            self.upper = dict(self.upper)
            self.fixed = dict(self.fixed)

    def _row_bound(self, v: str, a: int, rel: str, rhs: int,
                   parent: Closure) -> bool:
        """`_bound` by the row a*v <rel> rhs (rel "=" or "<="), rounded
        inward to integers; the one place a row's bound is rounded."""
        lo = -(rhs // -a) if rel == EQ or a < 0 else None
        hi = rhs // a if rel == EQ or a > 0 else None
        return self._bound(v, lo, hi, parent)

    def _bound(self, v: str, lo: int | None, hi: int | None,
               parent: Closure) -> bool:
        """Tighten v's bounds; fix v where they meet.  False (and the
        closure marked unsat) where they cross.  The bound dicts are
        copied from `parent` before the first write."""
        old_lo, old_hi = self.lower[v], self.upper[v]
        if lo is None or (old_lo is not None and lo <= old_lo):
            lo = old_lo
        if hi is None or (old_hi is not None and hi >= old_hi):
            hi = old_hi
        if lo is not None and hi is not None and lo > hi:
            self.unsat = True
            return False
        if lo != old_lo or hi != old_hi:
            self._own(parent)
            self.lower[v], self.upper[v] = lo, hi
            if lo is not None and lo == hi:
                self.fixed[v] = lo
        return True

    def verdict(self) -> Feasibility | None:
        """What propagation decides: "unsat", "sat" with the one point
        left (rechecked against the rows taken in, and keyed by sorted
        name), or None when the rows are left open.

        A fixed value never changes (a tighter bound on it would cross),
        and a row mentions only variables declared before it, so a row
        that held at an ancestor's point holds here too: the recheck
        covers the rows taken in since the last one, which keeps it
        linear along a prefix chain."""
        if self.unsat:
            return Feasibility("unsat", None, 0)
        if len(self.fixed) < len(self.variables):
            return None
        w = {v: self.fixed[v] for v in sorted(self.variables)}
        _check_witness(self.variables.items(),
                       self.constraints[self.checked:], w)
        self.checked = len(self.constraints)
        return Feasibility("sat", w, 0)


def system(variables: dict[str, bool],
           constraints: list[Constraint]) -> Closure:
    """The system of `constraints` over `variables` (name -> nonneg): its
    closure.  A row on an undeclared variable raises ValueError."""
    return Closure().add(constraints, variables.items())


def _eliminate(closure: Closure) -> Feasibility | None:
    """Status of an open closure by exact elimination, or None when a row
    is left (column-singleton substitution; Andersen & Andersen 1995).

    An equality row with a variable v of coefficient +-1 that no other
    pending row mentions is dropped, and v = base - rest is kept for back
    substitution.  v is then an integer affine function of the other
    variables, so the system without the row, and with v's bounds written
    as rows on `rest`, has exactly the integer points of the original,
    each extended by one value of v.  Such a row on one variable becomes
    a bound on a child closure (`Closure._row_bound`, which copies the
    bounds on its first write), and crossed bounds are "unsat".  A row on
    two or more variables is never dropped, so it leaves the system open,
    as does a pending inequality.  When no row is left, every other
    variable takes its lower bound, else its upper, else 0, and the
    eliminated ones follow in reverse order; the point is rechecked
    against every row and only the status is returned.
    """
    rows = list(closure.pending)
    if any(rel != EQ for _, rel, _ in rows):
        return None
    uses: dict[str, int] = {}
    for coeffs, _, _ in rows:
        for v in coeffs:
            uses[v] = uses.get(v, 0) + 1
    child = closure.add()
    solved = []  # (v, base, rest): v = base - sum(k * w for w, k in rest)
    i = 0
    while i < len(rows):
        coeffs, _, rhs = rows[i]
        v = next((v for v, k in coeffs.items()
                  if uses[v] == 1 and (k == 1 or k == -1)), None)
        if v is None:
            i += 1
            continue
        del rows[i]
        for w in coeffs:
            uses[w] -= 1
        a = coeffs[v]
        rest = {w: a * k for w, k in coeffs.items() if w != v}
        base = a * rhs
        solved.append((v, base, rest))
        # v >= lo is rest <= base - lo; v <= hi is -rest <= hi - base
        for s, b in ((1, child.lower[v]), (-1, child.upper[v])):
            if b is None:
                continue
            if len(rest) > 1:
                return None
            ((w, k),) = rest.items()
            if not child._row_bound(w, s * k, LE, s * (base - b), closure):
                return Feasibility("unsat", None, 0)
        i = 0  # a row before this one may have lost its last rival
    if rows:
        return None
    lower, upper = child.lower, child.upper
    point = {v: lo if lo is not None else upper[v] if upper[v] is not None
             else 0 for v, lo in lower.items()}
    for v, base, rest in reversed(solved):
        point[v] = base - sum(k * point[w] for w, k in rest.items())
    _check_witness(closure.variables.items(), closure.constraints, point)
    return Feasibility("sat", None, 0)


def _equalities_integral(varnames: list[str],
                         constraints: list[tuple[dict[str, int], str, int]],
                         ) -> bool:
    """Whether the equality rows alone have an integer solution.

    Unimodular column operations (extended gcd on pairs of columns) bring
    the equality matrix A to column echelon form H = AU.  Ax = b has an
    integer solution exactly when Hy = b does, and forward substitution
    decides that: each pivot must divide what is left of its right-hand
    side.  This is the equality step of the Omega test (Pugh 1992); it
    catches lattice gaps such as x = 2y, x = 2z + 1 that leave rational
    points everywhere and would send branch and bound toward the
    magnitude bound.
    """
    eqs = [(coeffs, rhs) for coeffs, rel, rhs in constraints if rel == EQ]
    rows = [[coeffs.get(v, 0) for v in varnames] for coeffs, _ in eqs]
    n = len(varnames)
    y: list[int] = []  # values of the pivot columns fixed so far
    for i, (row, (_, b)) in enumerate(zip(rows, eqs)):
        k = len(y)
        for j in range(k + 1, n):
            while row[j]:
                q = row[k] // row[j]
                for r in rows[i:]:
                    r[k], r[j] = r[j], r[k] - q * r[j]
        rest = b - sum(row[j] * y[j] for j in range(k))
        if k < n and row[k]:
            if rest % row[k]:
                return False
            y.append(rest // row[k])
        elif rest:
            return False
    return True


def _branch_and_bound(closure: Closure, node_budget: int) -> Feasibility:
    """Branch and bound on the LP relaxation of a system propagation left
    open.

    It runs on the presolved rows in the order they were taken in, over
    the variables sorted by name, not on the rows propagation reduced,
    so the relaxation, its vertices and hence the witness are those of
    the full system.  Branch bounds may descend without the LP ever
    going infeasible (no integer point but rational ones everywhere),
    and a depth-first search (Land & Doig 1960) that follows an
    unbounded ray of the relaxation dives away from every integer
    point.  So the search deepens its box: each pass skips a
    node whose branch bounds leave [-box, box], box = min(R, the
    magnitude bound) for R = 16, 256, 65536, ... (each R the square of
    the last), and the next pass runs only if this one skipped a node
    and found no point.  All passes share `node_budget`; a search that
    needs more nodes raises BudgetExceeded.  The root's bounds are 0 or
    open, so it lies in every box, and the magnitude bound (a power of
    degree 2m + 1) is computed only for the first node past the root: a
    search decided at its root never computes it.

    A pass is finite: every branch on v moves one of v's bounds inward
    by at least 1, a bound whose other side is open cannot pass the box,
    and one with both sides set leaves finitely many moves.  The LP at a
    node does not depend on the box, so a pass visits a subset of the
    nodes of the pass at the magnitude bound, in the same order, and the
    whole search costs at most one such tree per pass, of which there are
    O(log log bound).  A pass that skipped no node searched that tree in
    full, and the last pass is that tree, so the answer "unsat" is exact:
    if an integer point exists, one lies within the magnitude bound.
    """
    variables = sorted(closure.variables.items())
    varnames = [v for v, _ in variables]
    # the closure is not unsat, so every row presolves
    constraints = [r for r in map(presolve_row, closure.constraints) if r[0]]

    lower0: dict[str, int | None] = {v: (0 if nonneg else None)
                                     for v, nonneg in variables}
    upper0: dict[str, int | None] = {v: None for v in varnames}

    nodes = 0
    radius = 16
    bound = None  # computed for the first node past the root
    while True:
        clipped = False
        stack = [(lower0, upper0)]
        while stack:
            lower, upper = stack.pop()
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded(f"ILP node budget {node_budget} exhausted")
            # the root's bounds are 0 or open, so it lies in every box
            if lower is not lower0 or upper is not upper0:
                if bound is None:
                    bound = _magnitude_bound(closure)
                box = min(radius, bound)
                if any((-box if lower[v] is None else lower[v])
                       > (box if upper[v] is None else upper[v])
                       for v in varnames):
                    clipped = True
                    continue
            point = _lp_feasible(varnames, lower, upper, constraints)
            if point is None:
                continue
            frac_var = None
            for v in varnames:
                if point[v].denominator != 1:
                    frac_var = v
                    break
            if frac_var is None:
                w = {v: int(point[v]) for v in varnames}
                _check_witness(variables, closure.constraints, w)
                return Feasibility("sat", w, nodes)
            if nodes == 1 and not _equalities_integral(varnames, constraints):
                return Feasibility("unsat", None, nodes)
            val = point[frac_var]
            floor = val.numerator // val.denominator
            up = dict(upper)
            up[frac_var] = floor if upper[frac_var] is None else min(upper[frac_var], floor)
            lo = dict(lower)
            lo[frac_var] = floor + 1 if lower[frac_var] is None else max(lower[frac_var], floor + 1)
            stack.append((lower, up))
            stack.append((lo, upper))
        if not clipped or radius >= bound:  # clipping computed the bound
            return Feasibility("unsat", None, nodes)
        radius *= radius


class Solver:
    """Feasibility front door with query export and cumulative counters."""

    def __init__(self, node_budget: int = 10 ** 6, export_dir: str | None = None):
        self.node_budget = node_budget
        self.export_dir = export_dir
        self.queries = 0

    def feasible(self, closure: Closure, witness: bool = True) -> Feasibility:
        """Exact integer feasibility of the system `closure` holds: its
        propagation, then branch and bound on the LP relaxation, within
        the solver's node budget; an exhausted budget raises
        BudgetExceeded.  Every prefix, partial conjunction, branch and
        leaf of the searches in `booldom` and `logic` asks this question,
        of a closure extended row by row from its parent's.

        A system propagation decides (refuted rows, or every variable
        fixed to one integer point) is answered from the closure with 0
        nodes; only the systems it leaves open are counted in `queries`,
        exported and searched.  A caller that reads only the status asks
        with `witness=False`: an open system is then decided by
        `_eliminate` where it leaves no row, as "unsat" or as "sat" with
        no witness and 0 nodes, and by `_branch_and_bound` otherwise.  With
        a witness, it always goes to `_branch_and_bound`, whose LP vertex
        is the full system's.
        """
        res = closure.verdict()
        if res is not None:
            return res
        self.queries += 1
        if self.export_dir is not None:
            self._export(closure)
        if not witness:
            res = _eliminate(closure)
            if res is not None:
                return res
        return _branch_and_bound(closure, self.node_budget)

    def member(self, point: tuple[int, ...], ls) -> bool:
        """point in <base, gens>: some nonnegative integer combination works.

        With no generator that is point == base.  With one, g, it is
        point - base = lam * g for an integer lam >= 0; lam is read off the
        first coordinate where g is nonzero, by division, and checked on
        every coordinate.  The one-variable system that says the same
        would be decided by its closure, never counted, exported or
        searched, so no answer or count depends on which decides it.
        More generators make a system for `feasible`, asked for its
        status only.
        """
        if len(point) != len(ls.base):
            raise ValueError("dimension mismatch")
        diff = tuple([p - b for p, b in zip(point, ls.base)])
        if not ls.gens:
            return not any(diff)
        if len(ls.gens) == 1:
            (g,) = ls.gens
            # `linset` drops zero generators, so g has a nonzero entry
            j = next(j for j, x in enumerate(g) if x)
            lam = diff[j] // g[j]  # floored: coordinate j checks it
            return lam >= 0 and all(d == lam * x for d, x in zip(diff, g))
        cons = []
        for i, d in enumerate(diff):
            cons.append(constraint({f"l{j}": g[i] for j, g in enumerate(ls.gens)}, EQ, d))
        nonneg = {f"l{j}": True for j in range(len(ls.gens))}
        return self.feasible(system(nonneg, cons), witness=False).status \
            == "sat"

    def _export(self, closure: Closure) -> None:
        import os

        os.makedirs(self.export_dir, exist_ok=True)
        path = os.path.join(self.export_dir, f"query{self.queries:05d}.smt2")
        with open(path, "w") as fh:
            fh.write(export_smtlib(closure))


def export_smtlib(closure: Closure) -> str:
    """SMT-LIB2 rendering of a system, its variables sorted by name;
    byte-stable for identical systems."""
    variables = sorted(closure.variables.items())
    lines = ["(set-logic QF_LIA)"]
    for v, nonneg in variables:
        lines.append(f"(declare-const {v} Int)")
    for v, nonneg in variables:
        if nonneg:
            lines.append(f"(assert (>= {v} 0))")
    for c in closure.constraints:
        terms = [f"(* {numeral(k)} {v})" for v, k in c.coeffs]
        lhs = terms[0] if len(terms) == 1 else "(+ " + " ".join(terms) + ")" if terms else "0"
        lines.append(f"(assert ({c.rel} {lhs} {numeral(c.rhs)}))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"
