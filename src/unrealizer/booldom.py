"""Finite powerset domain over Boolean vectors of dimension |E|.

A Boolean nonterminal's abstract value is the set of guard vectors its
trees can evaluate to.  Not and And act elementwise on members.  LessThan
compares two semi-linear integer abstractions: a vector b belongs to the
result iff some concrete o1, o2 drawn from the two concretizations satisfy
b = (o1 < o2) coordinatewise: the union over component pairs.  A pair is
disjoint when no coordinate is nonzero in two of its columns (c1's
generators and c2's negated ones).  Each coordinate then moves with at
most one multiplier and flips sign at most once as it grows, so a
column's patterns are those at 0 and at each flip, and the pair's are
their product, exact because the multipliers are independent.  Points
are disjoint, and so are `ite` components whose generators sit on
disjoint guard masks.  The other pairs go to a depth-first search over
coordinates that fixes one sign per level: every prefix not yet found is
decided by exact integer feasibility, and a refuted prefix cuts off all
of its extensions at once.  A pattern is found once some point realizes
it: a disjoint pair's pattern, the base difference of every other pair
(all multipliers 0), and the point the solver returns for each feasible
prefix, whose full pattern extends that prefix.  The search asks no
solver about a prefix of a found pattern.  A prefix's system is an
`ilp.Closure` (exact bound propagation): one sign longer, it is its
parent's extended by one row, which is the closure of the whole prefix
system since propagation is monotone.  The solver answers from it when
propagation rules the prefix out or pins every multiplier, and sends
only the prefixes it leaves open to branch and bound.
"""

from __future__ import annotations

from . import ilp
from .semilinear import LinearSet, SemiLinearSet

BoolVec = tuple[bool, ...]
BoolVecSet = frozenset  # of BoolVec


def mask_str(b: BoolVec) -> str:
    return "".join("t" if x else "f" for x in b)


def bset_str(bs: BoolVecSet) -> str:
    return "{" + ",".join(mask_str(b) for b in sorted(bs, reverse=True)) + "}"


def neg(b: BoolVec) -> BoolVec:
    return tuple([not x for x in b])


def conj(a: BoolVec, b: BoolVec) -> BoolVec:
    return tuple([x and y for x, y in zip(a, b)])


def all_true(dim: int) -> BoolVec:
    return (True,) * dim


def abs_not(bs: BoolVecSet) -> BoolVecSet:
    return frozenset(neg(b) for b in bs)


def abs_and(b1: BoolVecSet, b2: BoolVecSet) -> BoolVecSet:
    return frozenset(conj(a, b) for a in b1 for b in b2)


def _difference(c1: LinearSet, c2: LinearSet) -> tuple[list[int], tuple]:
    """o1 - o2 over o1 in c1, o2 in c2 as u + sum of l_j * cols_j over
    multipliers l_j >= 0: u = c1.base - c2.base, and the columns are
    c1's generators, then c2's negated."""
    u = [a - b for a, b in zip(c1.base, c2.base)]
    return u, c1.gens + tuple([tuple([-x for x in g]) for g in c2.gens])


def _disjoint_patterns(u: list[int], cols: tuple) -> BoolVecSet | None:
    """The patterns u + sum of l_j * cols_j < 0 over multipliers l_j >= 0
    when no coordinate is nonzero in two columns, else None.  Coordinate
    i of a column w is u_i + w_i*l < 0 at multiplier l; it flips at
    ceil(-u_i/w_i) when w_i > 0 > u_i and at floor(u_i/-w_i) + 1 when
    w_i < 0 <= u_i, and never otherwise."""
    supports = [[i for i, x in enumerate(w) if x] for w in cols]
    if sum(map(len, supports)) != len(set().union(*supports)):
        return None
    patterns = {tuple([x < 0 for x in u])}
    for w, support in zip(cols, supports):
        flips = {0}
        for i in support:
            if w[i] > 0 > u[i]:
                flips.add(-(u[i] // w[i]))
            elif w[i] < 0 <= u[i]:
                flips.add(u[i] // -w[i] + 1)
        sides = {tuple([u[i] + w[i] * t < 0 for i in support])
                 for t in flips}
        if len(sides) > 1:
            grown = set()
            for p in patterns:
                q = list(p)
                for side in sides:
                    for i, b in zip(support, side):
                        q[i] = b
                    grown.add(tuple(q))
            patterns = grown
    return frozenset(patterns)


class _Pair:
    """One pair of components c1, c2 as `_difference` writes it: the rows
    that put one sign of o1 < o2 on one coordinate, and the closures of
    the sign prefixes reached so far.

    The variables are the multipliers of the columns, nonneg: a0.. for
    c1's generators and b0.. for c2's.  Coordinate i has a row per sign,
    both over o1_i - o2_i = u_i + sum of the column entries times their
    multipliers.
    """

    __slots__ = ("u", "cols", "names", "rows", "closures")

    def __init__(self, u: list[int], cols: tuple, n1: int):
        self.u, self.cols = u, cols
        self.names = [f"a{j}" for j in range(n1)]
        self.names += [f"b{j}" for j in range(len(cols) - n1)]
        self.rows: list[tuple[ilp.Constraint, ilp.Constraint]] = []
        for i, const in enumerate(u):
            coeffs = {v: w[i] for v, w in zip(self.names, cols)}
            # o1_i >= o2_i, i.e. -(o1_i - o2_i) <= 0; and o1_i < o2_i
            self.rows.append((
                ilp.constraint({v: -k for v, k in coeffs.items()}, ilp.LE,
                               const),
                ilp.constraint(coeffs, ilp.LT, -const)))
        self.closures: dict[BoolVec, ilp.Closure] = {
            (): ilp.Closure().add((), [(v, True) for v in self.names])}

    def closure(self, prefix: BoolVec) -> ilp.Closure:
        """The closure of the prefix's rows, memoised: the longest
        memoised prefix of it, extended one coordinate's row at a time."""
        k = len(prefix)
        while prefix[:k] not in self.closures:
            k -= 1
        cl = self.closures[prefix[:k]]
        for i in range(k, len(prefix)):
            cl = cl.add((self.rows[i][prefix[i]],))
            self.closures[prefix[:i + 1]] = cl
        return cl

    def pattern(self, multipliers: dict[str, int]) -> BoolVec:
        """The sign pattern of o1 < o2 at the given multipliers."""
        ks = [multipliers[v] for v in self.names]
        return tuple([x + sum([k * w[i] for k, w in zip(ks, self.cols)]) < 0
                      for i, x in enumerate(self.u)])


class LessThanCache:
    """Memoized abs_less_than over one fixed dimension.  Each component
    pair is looked at once: a disjoint pair's patterns are kept, and so
    are another pair's rows and the closure of each of its prefixes the
    search reaches, so a prefix reached again, or extended, is not
    propagated again."""

    def __init__(self, solver: ilp.Solver):
        self.solver = solver
        self._memo: dict[tuple, BoolVecSet] = {}
        self._pairs: dict[tuple[LinearSet, LinearSet],
                          _Pair | BoolVecSet] = {}

    def abs_less_than(self, sl1: SemiLinearSet, sl2: SemiLinearSet) -> BoolVecSet:
        key = (sl1, sl2)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._compute(sl1, sl2)
        return hit

    def _pair(self, c1: LinearSet, c2: LinearSet) -> _Pair | BoolVecSet:
        pair = self._pairs.get((c1, c2))
        if pair is None:
            u, cols = _difference(c1, c2)
            pair = _disjoint_patterns(u, cols)
            if pair is None:
                pair = _Pair(u, cols, len(c1.gens))
            self._pairs[c1, c2] = pair
        return pair

    def _compute(self, sl1: SemiLinearSet, sl2: SemiLinearSet) -> BoolVecSet:
        if sl1.is_zero or sl2.is_zero:
            return frozenset()
        d = sl1.dim
        if sl2.dim != d:
            raise ValueError("dimension mismatch")
        found: set[BoolVec] = set()
        pairs = []
        for c1 in sl1.components:
            for c2 in sl2.components:
                pair = self._pair(c1, c2)
                if isinstance(pair, _Pair):
                    pairs.append(pair)
                    found.add(tuple([x < 0 for x in pair.u]))
                else:
                    found |= pair
        if not pairs:
            return frozenset(found)
        witnessed = {p[:k] for p in found for k in range(1, d + 1)}
        # depth first over coordinates.  A prefix carries the component
        # pairs not yet refuted for it, and a child drops pairs only up to
        # the first one it cannot refute; a prefix of a found pattern drops
        # none.  Every other prefix is decided exactly, so a full-length
        # pattern is found or its first kept pair is feasible.
        stack = [((), pairs)]
        while stack:
            prefix, pairs = stack.pop()
            if len(prefix) == d:
                found.add(prefix)
                continue
            for bit in (False, True):
                child = prefix + (bit,)
                i = 0
                if child not in witnessed:
                    while i < len(pairs):
                        res = self.solver.feasible(pairs[i].closure(child))
                        if res.status == "sat":
                            p = pairs[i].pattern(res.witness)
                            witnessed.update(p[:k] for k in range(1, d + 1))
                            break
                        i += 1
                if i < len(pairs):
                    stack.append((child, pairs[i:]))
        return frozenset(found)
