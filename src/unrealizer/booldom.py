"""Finite powerset domain over Boolean vectors of dimension |E|.

A Boolean nonterminal's abstract value is the set of guard vectors its
trees can evaluate to.  Not and And act elementwise on members.  LessThan
compares two semi-linear integer abstractions: a vector b belongs to the
result iff some concrete o1, o2 drawn from the two concretizations satisfy
b = (o1 < o2) coordinatewise.  A bounded concretization scan first finds
cheap positive witnesses.  The rest is a depth-first search over
coordinates that fixes one sign per level: a prefix the integer solver
refutes cuts off all of its extensions at once, and each full-length
pattern left is decided by exact integer feasibility.
"""

from __future__ import annotations

from . import ilp
from .semilinear import LinearSet, SemiLinearSet

BoolVec = tuple[bool, ...]
BoolVecSet = frozenset  # of BoolVec

_GAMMA_PAIR_CAP = 4096  # max candidate pairs scanned in the witness pass


def mask_str(b: BoolVec) -> str:
    return "".join("t" if x else "f" for x in b)


def parse_mask(s: str) -> BoolVec:
    return tuple([c == "t" for c in s])


def bset_str(bs: BoolVecSet) -> str:
    return "{" + ",".join(mask_str(b) for b in sorted(bs, reverse=True)) + "}"


def neg(b: BoolVec) -> BoolVec:
    return tuple([not x for x in b])


def conj(a: BoolVec, b: BoolVec) -> BoolVec:
    return tuple([x and y for x, y in zip(a, b)])


def all_true(dim: int) -> BoolVec:
    return (True,) * dim


def proj_z(v: tuple[int, ...], b: BoolVec) -> tuple[int, ...]:
    """Zero out the coordinates where b is false."""
    return tuple([x if m else 0 for x, m in zip(v, b)])


def abs_not(bs: BoolVecSet) -> BoolVecSet:
    return frozenset(neg(b) for b in bs)


def abs_and(b1: BoolVecSet, b2: BoolVecSet) -> BoolVecSet:
    return frozenset(conj(a, b) for a in b1 for b in b2)


def _pattern_system(c1: LinearSet, c2: LinearSet, pattern: BoolVec) -> ilp.IlpSystem:
    """Feasibility of: o1 in c1, o2 in c2, (o1 < o2) == pattern coordinatewise.

    A pattern shorter than the dimension constrains only its own prefix of
    coordinates.
    """
    variables: dict[str, bool] = {}
    cons: list[ilp.Constraint] = []
    for tag, c in (("a", c1), ("b", c2)):
        for j in range(len(c.gens)):
            variables[f"{tag}{j}"] = True
    for i, want in enumerate(pattern):
        # o1_i - o2_i expressed over the generator multipliers
        coeffs: dict[str, int] = {}
        for j, g in enumerate(c1.gens):
            coeffs[f"a{j}"] = coeffs.get(f"a{j}", 0) + g[i]
        for j, g in enumerate(c2.gens):
            coeffs[f"b{j}"] = coeffs.get(f"b{j}", 0) - g[i]
        const = c1.base[i] - c2.base[i]
        if want:  # o1_i < o2_i
            cons.append(ilp.constraint(coeffs, ilp.LT, -const))
        else:     # o1_i >= o2_i, i.e. -(o1_i - o2_i) <= 0
            cons.append(ilp.constraint({v: -k for v, k in coeffs.items()}, ilp.LE, const))
    return ilp.system(variables, cons)


class LessThanCache:
    """Memoized abs_less_than over one fixed dimension."""

    def __init__(self, solver: ilp.Solver):
        self.solver = solver
        self._memo: dict[tuple, BoolVecSet] = {}

    def abs_less_than(self, sl1: SemiLinearSet, sl2: SemiLinearSet) -> BoolVecSet:
        key = (sl1, sl2)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._compute(sl1, sl2)
        return hit

    def _compute(self, sl1: SemiLinearSet, sl2: SemiLinearSet) -> BoolVecSet:
        if sl1.is_zero or sl2.is_zero:
            return frozenset()
        d = sl1.dim
        if sl2.dim != d:
            raise ValueError("dimension mismatch")
        found: set[BoolVec] = set()
        # positive witnesses from bounded concretizations, no feasibility calls
        g1 = sorted(sl1.gamma_bounded(2))
        g2 = sorted(sl2.gamma_bounded(2))
        if len(g1) * len(g2) <= _GAMMA_PAIR_CAP:
            for v1 in g1:
                for v2 in g2:
                    found.add(tuple([a < b for a, b in zip(v1, v2)]))
        witnessed = {p[:k] for p in found for k in range(1, d + 1)}
        # depth first over coordinates.  A prefix carries the component
        # pairs not yet refuted for it, and a child drops pairs only up to
        # the first one it cannot refute.  A full-length pattern is decided
        # exactly, so its first kept pair is feasible.
        stack = [((), [(c1, c2) for c1 in sl1.components
                        for c2 in sl2.components])]
        while stack:
            prefix, pairs = stack.pop()
            if len(prefix) == d:
                found.add(prefix)
                continue
            for bit in (False, True):
                child = prefix + (bit,)
                i = 0
                if child not in witnessed:
                    while i < len(pairs) and self._refuted(
                            _pattern_system(*pairs[i], child), len(child) == d):
                        i += 1
                if i < len(pairs):
                    stack.append((child, pairs[i:]))
        return frozenset(found)

    def _refuted(self, system: ilp.IlpSystem, exact: bool) -> bool:
        if exact:
            return self.solver.feasible(system).status != "sat"
        return self.solver.refutes(system)


def abs_less_than(sl1: SemiLinearSet, sl2: SemiLinearSet,
                  solver: ilp.Solver) -> BoolVecSet:
    """One-shot form; long-running solves should hold a LessThanCache."""
    return LessThanCache(solver).abs_less_than(sl1, sl2)
