import itertools
import sys
import random
from pathlib import Path

import pytest

from oracles import abs_less_than, gamma_bounded, parse_mask, proj_z
from unrealizer import clia
from unrealizer import semilinear as sl
from unrealizer.booldom import (
    LessThanCache, _difference, _disjoint_patterns, _Pair, abs_and,
    abs_not, all_true, bset_str, conj, mask_str, neg,
)
from unrealizer.frontend import parse_problem
from unrealizer.grammar import ExampleSet
from unrealizer.ilp import BudgetExceeded, Solver, constraint, system


def bools(*rows):
    return frozenset(tuple(r) for r in rows)


T, F = True, False


def test_mask_round_trip():
    assert mask_str((T, F, T)) == "tft"
    assert parse_mask("tft") == (T, F, T)
    assert parse_mask(mask_str(all_true(4))) == (T, T, T, T)


def test_bset_str_ordering():
    s = bools((F, F), (T, T), (T, F))
    assert bset_str(s) == "{tt,tf,ff}"
    assert bset_str(frozenset()) == "{}"


def test_proj_and_vector_ops():
    assert proj_z((4, 6), (T, F)) == (4, 0)
    assert neg((T, F)) == (F, T)
    assert conj((T, F), (T, T)) == (T, F)


def test_abs_not_golden():
    assert abs_not(bools((T, F), (T, T))) == bools((F, T), (F, F))


def test_abs_and_golden():
    got = abs_and(bools((T, F), (T, T)), bools((T, T), (F, T)))
    assert got == bools((T, F), (T, T), (F, F), (F, T))


def test_abs_and_not_elementwise_exact():
    rng = random.Random(7)
    for _ in range(50):
        d = rng.randrange(1, 4)
        s1 = frozenset(tuple(rng.random() < 0.5 for _ in range(d))
                       for _ in range(rng.randrange(1, 5)))
        s2 = frozenset(tuple(rng.random() < 0.5 for _ in range(d))
                       for _ in range(rng.randrange(1, 5)))
        assert abs_not(s1) == {neg(v) for v in s1}
        assert abs_and(s1, s2) == {conj(a, b) for a in s1 for b in s2}


def test_abs_less_than_golden_pair():
    # one linear set each side: base-vs-base gives (t,t); pumping the left
    # generator makes both coordinates flip to false, never mixed (f,t).
    s1 = sl.sls([sl.linset((1, 2), [(3, 4)])])
    s2 = sl.sls([sl.linset((5, 6), [(7, 8)])])
    got = abs_less_than(s1, s2, Solver())
    assert got == bools((T, T), (T, F), (F, F))


def test_abs_less_than_zero_operand():
    s = sl.sls([sl.linset((1,), [])])
    assert abs_less_than(sl.ZERO, s, Solver()) == frozenset()
    assert abs_less_than(s, sl.ZERO, Solver()) == frozenset()


def test_abs_less_than_singletons():
    a = sl.singleton((1, 5))
    b = sl.singleton((2, 3))
    assert abs_less_than(a, b, Solver()) == bools((T, F))


def test_abs_less_than_exact_against_bounded_gamma():
    rng = random.Random(11)
    solver = Solver()
    for _ in range(30):
        d = rng.randrange(1, 3)
        s1 = random_sls(rng, d)
        s2 = random_sls(rng, d)
        got = abs_less_than(s1, s2, solver)
        seen = set()
        for p in gamma_bounded(s1, 4):
            for q in gamma_bounded(s2, 4):
                seen.add(tuple(a < b for a, b in zip(p, q)))
        # bounded concretization can only underapproximate the true set
        assert seen <= got
        # and every claimed pattern must have an actual witness pair
        for pat in got:
            assert has_witness(s1, s2, pat, budget=12), (s1, s2, pat)


def random_sls(rng, dim):
    comps = []
    for _ in range(rng.randrange(1, 3)):
        base = tuple(rng.randrange(-4, 5) for _ in range(dim))
        gens = [tuple(rng.randrange(-3, 4) for _ in range(dim))
                for _ in range(rng.randrange(0, 3))]
        comps.append(sl.linset(base, gens))
    return sl.sls(comps)


def has_witness(s1, s2, pattern, budget):
    for p in gamma_bounded(s1, budget):
        for q in gamma_bounded(s2, budget):
            if tuple(a < b for a, b in zip(p, q)) == pattern:
                return True
    return False


def test_cache_reuses_results():
    s1 = sl.sls([sl.linset((1, 2), [(3, 4)])])
    s2 = sl.sls([sl.linset((5, 6), [(7, 8)])])
    solver = Solver()
    cache = LessThanCache(solver)
    first = cache.abs_less_than(s1, s2)
    n = solver.queries
    assert cache.abs_less_than(s1, s2) == first
    assert solver.queries == n


def pattern_system(c1, c2, pattern):
    """o1 in c1, o2 in c2 and (o1 < o2) == pattern on the pattern's
    coordinates, over the generator multipliers a0.. of c1 and b0.. of c2
    (nonneg), one row per coordinate."""
    variables = {f"a{j}": True for j in range(len(c1.gens))}
    variables.update({f"b{j}": True for j in range(len(c2.gens))})
    rows = []
    for i, less in enumerate(pattern):
        # o1_i - o2_i = diff . multipliers + const
        diff = {f"a{j}": g[i] for j, g in enumerate(c1.gens)}
        diff.update({f"b{j}": -g[i] for j, g in enumerate(c2.gens)})
        const = c1.base[i] - c2.base[i]
        if less:
            rows.append(constraint(diff, "<", -const))
        else:
            rows.append(constraint({v: -k for v, k in diff.items()}, "<=",
                                   const))
    return system(variables, rows)


def reference_patterns(s1, s2, solver):
    """The exhaustive definition: every one of the 2^d sign patterns,
    decided for each pair of components in turn.  Maps a pattern to
    whether it is realized, or to None where the node budget ran out."""
    out = {}
    for p in itertools.product((True, False), repeat=s1.dim):
        try:
            out[p] = any(
                solver.feasible(pattern_system(c1, c2, p)).status == "sat"
                for c1 in s1.components for c2 in s2.components)
        except BudgetExceeded:
            out[p] = None
    return out


# [0] is the batch of instances this test has always drawn; [4096] draws a
# second, independent batch
@pytest.mark.parametrize("seed_offset", [0, 4096])
def test_prefix_search_matches_all_patterns(seed_offset):
    rng = random.Random(23 + seed_offset)
    decided = 0
    for _ in range(25):
        d = rng.randrange(1, 7)
        s1 = random_sls(rng, d)
        s2 = random_sls(rng, d)
        ref = reference_patterns(s1, s2, Solver(node_budget=5000))
        try:
            got = abs_less_than(s1, s2, Solver(node_budget=5000))
        except BudgetExceeded:
            # the search decides every leaf the exhaustive loop decides
            assert None in ref.values(), (s1, s2)
            continue
        for p, realized in ref.items():
            if realized is not None:
                assert (p in got) == realized, (s1, s2, p)
        decided += None not in ref.values()
    assert decided >= 20


def test_pair_closure_deeper_than_the_recursion_limit():
    # o1 = a0 on every coordinate, o2 = 5: each True row gives a0 <= 4,
    # each False row a0 >= 5
    d = sys.getrecursionlimit() + 50
    c1, c2 = sl.linset((0,) * d, [(1,) * d]), sl.linset((5,) * d)
    pair = _Pair(*_difference(c1, c2), len(c1.gens))
    open_prefix = (True,) * d
    cl = pair.closure(open_prefix)
    assert cl.verdict() is None
    assert (cl.lower["a0"], cl.upper["a0"]) == (0, 4)
    oracle = pattern_system(c1, c2, open_prefix)
    assert (cl.variables, cl.constraints) == \
        (oracle.variables, oracle.constraints)
    assert len(pair.closures) == d + 1
    crossed = open_prefix[:-1] + (False,)
    assert pair.closure(crossed).verdict().status == "unsat"
    assert len(pair.closures) == d + 2
    assert Solver().feasible(pattern_system(c1, c2, crossed)).status == "unsat"


class CountingSolver(Solver):
    """A solver that counts its `feasible` calls."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def feasible(self, closure):
        self.calls += 1
        return super().feasible(closure)


def realized(s1, s2):
    ref = reference_patterns(s1, s2, Solver())
    assert None not in ref.values()
    return frozenset(p for p, r in ref.items() if r)


def random_disjoint_pair(rng, d):
    """Two linear sets in which no coordinate is nonzero in two
    generators: points, one generator spanning every coordinate, or
    generators projected onto disjoint random masks as `ite` builds them.
    Bases put o1_i - o2_i at 0, at a multiple of a generator's entry or
    anywhere near."""
    kind = rng.choice(("points", "spanning", "masks", "masks"))
    if kind == "points":
        owner = [None] * d
    elif kind == "spanning":
        owner = [0] * d
    else:
        owner = [rng.choice((None, 0, 1, 2)) for _ in range(d)]
    cols = [[0] * d for _ in range(3)]
    for i, j in enumerate(owner):
        if j is not None:
            cols[j][i] = rng.choice((-3, -2, -1, 1, 2, 3))
    u = []
    for i, j in enumerate(owner):
        w = cols[j][i] if j is not None else 1
        u.append(rng.choice((0, w * rng.randrange(-3, 4),
                             rng.randrange(-7, 8))))
    b2 = [rng.randrange(-5, 6) for _ in range(d)]
    gens1, gens2 = [], []
    for col in cols:
        rng.choice((gens1, gens2)).append(col)
    return (sl.linset([x + y for x, y in zip(u, b2)], gens1),
            sl.linset(b2, gens2))


def test_disjoint_pairs_match_every_pattern_decided_by_the_ilp():
    rng = random.Random(41)
    for _ in range(300):
        d = rng.randrange(1, 6)
        c1, c2 = random_disjoint_pair(rng, d)
        want = realized(sl.sls([c1]), sl.sls([c2]))
        assert _disjoint_patterns(*_difference(c1, c2)) == want, (c1, c2)


def test_disjoint_pair_flips_at_exact_thresholds():
    # o1 - o2 = (-4 + 2l, -3 + 2l, 2 - 2m): the first coordinate flips at
    # l = 2, where 2 divides 4, and so does the second; the third flips at
    # m = 2, since 2 - 2 is not < 0; and u_i = 0 with w_i < 0 flips at 1
    c1, c2 = sl.linset((-4, -3, 0), [(2, 2, 0)]), sl.linset((0, 0, -2))
    c3 = sl.linset((0, 0, -2), [(0, 0, 2)])
    c4, c5 = sl.linset((0,)), sl.linset((0,), [(1,)])
    for a, b in ((c1, c2), (c1, c3), (c4, c5)):
        assert _disjoint_patterns(*_difference(a, b)) == \
            realized(sl.sls([a]), sl.sls([b])), (a, b)


def test_g2_guards_and_points_call_no_solver(monkeypatch):
    operands = []
    compute = LessThanCache._compute

    def spy(self, sl1, sl2):
        operands.append((sl1, sl2))
        return compute(self, sl1, sl2)

    monkeypatch.setattr(LessThanCache, "_compute", spy)
    text = (Path(__file__).parent / "problems" / "g2.sy").read_text()
    problem = parse_problem(text)
    e = ExampleSet(problem.variables, ((3,), (-4,), (5,), (0,), (-1,)))
    clia.solve(problem.grammar, e)
    assert any(len(sl2.components) > 1 for _, sl2 in operands)
    points = (sl.sls([sl.linset((3, -1, 0)), sl.linset((-2, 4, 0))]),
              sl.singleton((0, 0, 0)))
    for sl1, sl2 in operands + [points]:
        solver = CountingSolver()
        got = LessThanCache(solver).abs_less_than(sl1, sl2)
        assert solver.calls == 0
        assert got == realized(sl1, sl2), (sl1, sl2)


@pytest.mark.parametrize("c1, c2", [
    # a generator of each side is nonzero on coordinate 0
    (sl.linset((0, 0), [(1, 1)]), sl.linset((1, 1), [(1, 0)])),
    # two generators of one side are nonzero on both coordinates
    (sl.linset((0, 0), [(1, 1), (2, -1)]), sl.linset((1, 1))),
])
def test_overlapping_pair_goes_to_the_prefix_search(c1, c2):
    assert _disjoint_patterns(*_difference(c1, c2)) is None
    solver = CountingSolver()
    cache = LessThanCache(solver)
    got = cache.abs_less_than(sl.sls([c1]), sl.sls([c2]))
    assert isinstance(cache._pairs[c1, c2], _Pair) and solver.calls > 0
    assert got == realized(sl.sls([c1]), sl.sls([c2]))


def test_mixed_pairs_return_the_union():
    # l(1,1,0) against (1,1,0)+m(1,0,0) overlaps, and the search refutes
    # (f,t,f); the point (5,-5,-1) against it is disjoint
    s1 = sl.sls([sl.linset((0, 0, 0), [(1, 1, 0)]), sl.linset((5, -5, -1))])
    s2 = sl.sls([sl.linset((1, 1, 0), [(1, 0, 0)])])
    solver = CountingSolver()
    cache = LessThanCache(solver)
    got = cache.abs_less_than(s1, s2)
    kinds = {type(p) for p in cache._pairs.values()}
    assert kinds == {_Pair, frozenset} and solver.calls > 0
    parts = [abs_less_than(sl.sls([c]), s2, Solver()) for c in s1.components]
    assert parts == [bools((T, T, F), (T, F, F), (F, F, F)),
                     bools((T, T, T), (F, T, T))]
    assert got == parts[0] | parts[1] == realized(s1, s2)
