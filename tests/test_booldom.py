import itertools
import sys
import random

import pytest

from oracles import abs_less_than, parse_mask, proj_z
from unrealizer import booldom
from unrealizer import semilinear as sl
from unrealizer.booldom import (
    LessThanCache, _Pair, abs_and, abs_not, all_true, bset_str, conj,
    mask_str, neg,
)
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
        for p in s1.gamma_bounded(4):
            for q in s2.gamma_bounded(4):
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
    for p in s1.gamma_bounded(budget):
        for q in s2.gamma_bounded(budget):
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


@pytest.mark.parametrize("pair_cap", [booldom._GAMMA_PAIR_CAP, 0])
def test_prefix_search_matches_all_patterns(monkeypatch, pair_cap):
    # with a zero cap the witness pass is skipped and every prefix is
    # checked by the solver
    monkeypatch.setattr(booldom, "_GAMMA_PAIR_CAP", pair_cap)
    rng = random.Random(23)
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
    pair = _Pair(c1, c2)
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
