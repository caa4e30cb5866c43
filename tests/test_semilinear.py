import itertools
import random

import pytest

from oracles import gamma_bounded, sls_size
from unrealizer import ilp
from unrealizer.semilinear import (
    ZERO, LinearSet, SemiLinearSet, linset, one, prune, singleton, sls,
)


def brute_force_gamma(a, budget):
    """Independent of the class method: expand every component by nested loops."""
    pts = set()
    for c in a.components:
        def rec(i, acc):
            if i == len(c.gens):
                pts.add(tuple(acc))
                return
            for l in range(budget + 1):
                rec(i + 1, [x + l * g for x, g in zip(acc, c.gens[i])])
        rec(0, list(c.base))
    return frozenset(pts)


def test_linset_canonical_form():
    a = linset((1, 2), [(3, 4), (0, 0), (3, 4), (1, 0)])
    assert a.gens == ((1, 0), (3, 4))
    b = sls([linset((1, 2), [(3, 4), (1, 0)]), linset((1, 2), [(1, 0), (3, 4)])])
    assert len(b.components) == 1


def test_zero_generator_dropped():
    assert linset((0, 0), [(0, 0)]) == linset((0, 0))


def test_combine_is_union():
    a = singleton((1,))
    b = singleton((2,))
    assert a.combine(b) == sls([linset((1,)), linset((2,))])
    assert a.combine(ZERO) == a
    assert ZERO.combine(a) == a


def test_extend_pairwise():
    a = sls([linset((1, 2), [(3, 4)])])
    b = sls([linset((5, 6), [(7, 8)])])
    assert a.extend(b) == sls([linset((6, 8), [(3, 4), (7, 8)])])
    assert a.extend(ZERO) == ZERO
    assert ZERO.extend(a) == ZERO


def test_extend_identity():
    a = sls([linset((1, 2), [(3, 4)]), linset((0, 1))])
    assert a.extend(one(2)) == a
    assert one(2).extend(a) == a


def test_star_collects_bases_and_generators():
    a = sls([linset((1,), [(2,)]), linset((3,))])
    assert a.star() == sls([linset((0,), [(1,), (2,), (3,)])])
    assert ZERO.star(dim=2) == one(2)
    with pytest.raises(ValueError):
        ZERO.star()


def test_star_closure_property():
    # gamma(a*) contains every finite (x)-product of gamma(a) elements, bounded check
    a = sls([linset((2,), [(3,)])])
    st = a.star()
    pts = gamma_bounded(a, 2)
    prods = {(0,)} | pts | {tuple(x + y for x, y in zip(p, q)) for p in pts for q in pts}
    assert prods <= gamma_bounded(st, 6)


def test_project():
    a = sls([linset((1, 2), [(3, 4)])])
    assert a.project((True, False)) == sls([linset((1, 0), [(3, 0)])])
    assert a.project((False, False)) == one(2)
    assert ZERO.project((True,)) == ZERO


def test_size():
    a = sls([linset((1, 2), [(3, 4)]), linset((0, 0))])
    assert sls_size(a) == 3
    assert sls_size(ZERO) == 0


def test_gamma_bounded_matches_brute_force():
    rng = random.Random(7)
    for _ in range(50):
        a = random_sls(rng, dim=2)
        assert gamma_bounded(a, 3) == brute_force_gamma(a, 3)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        singleton((1,)).combine(singleton((1, 2)))
    with pytest.raises(ValueError):
        singleton((1,)).extend(singleton((1, 2)))
    with pytest.raises(ValueError):
        linset((1,), [(1, 2)])


def test_singletons_closed_under_extend():
    # products of singleton constants never grow components or generators
    a = singleton((3, -1))
    for p in [(2, 2), (0, 5), (-4, 1)]:
        a = a.extend(singleton(p))
    assert len(a.components) == 1 and a.components[0].gens == ()


def test_prune_removes_subsumed_component():
    solver = ilp.Solver()
    a = sls([linset((6,)), linset((0,), [(3,)])])
    assert prune(a, solver.member) == sls([linset((0,), [(3,)])])


def test_prune_keeps_incomparable_components():
    solver = ilp.Solver()
    a = sls([linset((0,), [(2,)]), linset((1,), [(3,)])])
    assert prune(a, solver.member) == a


def test_prune_preserves_gamma():
    solver = ilp.Solver()
    rng = random.Random(21)
    for _ in range(40):
        a = random_sls(rng, dim=2)
        b = prune(a, solver.member)
        assert gamma_bounded(b, 3) <= gamma_bounded(a, 5)
        assert gamma_bounded(a, 3) <= gamma_bounded(b, 8) or _gamma_subset_ilp(a, b, solver)


def _gamma_subset_ilp(a, b, solver):
    # every budget-3 point of a is a member of some component of b
    for p in gamma_bounded(a, 3):
        if not any(solver.member(p, c) for c in b.components):
            return False
    return True


def random_sls(rng, dim, max_comps=3, max_gens=2):
    ncomp = rng.randint(0, max_comps)
    comps = []
    for _ in range(ncomp):
        base = tuple(rng.randint(-4, 4) for _ in range(dim))
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(0, max_gens))]
        comps.append(linset(base, gens))
    return sls(comps)


# semiring laws, checked two ways: structurally where equality is syntactic,
# and through bounded concretization where only the denotation must agree
def gammas_equal(a, b, budget=3):
    return gamma_bounded(a, budget) == gamma_bounded(b, budget)


def test_semiring_laws_random_triples():
    rng = random.Random(11)
    for trial in range(500):
        dim = rng.randint(1, 3)
        a, b, c = (random_sls(rng, dim) for _ in range(3))
        assert a.combine(b) == b.combine(a)
        assert a.combine(b).combine(c) == a.combine(b.combine(c))
        assert a.combine(a) == a
        assert a.combine(ZERO) == a
        assert gammas_equal(a.extend(b), b.extend(a))
        assert gammas_equal(a.extend(b).extend(c), a.extend(b.extend(c)))
        assert gammas_equal(a.extend(one(dim)), a)
        assert a.extend(ZERO) == ZERO
        # distributivity
        left = a.extend(b.combine(c))
        right = a.extend(b).combine(a.extend(c))
        assert gammas_equal(left, right)


def test_canonical_orders_do_not_depend_on_the_class():
    # components and generators sort as the plain tuples of their fields
    rng = random.Random(1807)
    for _ in range(300):
        dim = rng.randint(1, 3)
        comps = []
        for _ in range(rng.randint(0, 5)):
            base = [rng.randint(-2, 2) for _ in range(dim)]
            gens = [[rng.choice((0, rng.randint(-2, 2))) for _ in range(dim)]
                    for _ in range(rng.randint(0, 3))]
            ls = linset(base, gens)
            assert ls.gens == tuple(sorted({tuple(g) for g in gens if any(g)}))
            comps.append(ls)
        got = [(c.base, c.gens) for c in sls(comps).components]
        assert got == sorted({(c.base, c.gens) for c in comps})


def _prune_asking_every_holder(a, member):
    # prune as it read before holders without generators were skipped
    comps = list(a.components)
    alive = [True] * len(comps)
    for i, c in enumerate(comps):
        for j, d in enumerate(comps):
            if i != j and alive[j] and set(c.gens) <= set(d.gens) \
                    and member(c.base, d):
                alive[i] = False
                break
    return sls([c for c, keep in zip(comps, alive) if keep])


def test_prune_never_asks_a_generator_free_holder():
    solver = ilp.Solver()
    asked = []

    def member(point, ls):
        asked.append(ls)
        return solver.member(point, ls)

    rng = random.Random(1808)
    for _ in range(300):
        a = random_sls(rng, dim=rng.randint(1, 2), max_comps=5)
        assert prune(a, member) == _prune_asking_every_holder(a, solver.member)
    assert asked and all(ls.gens for ls in asked)


# `combine` and `extend` return early on ZERO, ONE and equal operands and
# build products without `linset`; the general paths they shorten are kept
# here as their oracles, and so is the plain product over every multiplier
# vector that `oracles.gamma_bounded` builds layer by layer
def _combine_general(a, b):
    return sls(a.components + b.components)


def _extend_general(a, b):
    return sls([linset(tuple(x + y for x, y in zip(p.base, q.base)),
                       p.gens + q.gens)
                for p, q in itertools.product(a.components, b.components)])


def _gamma_general(a, budget):
    pts = set()
    for c in a.components:
        for ls in itertools.product(range(budget + 1), repeat=len(c.gens)):
            pts.add(tuple(b + sum(l * g[i] for l, g in zip(ls, c.gens))
                          for i, b in enumerate(c.base)))
    return frozenset(pts)


def _canonical_pool(rng, dim):
    """ZERO, ONE, points, and sets with one and two generators, each also
    rebuilt as an equal value that is a different object."""
    def vec(lo, hi):
        return [rng.randint(lo, hi) for _ in range(dim)]

    pool = [ZERO, one(dim), singleton(vec(-3, 3)),
            sls([linset(vec(-3, 3)) for _ in range(3)]),
            sls([linset(vec(-3, 3), [vec(-2, 2)])]),
            sls([linset(vec(-3, 3), [vec(-2, 2), vec(-2, 2)])]),
            sls([linset(vec(-3, 3), [vec(-2, 2)]),
                 linset(vec(-3, 3), [vec(-2, 2), vec(-2, 2)]),
                 linset([0] * dim)])]
    return pool + [sls(list(a.components)) for a in pool]


def _same_value(got, want):
    return (got == want and str(got) == str(want)
            and type(got) is SemiLinearSet
            and type(got.components) is tuple
            and all(type(c) is LinearSet and type(c.gens) is tuple
                    for c in got.components))


def test_fast_paths_return_what_the_general_paths_build():
    rng = random.Random(2101)
    for _ in range(40):
        pool = _canonical_pool(rng, rng.randint(1, 3))
        for a, b in itertools.product(pool, repeat=2):
            assert _same_value(a.combine(b), _combine_general(a, b)), (a, b)
            assert _same_value(a.extend(b), _extend_general(a, b)), (a, b)
        for a in pool:
            for budget in range(4):
                assert gamma_bounded(a, budget) == _gamma_general(a, budget)


def test_fast_paths_keep_the_dimension_check():
    for a, b in [(one(2), one(3)), (one(2), singleton((1, 2, 3))),
                 (singleton((1, 2)), one(3)),
                 (one(1), sls([linset((0, 0), [(1, 0)])]))]:
        for x, y in [(a, b), (b, a)]:
            with pytest.raises(ValueError):
                x.extend(y)
            with pytest.raises(ValueError):
                x.combine(y)
    # ZERO has no dimension of its own, so it meets every dimension
    assert ZERO.extend(one(3)) == ZERO and one(3).extend(ZERO) == ZERO
    assert ZERO.combine(one(3)) == one(3) and one(3).combine(ZERO) == one(3)
