import gc
import itertools
import random

import pytest

from oracles import (
    Branch, RefutesNothing, branch_system, concretize_by_lin, dnf_branches,
    free_vars, gamma_bounded, nnf,
)
from unrealizer import logic as lg
from unrealizer import semilinear as sl
from unrealizer.frontend import PointSpec
from unrealizer.ilp import Solver


def test_lin_canonicalizes():
    t = lg.lin([("b", 1), ("a", 2), ("b", -1), ("c", 0)], 5)
    assert t.coeffs == (("a", 2),)
    assert t.const == 5
    assert lg.lin({"x": 3}) == lg.lin((("x", 3),))


def test_lin_arithmetic():
    a = lg.lin({"x": 2}, 1)
    b = lg.lin({"x": -2, "y": 1}, 4)
    assert lg.lin_add(a, b) == lg.lin({"y": 1}, 5)
    assert lg.lin_scale(a, 3) == lg.lin({"x": 6}, 3)
    assert lg.lin_sub(a, a) == lg.lin()
    env = {"x": 7, "y": -1}
    assert lg.lin_add(a, b).evaluate(env) == a.evaluate(env) + b.evaluate(env)


def test_connective_shortcuts():
    a = lg.atom(lg.lin({"x": 1}), "<", 5)
    assert lg.conj() is lg.TRUE
    assert lg.conj(a, lg.TRUE) == a
    assert lg.conj(a, lg.FALSE) is lg.FALSE
    assert lg.disj(a, lg.TRUE) is lg.TRUE
    assert lg.disj() is lg.FALSE
    # nested conjunctions flatten
    assert lg.conj(lg.conj(a, a), a).args == (a, a, a)
    assert lg.exists((), a) == a


def test_free_vars():
    f = lg.exists(("k",), lg.atom(lg.lin({"x": 1}), "=", lg.lin({"k": 2})))
    assert free_vars(f) == {"x"}
    assert free_vars(lg.conj(f, lg.atom(lg.lin({"y": 1}), "<", 0))) == \
        {"x", "y"}


def test_evaluate():
    x = lg.lin({"x": 1})
    f = lg.conj(lg.atom(x, "<=", 5), lg.neg(lg.atom(x, "=", 3)))
    assert lg.evaluate(f, {"x": 4})
    assert not lg.evaluate(f, {"x": 3})
    assert not lg.evaluate(f, {"x": 6})
    assert lg.evaluate(lg.disj(lg.atom(x, ">", 0), lg.atom(x, "<", 0)),
                       {"x": -2})
    with pytest.raises(ValueError):
        lg.evaluate(lg.exists(("k",), lg.TRUE), {})


def test_substitute():
    f = lg.atom(lg.lin({"%out": 1}), "=", lg.lin({"x": 2}, 2))
    g = lg.substitute(f, {"%out": lg.lin({"x": 3})})
    assert g == lg.atom(lg.lin({"x": 3}), "=", lg.lin({"x": 2}, 2))
    # substituting into a bound name is refused
    h = lg.exists(("k",), lg.atom(lg.lin({"k": 1}), "=", 0))
    with pytest.raises(ValueError):
        lg.substitute(h, {"k": lg.lin(const=1)})


def _chained_substitute(f, mapping):
    """The term-by-term substitution that `substitute` replaced, kept
    as its oracle: one lin_add/lin_scale per coefficient."""
    terms = {v: t if isinstance(t, lg.LinTerm) else lg.lin(const=int(t))
             for v, t in mapping.items()}

    def sub_term(t):
        out = lg.lin(const=t.const)
        for v, c in t.coeffs:
            out = lg.lin_add(out, lg.lin_scale(terms[v], c) if v in terms
                             else lg.lin(((v, c),)))
        return out

    if f.op == "atom":
        lhs, rel, rhs = f.atom
        return lg.LiaFormula("atom", atom=(sub_term(lhs), rel, sub_term(rhs)))
    if f.op in ("true", "false"):
        return f
    if f.op == "exists" and any(v in terms for v in f.bound):
        raise ValueError("substitution would capture a bound variable")
    return lg.LiaFormula(f.op, tuple([_chained_substitute(g, mapping)
                                      for g in f.args]),
                         bound=f.bound, nonneg=f.nonneg)


def test_substitute_matches_term_by_term_substitution():
    rng = random.Random(77)
    names = ["x", "y", "z", "%out"]

    def term():
        return lg.lin([(rng.choice(names), rng.randint(-3, 3))
                       for _ in range(rng.randint(0, 4))], rng.randint(-5, 5))

    def formula(depth):
        pick = rng.random()
        if depth == 0 or pick < 0.35:
            return lg.atom(term(), rng.choice(lg.RELOPS), term())
        if pick < 0.45:
            return rng.choice((lg.TRUE, lg.FALSE))
        if pick < 0.6:
            return lg.neg(formula(depth - 1))
        if pick < 0.75:
            return lg.exists(("k",), formula(depth - 1), rng.random() < 0.5)
        op = lg.conj if pick < 0.9 else lg.disj
        return op(*[formula(depth - 1) for _ in range(rng.randint(2, 3))])

    cancelled = 0
    for _ in range(300):
        f = formula(3)
        mapping = {}
        for v in rng.sample(names, rng.randint(1, 3)):
            mapping[v] = term() if rng.random() < 0.8 else rng.randint(-4, 4)
        # x -> y - x and y -> x - y cancel in x + y
        if rng.random() < 0.3:
            mapping = {"x": lg.lin({"y": 1, "x": -1}),
                       "y": lg.lin({"x": 1, "y": -1})}
            f = lg.conj(f, lg.atom(lg.lin({"x": 1, "y": 1}), "=", 0))
            cancelled += 1
        want = _chained_substitute(f, mapping)
        assert lg.substitute(f, mapping) == want
    assert cancelled > 50
    # a bound name in the mapping is refused, as before
    h = lg.exists(("k",), lg.atom(lg.lin({"k": 1, "x": 2}), "<", 0))
    with pytest.raises(ValueError):
        lg.substitute(lg.conj(lg.TRUE, h), {"k": 1})


def _prepare(f):
    return lg._prepare(f, False, {}, itertools.count(1))


def test_nnf_pushes_negation():
    x = lg.lin({"x": 1})
    f = lg.neg(lg.conj(lg.atom(x, "<", 5), lg.atom(x, "=", 3)))
    g = _prepare(f)
    assert g.op == "or"
    # no "not" anywhere after normalization
    def ops(h):
        yield h.op
        for a in h.args:
            yield from ops(a)
    assert "not" not in set(ops(g))
    with pytest.raises(ValueError):
        _prepare(lg.neg(lg.exists(("k",), lg.TRUE)))


def test_nnf_equivalent_on_points():
    rng = random.Random(7)
    x, y = lg.lin({"x": 1}), lg.lin({"y": 1})
    atoms = [lg.atom(x, "<", 2), lg.atom(y, ">=", 0), lg.atom(x, "!=", y),
             lg.atom(lg.lin_add(x, y), "=", 3)]
    for _ in range(50):
        f = rng.choice(atoms)
        for _ in range(4):
            op = rng.random()
            if op < 0.4:
                f = lg.conj(f, rng.choice(atoms))
            elif op < 0.8:
                f = lg.disj(f, rng.choice(atoms))
            else:
                f = lg.neg(f)
        g = _prepare(f)
        assert g == nnf(f)
        for _ in range(20):
            env = {"x": rng.randint(-4, 4), "y": rng.randint(-4, 4)}
            assert lg.evaluate(f, env) == lg.evaluate(g, env)


@pytest.mark.parametrize("rel", lg.RELOPS)
def test_negated_atom_is_the_complement_relation(rel):
    # `_prepare` negates an atom by its complement relation: on every
    # point, the negation holds exactly where the atom does not
    x, y = lg.lin({"x": 1}), lg.lin({"y": 1})
    f = lg.atom(x, rel, y)
    g = _prepare(lg.neg(f))
    assert g.op in ("atom", "or")  # no "not" is left
    for a, b in itertools.product(range(-3, 4), repeat=2):
        env = {"x": a, "y": b}
        assert lg.evaluate(g, env) == (not lg.evaluate(f, env)), (a, b)


def _systems(closures):
    """What a closure holds that decides its verdict: its declared
    variables and its rows."""
    return [(c.variables, c.constraints) for c in closures]


def test_dnf_branches_freshen_bound_vars():
    inner = lg.exists(("k",), lg.atom(lg.lin({"x": 1}), "=", lg.lin({"k": 2})))
    f = lg.conj(inner, lg.exists(("k",),
                                 lg.atom(lg.lin({"y": 1}), "=",
                                         lg.lin({"k": 2}, 1)), nonneg=False))
    (closure,) = lg._branches(f, RefutesNothing(), {})
    assert closure.variables == {"x": False, "y": False,
                                 "q1": True, "q2": False}


def test_dnf_branches_order_and_no_reference_cycle():
    x, y = lg.lin({"x": 1}), lg.lin({"y": 1})
    f = lg.conj(lg.disj(lg.atom(x, "<", 0), lg.atom(x, ">", 5)),
                lg.exists(("k",), lg.disj(lg.atom(y, "=", lg.lin({"k": 2})),
                                          lg.atom(y, "=", lg.lin({"k": 3})))),
                lg.exists(("k",), lg.atom(x, "=", lg.lin({"k": 1})),
                          nonneg=False))
    gc.collect()
    gc.disable()
    try:
        closures = list(lg._branches(f, RefutesNothing(), {}))
        # nothing the walk built is left for the cyclic collector
        assert gc.collect() == 0
    finally:
        gc.enable()
    branches = dnf_branches(f)
    assert _systems(closures) == _systems(map(branch_system, branches))
    got = [[(str(lhs), rel, str(rhs)) for lhs, rel, rhs in b.atoms]
           for b in branches]
    assert got == [
        [("x", "<", "0"), ("y", "=", "2*q1"), ("x", "=", "q2")],
        [("x", "<", "0"), ("y", "=", "3*q1"), ("x", "=", "q2")],
        [("5", "<", "x"), ("y", "=", "2*q1"), ("x", "=", "q2")],
        [("5", "<", "x"), ("y", "=", "3*q1"), ("x", "=", "q2")],
    ]
    assert all(b.nonneg == {"q1"} and b.free_bound == {"q2"}
               for b in branches)


def test_decide_sat_and_unsat():
    solver = Solver()
    x = lg.lin({"x": 1})
    status, witness = lg.decide(lg.conj(lg.atom(x, ">", 3),
                                        lg.atom(x, "<", 6)), solver)
    assert status == "sat"
    assert 3 < witness["x"] < 6
    status, witness = lg.decide(lg.conj(lg.atom(x, "<", 0),
                                        lg.atom(x, ">", 0)), solver)
    assert status == ("unsat")
    assert witness is None


def test_decide_respects_multiplier_signs():
    solver = Solver()
    o = lg.lin({"o": 1})
    # o = 2k with a sign-free k accepts negatives
    even = lg.exists(("k",), lg.atom(o, "=", lg.lin({"k": 2})), nonneg=False)
    status, _ = lg.decide(lg.conj(even, lg.atom(o, "=", -4)), solver)
    assert status == "sat"
    # nonnegative multiplier rejects them
    ray = lg.exists(("k",), lg.atom(o, "=", lg.lin({"k": 2})))
    status, _ = lg.decide(lg.conj(ray, lg.atom(o, "=", -4)), solver)
    assert status == "unsat"
    status, _ = lg.decide(lg.conj(even, lg.atom(o, "=", 1)), solver)
    assert status == "unsat"


def test_concretize_golden():
    value = sl.SemiLinearSet((sl.LinearSet((0, 0), ((3, 6),)),))
    f = lg.concretize(value)
    solver = Solver()
    o1, o2 = lg.lin({"o1": 1}), lg.lin({"o2": 1})
    sat, _ = lg.decide(lg.conj(f, lg.atom(o1, "=", 9), lg.atom(o2, "=", 18)),
                       solver)
    assert sat == "sat"
    sat, _ = lg.decide(lg.conj(f, lg.atom(o1, "=", 4), lg.atom(o2, "=", 6)),
                       solver)
    assert sat == "unsat"


def _random_value(rng, dim=2):
    comps = []
    for _ in range(rng.randint(1, 2)):
        base = tuple(rng.randint(-2, 2) for _ in range(dim))
        gens = tuple(tuple(rng.randint(-2, 2) for _ in range(dim))
                     for _ in range(rng.randint(0, 2)))
        comps.append(sl.linset(base, gens))
    return sl.sls(comps)


def test_concretize_members_against_gamma():
    rng = random.Random(3)
    solver = Solver()
    for _ in range(15):
        value = _random_value(rng)
        f = lg.concretize(value)
        pts = gamma_bounded(value, 3)
        for p in sorted(pts)[:5]:
            q = lg.conj(f, lg.atom(lg.lin({"o1": 1}), "=", p[0]),
                        lg.atom(lg.lin({"o2": 1}), "=", p[1]))
            assert lg.decide(q, solver)[0] == "sat"


def test_concretize_builds_the_formula_lin_builds():
    # up to 12 generators, so the multiplier l10 sorts before l2
    rng = random.Random(4417)
    many = 0
    for _ in range(200):
        dim = rng.randint(1, 4)
        comps = []
        for _ in range(rng.randint(1, 3)):
            base = tuple(rng.randint(-5, 5) for _ in range(dim))
            gens = [tuple(rng.choice((0, rng.randint(-4, 4)))
                          for _ in range(dim))
                    for _ in range(rng.randint(0, 12))]
            comps.append(sl.LinearSet(base, tuple(g for g in gens if any(g))))
            many += len(comps[-1].gens) >= 10
        value = sl.SemiLinearSet(tuple(comps))
        names = lg.output_names(dim)
        assert lg.concretize(value, names) == concretize_by_lin(value, names)
    assert many > 20


def test_concretize_zero_is_false():
    assert lg.concretize(sl.ZERO, ("o1",)) is lg.FALSE


def test_concretize_bools():
    f = lg.concretize_bools(frozenset({(True, False)}), ("o1", "o2"))
    assert lg.evaluate(f, {"o1": 1, "o2": 0})
    assert not lg.evaluate(f, {"o1": 1, "o2": 1})
    g = lg.concretize_bools(frozenset(), ("o1",))
    assert g is lg.FALSE


def test_build_query_dispatches_on_value_kind():
    ps = PointSpec((lg.atom(lg.lin({"o1": 1}), "=", 4),))
    value = sl.SemiLinearSet((sl.LinearSet((0,), ((2,),)),))
    q = lg.build_query(value, ps)
    assert lg.decide(q, Solver())[0] == "sat"
    bq = lg.build_query(frozenset({(True,)}),
                        PointSpec((lg.atom(lg.lin({"o1": 1}), "=", 1),)))
    assert lg.decide(bq, Solver())[0] == "sat"


def test_render_goldens():
    x = lg.lin({"x": 2}, -1)
    assert lg.render(lg.atom(x, "<=", 0)) == "(<= (+ (* 2 x) (- 1)) 0)"
    assert lg.render(lg.atom(lg.lin({"x": 1}), "!=", 3)) == \
        "(distinct x 3)"
    f = lg.neg(lg.disj(lg.atom(lg.lin({"o1": 1}), ">", 0),
                       lg.atom(lg.lin({"o1": 3}), "=", 1)))
    assert lg.render(f, {"o1": "(f x)"}) == \
        "(not (or (> (f x) 0) (= (* 3 (f x)) 1)))"
    with pytest.raises(ValueError):
        lg.render(lg.exists(("l1",), lg.atom(lg.lin({"l1": 1}), "=", 0)))


def _random_formula(rng, depth, bound=()):
    names = ("x", "y") + bound
    if depth == 0 or rng.random() < 0.25:
        lhs = lg.lin({rng.choice(names): rng.randint(-3, 3),
                      rng.choice(names): rng.randint(-2, 2)},
                     rng.randint(-4, 4))
        f = lg.atom(lhs, rng.choice(lg.RELOPS), rng.randint(-5, 5))
        return lg.neg(f) if rng.random() < 0.2 else f
    kind = rng.choice(("and", "or", "or", "exists"))
    if kind == "exists":
        k = rng.choice(("k", "m"))  # reuse names so inner binders shadow
        body = _random_formula(rng, depth - 1, bound + (k,))
        return lg.exists((k,), body, nonneg=rng.random() < 0.5)
    parts = [_random_formula(rng, depth - 1, bound)
             for _ in range(rng.randint(2, 3))]
    return lg.conj(*parts) if kind == "and" else lg.disj(*parts)


def test_lazy_walk_matches_eager_dnf_and_branch_loop():
    rng = random.Random(41)
    statuses = []
    for i in range(80):
        f = _random_formula(rng, 4)
        if i % 2:  # pinned inputs ahead of the splits make many prefixes unsat
            x, y = lg.lin({"x": 1}), lg.lin({"y": 1})
            f = lg.conj(lg.atom(x, "=", rng.randint(-3, 3)),
                        lg.atom(y, "=", rng.randint(-3, 3)), f)
        branches = dnf_branches(f)
        # the lazy walk, refuting nothing, yields every eager branch's
        # system in order
        assert _systems(lg._branches(f, RefutesNothing(), {})) == \
            _systems(map(branch_system, branches))
        expected = ("unsat", None)
        for b in branches:  # the eager loop: one ILP call per branch
            res = Solver().feasible(branch_system(b))
            if res.status == "sat":
                expected = ("sat", dict(res.witness))
                break
        assert lg.decide(f, Solver()) == expected, f
        statuses.append(expected[0])
    assert statuses.count("sat") >= 10 and statuses.count("unsat") >= 10


def test_decide_survives_a_partial_conjunction_hard_for_the_ilp():
    # The two rows ahead of the split have integer points (a=0, b=2, c=4),
    # but their relaxation has a ray that a depth-first search without a
    # deepening box follows away from every one of them until its budget
    # runs out.  The partial conjunction is now decided sat, like each DNF
    # branch, and the walk returns the first branch's witness.
    b, c = lg.lin({"b": 1}), lg.lin({"c": 1})
    hard = (lg.atom(lg.lin({"a": 2, "b": -1}), "<=", -2),
            lg.atom(lg.lin({"a": 2, "b": 2, "c": -3}), "<", -6))
    split = lg.disj(lg.conj(lg.atom(b, "<=", 5), lg.atom(c, "<=", 5)),
                    lg.atom(b, ">=", 100))
    f = lg.exists(("a", "b", "c"), lg.conj(*hard, split))
    (first, _) = dnf_branches(f)
    partial = Branch(first.atoms[:2], first.nonneg)
    assert Solver(node_budget=5000).feasible(
        branch_system(partial)).status == "sat"
    res = Solver(node_budget=5000).feasible(branch_system(first))
    assert lg.decide(f, Solver(node_budget=5000)) == \
        ("sat", dict(res.witness))


def test_decide_shares_atom_rows_and_keeps_cancelled_variables():
    # x + y = y + 3 cancels y, yet its system still declares y; the first
    # branch (x < 0) is refuted and the second one's witness is returned
    x = lg.lin({"x": 1})
    f = lg.conj(lg.atom(lg.lin({"x": 1, "y": 1}), "=", lg.lin({"y": 1}, 3)),
                lg.disj(lg.atom(x, "<", 0), lg.atom(x, ">", 1)))
    expected = None
    for b in dnf_branches(f):
        res = Solver().feasible(branch_system(b))
        if res.status == "sat":
            expected = dict(res.witness)
            break
    assert expected is not None and set(expected) == {"x", "y"}
    status, witness = lg.decide(f, Solver())
    assert status == "sat"
    assert witness == expected
    assert list(witness) == list(expected)
    # one dict of rows shared across branches builds each atom's row once,
    # and each branch's closure holds the branch's system
    rows = {}
    assert _systems(lg._branches(f, RefutesNothing(), rows)) == \
        _systems(map(branch_system, dnf_branches(f)))
    assert len(rows) == 3


def test_branch_closures_hold_the_branch_systems():
    # decide hands the solver each branch's closure, which must hold the
    # branch's system as branch_system builds it from scratch; with a
    # solver the walk yields the eager branches in order but for those
    # under a refuted partial conjunction, each of them unsat
    rng = random.Random(43)
    seen = dropped = 0
    for _ in range(60):
        f = _random_formula(rng, 4)
        left = iter(map(branch_system, dnf_branches(f)))
        for closure in lg._branches(f, Solver(), {}):
            for s in left:
                if _systems([s]) == _systems([closure]):
                    break
                assert Solver().feasible(s).status == "unsat", f
                dropped += 1
            else:
                raise AssertionError(f"a closure of no branch: {f}")
            seen += 1
        for s in left:
            assert Solver().feasible(s).status == "unsat", f
            dropped += 1
    assert seen >= 60 and dropped >= 100


def _freshen_by_substitution(g, renaming, fresh):
    """The renaming of bound variables in `logic._prepare` as it read
    when each atom was renamed by `substitute` with every bound variable
    mapped to the term of its new name."""
    if g.op == "atom":
        lhs, _, rhs = g.atom
        ren = {v: lg.lin(((renaming[v], 1),)) for v in
               (lhs.variables() | rhs.variables()) & renaming.keys()}
        return lg.substitute(g, ren) if ren else g
    if g.op == "exists":
        ren = dict(renaming)
        names = []
        for v in g.bound:
            ren[v] = f"q{next(fresh)}"
            names.append(ren[v])
        return lg.LiaFormula(
            "exists", (_freshen_by_substitution(g.args[0], ren, fresh),),
            bound=tuple(names), nonneg=g.nonneg)
    if g.args:
        return lg.LiaFormula(g.op, tuple(
            _freshen_by_substitution(h, renaming, fresh) for h in g.args))
    return g


def _random_binder_formula(rng, depth, bound=()):
    # bound variables on both sides of an atom, a free variable named like
    # a fresh one (q1), and binders of one or two names that shadow outer
    # ones
    names = ("x", "q1") + bound
    if depth == 0 or rng.random() < 0.2:
        side = [lg.lin([(rng.choice(names), rng.randint(-2, 2))
                        for _ in range(rng.randint(0, 3))], rng.randint(-2, 2))
                for _ in "lr"]
        return lg.atom(side[0], rng.choice(("=", "<", "<=")), side[1])
    kind = rng.choice(("and", "or", "exists", "exists"))
    if kind == "exists":
        ks = tuple(rng.sample(("k", "m", "x"), rng.randint(1, 2)))
        body = _random_binder_formula(rng, depth - 1, bound + ks)
        return lg.exists(ks, body, nonneg=rng.random() < 0.5)
    parts = [_random_binder_formula(rng, depth - 1, bound)
             for _ in range(rng.randint(2, 3))]
    return lg.conj(*parts) if kind == "and" else lg.disj(*parts)


def test_freshen_matches_renaming_by_substitution():
    rng = random.Random(44)
    renamed = 0
    for i in range(300):
        f = (_random_binder_formula(rng, 4) if i % 2
             else _random_formula(rng, 4))
        got = _prepare(f)
        assert got == _freshen_by_substitution(nnf(f), {},
                                               itertools.count(1)), f
        renamed += got != nnf(f)
    assert renamed >= 100
