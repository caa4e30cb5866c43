import pytest

from oracles import (
    AND_SYM, DOUBLE_SYM, ITE_SYM, LESSTHAN_SYM, NOT_SYM, gamma_bounded,
    ite_abstract, reachable_values,
)
from unrealizer import clia
from unrealizer import grammar as gr
from unrealizer import semilinear as sl
from unrealizer.booldom import LessThanCache
from unrealizer.gfa import (
    BoolMonomial, Factor, IntMonomial, IteMonomial, PolynomialSystem,
)
from unrealizer.ilp import Solver
from unrealizer.rewrite import rem_if

E12 = gr.ExampleSet(("x",), ((1,), (2,)))

T, F = True, False


def _sls(*comps):
    return sl.sls([sl.linset(b, g) for b, g in comps])


def test_ite_abstract_golden():
    bset = frozenset({(T, F), (T, T)})
    then = _sls(((1, 2), [(3, 4)]))
    other = _sls(((5, 6), [(7, 8)]))
    got = ite_abstract(bset, then, other)
    assert got == _sls(((1, 2), [(3, 4)]),
                       ((1, 6), [(0, 8), (3, 0)]))
    assert str(got) == "{<(1,2),{(3,4)}>,<(1,6),{(0,8),(3,0)}>}"


def test_ite_abstract_edges():
    v = _sls(((1, 1), []))
    assert ite_abstract(frozenset(), v, v).is_zero
    # all-true guard returns the then-branch; all-false the else-branch
    assert ite_abstract(frozenset({(T, T)}), v, _sls(((9, 9), []))) == v
    assert ite_abstract(frozenset({(F, F)}), _sls(((9, 9), [])), v) == v
    # an empty branch denies every pattern: no conditional tree exists
    # without a derivable then-subtree, even when the guard routes all
    # examples to the else branch
    assert ite_abstract(frozenset({(T, T)}), sl.ZERO, v).is_zero
    assert ite_abstract(frozenset({(T, T), (F, F)}), sl.ZERO, v).is_zero


def test_solve_bool_simple_fixpoint():
    lt = LessThanCache(Solver())
    equations = {
        "A": (BoolMonomial("lessthan",
                           (sl.singleton((1, 2)), sl.singleton((2, 2)))),),
        "B": (BoolMonomial("not", ("A",)),
              BoolMonomial("and", ("A", "B"))),
        "C": (BoolMonomial("copy", ("B",)),),
    }
    nu, iterations = clia.solve_bool(equations, {}, lt, 2)
    assert nu["A"] == frozenset({(T, F)})
    # not(A) negates per coordinate; and(A, B) then yields (f,f)
    assert nu["B"] == frozenset({(F, T), (F, F)})
    assert nu["C"] == nu["B"]
    assert iterations <= (2 ** 2) * 3 + 1


def test_solve_bool_saturates_within_bound():
    # a chain that adds one pattern per pass stays within 2^d * |N| + 1
    lt = LessThanCache(Solver())
    equations = {
        "A": (BoolMonomial("copy", (frozenset({(T, T)}),)),
              BoolMonomial("not", ("A",)),
              BoolMonomial("and", ("A", "B"))),
        "B": (BoolMonomial("not", ("A",)),),
    }
    nu, iterations = clia.solve_bool(equations, {}, lt, 2)
    assert iterations <= (2 ** 2) * 2 + 1
    # the valuation is a fixpoint: one more pass changes nothing
    again, _ = clia.solve_bool(equations, {}, lt, 2)
    assert again == nu


def test_expand_ite_projection_golden():
    exp3 = _sls(((0, 0), [(3, 6)]))
    exp2 = _sls(((0, 0), [(2, 4)]))
    sys = PolynomialSystem(
        {"Start": (IteMonomial("BExp", exp3, "Start"),
                   IntMonomial(exp2),
                   IntMonomial(exp3)),
         "BExp": (BoolMonomial("copy", (frozenset({(T, F)}),)),)},
        2, {"Start": gr.INT, "BExp": gr.BOOL})
    out = clia.expand_ite(sys, {"BExp": frozenset({(T, F)})})
    assert tuple(out.equations) == ("Start",)
    assert out.dump() == (
        "n(Start) = {<(0,0),{(3,0)}>} (x) proj(n(Start), ft)"
        " (+) {<(0,0),{(2,4)}>} (+) {<(0,0),{(3,6)}>}\n")


def test_rem_if_after_expansion_golden():
    exp3 = _sls(((0, 0), [(3, 6)]))
    exp2 = _sls(((0, 0), [(2, 4)]))
    sys = PolynomialSystem(
        {"Start": (IteMonomial("BExp", exp3, "Start"),
                   IntMonomial(exp2),
                   IntMonomial(exp3))},
        2, {"Start": gr.INT})
    out = rem_if(clia.expand_ite(sys, {"BExp": frozenset({(T, F)})}),
                 ["Start"])
    assert out.dump() == (
        "n(Start^tt) = {<(0,0),{(3,0)}>} (x) n(Start^ft)"
        " (+) {<(0,0),{(2,4)}>} (+) {<(0,0),{(3,6)}>}\n"
        "n(Start^ft) = n(Start^ft)"
        " (+) {<(0,0),{(0,4)}>} (+) {<(0,0),{(0,6)}>}\n")


def test_expand_ite_guard_patterns_multiply_monomials():
    sys = PolynomialSystem(
        {"S": (IteMonomial("B", "S", "S"),)},
        2, {"S": gr.INT, "B": gr.BOOL})
    out = clia.expand_ite(sys, {"B": frozenset({(T, F), (F, T)})})
    monos = out.equations["S"]
    assert len(monos) == 2
    # patterns visit in reverse-sorted order: tf before ft
    assert monos[0].factors == (Factor("S", (T, F)), Factor("S", (F, T)))
    assert monos[1].factors == (Factor("S", (F, T)), Factor("S", (T, F)))


def _g1():
    return gr.Rtg((("Start", gr.INT),), "Start",
                  (gr.Production("Start", gr.plus(4),
                                 (gr.leaf(gr.var("x")), gr.leaf(gr.var("x")),
                                  gr.leaf(gr.var("x")), "Start")),
                   gr.Production("Start", gr.num(0), ())))


def _g2():
    return gr.Rtg(
        (("Start", gr.INT), ("BExp", gr.BOOL),
         ("Exp2", gr.INT), ("Exp3", gr.INT)),
        "Start",
        (gr.Production("Start", ITE_SYM, ("BExp", "Exp3", "Start")),
         gr.Production("Start", None, ("Exp2",)),
         gr.Production("Start", None, ("Exp3",)),
         gr.Production("BExp", LESSTHAN_SYM,
                       (gr.leaf(gr.var("x")), gr.leaf(gr.num(2)))),
         gr.Production("BExp", LESSTHAN_SYM,
                       (gr.leaf(gr.num(0)), "Start")),
         gr.Production("BExp", AND_SYM, ("BExp", "BExp")),
         gr.Production("Exp2", gr.plus(3),
                       (gr.leaf(gr.var("x")), gr.leaf(gr.var("x")), "Exp2")),
         gr.Production("Exp2", gr.num(0), ()),
         gr.Production("Exp3", gr.plus(4),
                       (gr.leaf(gr.var("x")), gr.leaf(gr.var("x")),
                        gr.leaf(gr.var("x")), "Exp3")),
         gr.Production("Exp3", gr.num(0), ())))


def test_solve_triple_sum_golden():
    res = clia.solve(_g1(), E12)
    assert str(res.value("Start")) == "{<(0,0),{(3,6)}>}"
    assert str(res.value("S1")) == "{<(3,6),{}>}"
    assert str(res.value("S2")) == "{<(2,4),{}>}"
    assert str(res.value("S3")) == "{<(1,2),{}>}"
    assert res.mutual_iterations == {}


def test_solve_conditional_grammar_golden():
    trace = []
    res = clia.solve(_g2(), E12, trace=trace)
    assert str(res.value("Exp2")) == "{<(0,0),{(2,4)}>}"
    assert str(res.value("Exp3")) == "{<(0,0),{(3,6)}>}"
    assert res.value("BExp") == frozenset({(T, T), (T, F), (F, T), (F, F)})
    assert str(res.value("Start")) == (
        "{<(0,0),{(0,4),(3,0)}>,<(0,0),{(0,6),(2,0)}>,"
        "<(0,0),{(0,6),(3,0)}>,<(0,0),{(2,4)}>,<(0,0),{(3,6)}>}")
    assert res.strata[-1] == ("BExp", "Start")
    assert res.mutual_iterations == {("BExp", "Start"): 2}
    rounds = [t for t in trace if isinstance(t, dict) and "bool" in t]
    assert rounds[0]["bool"]["BExp"] == frozenset({(T, F)})
    assert rounds[1]["bool"]["BExp"] == res.value("BExp")


def test_solve_mutual_fast_path_without_conditionals():
    # the only stratum without ite that `solve` hands over is Bool-only
    # (an Int nonterminal reaches a Bool one through an ite guard alone),
    # here with S = 0 | S + (1,2) already solved: one alternation settles it
    s = _sls(((0, 0), [(1, 2)]))
    sys = PolynomialSystem(
        {"B": (BoolMonomial("lessthan", (sl.singleton((0, 0)), s)),
               BoolMonomial("not", ("C",))),
         "C": (BoolMonomial("and", ("B", "B")),)},
        2, {"B": gr.BOOL, "C": gr.BOOL})
    res = clia.solve_mutual(sys, Solver())
    assert res.outer_iterations == 1
    assert res.values["B"] == frozenset({(F, F), (T, T)})
    assert res.values["C"] == frozenset({(F, F), (T, T)})


def test_solve_mutual_keeps_unreachable_branches_out():
    # S = ite(0 < S, 5, S) | 0: the guard can never turn true, because 5
    # only appears under an already-true guard; the exact answer is {0}
    sys = PolynomialSystem(
        {"S": (IteMonomial("B", sl.singleton((5, 5)), "S"),
               IntMonomial(sl.singleton((0, 0)))),
         "B": (BoolMonomial("lessthan", (sl.singleton((0, 0)), "S")),)},
        2, {"S": gr.INT, "B": gr.BOOL})
    res = clia.solve_mutual(sys, Solver())
    assert res.values["B"] == frozenset({(F, F)})
    assert str(res.values["S"]) == "{<(0,0),{}>}"


def test_solve_mutual_alternation_grows_guards():
    # S = ite(0 < S, 7, S) | 1: round one sees S={1}, flips the guard to
    # true, and round two lets 7 through; a third pass confirms
    sys = PolynomialSystem(
        {"S": (IteMonomial("B", sl.singleton((7, 7)), "S"),
               IntMonomial(sl.singleton((1, 1)))),
         "B": (BoolMonomial("lessthan", (sl.singleton((0, 0)), "S")),)},
        2, {"S": gr.INT, "B": gr.BOOL})
    res = clia.solve_mutual(sys, Solver())
    assert res.values["B"] == frozenset({(T, T)})
    assert str(res.values["S"]) == "{<(1,1),{}>,<(7,7),{}>}"
    assert res.outer_iterations == 2
    assert res.outer_iterations <= 2 * (2 ** 2)


def test_solve_bool_only_grammar():
    g = gr.Rtg((("Start", gr.INT), ("B", gr.BOOL)), "Start",
               (gr.Production("Start", ITE_SYM,
                              ("B", gr.leaf(gr.num(1)), gr.leaf(gr.num(0)))),
                gr.Production("B", LESSTHAN_SYM,
                              (gr.leaf(gr.var("x")), gr.leaf(gr.num(0)))),
                gr.Production("B", NOT_SYM, ("B",))))
    e = gr.ExampleSet(("x",), ((-1,), (3,)))
    res = clia.solve(g, e)
    assert res.value("B") == frozenset({(T, F), (F, T)})
    # ite under both patterns: (1,0) and (0,1)
    assert gamma_bounded(res.value("Start"), 0) == \
        frozenset({(1, 0), (0, 1)})


def test_solve_is_sound_for_enumerated_trees():
    solver = Solver()
    for g, e in ((_g1(), E12), (_g2(), E12)):
        res = clia.solve(g, e, solver=solver)
        value = res.value(g.start)
        for p in reachable_values(g, g.start, 5, e):
            assert any(solver.member(p, c) for c in value.components), p


def test_solve_is_complete_for_small_members():
    # small-multiplier points of the solved set have concrete derivations
    g, e = _g2(), E12
    res = clia.solve(g, e)
    derivable = set(reachable_values(g, g.start, 8, e))
    missing = gamma_bounded(res.value("Start"), 1) - derivable
    assert not missing


def test_solve_rejects_unsupported_symbols():
    g = gr.Rtg((("Start", gr.INT),), "Start",
               (gr.Production("Start", DOUBLE_SYM, ("Start",)),
                gr.Production("Start", gr.num(1), ())))
    with pytest.raises(gr.GrammarError):
        clia.solve(g, E12)


def test_solve_single_example():
    e = gr.ExampleSet(("x",), ((1,),))
    res = clia.solve(_g2(), e)
    # on x=1 alone: doubles give 2k, triples 3k, conditionals mix them
    assert res.value("BExp") == frozenset({(T,), (F,)})
    pts = gamma_bounded(res.value("Start"), 2)
    assert (2,) in pts and (3,) in pts and (0,) in pts
