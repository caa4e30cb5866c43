import random

import pytest

from oracles import AND_SYM, ITE_SYM, LESSTHAN_SYM, MINUS_SYM, NOT_SYM
from unrealizer import gfa
from unrealizer import grammar as gr
from unrealizer import semilinear as sl
from unrealizer.frontend import parse_problem
from unrealizer.gfa import BoolMonomial, Factor, IntMonomial, IteMonomial
from unrealizer.rewrite import to_plus_form

E12 = gr.ExampleSet(("x",), ((1,), (2,)))


def _g1():
    # Start -> x + x + x + Start | 0, tracked on examples x=1 and x=2
    return gr.Rtg((("Start", gr.INT),), "Start",
                  (gr.Production("Start", gr.plus(4),
                                 (gr.leaf(gr.var("x")), gr.leaf(gr.var("x")),
                                  gr.leaf(gr.var("x")), "Start")),
                   gr.Production("Start", gr.num(0), ())))


def test_build_equations_sums_and_leaves():
    sys = gfa.build_equations(_g1(), E12)
    assert sys.dimension == 2
    assert sys.sorts == {"Start": gr.INT}
    recursive, const = sys.equations["Start"]
    # the three x-leaves fold into one coefficient (3, 6)
    assert recursive.coeff == sl.singleton((3, 6))
    assert recursive.factors == (Factor("Start"),)
    assert const.coeff == sl.singleton((0, 0))
    assert const.factors == ()


def test_build_equations_dump_golden():
    sys = gfa.build_equations(_g1(), E12)
    assert sys.dump() == \
        "n(Start) = {<(3,6),{}>} (x) n(Start) (+) {<(0,0),{}>}\n"


def test_build_equations_booleans_and_conditionals():
    g = gr.Rtg((("S", gr.INT), ("B", gr.BOOL)), "S",
               (gr.Production("S", ITE_SYM, ("B", "S", gr.leaf(gr.num(5)))),
                gr.Production("S", gr.num(0), ()),
                gr.Production("B", LESSTHAN_SYM,
                              (gr.leaf(gr.var("x")), gr.leaf(gr.num(2)))),
                gr.Production("B", AND_SYM, ("B", "B")),
                gr.Production("B", NOT_SYM, ("B",))))
    sys = gfa.build_equations(g, E12)
    assert sys.has_ite()
    ite, zero = sys.equations["S"]
    assert isinstance(ite, IteMonomial)
    assert ite.guard == "B" and ite.then_arg == "S"
    assert ite.else_arg == sl.singleton((5, 5))
    lt, conj, neg = sys.equations["B"]
    assert lt == BoolMonomial("lessthan",
                              (sl.singleton((1, 2)), sl.singleton((2, 2))))
    assert conj == BoolMonomial("and", ("B", "B"))
    assert neg == BoolMonomial("not", ("B",))


def test_build_equations_aliases():
    g = gr.Rtg((("S", gr.INT), ("T", gr.INT), ("A", gr.BOOL), ("B", gr.BOOL)),
               "S",
               (gr.Production("S", None, ("T",)),
                gr.Production("S", ITE_SYM, ("A", "T", "T")),
                gr.Production("T", gr.num(1), ()),
                gr.Production("A", None, ("B",)),
                gr.Production("B", LESSTHAN_SYM,
                              (gr.leaf(gr.num(0)), gr.leaf(gr.var("x"))))))
    sys = gfa.build_equations(g, E12)
    assert sys.equations["S"][0] == IntMonomial(sl.one(2), (Factor("T"),))
    assert sys.equations["A"] == (BoolMonomial("copy", ("B",)),)


def test_build_equations_rejects_minus():
    g = gr.Rtg((("S", gr.INT),), "S",
               (gr.Production("S", MINUS_SYM,
                              (gr.leaf(gr.var("x")), "S")),
                gr.Production("S", gr.num(0), ())))
    with pytest.raises(gr.GrammarError):
        gfa.build_equations(g, E12)
    assert gfa.build_equations(to_plus_form(g), E12)


def test_dependencies():
    sys = gfa.build_equations(_g1(), E12)
    assert gfa.dependencies(sys) == {"Start": {"Start"}}


def test_stratify_orders_dependencies_first():
    g = gr.Rtg((("S", gr.INT), ("T", gr.INT), ("U", gr.INT)), "S",
               (gr.Production("S", gr.plus(2), ("T", "S")),
                gr.Production("S", gr.num(0), ()),
                gr.Production("T", gr.plus(2), ("U", gr.leaf(gr.num(1)))),
                gr.Production("U", gr.var("x"), ())))
    strata = gfa.stratify(gfa.build_equations(g, E12))
    assert strata == [("U",), ("T",), ("S",)]
    assert all(isinstance(s, tuple) for s in strata)


def test_stratify_groups_mutual_recursion():
    g = gr.Rtg((("S", gr.INT), ("B", gr.BOOL)), "S",
               (gr.Production("S", ITE_SYM, ("B", "S", gr.leaf(gr.num(0)))),
                gr.Production("S", gr.num(1), ()),
                gr.Production("B", LESSTHAN_SYM,
                              (gr.leaf(gr.num(0)), "S"))))
    strata = gfa.stratify(gfa.build_equations(g, E12))
    assert strata == [("B", "S")]


def test_stratify_follows_tarjan_finish_order():
    # roots are taken in name order: A finishes first, then M's
    # depth-first visit finishes Z before M itself
    g = gr.Rtg((("A", gr.INT), ("Z", gr.INT), ("M", gr.INT)), "M",
               (gr.Production("A", gr.num(1), ()),
                gr.Production("Z", gr.num(2), ()),
                gr.Production("M", gr.plus(2), ("A", "Z"))))
    strata = gfa.stratify(gfa.build_equations(g, E12))
    assert strata == [("A",), ("Z",), ("M",)]


def _reaches(deps):
    """Reflexive-transitive closure of the read relation."""
    reach = {v: {v} | deps[v] for v in deps}
    for k in deps:
        for v in deps:
            if k in reach[v]:
                reach[v] |= reach[k]
    return reach


def test_stratify_random_graphs_against_reachability_oracle():
    rng = random.Random(0)
    for _ in range(300):
        names = [f"N{i}" for i in rng.sample(range(40), rng.randint(1, 12))]
        # "X" is read but has no equation, like a solved nonterminal
        pool = names + ["X"]
        deps = {v: set(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
                for v in names}
        sys = gfa.PolynomialSystem(
            {v: (IntMonomial(sl.one(1), tuple(Factor(w) for w in sorted(ds))),
                 IntMonomial(sl.one(1)))
             for v, ds in deps.items()},
            1, {v: gr.INT for v in names})
        strata = gfa.stratify(sys)
        reach = _reaches({v: ds - {"X"} for v, ds in deps.items()})
        sccs = {tuple(sorted(w for w in names
                             if w in reach[v] and v in reach[w]))
                for v in names}
        assert sorted(strata) == sorted(sccs)
        seen = set()
        for stratum in strata:
            seen |= set(stratum)
            assert all(deps[v] - {"X"} <= seen for v in stratum)


def test_stratify_on_one_example_problem():
    p = parse_problem("""
(set-logic CLIA)
(synth-fun f ((x Int)) Int
  ((Start Int ((ite B Start T) T))
   (B Bool ((< x T)))
   (T Int (x 0 (+ T T)))))
(constraint (= (f x) 1))
(check-synth)
""")
    e = gr.ExampleSet(("x",), ((4,),))
    strata = gfa.stratify(gfa.build_equations(p.grammar, e))
    assert strata == [("T",), ("B",), ("Start",)]


def test_substitute_folds_solved_values():
    sys = gfa.build_equations(_g1(), E12)
    solved = {"Start": sl.sls([sl.linset((0, 0), ((3, 6),))])}
    out = gfa.substitute(sys, solved)
    assert out.equations == {}
    g = gr.Rtg((("S", gr.INT), ("T", gr.INT)), "S",
               (gr.Production("S", gr.plus(2), ("T", "S")),
                gr.Production("S", gr.num(0), ()),
                gr.Production("T", gr.var("x"), ())))
    sys2 = gfa.build_equations(g, E12)
    out2 = gfa.substitute(sys2, {"T": sl.singleton((1, 2))})
    mono = out2.equations["S"][0]
    assert mono.coeff == sl.singleton((1, 2))
    assert mono.factors == (Factor("S"),)
    assert "T" not in out2.sorts


def test_substitute_reaches_guards_and_bool_args():
    sys = gfa.PolynomialSystem(
        {"S": (IteMonomial("B", "S", sl.one(2)),),
         "C": (BoolMonomial("and", ("B", "C")),
               BoolMonomial("lessthan", ("T", sl.singleton((9, 9)))))},
        2, {"S": gr.INT, "C": gr.BOOL, "B": gr.BOOL, "T": gr.INT})
    solved = {"B": frozenset({(True, True)}), "T": sl.singleton((1, 1))}
    out = gfa.substitute(sys, solved)
    assert out.equations["S"][0].guard == frozenset({(True, True)})
    conj, lt = out.equations["C"]
    assert conj.args == (frozenset({(True, True)}), "C")
    assert lt.args[0] == sl.singleton((1, 1))


def test_restrict_keeps_only_named_equations():
    g = gr.Rtg((("S", gr.INT), ("T", gr.INT)), "S",
               (gr.Production("S", gr.plus(2), ("T", "S")),
                gr.Production("S", gr.num(0), ()),
                gr.Production("T", gr.var("x"), ())))
    sys = gfa.build_equations(g, E12)
    out = gfa.restrict(sys, ["T"])
    assert tuple(out.equations) == ("T",)
    assert out.sorts == {"T": gr.INT}
    assert out.dimension == 2
