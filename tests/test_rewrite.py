import random

import pytest

from oracles import (
    DOUBLE_SYM, ITE_SYM, LESSTHAN_SYM, MINUS_SYM, reachable_values,
)
from unrealizer import grammar as gr
from unrealizer import semilinear as sl
from unrealizer.gfa import Factor, IntMonomial, IteMonomial, PolynomialSystem
from unrealizer.rewrite import masked, negative, rem_if, to_plus_form


def _g(nts, start, prods):
    return gr.Rtg(tuple(nts), start, tuple(prods))


def test_plus_form_is_identity_without_minus():
    g = _g([("S", gr.INT)], "S",
           [gr.Production("S", gr.plus(2), (gr.leaf(gr.var("x")), "S")),
            gr.Production("S", gr.num(0), ())])
    assert to_plus_form(g) is g


def test_minus_becomes_sum_with_negated_twin():
    g = _g([("S", gr.INT)], "S",
           [gr.Production("S", MINUS_SYM, (gr.leaf(gr.var("x")), "S")),
            gr.Production("S", gr.num(1), ())])
    h = to_plus_form(g)
    assert dict(h.nonterminals) == {"S": gr.INT, "S^-": gr.INT}
    by_lhs = {}
    for p in h.productions:
        by_lhs.setdefault(p.lhs, []).append(p)
    kinds = {p.symbol.kind for ps in by_lhs.values() for p in ps}
    assert gr.MINUS not in kinds
    # S -> x + S^-   and   S^- -> (-x) + S
    (ps,) = [p for p in by_lhs["S"] if p.symbol.kind == gr.PLUS]
    assert ps.args[0].symbol.kind == gr.VAR and ps.args[1] == "S^-"
    (pn,) = [p for p in by_lhs["S^-"] if p.symbol.kind == gr.PLUS]
    assert pn.args[0].symbol.kind == gr.NEGVAR and pn.args[1] == "S"
    consts = {p.symbol.value for ps in by_lhs.values()
              for p in ps if p.symbol.kind == gr.NUM}
    assert consts == {1, -1}


def test_plus_form_preserves_semantics():
    g = _g([("S", gr.INT), ("T", gr.INT)], "S",
           [gr.Production("S", MINUS_SYM, ("T", "S")),
            gr.Production("S", None, ("T",)),
            gr.Production("T", gr.plus(2), (gr.leaf(gr.var("x")), "T")),
            gr.Production("T", gr.num(2), ())])
    h = to_plus_form(g)
    e = gr.ExampleSet(("x",), ((3,), (-1,)))
    for depth in (2, 3, 4):
        assert set(reachable_values(g, "S", depth, e)) == \
            set(reachable_values(h, "S", depth, e))


def test_plus_form_preserves_semantics_random():
    rng = random.Random(11)
    e = gr.ExampleSet(("x", "y"), ((2, -3),))
    for _ in range(40):
        prods = [gr.Production("S", gr.num(rng.randint(-2, 2)), ())]
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            a1 = rng.choice(["S", gr.leaf(gr.var("x")), gr.leaf(gr.var("y")),
                             gr.leaf(gr.num(rng.randint(-2, 2)))])
            a2 = rng.choice(["S", gr.leaf(gr.var("x"))])
            if kind < 0.5:
                prods.append(gr.Production("S", MINUS_SYM, (a1, a2)))
            else:
                prods.append(gr.Production("S", gr.plus(2), (a1, a2)))
        g = _g([("S", gr.INT)], "S", prods)
        h = to_plus_form(g)
        assert set(reachable_values(g, "S", 3, e)) == \
            set(reachable_values(h, "S", 3, e))


def test_plus_form_negates_through_conditionals():
    g = _g([("S", gr.INT), ("B", gr.BOOL)], "S",
           [gr.Production("S", MINUS_SYM,
                          (gr.leaf(gr.num(0)), "S")),
            gr.Production("S", ITE_SYM, ("B", "S", gr.leaf(gr.num(3)))),
            gr.Production("S", gr.num(1), ()),
            gr.Production("B", LESSTHAN_SYM,
                          (gr.leaf(gr.var("x")), gr.leaf(gr.num(0))))])
    h = to_plus_form(g)
    sorts = dict(h.nonterminals)
    assert "B^-" not in sorts  # Booleans have no negated twin
    twins = [p for p in h.productions
             if p.lhs == "S^-" and p.symbol.kind == gr.ITE]
    assert len(twins) == 1
    assert twins[0].args[0] == "B"  # guard is untouched
    assert twins[0].args[1] == "S^-"
    assert twins[0].args[2].symbol.value == -3
    e = gr.ExampleSet(("x",), ((-2,), (5,)))
    for depth in (2, 3):
        assert set(reachable_values(g, "S", depth, e)) == \
            set(reachable_values(h, "S", depth, e))


def test_plus_form_prunes_unreachable_twins():
    g = _g([("S", gr.INT), ("T", gr.INT)], "S",
           [gr.Production("S", MINUS_SYM, ("T", "T")),
            gr.Production("T", gr.var("x"), ()),
            gr.Production("T", gr.num(1), ())])
    h = to_plus_form(g)
    names = {nt for nt, _ in h.nonterminals}
    assert names == {"S", "T", "T^-"}  # S^- is never referenced


def test_plus_form_rejects_unsupported_operators():
    g = _g([("S", gr.INT), ("T", gr.INT)], "S",
           [gr.Production("S", MINUS_SYM, (gr.leaf(gr.var("x")), "T")),
            gr.Production("T", DOUBLE_SYM, ("T",)),
            gr.Production("T", gr.num(1), ())])
    with pytest.raises(gr.GrammarError):
        to_plus_form(g)


def test_negative_and_masked_names():
    assert negative("Exp") == "Exp^-"
    assert masked("Start", (True, False)) == "Start^tf"


def _sls(*pts):
    return sl.sls([sl.linset(p) for p in pts])


def test_rem_if_indexes_by_reached_masks():
    sys = PolynomialSystem(
        {"X": (IntMonomial(_sls((1, 1)), (Factor("Y", (True, False)),)),
               IntMonomial(_sls((2, 2)))),
         "Y": (IntMonomial(sl.one(2), (Factor("Y"),)),
               IntMonomial(_sls((3, 3))))},
        2, {"X": gr.INT, "Y": gr.INT})
    out = rem_if(sys, ["X"])
    assert tuple(out.equations) == ("X^tt", "Y^tf")
    x_eq = out.equations["X^tt"]
    assert x_eq[0].factors == (Factor("Y^tf"),)
    assert x_eq[0].coeff == _sls((1, 1))
    assert x_eq[1].coeff == _sls((2, 2))
    y_eq = out.equations["Y^tf"]
    # recursion stays at the same mask; the constant is projected
    assert y_eq[0].factors == (Factor("Y^tf"),)
    assert y_eq[1].coeff == _sls((3, 0))


def test_rem_if_composes_masks():
    sys = PolynomialSystem(
        {"X": (IntMonomial(sl.one(2), (Factor("Y", (True, False)),)),),
         "Y": (IntMonomial(sl.one(2), (Factor("Y", (False, True)),)),
               IntMonomial(_sls((5, 7))))},
        2, {"X": gr.INT, "Y": gr.INT})
    out = rem_if(sys, ["X"])
    # tf then ft conjoin to ff
    assert set(tuple(out.equations)) == {"X^tt", "Y^tf", "Y^ff"}
    assert out.equations["Y^tf"][0].factors == (Factor("Y^ff"),)
    assert out.equations["Y^ff"][1].coeff == _sls((0, 0))


def test_rem_if_rejects_unexpanded_conditionals():
    sys = PolynomialSystem(
        {"X": (IteMonomial("B", "X", sl.one(1)),)},
        1, {"X": gr.INT, "B": gr.BOOL})
    with pytest.raises(gr.GrammarError):
        rem_if(sys, ["X"])


def test_rem_if_dump_golden():
    sys = PolynomialSystem(
        {"X": (IntMonomial(_sls((1, 1)), (Factor("Y", (True, False)),)),),
         "Y": (IntMonomial(_sls((3, 3))),)},
        2, {"X": gr.INT, "Y": gr.INT})
    out = rem_if(sys, ["X"])
    assert out.dump() == (
        "n(X^tt) = {<(1,1),{}>} (x) n(Y^tf)\n"
        "n(Y^tf) = {<(3,0),{}>}\n")
