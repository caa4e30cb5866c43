import shutil
import subprocess
from pathlib import Path

import pytest

from oracles import INC_SYM, LESSTHAN_SYM, horn_facts, reachable_values
from unrealizer import grammar as gr
from unrealizer import logic as lg
from unrealizer import approx
from unrealizer.approx import (
    PARITY, abstract, concretize, horn_export, predabs_solve, transform,
)
from unrealizer.frontend import parse_problem, specialize
from unrealizer.ilp import Solver

PROBLEMS = Path(__file__).parent / "problems"

E3 = gr.ExampleSet(("x",), ((3,),))


def _problem(name):
    return parse_problem((PROBLEMS / name).read_text())


def test_parity_domain_partitions_integers():
    assert set(PARITY) == {"even", "odd"}
    for v in range(-5, 6):
        value = abstract(v)
        assert len(value) == 1  # disjoint
    assert abstract(4) == frozenset({"even"})
    assert abstract(-3) == frozenset({"odd"})


def test_parity_concretize_formulas():
    solver = Solver()
    even = concretize(frozenset({"even"}), ("o1",))
    order = lambda val: lg.conj(even, lg.atom(lg.lin({"o1": 1}), "=", val))
    assert lg.decide(order(-4), solver)[0] == "sat"  # signed multipliers
    assert lg.decide(order(7), solver)[0] == "unsat"
    both = concretize(frozenset({"even", "odd"}), ("o1",))
    assert lg.decide(lg.conj(both, lg.atom(lg.lin({"o1": 1}), "=", 7)),
                     solver)[0] == "sat"
    assert concretize(frozenset(), ("o1",)) is lg.FALSE


def test_parity_transform_table():
    even = frozenset({"even"})
    odd = frozenset({"odd"})
    assert transform(gr.PLUS, [odd, odd]) == even
    assert transform(gr.PLUS, [odd, even]) == odd
    assert transform(gr.PLUS, [odd | even, even]) == odd | even
    assert transform(gr.DOUBLE, [odd | even]) == even
    assert transform(gr.INC, [even]) == odd
    assert transform(gr.ITE, [even, odd]) == even | odd
    # an empty argument denies the production
    assert transform(gr.PLUS, [frozenset(), even]) == frozenset()


def test_predabs_doubling_chain_golden():
    p = _problem("parity.sy")
    nu = predabs_solve(p.grammar, E3)
    assert nu["Start"] == frozenset({"even"})
    assert nu["S1"] == frozenset({"even", "odd"})


def test_predabs_constant_leaf():
    g = gr.Rtg((("Start", gr.INT),), "Start",
               (gr.Production("Start", gr.num(2), ()),))
    nu = predabs_solve(g, E3)
    assert nu["Start"] == frozenset({"even"})


def test_predabs_triple_sum_is_imprecise():
    # Start ::= Start+Start | 3 reaches both parities abstractly, even
    # though 3+3 jumping to even-only sums would be expressible exactly
    g = gr.Rtg((("Start", gr.INT),), "Start",
               (gr.Production("Start", gr.plus(2), ("Start", "Start")),
                gr.Production("Start", gr.num(3), ())))
    nu = predabs_solve(g, E3)
    assert nu["Start"] == frozenset({"even", "odd"})


def test_predabs_soundness_on_enumerated_trees():
    for name in ("parity.sy", "gconst.sy"):
        p = _problem(name)
        e = gr.ExampleSet(("x",), ((5,),))
        nu = predabs_solve(p.grammar, e)
        for nt, sort in p.grammar.nonterminals:
            if sort != gr.INT:
                continue
            for (v,) in reachable_values(p.grammar, nt, 6, e):
                assert abstract(v) <= nu[nt]


def test_predabs_iteration_bound(monkeypatch):
    # |N| chained nonterminals settle within |P| * |N| + 1 passes
    nts = [(f"N{i}", gr.INT) for i in range(6)]
    prods = [gr.Production("N0", gr.num(1), ())]
    prods += [gr.Production(f"N{i}", INC_SYM, (f"N{i - 1}",))
              for i in range(1, 6)]
    g = gr.Rtg(tuple(nts), "N5", tuple(prods))
    nu = predabs_solve(g, E3)
    # parity alternates down the chain: odd, even, odd, ...
    assert nu["N0"] == frozenset({"odd"})
    assert nu["N5"] == frozenset({"even"})

    # a cycle N0 ::= 1 | inc(N5), Ni ::= N(i-1) adds one predicate per
    # pass, so it takes the whole bound: |P| * |N| passes that grow a
    # value and one that confirms the fixpoint
    prods = [gr.Production("N0", gr.num(1), ()),
             gr.Production("N0", INC_SYM, ("N5",))]
    prods += [gr.Production(f"N{i}", None, (f"N{i - 1}",))
              for i in range(1, 6)]
    passes = []

    def counted(kind, args):  # N0's inc is the one transform per pass
        passes.append(kind)
        return transform(kind, args)

    monkeypatch.setattr(approx, "transform", counted)
    cycle = gr.Rtg(tuple(nts), "N5", tuple(prods))
    nu = predabs_solve(cycle, E3)
    assert all(v == frozenset(PARITY) for v in nu.values())
    assert len(passes) == len(PARITY) * len(nts) + 1

    # a transformer that never settles overruns after exactly that many
    passes.clear()

    def unsettled(kind, args):  # a value no earlier pass has seen
        passes.append(kind)
        return frozenset({len(passes)})

    monkeypatch.setattr(approx, "transform", unsettled)
    with pytest.raises(gr.IterationOverrun):
        predabs_solve(cycle, E3)
    assert len(passes) == len(PARITY) * len(nts) + 1


def test_predabs_requires_single_example():
    with pytest.raises(gr.GrammarError):
        predabs_solve(_problem("parity.sy").grammar,
                      gr.ExampleSet(("x",), ((1,), (2,))))


def test_predabs_requires_an_integer_start():
    g = _problem("lt_bool.sy").grammar
    with pytest.raises(gr.GrammarError, match="integer outputs"):
        predabs_solve(g, gr.ExampleSet(("x", "y"), ((1, 2),)))


def _horn(name, rows):
    p = _problem(name)
    e = gr.ExampleSet(p.variables, tuple(tuple(r) for r in rows))
    ps = specialize(p.spec, e)
    return horn_export(p.grammar, e, ps)


def test_horn_export_triple_sum_golden():
    got = _horn("g1.sy", [(1,)]).decode()
    assert got == (
        "(set-logic HORN)\n"
        "(declare-fun Start (Int) Bool)\n"
        "(assert (forall ((v3_1 Int)) "
        "(=> (Start v3_1) (Start (+ 1 1 1 v3_1)))))\n"
        "(assert (Start 0))\n"
        "(assert (forall ((o1 Int)) (=> (and (Start o1) (= o1 4)) false)))\n"
        "(check-sat)\n")


def test_horn_export_writes_a_disequality_as_distinct():
    p = parse_problem("(set-logic LIA)\n"
                      "(synth-fun f ((x Int)) Int ((Start Int ((+ Start x) 0))))\n"
                      "(constraint (distinct (f x) (+ x 1)))\n"
                      "(check-synth)\n")
    e = gr.ExampleSet(("x",), ((1,), (-2,)))
    text = horn_export(p.grammar, e, specialize(p.spec, e)).decode()
    assert text.splitlines()[-2] == (
        "(assert (forall ((o1 Int) (o2 Int)) "
        "(=> (and (Start o1 o2) (distinct o1 2) (distinct o2 (- 1))) "
        "false)))")


def test_horn_export_is_byte_stable():
    assert _horn("g1.sy", [(1,)]) == _horn("g1.sy", [(1,)])
    assert _horn("g2.sy", [(1,), (2,)]) == _horn("g2.sy", [(1,), (2,)])


def test_horn_export_conditional_clauses():
    text = _horn("g2.sy", [(1,), (2,)]).decode()
    assert "(set-logic HORN)" in text
    assert "(declare-fun BExp (Bool Bool) Bool)" in text
    assert "(declare-fun Start (Int Int) Bool)" in text
    # conditional heads use ite over per-example variables
    assert "(ite " in text
    # comparisons get defining Boolean equalities, not raw atoms as heads
    assert "(= b_1 (< " in text
    # the query conjoins the start predicate with both point specs
    assert "(=> (and (Start o1 o2) (= o1 4) (= o2 6)) false)" in text


def test_horn_export_grounds_all_leaf_productions():
    g = gr.Rtg((("S", gr.INT),), "S",
               (gr.Production("S", gr.plus(2),
                              (gr.leaf(gr.var("x")), gr.leaf(gr.num(4)))),
                gr.Production("S", gr.num(0), ())))
    e = gr.ExampleSet(("x",), ((2,), (-7,)))
    ps = specialize(lg.atom(lg.lin({"%out": 1}), "=", 0), e)
    text = horn_export(g, e, ps).decode()
    assert "(assert (S 6 (- 3)))" in text
    assert "(assert (S 0 0))" in text


def test_horn_export_rejects_boolean_start():
    g = gr.Rtg((("B", gr.BOOL),), "B",
               (gr.Production("B", LESSTHAN_SYM,
                              (gr.leaf(gr.num(0)), gr.leaf(gr.num(1)))),))
    e = gr.ExampleSet((), ((),))
    with pytest.raises(gr.GrammarError):
        horn_export(g, e, specialize(lg.TRUE, e))


def test_horn_clause_count_scales_with_conditionals():
    # one clause per production after plus-form, plus header/query/footer
    p = _problem("g2.sy")
    e = gr.ExampleSet(("x",), ((1,), (2,)))
    text = horn_export(p.grammar, e, specialize(p.spec, e)).decode()
    clauses = [ln for ln in text.splitlines() if ln.startswith("(assert")]
    from unrealizer.rewrite import to_plus_form
    want = len(to_plus_form(p.grammar).productions) + 1  # + query
    assert len(clauses) == want


@pytest.mark.parametrize("name, rows", [
    ("g1.sy", [(1,), (2,)]),
    ("g2.sy", [(1,), (-3,)]),
    ("max2.sy", [(1, 2), (3, 0)]),
])
def test_horn_export_derives_the_reachable_start_values(name, rows):
    # the clauses' ground facts after k bottom-up rounds are the output
    # vectors of the trees of height <= k, so the export says what the
    # grammar says without a Horn solver
    p = _problem(name)
    e = gr.ExampleSet(p.variables, tuple(rows))
    script = horn_export(p.grammar, e, specialize(p.spec, e))
    for k in range(1, 5):
        want = set(reachable_values(p.grammar, p.grammar.start, k, e))
        assert horn_facts(script, k).get(p.grammar.start, set()) == want, k


HORN_SOLVER = shutil.which("z3")


@pytest.mark.skipif(HORN_SOLVER is None, reason="no Horn solver installed")
def test_horn_solver_confirms_unrealizability(tmp_path):
    script = tmp_path / "g1.smt2"
    script.write_bytes(_horn("g1.sy", [(1,)]))
    out = subprocess.run([HORN_SOLVER, str(script)], capture_output=True,
                         text=True, timeout=60)
    # sat: the predicates admit a model, so the query's premise is
    # impossible and the example-restricted problem is unrealizable
    assert out.stdout.strip() == "sat"
