import random

import pytest

from oracles import (
    ITE_SYM, LESSTHAN_SYM, compositions, reachable_values, term_size,
)
from unrealizer import grammar as gr
from unrealizer import logic as lg
from unrealizer import synth
from unrealizer.frontend import parse_problem, specialize
from unrealizer.synth import enumerate_solve, verify

from pathlib import Path

PROBLEMS = Path(__file__).parent / "problems"


def _problem(name):
    return parse_problem((PROBLEMS / name).read_text())


def _pointspec(p, rows):
    e = gr.ExampleSet(p.variables, tuple(tuple(r) for r in rows))
    return specialize(p.spec, e), e


def test_finds_smallest_consistent_term():
    p = _problem("gconst.sy")
    ps, e = _pointspec(p, [(0,)])
    out = enumerate_solve(p.grammar, ps, e)
    assert out.status == "found"
    assert out.candidate.to_sexpr() == "1"


def test_respects_size_order():
    # target 4 = 1+1+1+1 needs three Plus nodes; smaller sums are visited
    # and rejected first
    p = _problem("gconst.sy")
    ps, e = _pointspec(p, [(3,)])
    out = enumerate_solve(p.grammar, ps, e)
    assert out.status == "found"
    t = out.candidate
    assert term_size(t) == 7
    env = gr.eval_term(t, e)
    assert env == (4,)


def test_observational_equivalence_prunes_banks():
    # x+x and 2-ary reassociations collapse to one representative per value
    p = _problem("g1.sy")
    ps, e = _pointspec(p, [(1,), (2,)])
    out = enumerate_solve(p.grammar, ps, e, max_size=9)
    # no term of the triple-sum grammar matches (4, 6)
    assert out.status in ("exhausted", "budget")
    assert out.candidate is None


def test_exhausts_finite_spaces():
    text = """
(set-logic LIA)
(synth-fun f ((x Int)) Int ((Start Int (x 0 1))))
(constraint (= (f x) 7))
(check-synth)
"""
    p = parse_problem(text)
    ps, e = _pointspec(p, [(2,)])
    out = enumerate_solve(p.grammar, ps, e, max_size=50)
    assert out.status == "exhausted"
    assert out.terms_built == 3


def test_term_budget_reports_budget():
    p = _problem("g1.sy")
    ps, e = _pointspec(p, [(1,), (2,)])
    out = enumerate_solve(p.grammar, ps, e, max_size=30, max_terms=10)
    assert out.status == "budget"


def test_enumerates_through_conditionals():
    p = _problem("g2.sy")
    # on x=1 alone the term 2x works: f(1)=2=2*1+2-2... target is 2x+2=4
    ps, e = _pointspec(p, [(1,)])
    out = enumerate_solve(p.grammar, ps, e)
    assert out.status == "found"
    assert ps.evaluate(gr.eval_term(out.candidate, e))


def test_conditional_witness_on_two_examples():
    # a conditional term consistent with both x=1 and x=2 exists: its
    # inner ite is 0 at x=1 and 4 at x=2, so the outer guard routes x=1
    # to the double-sum and x=2 to the triple-sum, giving 2x+2 on both
    p = _problem("g2.sy")
    ps, e = _pointspec(p, [(1,), (2,)])
    out = enumerate_solve(p.grammar, ps, e, max_size=26, max_terms=500_000)
    assert out.status == "found"
    assert out.candidate.to_sexpr() == \
        "(ite (< 0 (ite (< x 2) 0 (+ x x 0))) (+ x x x 0) (+ x x (+ x x 0)))"
    sig = gr.eval_term(out.candidate, e)
    assert sig == (4, 6)
    assert ps.evaluate(sig)


def test_signatures_match_reachable_values():
    # bank signatures per nonterminal are exactly the value vectors the
    # depth-bounded oracle reaches (sizes under the bank's own bound)
    p = _problem("g1.sy")
    ps, e = _pointspec(p, [(1,), (2,)])
    out = enumerate_solve(p.grammar, ps, e, max_size=13)
    values = set(reachable_values(p.grammar, "Start", 4, e))
    assert values <= {(3 * k, 6 * k) for k in range(5)}


def test_alias_productions_surface_sub_terms():
    text = """
(set-logic LIA)
(synth-fun f ((x Int)) Int
  ((Start Int (T)) (T Int (x (+ T T)))))
(constraint (= (f x) (* 4 x)))
(check-synth)
"""
    p = parse_problem(text)
    ps, e = _pointspec(p, [(1,), (3,)])
    out = enumerate_solve(p.grammar, ps, e)
    assert out.status == "found"
    assert gr.eval_term(out.candidate, e) == (4, 12)


def test_verify_accepts_valid_candidate():
    p = _problem("gconst.sy")  # spec: f(x) > x has no valid constant
    t = gr.Term(gr.plus(2), (gr.leaf(gr.num(1)), gr.leaf(gr.num(1))))
    status, row = verify(t, p.spec, p.variables)
    assert status == "cex"
    assert row == (2,)  # shrunk: smallest |x| with x >= 2


def test_verify_rechecks_decided_counterexample(monkeypatch):
    # a decided counterexample that does not falsify the candidate is an
    # internal fault, raised explicitly so that it survives -O
    p = _problem("gconst.sy")
    t = gr.Term(gr.plus(2), (gr.leaf(gr.num(1)), gr.leaf(gr.num(1))))
    monkeypatch.setattr(synth, "_falsifies", lambda *a: False)
    with pytest.raises(AssertionError, match="does not falsify"):
        verify(t, p.spec, p.variables)


def test_verify_valid_on_linear_match():
    text = """
(set-logic LIA)
(synth-fun f ((x Int)) Int ((Start Int ((+ x x)))))
(constraint (= (f x) (+ x x)))
(check-synth)
"""
    p = parse_problem(text)
    t = gr.Term(gr.plus(2), (gr.leaf(gr.var("x")), gr.leaf(gr.var("x"))))
    assert verify(t, p.spec, p.variables) == ("valid", None)


def test_verify_splits_conditional_paths():
    # candidate ite(x<0, 0-x, x) = |x| against spec f(x) = x: cex at x < 0
    t = gr.Term(ITE_SYM,
                (gr.Term(LESSTHAN_SYM,
                         (gr.leaf(gr.var("x")), gr.leaf(gr.num(0)))),
                 gr.leaf(gr.negvar("x")),
                 gr.leaf(gr.var("x"))))
    spec = lg.atom(lg.lin({"%out": 1}), "=", lg.lin({"x": 1}))
    status, row = verify(t, spec, ("x",))
    assert status == "cex"
    assert row == (-1,)
    spec_abs = lg.atom(lg.lin({"%out": 1}), ">=", 0)
    assert verify(t, spec_abs, ("x",)) == ("valid", None)


def test_verify_boolean_candidate():
    # Boolean terms verify against specs over a 0/1 output
    t = gr.Term(LESSTHAN_SYM, (gr.leaf(gr.var("x")), gr.leaf(gr.num(0))))
    spec = lg.atom(lg.lin({"%out": 1}), "=", 1)
    status, row = verify(t, spec, ("x",))
    assert status == "cex"
    assert row == (0,)


def test_verify_counterexamples_shrink_toward_zero():
    p = _problem("g1.sy")  # spec f(x) = 2x+2
    t = gr.leaf(gr.num(0))
    status, row = verify(t, p.spec, p.variables)
    assert status == "cex"
    # x = -1 satisfies 0 = 2x+2, so the smallest falsifier is 0
    assert row == (0,)


def test_verify_falls_back_to_sampling_on_path_blowup():
    # deep conditional nesting overflows the path cap; sampling still
    # finds the counterexample
    t = gr.leaf(gr.var("x"))
    for _ in range(13):
        guard = gr.Term(LESSTHAN_SYM, (t, gr.leaf(gr.num(1))))
        t = gr.Term(ITE_SYM, (guard, t, gr.leaf(gr.num(5))))
    spec = lg.atom(lg.lin({"%out": 1}), "=", lg.lin({"x": 1}))
    status, row = verify(t, spec, ("x",), path_cap=8,
                         rng=random.Random(1))
    assert status == "cex"
    assert not synth._falsifies(t, spec, ("x",), (0,)) or row is not None


def test_verify_sampling_cannot_prove_validity():
    t = gr.leaf(gr.var("x"))
    for _ in range(13):
        guard = gr.Term(LESSTHAN_SYM, (t, gr.leaf(gr.num(10 ** 9))))
        t = gr.Term(ITE_SYM, (guard, t, gr.leaf(gr.num(5))))
    # on sampled inputs the term behaves as identity: verdict stays honest
    spec = lg.atom(lg.lin({"%out": 1}), "=", lg.lin({"x": 1}))
    status, _ = verify(t, spec, ("x",), path_cap=8, samples=50,
                       rng=random.Random(2))
    assert status == "valid-unknown"


def test_split_walk_is_the_compositions_with_every_pool_non_empty():
    # the enumerator walks only the size splits whose pools all hold
    # terms, in the order it walked every composition before
    rng = random.Random(2719)
    yielded = 0
    for _ in range(400):
        k = rng.randint(0, 4)
        total = rng.randint(0, 14)
        sizes = [tuple(sorted(rng.sample(range(1, 15), rng.randint(0, 10))))
                 for _ in range(k)]
        want = [c for c in compositions(total, k)
                if all(s in pool for s, pool in zip(c, sizes))]
        assert list(synth._splits(total, sizes)) == want, (total, sizes)
        yielded += len(want)
    assert yielded > 300
