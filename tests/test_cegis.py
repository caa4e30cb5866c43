import json
import re
from pathlib import Path

import pytest

from unrealizer import cegis, clia, frontend, synth
from unrealizer import grammar as gr
from unrealizer.cegis import Budgets, Verdict, check_unrealizable, run_cegis
from unrealizer.frontend import parse_problem, specialize

PROBLEMS = Path(__file__).parent / "problems"


def _problem(name):
    return parse_problem((PROBLEMS / name).read_text())


def _examples(p, rows):
    return gr.ExampleSet(p.variables, tuple(tuple(r) for r in rows))


def test_check_refutes_triple_sums_on_one_example():
    p = _problem("g1.sy")
    res = check_unrealizable(p.grammar, p.spec, _examples(p, [(1,)]))
    # multiples of 3 never hit 2*1+2 = 4
    assert res.verdict == "Unrealizable"
    assert res.query == "unsat"
    assert str(res.values["Start"]) == "{<(0),{(3)}>}"
    assert res.stats["strata"] >= 1


def test_check_sat_reports_witness():
    p = _problem("g1.sy")
    res = check_unrealizable(p.grammar, p.spec, _examples(p, [(-1,)]))
    # 2*(-1)+2 = 0 is the empty sum: consistent, so no refutation here
    assert res.verdict == "Realizable"
    assert res.query == "sat"
    assert res.witness is not None


def test_check_two_examples_conditional_grammar():
    p = _problem("g2.sy")
    res = check_unrealizable(p.grammar, p.spec, _examples(p, [(1,), (2,)]))
    # a consistent conditional term exists on x in {1,2}: sat, not refuted
    assert res.verdict == "Realizable"
    assert res.stats["mutual_iterations"] == {"BExp+Start": 2}
    res2 = check_unrealizable(p.grammar, p.spec, _examples(p, [(0,)]))
    # x=0 collapses every sum to 0 while the target is 2: refuted
    assert res2.verdict == "Unrealizable"


def test_check_predabs_mode():
    p = _problem("parity.sy")
    res = check_unrealizable(p.grammar, p.spec, _examples(p, [(3,)]),
                             mode="predabs")
    assert res.verdict == "Unrealizable"
    assert res.values[p.grammar.start] == frozenset({"even"})
    g1 = _problem("g1.sy")
    res2 = check_unrealizable(g1.grammar, g1.spec, _examples(g1, [(1,)]),
                              mode="predabs")
    # the target 2x+2 is even, so parity alone cannot refute
    assert res2.verdict == "Unknown"
    assert res2.reason == "abstraction-sat"


def test_cegis_triple_sum_seed0():
    v = run_cegis(_problem("g1.sy"), seed=0)
    assert v.verdict == "Unrealizable"
    assert v.examples == [(-1,), (0,)]
    assert v.iterations == 2
    r1, r2 = v.trace
    assert r1["check"] == "Realizable"
    assert r1["candidate"] == "0"
    assert r1["verify"] == "cex"
    assert r1["cex"] == [0]
    assert r2["check"] == "Unrealizable"
    assert r2["query"] == "unsat"
    assert r2["examples"] == [[-1], [0]]


def test_cegis_conditional_grammar_seed0():
    v = run_cegis(_problem("g2.sy"), seed=0)
    assert v.verdict == "Unrealizable"
    # same counterexample path: x=0 forces every term to 0, target is 2
    assert v.examples == [(-1,), (0,)]
    assert v.iterations == 2


def test_cegis_constant_grammar_hits_round_limit():
    v = run_cegis(_problem("gconst.sy"), seed=0,
                  budgets=Budgets(max_rounds=5))
    assert v.verdict == "Unknown"
    assert v.reason == "max-rounds"
    assert v.iterations == 5
    # every round: sat check, constant candidate, counterexample at the
    # candidate's value (f(x) > x fails first at x = value)
    for rec in v.trace:
        assert rec["check"] == "Realizable"
        assert rec["verify"] == "cex"
    assert v.trace[0]["candidate"] == "1"
    assert v.trace[0]["cex"] == [1]


def test_cegis_realizable_candidate():
    text = """
(set-logic LIA)
(synth-fun f ((x Int)) Int
  ((Start Int (x 0 (+ Start Start)))))
(constraint (= (f x) (+ x x)))
(check-synth)
"""
    v = run_cegis(parse_problem(text), seed=0)
    assert v.verdict == "Realizable"
    assert v.witness is not None
    assert v.witness.to_sexpr() in ("(+ x x)",)
    assert v.reason is None


def test_cegis_rejects_a_counterexample_it_already_has(monkeypatch):
    # the candidate fits every persistent example by construction, so a
    # verifier that answers with one of them is broken; this holds under -O
    text = """
(set-logic LIA)
(synth-fun f ((x Int)) Int
  ((Start Int (x 0 (+ Start Start)))))
(constraint (= (f x) (+ x x)))
(check-synth)
"""
    seen = []
    enumerate_solve = cegis.synth.enumerate_solve

    def spy(g, ps, e, **kw):
        seen.append(e.rows)
        return enumerate_solve(g, ps, e, **kw)

    monkeypatch.setattr(cegis.synth, "enumerate_solve", spy)
    monkeypatch.setattr(cegis.synth, "verify",
                        lambda *a, **kw: ("cex", seen[-1][0]))
    with pytest.raises(AssertionError, match="already a persistent example"):
        run_cegis(parse_problem(text), seed=0)


def test_cegis_zero_budget_is_unknown():
    v = run_cegis(_problem("g1.sy"), seed=0,
                  budgets=Budgets(seconds=0.0))
    assert v.verdict == "Unknown"
    assert v.reason == "budget"
    assert v.iterations == 0


def test_cegis_zero_arity_exhausts_inputs():
    text = """
(set-logic LIA)
(synth-fun f () Int ((Start Int ((+ Start Start) 1))))
(constraint (= (f) 4))
(check-synth)
"""
    v = run_cegis(parse_problem(text), seed=0,
                  budgets=Budgets(max_size=3))
    assert v.verdict == "Unknown"
    assert v.reason == "inputs-exhausted"


def test_cegis_predabs_mode_end_to_end():
    v = run_cegis(_problem("parity.sy"), seed=0,
                  mode="predabs")
    assert v.verdict == "Unrealizable"
    assert v.iterations == 1
    assert v.trace[0]["start_value"] == "{even}"


def test_trace_records_start_values():
    v = run_cegis(_problem("g1.sy"), seed=0)
    assert v.trace[0]["start_value"] == "{<(0),{(-3)}>}"
    assert v.trace[1]["start_value"] == "{<(0,0),{(-3,0)}>}"


def test_verdict_json_shape_and_determinism():
    p = _problem("g1.sy")
    a = run_cegis(p, seed=0).to_json()
    b = run_cegis(p, seed=0).to_json()
    assert a == b
    payload = json.loads(a)
    assert sorted(payload) == ["examples", "iterations", "reason",
                               "trace", "verdict", "witness"]
    assert payload["verdict"] == "Unrealizable"
    assert payload["witness"] is None
    assert payload["examples"] == [[-1], [0]]
    # compact separators: no spaces after commas or colons
    assert ", " not in a and ": " not in a


def test_verdict_payload_with_witness():
    t = gr.Term(gr.plus(2), (gr.leaf(gr.var("x")), gr.leaf(gr.var("x"))))
    v = Verdict("Realizable", witness=t, examples=[(1,)], iterations=1)
    assert v.payload()["witness"] == "(+ x x)"


def test_different_seeds_can_pick_different_examples():
    p = _problem("g1.sy")
    rows = {tuple(run_cegis(p, seed=s).examples[0])
            for s in range(4)}
    assert len(rows) > 1


def test_cegis_enumerates_once_per_persistent_example_list(monkeypatch):
    # gconst at seed 0: ten rounds find a candidate and grow the
    # persistent examples, then six end in "budget" on the same list and
    # differ only in their random examples
    p = _problem("gconst.sy")
    budgets = Budgets(max_rounds=16)
    calls = []
    enumerate_solve = synth.enumerate_solve

    def recording(g, ps, e, **kw):
        calls.append(e.rows)
        return enumerate_solve(g, ps, e, **kw)

    monkeypatch.setattr(synth, "enumerate_solve", recording)
    v = run_cegis(p, seed=0, budgets=budgets)
    monkeypatch.undo()
    lists = [tuple(tuple(r) for r in rec["examples"]) for rec in v.trace]
    assert calls == list(dict.fromkeys(lists))
    assert len(calls) < len(v.trace) == 16
    for rec, rows in zip(v.trace, lists):
        e = gr.ExampleSet(p.variables, rows)
        fresh = enumerate_solve(p.grammar, specialize(p.spec, e), e,
                                max_size=budgets.max_size)
        assert rec["synth"] == fresh.status


# rounds past which a problem's semi-linear solve takes seconds per
# round: max3's `ite` chain past 5 examples and sub's subtraction past 2
# (ROADMAP items 2 and 3); every other problem runs the full 8
ROUND_CAP = {"max3.sy": 5, "sub.sy": 2}


@pytest.mark.parametrize("name", sorted(p.name for p in
                                        PROBLEMS.glob("*.sy")))
def test_each_round_equals_a_fresh_check_on_its_examples(name):
    # a run compiles the grammar and specializes each example once, and
    # shares one atom-row memo across its rounds; every round must still
    # read what a fresh check on that round's examples reads
    p = _problem(name)
    budgets = Budgets(max_rounds=ROUND_CAP.get(name, 8))
    for seed in range(4):
        try:
            v = run_cegis(p, seed=seed, budgets=budgets)
        except gr.GrammarError as err:  # no exact abstraction in sl
            with pytest.raises(gr.GrammarError, match=re.escape(str(err))):
                check_unrealizable(p.grammar, p.spec,
                                   _examples(p, [(0,) * len(p.variables)]))
            continue
        last = ()
        for rec in v.trace:
            rows = tuple(tuple(r) for r in rec["examples"] + rec["random"])
            assert rows[:-1] == last, (seed, rec["round"])
            last = rows
            fresh = check_unrealizable(p.grammar, p.spec, _examples(p, rows))
            start = None if fresh.values is None else \
                cegis._value_str(fresh.values[p.grammar.start])
            assert (rec["check"], rec["query"], rec["start_value"]) == \
                (fresh.verdict, fresh.query, start), (seed, rec["round"])


def test_a_run_normalizes_stratifies_and_specializes_once(monkeypatch):
    # sixteen rounds of gconst: one normalization and one stratification
    # for the run, and each example specialized in the round it appears
    calls = {"normalize": 0, "stratify": 0}
    specialized = []

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        monkeypatch.setattr(module, name, wrapper)

    counting(clia, "normalize")
    counting(clia, "stratify")
    specialize = frontend.specialize

    def recording(spec, e, first=0):
        specialized.extend(e.rows[first:])
        return specialize(spec, e, first)

    monkeypatch.setattr(cegis, "specialize", recording)
    v = run_cegis(_problem("gconst.sy"), seed=0,
                  budgets=Budgets(max_rounds=16))
    assert v.iterations == 16
    assert calls == {"normalize": 1, "stratify": 1}
    last = v.trace[-1]
    rows = [tuple(r) for r in last["examples"] + last["random"]]
    assert specialized == rows and len(rows) == 16


def test_round_examples_that_do_not_extend_the_last_are_refused():
    p = _problem("gconst.sy")
    state = cegis._RunState()
    check_unrealizable(p.grammar, p.spec, _examples(p, [(1,), (2,)]),
                       state=state)
    with pytest.raises(AssertionError):
        check_unrealizable(p.grammar, p.spec, _examples(p, [(2,), (1,)]),
                           state=state)
