import json
import random
import re
import sys
from pathlib import Path

import pytest

from unrealizer import cegis, cli, clia, frontend, ilp, logic, synth
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


@pytest.mark.parametrize("mode,made", [("sl", 1), ("predabs", 0)])
def test_a_run_compiles_the_grammar_once_and_only_for_sl(monkeypatch,
                                                         mode, made):
    # predicate abstraction reads the grammar as it is, so a predabs run
    # never normalizes it
    compiled = []

    class Counting(clia.Compiled):
        def __init__(self, g):
            compiled.append(g)
            super().__init__(g)

    monkeypatch.setattr(clia, "Compiled", Counting)
    v = run_cegis(_problem("gconst.sy"), seed=0, mode=mode,
                  budgets=Budgets(max_rounds=3))
    assert v.iterations == 3
    assert len(compiled) == made


def test_a_round_pays_for_no_lp_vertex(monkeypatch):
    # a round reads only whether its check is sat, so branch and bound,
    # which computes a witness, runs only for `synth.verify`'s
    # counterexamples
    search = ilp._branch_and_bound
    callers = []

    def spy(closure, node_budget):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not synth.verify.__code__:
            frame = frame.f_back
        callers.append("verify" if frame is not None else "other")
        return search(closure, node_budget)

    monkeypatch.setattr(ilp, "_branch_and_bound", spy)
    v = run_cegis(_problem("gconst.sy"), seed=0,
                  budgets=Budgets(max_rounds=16))
    assert v.iterations == 16
    assert all(rec["check"] == "Realizable" for rec in v.trace)
    assert callers and set(callers) == {"verify"}


def test_round_examples_that_do_not_extend_the_last_are_refused():
    p = _problem("gconst.sy")
    state = cegis._RunState()
    check_unrealizable(p.grammar, p.spec, _examples(p, [(1,), (2,)]),
                       state=state)
    with pytest.raises(AssertionError):
        check_unrealizable(p.grammar, p.spec, _examples(p, [(2,), (1,)]),
                           state=state)


def _with_spec(name, constraint):
    """The bundled problem `name` with its constraints replaced by one."""
    text = (PROBLEMS / name).read_text()
    kept = [ln for ln in text.splitlines()
            if not ln.startswith("(constraint") and ln != "(check-synth)"]
    return parse_problem("\n".join(kept) + f"\n(constraint {constraint})\n"
                         "(check-synth)\n")


# problems whose start values have no generator, each with the example
# counts to draw: several points often meet `max2_ge` and `bool_or`, and
# none `max2_or_unsat` and `bool_sum` (no comparison of x, y and 0 is
# x + y < 0 on every row)
FINITE = {
    "max2": (_problem("max2.sy"), range(1, 6)),
    "max3": (_problem("max3.sy"), range(1, 4)),
    "lt_bool": (_problem("lt_bool.sy"), range(1, 6)),
    "max2_ge": (_with_spec("max2.sy", "(>= (f x y) x)"), range(1, 6)),
    "max2_or_unsat": (_with_spec(
        "max2.sy", "(or (= (f x y) (+ x 1)) (= (f x y) y))"), range(1, 6)),
    "bool_or": (_with_spec("lt_bool.sy", "(or (= (f x y) 0) (< x y))"),
                range(1, 6)),
    "bool_sum": (_with_spec(
        "lt_bool.sy", "(or (and (= (f x y) 1) (< (+ x y) 0))"
                      " (and (= (f x y) 0) (>= (+ x y) 0)))"), range(3, 7)),
}


@pytest.mark.parametrize("name", sorted(FINITE))
def test_points_are_decided_as_the_query_would_be(name):
    # a start value with no generator is decided by evaluating the spec
    # at its points; status and witness must be `logic.decide`'s on the
    # query, whose first sat DNF branch is the first satisfying point
    p, counts = FINITE[name]
    rng = random.Random(name)
    seen = {"sat": 0, "unsat": 0, "several": 0}
    for _ in range(30):
        d = rng.choice(counts)
        rows = [tuple([rng.randint(-3, 3) for _ in p.variables])
                for _ in range(d)]
        e = _examples(p, rows)
        for witness in (True, False):
            res = check_unrealizable(p.grammar, p.spec, e, witness=witness)
            value = res.values[p.grammar.start]
            points = logic.points(value)
            assert points is not None
            query = logic.build_query(value, specialize(p.spec, e))
            want = logic.decide(query, ilp.Solver(), witness=witness)
            assert (res.query, res.witness) == want, (rows, witness)
        seen[res.query] += 1
        met = [pt for pt in points
               if all(frontend.holds(p.spec, p.variables, r, o)
                      for r, o in zip(rows, pt))]
        seen["several"] += len(met) > 1
    assert seen["sat"] > 0, seen
    if name in ("max2_ge", "bool_or"):
        assert seen["several"] > 0, seen
    if name in ("max2_or_unsat", "bool_sum"):
        assert seen["unsat"] > 0, seen


def test_a_finite_start_value_builds_no_query(monkeypatch, capsys):
    # max2's start value is two points, so check-examples evaluates the
    # spec there: no formula is specialized, built or decided; g2's start
    # value has generators and still goes through `logic.decide`
    calls = []

    def spying(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kw):
            calls.append(name)
            return fn(*args, **kw)
        monkeypatch.setattr(owner, name, wrapper)

    spying(ilp.Solver, "feasible")
    spying(logic, "decide")
    spying(logic, "build_query")
    spying(frontend, "specialize")
    spying(cegis, "specialize")
    code = cli.main(["check-examples", str(PROBLEMS / "max2.sy"),
                     "--examples", "x=1,y=2;x=2,y=1;x=0,y=0"])
    assert (code, calls) == (10, [])
    code = cli.main(["check-examples", str(PROBLEMS / "g2.sy"),
                     "--examples", "x=1;x=2"])
    assert code == 10 and "decide" in calls
    capsys.readouterr()


@pytest.mark.parametrize("name, rounds", [("max2.sy", 1), ("lt_bool.sy", 2)])
def test_a_run_specializes_each_persistent_example_once(monkeypatch, name,
                                                        rounds):
    # the checks of max2 and lt_bool evaluate the spec at points, so only
    # the synthesizer reads the specialized spec: each persistent example
    # once, in the round that adds it
    specialized = []

    def recording(spec, e, first=0):
        specialized.extend(e.rows[first:])
        return specialize(spec, e, first)

    monkeypatch.setattr(cegis, "specialize", recording)
    v = run_cegis(_problem(name), seed=0)
    assert (v.verdict, v.iterations) == ("Realizable", rounds)
    assert specialized == [tuple(r) for r in v.examples]
