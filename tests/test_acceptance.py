"""Acceptance gate: one numbered test per shipped guarantee.

Run with -v to get one pass/fail line per guarantee.  Each test is
self-contained and uses only the public API, so a failure here points
at a broken promise rather than a broken helper.
"""

import itertools
import json
import random
import shutil
import subprocess
import time
from pathlib import Path

import numpy as np

from oracles import (
    abs_less_than, gamma_bounded, ite_abstract, reachable_values, sls_size,
)
from test_booldom import reference_patterns
from unrealizer import booldom, cli, clia, ilp, synth
from unrealizer import grammar as gr
from unrealizer import semilinear as sl
from unrealizer.cegis import Budgets, check_unrealizable, run_cegis
from unrealizer.frontend import parse_problem, specialize
from unrealizer.gfa import (
    BoolMonomial, Factor, IntMonomial, IteMonomial, PolynomialSystem,
)
from unrealizer.ilp import Solver
from unrealizer.newton import (
    derivative, monomial_value, npa_solve, solve_linear,
)
from unrealizer.approx import horn_export
from unrealizer.rewrite import rem_if

PROBLEMS = Path(__file__).parent / "problems"

T, F = True, False


def _problem(name):
    return parse_problem((PROBLEMS / name).read_text())


def _examples(p, rows):
    return gr.ExampleSet(p.variables, tuple(tuple(r) for r in rows))


def _sls(*comps):
    return sl.sls([sl.linset(b, g) for b, g in comps])


def _member(solver, value, point):
    return any(solver.member(point, c) for c in value.components)


def test_01_triple_sum_two_example_valuation_golden():
    p = _problem("g1.sy")
    started = time.perf_counter()
    res = clia.solve(p.grammar, _examples(p, [(1,), (2,)]))
    elapsed = time.perf_counter() - started
    assert str(res.value("Start")) == "{<(0,0),{(3,6)}>}"
    assert str(res.value("S1")) == "{<(3,6),{}>}"
    assert str(res.value("S2")) == "{<(2,4),{}>}"
    assert str(res.value("S3")) == "{<(1,2),{}>}"
    assert elapsed < 1.0


def test_02_triple_sum_end_to_end_unrealizable():
    p = _problem("g1.sy")
    started = time.perf_counter()
    v = run_cegis(p, seed=0)
    assert v.verdict == "Unrealizable"
    # the one-example refutation: multiples of 3 never reach 2*1+2
    res = check_unrealizable(p.grammar, p.spec, _examples(p, [(1,)]))
    assert res.verdict == "Unrealizable"
    assert res.query == "unsat"
    assert str(res.values["Start"]) == "{<(0),{(3)}>}"
    assert time.perf_counter() - started < 5.0


def test_03_conditional_end_to_end_unrealizable():
    p = _problem("g2.sy")
    started = time.perf_counter()
    v = run_cegis(p, seed=0)
    assert v.verdict == "Unrealizable"
    res = check_unrealizable(p.grammar, p.spec, _examples(p, [(1,), (2,)]))
    assert str(res.values["Exp2"]) == "{<(0,0),{(2,4)}>}"
    assert str(res.values["Exp3"]) == "{<(0,0),{(3,6)}>}"
    # guard/term alternation settles on its second pass
    assert res.stats["mutual_iterations"] == {"BExp+Start": 2}
    assert time.perf_counter() - started < 30.0


def test_03_conditional_guard_fixpoint_has_all_four_patterns():
    # conditional sums let 0 < Start hold on x=2 while x < 2 fails there,
    # so (f,t) joins (t,f), (t,t) and (f,f): the least fixpoint has all
    # four patterns, and bounded enumeration derives each of them
    p = _problem("g2.sy")
    e = _examples(p, [(1,), (2,)])
    res = clia.solve(p.grammar, e)
    patterns = frozenset(itertools.product((T, F), repeat=2))
    assert res.value("BExp") == patterns
    assert set(reachable_values(p.grammar, "BExp", 5, e)) == patterns


def _random_linear_grammar(rng):
    """Sum-chain grammar: every nonterminal derives atoms and optionally
    extends a chain, recursion only through self-loops or later names so
    bounded-multiplier points stay within small tree depths."""
    names = ["S", "T", "U"][: rng.randint(1, 3)]

    def atom():
        kind = rng.randrange(3)
        if kind == 0:
            return gr.num(rng.randint(-3, 3))
        return gr.var("x") if kind == 1 else gr.negvar("x")

    prods = [gr.Production(x, atom(), ()) for x in names]
    budget = 6 - len(prods)
    for i, x in enumerate(names):
        chains = rng.randint(0, 2 if len(names) < 3 else 1)
        for _ in range(min(chains, budget)):
            target = rng.choice([x] + names[i + 1:])
            prods.append(gr.Production(x, gr.plus(2),
                                       (gr.leaf(atom()), target)))
            budget -= 1
    nts = tuple((x, gr.INT) for x in names)
    return gr.Rtg(nts, names[0], tuple(prods))


def test_04_exact_valuations_on_random_linear_grammars():
    rng = random.Random(13)
    solver = Solver()
    for _ in range(200):
        g = _random_linear_grammar(rng)
        rows = tuple((rng.randint(-3, 3),)
                     for _ in range(rng.randint(1, 2)))
        e = gr.ExampleSet(("x",), rows)
        value = clia.solve(g, e, solver=solver).value(g.start)
        # soundness: every enumerated output lies inside the solved set
        for point in reachable_values(g, g.start, 6, e):
            assert _member(solver, value, point), (g, rows, point)
        # completeness: small-multiplier points have derivations
        points = sorted(gamma_bounded(value, 2))
        if len(points) > 20:
            points = rng.sample(points, 20)
        derivable = set(reachable_values(g, g.start, 8, e))
        for point in points:
            assert point in derivable, (g, rows, point)


def _random_operand(rng, dim):
    comps = []
    for _ in range(rng.randint(1, 2)):
        base = tuple(rng.randint(-2, 2) for _ in range(dim))
        gens = [tuple(rng.randint(-2, 2) for _ in range(dim))
                for _ in range(rng.randint(0, 1))]
        comps.append(sl.linset(base, gens))
    return sl.sls(comps)


def test_05_semiring_laws_on_random_operands():
    rng = random.Random(17)
    for _ in range(500):
        dim = rng.randint(1, 3)
        a, b, c = (_random_operand(rng, dim) for _ in range(3))
        # join laws hold on the nose after canonicalization
        assert a.combine(b) == b.combine(a)
        assert a.combine(b).combine(c) == a.combine(b.combine(c))
        assert a.combine(a) == a
        assert a.combine(sl.ZERO) == a
        # product laws hold up to concretization
        gb = lambda v: gamma_bounded(v, 3)
        assert gb(a.extend(b)) == gb(b.extend(a))
        assert gb(a.extend(b).extend(c)) == gb(a.extend(b.extend(c)))
        assert gb(a.extend(sl.one(dim))) == gb(a)
        assert a.extend(sl.ZERO).is_zero
        assert gb(a.extend(b.combine(c))) == \
            gb(a.extend(b).combine(a.extend(c)))


def test_06_abstract_conditional_operator_goldens():
    assert booldom.abs_not(frozenset({(T, F), (T, T)})) == \
        frozenset({(F, T), (F, F)})
    sl1 = _sls(((1, 2), [(3, 4)]))
    sl2 = _sls(((5, 6), [(7, 8)]))
    assert abs_less_than(sl1, sl2, Solver()) == \
        frozenset({(T, T), (T, F), (F, F)})
    got = ite_abstract(frozenset({(T, F), (T, T)}), sl1, sl2)
    assert str(got) == "{<(1,2),{(3,4)}>,<(1,6),{(0,8),(3,0)}>}"


def test_07_conditional_split_rewrite_golden():
    exp3 = _sls(((0, 0), [(3, 6)]))
    exp2 = _sls(((0, 0), [(2, 4)]))
    sys = PolynomialSystem(
        {"Start": (IteMonomial("BExp", exp3, "Start"),
                   IntMonomial(exp2),
                   IntMonomial(exp3))},
        2, {"Start": gr.INT})
    expanded = clia.expand_ite(sys, {"BExp": frozenset({(T, F)})})
    assert expanded.dump() == (
        "n(Start) = {<(0,0),{(3,0)}>} (x) proj(n(Start), ft)"
        " (+) {<(0,0),{(2,4)}>} (+) {<(0,0),{(3,6)}>}\n")
    assert rem_if(expanded, ["Start"]).dump() == (
        "n(Start^tt) = {<(0,0),{(3,0)}>} (x) n(Start^ft)"
        " (+) {<(0,0),{(2,4)}>} (+) {<(0,0),{(3,6)}>}\n"
        "n(Start^ft) = n(Start^ft)"
        " (+) {<(0,0),{(0,4)}>} (+) {<(0,0),{(0,6)}>}\n")


def _random_bool_system(rng, names, dim):
    def bset():
        patterns = list(itertools.product((T, F), repeat=dim))
        return frozenset(rng.sample(patterns, rng.randint(0, len(patterns))))

    equations = {}
    for x in names:
        monos = [BoolMonomial("copy", (bset(),))]
        for _ in range(rng.randint(0, 2)):
            op = rng.choice(("copy", "not", "and"))
            if op == "and":
                monos.append(BoolMonomial(
                    "and", (rng.choice(names), rng.choice(names))))
            else:
                monos.append(BoolMonomial(op, (rng.choice(names),)))
        equations[x] = tuple(monos)
    return equations


def _random_mixed_system(rng, dim):
    def const():
        return sl.singleton(tuple(rng.randint(-2, 2) for _ in range(dim)))

    def ref():
        return "S" if rng.random() < 0.5 else const()

    s_monos = (IteMonomial("B", ref(), ref()), IntMonomial(const()))
    b_monos = [BoolMonomial("lessthan", (ref(), ref()))]
    if rng.random() < 0.5:
        b_monos.append(BoolMonomial("not", ("B",)))
    return PolynomialSystem({"S": s_monos, "B": tuple(b_monos)},
                            dim, {"S": gr.INT, "B": gr.BOOL})


def _newton_delta(sys, nu):
    variables = tuple(sys.equations)
    coeffs, consts = {}, {}
    for x, monos in sys.equations.items():
        total = sl.ZERO
        for m in monos:
            total = total.combine(monomial_value(m, nu))
            for y in {f.var for f in m.factors}:
                d = derivative(m, y, nu)
                if not d.is_zero:
                    coeffs[(x, y)] = coeffs.get((x, y), sl.ZERO).combine(d)
        consts[x] = total
    return solve_linear(variables, coeffs, consts, sys.dimension)


def test_08_iteration_bounds_and_fixpoint_stability():
    rng = random.Random(23)
    solver = Solver()
    lt = booldom.LessThanCache(solver)
    # Boolean-only iteration stays within 2^d passes per nonterminal
    for _ in range(100):
        dim = rng.randint(1, 2)
        names = ["A", "B", "C"][: rng.randint(1, 3)]
        equations = _random_bool_system(rng, names, dim)
        nu, iterations = clia.solve_bool(equations, {}, lt, dim)
        assert iterations - 1 <= (2 ** dim) * len(names)
        again, _ = clia.solve_bool(equations, {}, lt, dim)
        assert again == nu
    # mixed alternation stays within |N| * 2^d outer rounds
    for _ in range(40):
        dim = rng.randint(1, 2)
        sys = _random_mixed_system(rng, dim)
        res = clia.solve_mutual(sys, solver)
        assert res.outer_iterations <= len(sys.equations) * (2 ** dim)
    # one extra Newton round adds nothing to a solved system
    checked = 0
    while checked < 100:
        dim = rng.randint(1, 2)
        names = ["X", "Y", "Z"][: rng.randint(1, 3)]
        equations = {}
        for x in names:
            monos = [IntMonomial(sl.singleton(
                tuple(rng.randint(-2, 2) for _ in range(dim))))]
            for _ in range(rng.randint(0, 2)):
                monos.append(IntMonomial(sl.singleton(
                    tuple(rng.randint(-1, 1) for _ in range(dim))),
                    (Factor(rng.choice(names)),)))
            equations[x] = tuple(monos)
        sys = PolynomialSystem(equations, dim,
                               {x: gr.INT for x in names})
        nu = npa_solve(sys)
        if any(sls_size(v) > 25 for v in nu.values()):
            continue  # membership on huge raw products is out of scope here
        checked += 1
        delta = _newton_delta(sys, nu)
        for x in names:
            for point in sorted(gamma_bounded(delta[x], 1))[:8]:
                assert _member(solver, nu[x], point), (sys, x, point)


def test_09_constant_grammar_stays_unknown_across_seeds():
    p = _problem("gconst.sy")
    budgets = Budgets(seconds=30.0, max_size=20, max_rounds=5)
    for seed in range(10):
        v = run_cegis(p, seed=seed, budgets=budgets)
        assert v.verdict == "Unknown", seed
        assert v.verdict != "Unrealizable"


def test_10_parity_abstraction_refutes_odd_target():
    p = _problem("parity.sy")
    res = check_unrealizable(p.grammar, p.spec, _examples(p, [(3,)]),
                             mode="predabs")
    assert res.verdict == "Unrealizable"
    assert res.values["Start"] == frozenset({"even"})
    assert res.values["S1"] == frozenset({"even", "odd"})


def test_11_horn_export_snapshot(tmp_path):
    p = _problem("g1.sy")
    e = _examples(p, [(1,)])
    script = horn_export(p.grammar, e, specialize(p.spec, e))
    assert script == (
        b"(set-logic HORN)\n"
        b"(declare-fun Start (Int) Bool)\n"
        b"(assert (forall ((v3_1 Int)) "
        b"(=> (Start v3_1) (Start (+ 1 1 1 v3_1)))))\n"
        b"(assert (Start 0))\n"
        b"(assert (forall ((o1 Int)) (=> (and (Start o1) (= o1 4)) false)))\n"
        b"(check-sat)\n")
    assert horn_export(p.grammar, e, specialize(p.spec, e)) == script
    z3 = shutil.which("z3")
    if z3:  # a solver proving the query marks the problem unrealizable
        target = tmp_path / "g1.smt2"
        target.write_bytes(script)
        out = subprocess.run([z3, str(target)], capture_output=True,
                             text=True, timeout=60)
        assert out.stdout.strip() == "sat"


def test_12_integer_feasibility_matches_enumeration():
    rng = random.Random(29)
    grids = {k: np.array(list(itertools.product(range(-8, 9), repeat=k)))
             for k in (1, 2, 3, 4)}
    for _ in range(1000):
        k = rng.choice((1, 2, 2, 3, 3, 4))
        names = [f"x{i}" for i in range(k)]
        constraints = []
        for _ in range(rng.randint(1, 6)):
            coeffs = {v: rng.randint(-3, 3) for v in names}
            rel = rng.choice((ilp.EQ, ilp.LE, ilp.LT))
            constraints.append(ilp.constraint(coeffs, rel, rng.randint(-10, 10)))
        box = [c for v in names
               for c in (ilp.constraint({v: 1}, ilp.LE, 8),
                         ilp.constraint({v: -1}, ilp.LE, 8))]
        sys = ilp.system({v: False for v in names}, constraints + box)
        result = Solver().feasible(sys)
        assert result.status in ("sat", "unsat")

        grid = grids[k]
        ok = np.ones(len(grid), dtype=bool)
        for c in constraints:
            vec = np.zeros(k, dtype=np.int64)
            for v, coeff in c.coeffs:
                vec[names.index(v)] = coeff
            lhs = grid @ vec
            ok &= (lhs == c.rhs) if c.rel == ilp.EQ else \
                  (lhs <= c.rhs) if c.rel == ilp.LE else (lhs < c.rhs)
        assert result.status == ("sat" if bool(ok.any()) else "unsat"), \
            (constraints, result)
        if result.status == "sat":
            w = result.witness
            assert all(-8 <= w[v] <= 8 for v in names)
            for c in constraints:
                lhs = sum(coeff * w[v] for v, coeff in c.coeffs)
                holds = lhs == c.rhs if c.rel == ilp.EQ else \
                    lhs <= c.rhs if c.rel == ilp.LE else lhs < c.rhs
                assert holds, (c, w)


def test_13_verdict_json_is_deterministic(capsys):
    runs = (
        ["check", str(PROBLEMS / "g1.sy"), "--seed", "0", "--json"],
        ["check", str(PROBLEMS / "g2.sy"), "--seed", "0", "--json"],
        ["check", str(PROBLEMS / "gconst.sy"), "--seed", "0",
         "--max-rounds", "5", "--json"],
        ["check", str(PROBLEMS / "parity.sy"), "--seed", "0",
         "--mode", "predabs", "--json"],
    )
    for argv in runs:
        outputs = set()
        for _ in range(3):
            cli.main(list(argv))
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1, argv
        payload = json.loads(outputs.pop())
        assert payload["verdict"] in ("Unrealizable", "Realizable", "Unknown")


def test_14_disjunctive_max_realizable_and_checks_scale_linearly():
    p = _problem("max2.sy")
    v = run_cegis(p, seed=0)
    assert v.verdict == "Realizable"
    assert synth.verify(v.witness, p.spec, p.variables) == ("valid", None)
    grid = _examples(p, list(itertools.product(range(-6, 7), repeat=2)))
    assert specialize(p.spec, grid).evaluate(gr.eval_term(v.witness, grid))

    # exact checks at d = 10 split their 2^10 guard patterns and DNF
    # branches lazily, so the ILP query count stays near linear in d
    rng = random.Random(10)
    cases = (
        ("g2.sy", [(x,) for x in rng.sample(range(-20, 21), 10)],
         "Unrealizable", 400),
        ("max2.sy", [(rng.randint(-20, 20), rng.randint(-20, 20))
                     for _ in range(10)], "Realizable", 80),
    )
    for name, rows, verdict, bound in cases:
        p = _problem(name)
        solver = Solver()
        res = check_unrealizable(p.grammar, p.spec, _examples(p, rows), solver)
        assert res.verdict == verdict, name
        assert solver.queries <= bound, (name, solver.queries)


def test_15_subtraction_guard_matches_the_per_pattern_reference():
    # S's one component has generators that overlap on both coordinates,
    # so B's comparison (< S x) takes the prefix search end to end.  S
    # holds the value of every tree of height <= 8, and B is the union of
    # the per-pattern references of its two comparisons
    p = _problem("sub.sy")
    e = _examples(p, [(1,), (-3,)])
    res = clia.solve(p.grammar, e)
    value = res.value("S")
    assert len(value.components) == 1
    solver = Solver()
    assert all(_member(solver, value, v)
               for v in reachable_values(p.grammar, "S", 8, e))
    x, zero = sl.singleton((1, -3)), sl.singleton((0, 0))
    ref = reference_patterns(value, x, solver)
    ref.update({b: True for b, r in reference_patterns(x, zero, solver).items()
                if r})
    assert None not in ref.values()
    assert res.value("B") == frozenset(b for b, r in ref.items() if r)


def test_closures_keep_prefix_checks_out_of_branch_and_bound_at_ten_examples():
    # test_14's checks at d = 10: the solver answers the LessThan prefixes
    # and DNF partial conjunctions that bound propagation decides from
    # their closures, and Solver.queries counts only the systems left open
    rng = random.Random(10)
    cases = (
        ("g2.sy", [(x,) for x in rng.sample(range(-20, 21), 10)], 20),
        ("max2.sy", [(rng.randint(-20, 20), rng.randint(-20, 20))
                     for _ in range(10)], 5),
    )
    for name, rows, bound in cases:
        p = _problem(name)
        solver = Solver()
        check_unrealizable(p.grammar, p.spec, _examples(p, rows), solver)
        assert solver.queries <= bound, (name, solver.queries)
