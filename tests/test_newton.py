import json
import random
from pathlib import Path

import pytest

from oracles import gamma_bounded, kleene_solve, reachable_values, sls_size
from unrealizer import cli, clia
from unrealizer import grammar as gr
from unrealizer import newton
from unrealizer import semilinear as sl
from unrealizer.gfa import Factor, IntMonomial, PolynomialSystem, build_equations
from unrealizer.ilp import Solver
from unrealizer.newton import (
    derivative, monomial_value, npa_solve, solve_linear,
)


def _sls(*pts):
    return sl.sls([sl.linset(p) for p in pts])


def _system(equations, dim):
    return PolynomialSystem(equations, dim,
                            {nt: gr.INT for nt in equations})


def _member(solver, value, point):
    return any(solver.member(point, c) for c in value.components)


def _same_points(solver, a, b, dim, bound=6):
    import itertools
    for p in itertools.product(range(-bound, bound + 1), repeat=dim):
        if _member(solver, a, p) != _member(solver, b, p):
            return False
    return True


def test_monomial_value_extends_factors():
    m = IntMonomial(_sls((1, 0)), (Factor("X"), Factor("Y")))
    nu = {"X": _sls((2, 2)), "Y": _sls((5, 5))}
    assert monomial_value(m, nu) == _sls((8, 7))
    assert monomial_value(IntMonomial(_sls((4, 4))), {}) == _sls((4, 4))
    # a zero factor annihilates the product
    assert monomial_value(m, {"X": sl.ZERO, "Y": _sls((5, 5))}).is_zero


def test_derivative_sums_over_occurrences():
    # d/dX (c . X . X) at nu joins both one-hole contexts
    m = IntMonomial(_sls((1,)), (Factor("X"), Factor("X")))
    nu = {"X": _sls((3,), (5,))}
    d = derivative(m, "X", nu)
    assert d == _sls((4,), (6,))
    assert derivative(m, "Y", nu).is_zero
    with pytest.raises(ValueError):
        derivative(IntMonomial(sl.one(1), (Factor("X", (True,)),)), "X", nu)


def test_solve_linear_star_elimination():
    # X = {(2,)} X + {(1,)}  has least solution 1 + 2k
    values = solve_linear(("X",), {("X", "X"): _sls((2,))},
                          {"X": _sls((1,))}, 1)
    assert str(values["X"]) == "{<(1),{(2)}>}"


def test_solve_linear_chains_back_substitution():
    # Y = {(3,)}; X = {(1,)} Y  =>  X = {(4,)}
    values = solve_linear(("X", "Y"), {("X", "Y"): _sls((1,))},
                          {"Y": _sls((3,))}, 1)
    assert values["Y"] == _sls((3,))
    assert values["X"] == _sls((4,))


def test_solve_linear_mutual_loop():
    # X = {(1,)} Y and Y = {(1,)} X + {(0,)} alternate: Y even, X odd
    values = solve_linear(("X", "Y"),
                          {("X", "Y"): _sls((1,)), ("Y", "X"): _sls((1,))},
                          {"Y": _sls((0,))}, 1)
    assert str(values["Y"]) == "{<(0),{(2)}>}"
    assert str(values["X"]) == "{<(1),{(2)}>}"


def test_npa_matches_direct_fixpoint():
    # Start = (3,6) Start + (0,0): mirror of a three-fold sum grammar
    sys = _system({"Start": (IntMonomial(_sls((3, 6)), (Factor("Start"),)),
                             IntMonomial(_sls((0, 0))))}, 2)
    solver = Solver()
    nu = npa_solve(sys, solver=solver)
    assert str(nu["Start"]) == "{<(0,0),{(3,6)}>}"
    # without pruning the answer keeps subsumed components but means the same
    raw = npa_solve(sys)["Start"]
    assert _same_points(solver, raw, nu["Start"], 2, bound=7)


def test_npa_runs_exactly_one_step_per_variable():
    sys = _system({"A": (IntMonomial(_sls((1,)), (Factor("A"),)),
                         IntMonomial(_sls((0,)))),
                   "B": (IntMonomial(sl.one(1), (Factor("A"), Factor("B"))),
                         IntMonomial(_sls((5,))))}, 1)
    trace = []
    npa_solve(sys, trace=trace)
    assert len(trace) == 2


def test_npa_agrees_with_kleene_on_converging_systems():
    rng = random.Random(5)
    for _ in range(60):
        dim = rng.randint(1, 2)
        names = ["X", "Y"][: rng.randint(1, 2)]
        equations = {}
        for i, x in enumerate(names):
            monos = [IntMonomial(_sls(tuple(rng.randint(-2, 2)
                                            for _ in range(dim))))]
            # linear references to earlier variables only: Kleene terminates
            for y in names[:i]:
                monos.append(IntMonomial(
                    _sls(tuple(rng.randint(-1, 1) for _ in range(dim))),
                    (Factor(y),)))
            equations[x] = tuple(monos)
        sys = _system(equations, dim)
        assert npa_solve(sys) == kleene_solve(sys)


def _npa_every_step(sys, solver):
    """Newton iteration that runs one step per variable and never stops
    early: the loop `npa_solve` shortens, kept as its oracle."""

    def tidy(value):
        return sl.prune(value, solver.member)

    variables = tuple(sys.equations)
    nu = {x: tidy(sl.combine_all([m.coeff for m in monos if not m.factors]))
          for x, monos in sys.equations.items()}
    for _ in variables:
        a, c = {}, {}
        for x, monos in sys.equations.items():
            total = sl.ZERO
            for m in monos:
                total = total.combine(monomial_value(m, nu))
                for y in {f.var for f in m.factors}:
                    d = derivative(m, y, nu)
                    if not d.is_zero:
                        a[(x, y)] = a.get((x, y), sl.ZERO).combine(d)
            c[x] = total
        delta = solve_linear(variables, a, c, sys.dimension)
        nu = {x: tidy(nu[x].combine(delta[x])) for x in variables}
    return nu


def test_npa_early_stop_agrees_with_one_step_per_variable():
    rng = random.Random(5)
    stopped_early = 0
    for _ in range(60):
        dim = rng.randint(1, 2)
        names = ["X", "Y", "Z"][: rng.randint(1, 3)]
        equations = {}
        for x in names:
            monos = [IntMonomial(_sls(tuple(rng.randint(-2, 2)
                                            for _ in range(dim))))]
            for _ in range(rng.randint(0, 2)):
                fs = tuple(Factor(rng.choice(names))
                           for _ in range(rng.randint(1, 2)))
                monos.append(IntMonomial(
                    _sls(tuple(rng.randint(-1, 1) for _ in range(dim))), fs))
            equations[x] = tuple(monos)
        sys = _system(equations, dim)
        trace = []
        solver = Solver()
        assert npa_solve(sys, solver, trace) == _npa_every_step(sys, solver)
        stopped_early += len(trace) < len(names)
    assert stopped_early >= 10


def test_npa_stops_within_two_steps_on_max3(monkeypatch, capsys):
    # max3's ite stratum has one masked copy of Start per guard pattern, so
    # its Start system has 16 variables at d = 5; the valuation still
    # stops changing after the first step, and the second step shows it
    steps = []

    def counted(sys, solver=None, trace=None):
        record = []
        out = newton.npa_solve(sys, solver, record)
        steps.append((len(sys.equations), len(record)))
        if trace is not None:
            trace.extend(record)
        return out

    monkeypatch.setattr(clia, "npa_solve", counted)
    rng = random.Random(3)
    rows = [[rng.randint(-5, 5) for _ in "xyz"] for _ in range(8)][:5]
    examples = ";".join(f"x={x},y={y},z={z}" for x, y, z in rows)
    problem = Path(__file__).parent / "problems" / "max3.sy"
    cli.main(["check-examples", str(problem), "--examples", examples,
              "--json"])
    assert json.loads(capsys.readouterr().out)["verdict"] == "Realizable"
    assert max(n for n, _ in steps) == 16
    assert max(k for _, k in steps) <= 2, steps


def test_npa_fixpoint_is_stable():
    # one extra Newton round cannot change an exact least fixpoint
    rng = random.Random(9)
    for _ in range(40):
        dim = rng.randint(1, 2)
        names = ["X", "Y", "Z"][: rng.randint(1, 3)]
        equations = {}
        for x in names:
            monos = [IntMonomial(_sls(tuple(rng.randint(-2, 2)
                                            for _ in range(dim))))]
            for _ in range(rng.randint(0, 2)):
                fs = tuple(Factor(rng.choice(names))
                           for _ in range(rng.randint(1, 2)))
                monos.append(IntMonomial(
                    _sls(tuple(rng.randint(-1, 1) for _ in range(dim))), fs))
            equations[x] = tuple(monos)
        sys = _system(equations, dim)
        nu = npa_solve(sys)
        ext = PolynomialSystem(dict(sys.equations), dim, dict(sys.sorts))
        again = npa_solve(ext)
        assert again == nu
        if any(sls_size(v) > 40 for v in nu.values()):
            continue  # component products get huge without pruning
        # the valuation absorbs its own right-hand sides
        solver = Solver()
        for x, monos in sys.equations.items():
            rhs = sl.combine_all(monomial_value(m, nu) for m in monos)
            for p in sorted(gamma_bounded(rhs, 2))[:12]:
                assert _member(solver, nu[x], p)


def test_npa_solution_is_sound_and_complete_for_bounded_trees():
    g = gr.Rtg((("S", gr.INT), ("T", gr.INT)), "S",
               (gr.Production("S", gr.plus(2), ("T", "S")),
                gr.Production("S", gr.num(1), ()),
                gr.Production("T", gr.var("x"), ()),
                gr.Production("T", gr.num(-2), ())))
    e = gr.ExampleSet(("x",), ((2,), (3,)))
    solver = Solver()
    nu = npa_solve(build_equations(g, e), solver=solver)
    # soundness: every bounded derivation lands inside the solved set
    for p in reachable_values(g, "S", 6, e):
        assert _member(solver, nu["S"], p)
    # completeness: points with small multipliers have concrete derivations
    derivable = set(reachable_values(g, "S", 12, e))
    assert gamma_bounded(nu["S"], 2) <= derivable


def test_npa_with_solver_prunes_subsumed_components():
    sys = _system({"X": (IntMonomial(_sls((0,))),
                         IntMonomial(_sls((2,)), (Factor("X"),)),
                         IntMonomial(_sls((4,)), (Factor("X"),)))}, 1)
    solver = Solver()
    plain = npa_solve(sys)
    pruned = npa_solve(sys, solver=solver)
    assert _same_points(solver, plain["X"], pruned["X"], 1, bound=12)
    assert sls_size(pruned["X"]) <= sls_size(plain["X"])


def test_npa_rejects_non_product_monomials():
    from unrealizer.gfa import BoolMonomial
    sys = PolynomialSystem({"B": (BoolMonomial("copy", (frozenset(),)),)},
                           1, {"B": gr.BOOL})
    with pytest.raises(ValueError):
        npa_solve(sys)


def test_kleene_reference_diverges_on_growth():
    sys = _system({"X": (IntMonomial(_sls((1,)), (Factor("X"),)),
                         IntMonomial(_sls((0,))))}, 1)
    with pytest.raises(RuntimeError):
        kleene_solve(sys, max_steps=30)


def test_factor_free_system_takes_no_step():
    # a system of constants only: its initial valuation is the one step's
    rng = random.Random(12)
    for _ in range(40):
        dim = rng.randint(1, 2)
        equations = {}
        for x in ["X", "Y", "Z"][: rng.randint(1, 3)]:
            equations[x] = tuple(
                IntMonomial(sl.sls([sl.linset(
                    [rng.randint(-2, 2) for _ in range(dim)],
                    [[rng.randint(-1, 1) for _ in range(dim)]
                     for _ in range(rng.randint(0, 2))])]))
                for _ in range(rng.randint(0, 3)))
        sys = _system(equations, dim)
        trace = []
        solver = Solver()
        assert npa_solve(sys, solver, trace) == _npa_every_step(sys, solver)
        assert trace == []
