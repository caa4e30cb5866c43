import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest

from unrealizer import ilp
from unrealizer.semilinear import linset


def solve(variables, constraints, budget=10 ** 6):
    return ilp.Solver(budget).feasible(ilp.system(variables, constraints))


def test_simple_equality_sat():
    res = solve({"x": True}, [ilp.constraint({"x": 3}, "=", 6)])
    assert res.status == "sat"
    assert res.witness == {"x": 2}


def test_simple_equality_unsat():
    res = solve({"x": True}, [ilp.constraint({"x": 3}, "=", 4)])
    assert res.status == "unsat"


def test_rational_but_not_integer_point():
    # 2x = 2y + 1 has rational solutions everywhere but no integer ones
    res = solve({"x": False, "y": False},
                [ilp.constraint({"x": 2, "y": -2}, "=", 1)])
    assert res.status == "unsat"


def test_nonnegativity_enforced():
    res = solve({"x": True}, [ilp.constraint({"x": 1}, "=", -2)])
    assert res.status == "unsat"
    res = solve({"x": False}, [ilp.constraint({"x": 1}, "=", -2)])
    assert res.status == "sat"


def test_strict_inequality_is_integer_strict():
    res = solve({"x": True}, [ilp.constraint({"x": 1}, "<", 1),
                              ilp.constraint({"x": -1}, "<=", 0)])
    assert res.status == "sat"
    assert res.witness == {"x": 0}
    res = solve({"x": True}, [ilp.constraint({"x": 1}, "<", 0)])
    assert res.status == "unsat"


def test_membership_style_system():
    # 6 = 3*l  and  7 = 3*l
    solver = ilp.Solver()
    from unrealizer.semilinear import linset
    assert solver.member((6,), linset((0,), [(3,)]))
    assert not solver.member((7,), linset((0,), [(3,)]))
    assert solver.member((4, 6), linset((0, 0), [(2, 0), (0, 6)]))
    assert not solver.member((4, 6), linset((0, 0), [(2, 4)]))


def test_empty_system_sat():
    res = solve({"x": True}, [])
    assert res.status == "sat"


def test_no_variables():
    assert solve({}, []).status == "sat"


def test_witness_always_verifies():
    rng = random.Random(3)
    for _ in range(200):
        variables, constraints = random_system(rng)
        res = solve(variables, constraints)
        if res.status == "sat":
            # _check_witness already ran; re-assert here independently
            for c in constraints:
                lhs = sum(k * res.witness[v] for v, k in c.coeffs)
                assert (lhs == c.rhs if c.rel == "=" else
                        lhs <= c.rhs if c.rel == "<=" else lhs < c.rhs)


def random_system(rng, max_vars=4, max_cons=6, box=8):
    nvars = rng.randint(1, max_vars)
    variables = {f"x{i}": rng.random() < 0.5 for i in range(nvars)}
    constraints = []
    for _ in range(rng.randint(0, max_cons)):
        coeffs = {f"x{i}": rng.randint(-4, 4) for i in range(nvars)}
        rel = rng.choice(["=", "<=", "<"])
        constraints.append(ilp.constraint(coeffs, rel, rng.randint(-10, 10)))
    for i in range(nvars):
        constraints.append(ilp.constraint({f"x{i}": 1}, "<=", box))
        constraints.append(ilp.constraint({f"x{i}": -1}, "<=", box))
    return variables, constraints


def brute_points(variables, constraints, box):
    """Every integer point of the system in [-box, box]^n (nonneg variables
    from 0), one row each, columns in sorted variable order."""
    import numpy as np

    names = sorted(variables)
    lows = [0 if variables[v] else -box for v in names]
    grids = np.meshgrid(*[np.arange(lo, box + 1) for lo in lows], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    ok = np.ones(len(pts), dtype=bool)
    for c in constraints:
        row = np.zeros(len(names), dtype=np.int64)
        for v, k in c.coeffs:
            row[names.index(v)] = k
        lhs = pts @ row
        if c.rel == "=":
            ok &= lhs == c.rhs
        elif c.rel == "<=":
            ok &= lhs <= c.rhs
        else:
            ok &= lhs < c.rhs
    return pts[ok]


def brute_force(variables, constraints, box=8):
    return len(brute_points(variables, constraints, box)) > 0


def test_against_enumeration_oracle():
    rng = random.Random(1234)
    for _ in range(300):
        variables, constraints = random_system(rng)
        expect = brute_force(variables, constraints)
        got = solve(variables, constraints)
        assert got.status == ("sat" if expect else "unsat")


def test_unbounded_relaxations_against_enumeration_oracle():
    # nonneg systems whose relaxation is often unbounded: a depth-first
    # search that follows the ray dives away from every integer point,
    # and the deepening box must still decide each one well within budget
    rng = random.Random(1)
    names = ["a", "b", "c"]
    variables = dict.fromkeys(names, True)
    statuses = []
    for _ in range(300):
        rows = [ilp.constraint({v: rng.randint(-3, 3) for v in names},
                               rng.choice(("<=", "<")), rng.randint(-6, 6))
                for _ in range(2)]
        got = solve(variables, rows, budget=2000)
        expect = brute_force(variables, rows, box=29)
        assert got.status == ("sat" if expect else "unsat"), rows
        statuses.append(got.status)
    assert statuses.count("sat") >= 100 and statuses.count("unsat") >= 30


def test_ray_dive_system_is_sat_within_a_small_budget():
    # (0, 2, 4) is a point, but the relaxation's vertex moves along an
    # unbounded ray as the search branches: a search without a deepening
    # box runs out of any budget here
    got = solve({"a": True, "b": True, "c": True},
                [ilp.constraint({"a": 2, "b": -1}, "<=", -2),
                 ilp.constraint({"a": 2, "b": 2, "c": -3}, "<", -6)],
                budget=100)
    assert got.status == "sat"


def test_a_search_decided_at_its_root_never_computes_the_magnitude_bound(
        monkeypatch):
    # the root's bounds are 0 or open, inside every box, so the bound is
    # computed once, for the first node past the root, and never for a
    # one-node search: an integral vertex, an infeasible relaxation, or
    # a lattice gap
    computed = []
    magnitude_bound = ilp._magnitude_bound

    def counting(closure):
        computed.append(closure)
        return magnitude_bound(closure)

    monkeypatch.setattr(ilp, "_magnitude_bound", counting)
    free = {"x": False, "y": False, "z": False}
    one_node = [
        ({"x": True, "y": True}, [ilp.constraint({"x": 1, "y": 1}, "<=", 3),
                                  ilp.constraint({"x": 1, "y": -1}, "=", 1)],
         "sat"),
        ({"x": True, "y": True}, [ilp.constraint({"x": 1, "y": 1}, "<=", 3),
                                  ilp.constraint({"x": 1, "y": 1}, "<", 0)],
         "unsat"),
        (free, [ilp.constraint({"x": 1, "y": -2}, "=", 0),
                ilp.constraint({"x": 1, "z": -2}, "=", 1)], "unsat"),
    ]
    for variables, rows, status in one_node:
        got = ilp.Solver().feasible(ilp.system(variables, rows))
        assert (got.status, got.nodes) == (status, 1)
    assert computed == []
    # a second node needs the box, once for the whole search
    got = solve({"x": True, "y": True},
                [ilp.constraint({"x": 2, "y": 3}, "=", 7)])
    assert got.status == "sat" and got.nodes > 1 and len(computed) == 1


@pytest.mark.xfail(raises=ilp.BudgetExceeded, strict=True,
                   reason="branch and bound follows an unbounded LP ray")
def test_lattice_empty_system_with_an_unbounded_relaxation_is_unsat():
    # with the last row b1 >= a0 + 2a1, the first two give
    # a0 + (5a1 + 1)/3 <= b0 <= a0 + (1 - 3a1)/2, so a1 = 0 and
    # a0 + 1/3 <= b0 <= a0 + 1/2: no integer point, yet the relaxation
    # is feasible along an unbounded ray.  Found as a dense LessThan pair
    # at d = 5, which the prefix search still decides by the ILP.
    got = solve({"a0": True, "a1": True, "b0": True, "b1": True},
                [ilp.constraint({"a1": -1, "b0": -3, "b1": 3}, "<=", -1),
                 ilp.constraint({"a0": -3, "a1": 1, "b0": 2, "b1": 1},
                                "<=", 1),
                 ilp.constraint({"a0": -3, "a1": 2, "b0": -3, "b1": -2},
                                "<", -3),
                 ilp.constraint({"a0": 1, "a1": 2, "b1": -1}, "<", 1)],
                budget=1000)
    assert got.status == "unsat"


def test_budget_exhaustion_raises():
    # the root relaxation's vertex x = 7/2 is fractional, so the search
    # needs a second node, beyond a budget of one
    with pytest.raises(ilp.BudgetExceeded):
        solve({"x": True, "y": True},
              [ilp.constraint({"x": 2, "y": 3}, "=", 7)], budget=1)
    assert solve({"x": True, "y": True},
                 [ilp.constraint({"x": 2, "y": 3}, "=", 7)]).status == "sat"


def test_solver_budget_raises():
    s = ilp.Solver(node_budget=0)
    with pytest.raises(ilp.BudgetExceeded):
        s.feasible(ilp.system({"x": True, "y": True},
                              [ilp.constraint({"x": 2, "y": 3}, "=", 7)]))


def test_gcd_presolve_catches_lattice_gaps():
    # rationally feasible everywhere, integrally empty, unbounded region:
    # without the gcd cut this is a worst case for branch and bound
    res = solve({"x": True, "y": True}, [ilp.constraint({"x": 2, "y": -2}, "=", 1)])
    assert res.status == "unsat"
    assert res.nodes == 0


def test_lattice_gap_decided_without_branching():
    # x = 2y and x = 2z + 1: x would be even and odd at once.  Every row's
    # gcd divides its right-hand side and the free variables leave rational
    # points everywhere, so only the equality lattice shows it is empty.
    t0 = time.perf_counter()
    res = solve({"x": False, "y": False, "z": False},
                [ilp.constraint({"x": 1, "y": -2}, "=", 0),
                 ilp.constraint({"x": 1, "z": -2}, "=", 1)])
    assert res.status == "unsat"
    assert time.perf_counter() - t0 < 1.0


def test_lattice_check_keeps_sat_witness():
    # x = 2y and x = 4z + 2 do meet (x = 2, y = 1, z = 0); the root
    # relaxation is fractional, so this passes through the lattice check
    res = solve({"x": False, "y": False, "z": False},
                [ilp.constraint({"x": 1, "y": -2}, "=", 0),
                 ilp.constraint({"x": 1, "z": -4}, "=", 2)])
    assert res.status == "sat"
    assert res.witness == {"x": 2, "y": 1, "z": 0}


def test_equalities_integral_is_sound():
    # a lattice-infeasible answer must never hide an integer point
    rng = random.Random(5)
    names = ["a", "b", "c"]
    for _ in range(200):
        eqs = []
        for _ in range(rng.randint(1, 3)):
            coeffs = {v: rng.randint(-6, 6) for v in names}
            eqs.append(({v: k for v, k in coeffs.items() if k}, "=",
                        rng.randint(-12, 12)))
        points = itertools.product(range(-4, 5), repeat=len(names))
        found = any(all(sum(k * dict(zip(names, pt))[v]
                            for v, k in coeffs.items()) == rhs
                        for coeffs, _, rhs in eqs)
                    for pt in points)
        if found:
            assert ilp._equalities_integral(names, eqs)


def reference_phase1(rows, nvars, pivots=None):
    """The rational Bland phase-1 simplex over Fraction that the integer
    one replaced, kept as the oracle for its pivot sequence; each pivot's
    (row, column) is appended to `pivots` when one is given."""
    m = len(rows)
    if m == 0:
        return [Fraction(0)] * nvars
    total = nvars + m
    tab = []
    for i, row in enumerate(rows):
        r = [Fraction(x) for x in row[:nvars]]
        r += [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        r.append(Fraction(row[nvars]))
        tab.append(r)
    basis = [nvars + i for i in range(m)]
    obj = [Fraction(0)] * (total + 1)
    for r in tab:
        for j in range(total + 1):
            obj[j] += r[j]
    for j in range(nvars, total):
        obj[j] = Fraction(0)
    while True:
        enter = next((j for j in range(total) if obj[j] > 0), -1)
        if enter < 0:
            break
        leave, best = -1, None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][total] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave < 0:
            return None
        if pivots is not None:
            pivots.append((leave, enter))
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, tab[leave])]
        basis[leave] = enter
    if obj[total] != 0:
        return None
    point = [Fraction(0)] * total
    for i, b in enumerate(basis):
        point[b] = tab[i][total]
    if any(point[j] != 0 for j in range(nvars, total)):
        return None
    return point[:nvars]


def test_integer_pivoting_walks_the_rational_pivot_sequence():
    # same vertex, hence the same witness: not just the same feasibility
    rng = random.Random(2024)
    feasible_seen = 0
    for _ in range(400):
        m, n = rng.randint(1, 5), rng.randint(1, 7)
        rows = []
        for _ in range(m):
            # small entries and many zeros: degenerate vertices, so the
            # ratio test meets ties and Bland's tie-break decides the path
            row = [rng.choice((0, rng.randint(-3, 3))) for _ in range(n)]
            rows.append(row + [rng.choice((0, rng.randint(0, 6)))])
        want = reference_phase1(rows, n)
        assert ilp._phase1_simplex([list(r) for r in rows], n) == want
        feasible_seen += want is not None
    assert 50 < feasible_seen < 350


def test_support_only_pivots_walk_the_rational_pivot_sequence(monkeypatch):
    # wide, mostly-zero tableaux like the ones CEGIS builds; pivots take
    # both the in-place support update (piv == den) and the full-row one
    # (`_pivoted`, called once per other row and once for the objective),
    # and must land on the rational simplex's vertex either way.  The two
    # simplexes pivot alike, so the support pivots are the reference's
    # pivots less the full-row ones.
    calls = []
    pivoted = ilp._pivoted

    def counting(row, prow, piv, den, f):
        calls.append(piv)
        return pivoted(row, prow, piv, den, f)

    monkeypatch.setattr(ilp, "_pivoted", counting)
    rng = random.Random(4051)
    feasible_seen = 0
    branches = {"support": 0, "full": 0}
    for _ in range(150):
        m, n = rng.randint(1, 12), rng.randint(1, 16)
        rows = []
        for _ in range(m):
            row = [rng.randint(-4, 4) if rng.random() < 0.3 else 0
                   for _ in range(n)]
            rows.append(row + [rng.choice((0, rng.randint(0, 9)))])
        pivots = []
        want = reference_phase1(rows, n, pivots)
        calls.clear()
        assert ilp._phase1_simplex([list(r) for r in rows], n) == want
        full, rest = divmod(len(calls), m)
        assert rest == 0
        branches["full"] += full
        branches["support"] += len(pivots) - full
        feasible_seen += want is not None
    assert branches["support"] > 0 and branches["full"] > 0, branches
    assert 20 < feasible_seen < 130


def test_export_smtlib_stable(tmp_path):
    sys = ilp.system({"x": True, "y": False},
                     [ilp.constraint({"x": 2, "y": -1}, "<=", 3)])
    a = ilp.export_smtlib(sys)
    b = ilp.export_smtlib(sys)
    assert a == b
    assert "(set-logic QF_LIA)" in a
    assert "(assert (>= x 0))" in a
    assert "(check-sat)" in a
    solver = ilp.Solver(export_dir=str(tmp_path))
    solver.feasible(sys)
    assert (tmp_path / "query00001.smt2").read_text() == a


def test_export_smtlib_writes_negative_numbers_as_smtlib_numerals(tmp_path):
    # SMT-LIB numerals are nonnegative and `-2` reads as a symbol, so
    # negative coefficients and right-hand sides are written (- n)
    sys = ilp.system({"x": True, "y": False},
                     [ilp.constraint({"x": -2, "y": 1}, "<=", -3),
                      ilp.constraint({"x": 1, "y": -3}, "<", -1)])
    solver = ilp.Solver(export_dir=str(tmp_path))
    assert solver.feasible(sys).status == "sat"
    text = (tmp_path / "query00001.smt2").read_text()
    assert text == ("(set-logic QF_LIA)\n"
                    "(declare-const x Int)\n"
                    "(declare-const y Int)\n"
                    "(assert (>= x 0))\n"
                    "(assert (<= (+ (* (- 2) x) (* 1 y)) (- 3)))\n"
                    "(assert (< (+ (* 1 x) (* (- 3) y)) (- 1)))\n"
                    "(check-sat)\n")
    assert re.search(r"-\d", text) is None


def propagation_system(rng, box=5):
    """A boxed random system rich in what propagation decides: rows on one
    variable, equalities a*x = b with |a| > 1, rows that fall to one
    variable once others are fixed, and rows it cannot settle.  Most rows
    hold at a random point p and some are violated there, so both answers
    are common."""
    nvars = rng.randint(1, 4)
    names = [f"x{i}" for i in range(nvars)]
    variables = {v: rng.random() < 0.5 for v in names}
    p = {v: rng.randint(0 if variables[v] else -box, box) for v in names}
    constraints = []
    for v in names:
        constraints.append(ilp.constraint({v: 1}, "<=", box))
        constraints.append(ilp.constraint({v: -1}, "<=", box))

    def row(coeffs, rel):
        at_p = sum(k * p[v] for v, k in coeffs.items())
        off = rng.choice((0, 0, 0, 1, 2)) if rel != "=" else 0
        if rng.random() < 0.15:  # off the point: often no solution left
            off = -rng.randint(1, 3)
        rhs = at_p + off + (1 if rel == "<" and off >= 0 else 0)
        constraints.append(ilp.constraint(coeffs, rel, rhs))

    for _ in range(rng.randint(1, 5)):
        kind = rng.random()
        if kind < 0.3:  # one variable, any relation, |a| up to 3
            row({rng.choice(names): rng.choice((-3, -2, -1, 1, 2, 3))},
                rng.choice(("=", "<=", "<")))
        elif kind < 0.5:  # an equality a*x = b with |a| > 1
            v = rng.choice(names)
            a = rng.choice((-3, -2, 2, 3))
            rhs = a * p[v] + (rng.choice((-1, 1)) if rng.random() < 0.1 else 0)
            constraints.append(ilp.constraint({v: a}, "=", rhs))
        elif kind < 0.8:  # two or three variables, one row
            vs = rng.sample(names, min(len(names), rng.randint(2, 3)))
            row({v: rng.choice((-2, -1, 1, 2)) for v in vs},
                rng.choice(("=", "<=", "<")))
        elif len(names) > 1:  # y pinned, then x - y = c has one variable
            x, y = rng.sample(names, 2)
            constraints.append(ilp.constraint({y: 1}, "=", p[y]))
            row({x: 1, y: -1}, "=")
    rng.shuffle(constraints)
    return variables, constraints


def test_propagation_matches_brute_force():
    rng = random.Random(77)
    decided = {"sat": 0, "unsat": 0}
    open_systems = 0
    for _ in range(500):
        variables, constraints = propagation_system(rng)
        res = solve(variables, constraints)
        points = [dict(zip(sorted(variables), map(int, pt)))
                  for pt in brute_points(variables, constraints, 5)]
        assert res.status == ("sat" if points else "unsat"), constraints
        if len(points) == 1:
            assert res.witness == points[0], constraints
        if res.status == "sat":
            assert res.witness in points
        if res.nodes == 0:
            decided[res.status] += 1
        else:
            open_systems += 1
    # the mix exercises both answers of propagation and the fallback
    assert min(decided.values()) >= 50 and open_systems >= 50, \
        (decided, open_systems)


def test_propagation_decides_one_variable_systems_without_branching():
    res = solve({"x": False, "y": True},
                [ilp.constraint({"y": 3}, "=", 6),
                 ilp.constraint({"x": 2}, "<=", 7),
                 ilp.constraint({"x": -1}, "<=", -3)])
    assert res.status == "sat"
    assert res.witness == {"x": 3, "y": 2}
    assert list(res.witness) == ["x", "y"]  # variable order, not fixing order
    assert res.nodes == 0
    res = solve({"x": True}, [ilp.constraint({"x": 2}, "<=", 1),
                              ilp.constraint({"x": -2}, "<", 0)])
    assert res.status == "unsat"
    assert res.nodes == 0
    # fixing y leaves x with one row, which crosses x >= 0
    res = solve({"x": True, "y": False},
                [ilp.constraint({"x": 1, "y": 1}, "<=", 1),
                 ilp.constraint({"y": 2}, "=", 4)])
    assert res.status == "unsat"
    assert res.nodes == 0


def test_propagation_rounds_bounds_inward():
    # y = 0 leaves 2x <= 3 (x <= 1) and -2x <= -3 (x >= 2), bounds that
    # gcd normalization never sees; each decides the system on its own
    y0 = ilp.constraint({"y": 1}, "=", 0)
    up = ilp.constraint({"x": 2, "y": 1}, "<=", 3)
    low = ilp.constraint({"x": -2, "y": 1}, "<=", -3)
    for rows, status, witness in (
            ([y0, up, ilp.constraint({"x": -1}, "<=", -1)], "sat", 1),
            ([y0, up, ilp.constraint({"x": -1}, "<=", -2)], "unsat", None),
            ([y0, low, ilp.constraint({"x": 1}, "<=", 2)], "sat", 2),
            ([y0, low, ilp.constraint({"x": 1}, "<=", 1)], "unsat", None),
            ([y0, ilp.constraint({"x": 2, "y": 1}, "=", 3)], "unsat", None),
            ([y0, ilp.constraint({"x": -3, "y": 1}, "=", 6)], "sat", -2)):
        res = solve({"x": False, "y": False}, rows)
        assert res.status == status, rows
        assert res.nodes == 0, rows
        if witness is not None:
            assert res.witness == {"x": witness, "y": 0}


def test_system_propagation_leaves_open_goes_to_branch_and_bound():
    # bounds that pin nothing: x in [0, 3], y free below 5, and a row over
    # both, so the vertex branch and bound finds is the answer
    res = solve({"x": True, "y": False},
                [ilp.constraint({"x": 1}, "<=", 3),
                 ilp.constraint({"y": 1}, "<", 5),
                 ilp.constraint({"x": 1, "y": 1}, "=", 2)])
    assert res.status == "sat"
    assert res.nodes >= 1
    assert res.witness["x"] + res.witness["y"] == 2


def reference_propagation(variables, constraints):
    """The one-shot presolve and bound propagation, written out on its own
    as the oracle for `Closure`: (unsat, fixed, lower, upper) after every
    row is normalized and propagation has run to its fixpoint."""
    lower = {v: (0 if nonneg else None) for v, nonneg in variables.items()}
    upper = dict.fromkeys(lower)
    fixed = {}
    rows = []
    for c in constraints:
        coeffs = dict(c.coeffs)
        rhs = c.rhs - 1 if c.rel == "<" else c.rhs
        rel = "=" if c.rel == "=" else "<="
        if coeffs:
            g = 0
            for k in coeffs.values():
                g = math.gcd(g, k)
            if rel == "=" and rhs % g:
                return True, None, None, None
            rhs = rhs // g
            coeffs = {v: k // g for v, k in coeffs.items()}
        rows.append((coeffs, rel, rhs))
    while True:
        nfixed = len(fixed)
        left = []
        for coeffs, rel, rhs in rows:
            rhs -= sum(k * fixed[v] for v, k in coeffs.items() if v in fixed)
            coeffs = {v: k for v, k in coeffs.items() if v not in fixed}
            if len(coeffs) > 1:
                left.append((coeffs, rel, rhs))
            elif not coeffs:
                if (rhs != 0) if rel == "=" else (rhs < 0):
                    return True, None, None, None
            else:
                ((v, a),) = coeffs.items()
                if rel == "=" or a > 0:
                    b = math.floor(Fraction(rhs, a))
                    upper[v] = b if upper[v] is None else min(upper[v], b)
                if rel == "=" or a < 0:
                    b = math.ceil(Fraction(rhs, a))
                    lower[v] = b if lower[v] is None else max(lower[v], b)
                if lower[v] is not None and upper[v] is not None:
                    if lower[v] > upper[v]:
                        return True, None, None, None
                    if lower[v] == upper[v]:
                        fixed[v] = lower[v]
        rows = left
        if len(fixed) == nfixed:
            return False, fixed, lower, upper


def closure_rows(rng):
    """Declared variables and random rows on 1-4 of them: `=` and `<=`
    with small coefficients, many on one or two variables so that
    propagation fixes some, and some equalities whose gcd does not divide
    the right-hand side."""
    names = [f"x{i}" for i in range(rng.randint(1, 5))]
    variables = {v: rng.random() < 0.5 for v in names}
    p = {v: rng.randint(0 if variables[v] else -4, 4) for v in names}
    rows = []
    for _ in range(rng.randint(1, 8)):
        k = min(len(names), rng.choice((1, 1, 2, 2, 3, 4)))
        coeffs = {v: rng.choice((-3, -2, -1, 1, 2, 3))
                  for v in rng.sample(names, k)}
        rel = rng.choice(("=", "=", "<="))
        # most rows hold at the point p, some are off it by a little
        rhs = sum(c * p[v] for v, c in coeffs.items())
        if rng.random() < 0.1:
            rhs -= rng.randint(1, 3)
        elif rel == "<=":
            rhs += rng.randint(0, 2)
        if rel == "=" and rng.random() < 0.1:
            g = rng.choice((2, 3))
            coeffs = {v: g * c for v, c in coeffs.items()}
            rhs = g * rhs + 1
        rows.append(ilp.constraint(coeffs, rel, rhs))
    return variables, rows


def closure_state(cl):
    return (cl.unsat, dict(cl.fixed), dict(cl.lower), dict(cl.upper),
            list(cl.pending), list(cl.constraints), list(cl.presolved),
            dict(cl.variables))


def test_closure_extended_row_by_row_matches_one_shot_propagation():
    rng = random.Random(2006)
    outcomes = {"unsat": 0, "sat": 0, "open": 0}
    for _ in range(600):
        variables, rows = closure_rows(rng)
        shuffled = rng.sample(rows, len(rows))
        root = ilp.Closure().add((), variables.items())
        chains = []
        for order in (rows, rows[::-1], shuffled):
            chain = [root]
            for c in order:
                chain.append(chain[-1].add((c,)))
            chains.append(chain)
        batch = root.add(rows)
        # every closure along a chain is left as it was built
        states = [[closure_state(cl) for cl in chain] for chain in chains]
        for order, chain in zip((rows, rows[::-1], shuffled), chains):
            for k, cl in enumerate(chain):
                unsat, fixed, lower, upper = reference_propagation(
                    variables, order[:k])
                assert cl.unsat == unsat, (variables, order[:k])
                if not unsat:
                    assert (cl.fixed, cl.lower, cl.upper) == \
                        (fixed, lower, upper), (variables, order[:k])
        assert states == [[closure_state(cl) for cl in chain]
                          for chain in chains]
        unsat, fixed, lower, upper = reference_propagation(variables, rows)
        for cl in [batch] + [chain[-1] for chain in chains]:
            assert cl.unsat == unsat
            if not unsat:
                assert (cl.fixed, cl.lower, cl.upper) == (fixed, lower, upper)
        # the verdict is what the one-shot presolve decided
        got = batch.verdict()
        if unsat:
            assert got == ilp.Feasibility("unsat", None, 0)
            outcomes["unsat"] += 1
        elif len(fixed) == len(variables):
            assert got == ilp.Feasibility(
                "sat", {v: fixed[v] for v in sorted(variables)}, 0)
            assert list(got.witness) == sorted(variables)
            outcomes["sat"] += 1
        else:
            assert got is None
            outcomes["open"] += 1
        for chain in chains:
            assert chain[-1].verdict() == got
    assert min(outcomes.values()) >= 80, outcomes


def test_closure_declares_variables_as_they_appear():
    cl = ilp.Closure().add((), [("x", False)])
    with pytest.raises(ValueError):
        cl.add([ilp.constraint({"y": 1}, "<=", 2)])
    # y <= 0 leaves y open while it is free; declared nonneg, y is 0
    rows = [ilp.constraint({"y": 1}, "<=", 0),
            ilp.constraint({"x": 1}, "=", 4)]
    free = cl.add(rows, [("y", False)])
    assert free.verdict() is None
    assert free.add((), [("y", False)]).verdict() is None
    assert cl.add(rows, [("y", True)]).verdict() == \
        ilp.Feasibility("sat", {"x": 4, "y": 0}, 0)
    # the first declaration wins: a free variable cannot become nonneg,
    # and the closure it was declared again on is left as it was
    with pytest.raises(ValueError):
        free.add((), [("y", True)])
    assert free.variables == {"x": False, "y": False}
    with pytest.raises(ValueError):
        ilp.Closure().add((), [("w", False), ("w", True)])
    # a nonneg variable declared again as free stays nonneg
    neg = ilp.Closure().add([], [("z", True)]).add(
        [ilp.constraint({"z": 1}, "<=", -1)], [("z", False)])
    assert neg.unsat


def test_closure_passed_to_branch_and_bound_keeps_system_row_order():
    # branch and bound runs on the rows in the order the closure took
    # them in, over the variables sorted by name whatever order they were
    # declared in, so a closure extended row by row gets the vertex and
    # witness of the system built at once; the reversed rows are another
    # system, whose witness may differ
    rng = random.Random(5)
    differs = 0
    checked = 0
    for _ in range(80):
        names = ["x", "y", "z"]
        rows = [ilp.constraint({v: rng.randint(-3, 3) for v in names},
                               rng.choice(("<=", "<", "=")),
                               rng.randint(-6, 6))
                for _ in range(rng.randint(2, 3))]
        variables = {v: True for v in names}
        try:
            want = ilp.Solver(2000).feasible(ilp.system(variables, rows))
            reversed_sys = ilp.Solver(2000).feasible(
                ilp.system(variables, rows[::-1]))
        except ilp.BudgetExceeded:
            continue
        cl = ilp.Closure().add((), [(v, True) for v in reversed(names)])
        for c in rows:
            cl = cl.add((c,))
        if cl.verdict() is not None:
            continue
        checked += 1
        assert ilp.Solver(2000).feasible(cl) == want, rows
        differs += reversed_sys != want
    assert checked >= 40 and differs >= 5, (checked, differs)


def test_solver_answers_from_the_closure_and_counts_only_open_systems(
        tmp_path):
    out = tmp_path / "smt"
    solver = ilp.Solver(export_dir=str(out))
    x3 = ilp.Closure().add([ilp.constraint({"x": 1}, "=", 3)], [("x", True)])
    assert solver.feasible(x3) == ilp.Feasibility("sat", {"x": 3}, 0)
    neg = x3.add([ilp.constraint({"x": 1}, "<=", 2)])
    assert solver.feasible(neg).status == "unsat"
    # an unsat closure still takes in rows, so it holds the whole system
    more = ilp.constraint({"x": 1}, "<=", 9)
    assert neg.add([more]).constraints == neg.constraints + (more,)
    # a system built at once is a closure and is answered from it alike
    assert solver.feasible(ilp.system(
        {"x": True}, [ilp.constraint({"x": 1}, "=", 3)])).status == "sat"
    assert solver.queries == 0 and not out.exists()
    rows = [ilp.constraint({"x": 2, "y": -1}, "<=", 3)]
    open_sys = ilp.system({"x": True, "y": False}, rows)
    cl = ilp.Closure().add((), [("y", False), ("x", True)]).add(rows)
    assert (cl.variables, cl.constraints) == \
        (open_sys.variables, open_sys.constraints)
    assert solver.feasible(cl) == ilp.Solver().feasible(open_sys)
    assert solver.queries == 1
    assert [p.name for p in out.iterdir()] == ["query00001.smt2"]


def test_verdict_rechecks_the_rows_taken_in_since_the_last_recheck():
    x3 = ilp.Closure().add([ilp.constraint({"x": 1}, "=", 3)], [("x", True)])
    assert x3.verdict().status == "sat" and x3.checked == 1
    row = ilp.constraint({"x": 1, "y": 1}, "=", 5)
    ok = x3.add([row], [("y", True)])
    assert ok.checked == 1
    assert ok.verdict() == ilp.Feasibility("sat", {"x": 3, "y": 2}, 0)
    assert ok.checked == 2
    # a wrong point, as a fault in propagation would leave it, fails the
    # recheck of the new row
    bad = x3.add([row], [("y", True)])
    bad.fixed["y"] = 4
    with pytest.raises(AssertionError):
        bad.verdict()


def test_one_generator_membership_matches_the_ilp_it_replaces():
    # p in <u, {g}> by division, against the one-variable system
    # g[i] * l0 = p[i] - u[i], l0 >= 0, written out from the definition
    rng = random.Random(1806)
    solver = ilp.Solver()
    answers = {True: 0, False: 0}
    for _ in range(300):
        d = rng.randint(1, 4)
        u = tuple(rng.choice((0, rng.randint(-3, 3))) for _ in range(d))
        g = [rng.choice((0, rng.randint(-3, 3))) for _ in range(d)]
        if not any(g):
            g[rng.randrange(d)] = rng.choice((-3, -2, -1, 1, 2, 3))
        g = tuple(g)
        ls = linset(u, [g])
        points = [tuple(b + lam * x for b, x in zip(u, g))
                  for lam in range(-2, 4)]
        for _ in range(4):  # off the ray, and mostly off the lattice
            lam = rng.randint(-2, 3)
            points.append(tuple(b + lam * x + rng.randint(-1, 1)
                                for b, x in zip(u, g)))
        if all(x % 2 == 0 for x in g):  # on the line, between lattice points
            points.append(tuple(b + x // 2 for b, x in zip(u, g)))
        for p in points:
            want = ilp.Solver().feasible(ilp.system(
                {"l0": True},
                [ilp.constraint({"l0": x}, "=", a - b)
                 for x, a, b in zip(g, p, u)])).status == "sat"
            assert solver.member(p, ls) == want, (p, u, g)
            answers[want] += 1
    assert solver.queries == 0
    assert min(answers.values()) > 300


@pytest.mark.parametrize("d", [4, 8, 16])
def test_cegis_leaf_simplex_matches_the_rational_vertex(d, monkeypatch):
    # the leaf CEGIS builds on gconst: o_i = 1 + q1 against o_i > x_i
    xs = [-44] + list(range(1, d))
    names = [f"o{i + 1}" for i in range(d)]
    cons = [ilp.constraint({o: 1, "q1": -1}, "=", 1) for o in names]
    cons += [ilp.constraint({o: -1}, "<", -x) for o, x in zip(names, xs)]
    sys = ilp.system({**{o: False for o in names}, "q1": True}, cons)
    simplex = ilp._phase1_simplex
    solved = []

    def checked(rows, nvars):
        before = [list(r) for r in rows]
        point = simplex(rows, nvars)
        assert rows == before  # the tableau is the simplex's own
        assert point == reference_phase1(before, nvars)
        solved.append(len(rows))
        return point

    monkeypatch.setattr(ilp, "_phase1_simplex", checked)
    res = ilp.Solver().feasible(sys)
    assert res.status == "sat" and res.nodes >= 1
    assert res.witness["q1"] == d - 1 and solved[0] == 2 * d


def test_children_leave_their_parent_and_siblings_as_they_were():
    # a child that takes in a row without a new bound shares its parent's
    # dicts; one whose propagation writes must copy them first
    variables = {"x": True, "y": True, "z": False}
    first = ilp.constraint({"x": 1, "y": 1}, "<=", 6)
    parent = ilp.system(variables, [first])
    before = closure_state(parent)
    rows = {
        "two-variable row": ilp.constraint({"x": 1, "z": -1}, "<=", 2),
        "fix": ilp.constraint({"x": 1}, "=", 2),
        "tighten": ilp.constraint({"y": 1}, "<=", 3),
        "fix a free variable": ilp.constraint({"z": 1}, "=", -1),
        "cross": ilp.constraint({"x": 1}, "<=", -1),
    }
    children = {name: parent.add([row]) for name, row in rows.items()}
    assert closure_state(parent) == before
    assert children["two-variable row"].lower is parent.lower
    assert children["fix"].fixed == {"x": 2}
    assert children["tighten"].upper["y"] == 3
    assert children["cross"].unsat
    for name, row in rows.items():
        child = children[name]
        alone = ilp.system(variables, [first, row])
        if not alone.unsat:  # an unsat closure keeps what it took in
            assert closure_state(child) == closure_state(alone), name
        assert ilp.Solver().feasible(child) == \
            ilp.Solver().feasible(alone), name
    # a grandchild that writes leaves its parent, the sharing child, alone
    shared = children["two-variable row"]
    kept = closure_state(shared)
    grandchild = shared.add([ilp.constraint({"z": 1}, "=", 0)])
    assert grandchild.fixed == {"z": 0} and grandchild.upper["x"] == 2
    assert closure_state(shared) == kept and closure_state(parent) == before
