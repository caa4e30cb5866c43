"""Unrealizability checking on finite example sets, and the surrounding
counterexample-guided loop.

One round: decide the example-restricted problem exactly (unsat proves
the full problem unrealizable), otherwise ask the enumerative
synthesizer for a candidate correct on the persistent examples and
verify it on all inputs.  Verified candidates settle realizability;
counterexamples grow the persistent examples; when the synthesizer
comes up empty, a temporary random example strengthens the next check.
Enumeration reads only the persistent examples, so it reruns only when
they change: the rounds after an empty result, which differ only in
their random examples, reuse that result.  The loop is sequential and
deterministic for a fixed seed.

Each round's examples are the last round's plus one, so a run does once
what does not depend on them (`_RunState`, which dies with the run),
such as the semi-linear mode's normalized grammar and strata, and
specializes the specification to each example at most once, when a
query or the synthesizer first reads it.  A start value with no
generator is a finite set of points, and its check evaluates the
specification there, reading no specialized formula.
A round reads only whether its check is sat, never the check's witness,
so it asks the solver for the status alone.
"""

import json
import random
import time
from dataclasses import dataclass, field

from . import approx, clia, logic, synth
from .booldom import bset_str
from .frontend import PointSpec, holds, specialize
from .grammar import ExampleSet, Term
from .ilp import BudgetExceeded, Solver


@dataclass
class Budgets:
    seconds: float = 60.0
    max_size: int = 20
    max_rounds: int = 20


@dataclass
class CheckResult:
    verdict: str               # "Unrealizable" | "Realizable" | "Unknown"
    query: str | None = None   # "sat" | "unsat"
    values: dict | None = None
    witness: dict | None = None
    reason: str | None = None
    stats: dict = field(default_factory=dict)


class _RunState:
    """A run's `clia.Compiled`, made by its first semi-linear round, its
    specification specialized to each example once, when a query or the
    synthesizer first reads it, and `logic.decide`'s atom rows."""

    def __init__(self):
        self.compiled, self.atom_rows = None, {}
        self.spec, self.e, self._ps = None, None, PointSpec(())

    def advance(self, spec, e):
        """Take this round's examples, which extend the last round's."""
        if self.e is not None and e.rows[:len(self.e.rows)] != self.e.rows:
            raise AssertionError("examples must extend the last round's")
        self.spec, self.e = spec, e

    def ps(self):
        """The specification specialized to this round's examples."""
        n = len(self._ps.formulas)
        if n < len(self.e.rows):
            new = specialize(self.spec, self.e, n).formulas
            self._ps = PointSpec(self._ps.formulas + new)
        return self._ps


def check_unrealizable(g, spec, e, solver=None, mode="sl", state=None,
                       witness=True):
    """Exact decision on the examples in ``e`` (semi-linear mode), or a
    sound one-sided answer (predicate-abstraction mode, on one example
    only: its parity predicates abstract a single output).  `run_cegis`
    passes one `_RunState` to all its rounds, and `witness=False`: the
    result of a sat check then holds no witness.

    A start value with no generator is a finite set of points, so the
    question is plain evaluation: the first point (in `logic.points`
    order) at which the specification holds on every example is the
    witness, as the first sat branch of the query's DNF would be."""
    solver = solver if solver is not None else Solver()
    state = state if state is not None else _RunState()
    state.advance(spec, e)
    try:
        if mode == "predabs":
            if e.dimension != 1:
                return CheckResult("Unknown", reason="predabs-single-example")
            values = approx.predabs_solve(g, e)
            gamma = approx.concretize(values[g.start],
                                      logic.output_names(e.dimension))
            status, model = logic.decide(
                logic.conj(gamma, state.ps().conjunction()), solver,
                state.atom_rows, witness)
            if status == "unsat":
                return CheckResult("Unrealizable", status, values)
            return CheckResult("Unknown", status, values, model,
                               "abstraction-sat")
        if state.compiled is None:
            state.compiled = clia.Compiled(g)
        result = clia.solve(g, e, solver, compiled=state.compiled)
        stats = {"strata": len(result.strata),
                 "mutual_iterations": {"+".join(k): v for k, v in
                                       result.mutual_iterations.items()}}
        value = result.values[g.start]
        points = logic.points(value)
        if points is None:
            query = logic.build_query(value, state.ps())
            status, model = logic.decide(query, solver, state.atom_rows,
                                         witness)
        else:
            status, model = _first_point(points, spec, e, witness)
        if status == "unsat":
            return CheckResult("Unrealizable", status, result.values,
                               stats=stats)
        return CheckResult("Realizable", status, result.values, model,
                           stats=stats)
    except BudgetExceeded:
        return CheckResult("Unknown", reason="ilp-budget")


def _first_point(points, spec, e, witness):
    """('sat', the first of `points` at which `spec` holds on every
    example, by output name) or ('unsat', None); `logic.decide`'s answer
    on the query of these points."""
    for point in points:
        if all(holds(spec, e.variables, row, out)
               for row, out in zip(e.rows, point)):
            names = logic.output_names(e.dimension)
            return "sat", dict(zip(names, point)) if witness else None
    return "unsat", None


@dataclass
class Verdict:
    verdict: str               # "Unrealizable" | "Realizable" | "Unknown"
    witness: Term | None = None
    reason: str | None = None
    examples: list = field(default_factory=list)
    iterations: int = 0
    trace: list = field(default_factory=list)

    def payload(self):
        return {
            "verdict": self.verdict,
            "witness": self.witness.to_sexpr() if self.witness else None,
            "reason": self.reason,
            "examples": [list(r) for r in self.examples],
            "iterations": self.iterations,
            "trace": self.trace,
        }

    def to_json(self):
        return json.dumps(self.payload(), sort_keys=True,
                          separators=(",", ":"))


def _draw(rng, variables, taken):
    if not variables:
        return () if () not in taken else None
    for _ in range(10_000):
        row = tuple([rng.randint(-50, 50) for _ in variables])
        if row not in taken:
            return row
    return None


def _round_record(k, e_main, e_rand, check):
    return {
        "round": k,
        "examples": [list(r) for r in e_main],
        "random": [list(r) for r in e_rand],
        "check": check.verdict,
        "query": check.query,
        "start_value": None,
        "synth": None, "candidate": None, "verify": None, "cex": None,
    }


def run_cegis(problem, seed=0, budgets=None, mode="sl", solver=None):
    budgets = budgets if budgets is not None else Budgets()
    solver = solver if solver is not None else Solver()
    g, spec, variables = problem.grammar, problem.spec, problem.variables
    rng = random.Random(seed)
    deadline = time.monotonic() + budgets.seconds
    e_main = [_draw(rng, variables, set())]
    e_rand = []
    trace = []
    synth_on = outcome = None  # the last enumeration's examples and result
    state = _RunState()

    for k in range(1, budgets.max_rounds + 1):
        if time.monotonic() > deadline:
            return Verdict("Unknown", reason="budget", examples=e_main,
                           iterations=k - 1, trace=trace)
        rows = tuple(e_main) + tuple(e_rand)
        e = ExampleSet(variables, rows)
        check = check_unrealizable(g, spec, e, solver, mode, state,
                                   witness=False)
        rec = _round_record(k, e_main, e_rand, check)
        if check.values is not None:
            rec["start_value"] = _value_str(check.values[g.start])
        trace.append(rec)
        if check.verdict == "Unrealizable":
            return Verdict("Unrealizable", examples=list(rows),
                           iterations=k, trace=trace)

        # enumeration reads only the persistent examples and is
        # deterministic: rerun it only when they have changed, which
        # clears the random ones, so they are this round's examples
        if tuple(e_main) != synth_on:
            if e_rand:
                raise AssertionError("a new persistent example after"
                                     " random ones")
            synth_on = tuple(e_main)
            outcome = synth.enumerate_solve(g, state.ps(), e,
                                            max_size=budgets.max_size)
        rec["synth"] = outcome.status
        if outcome.candidate is None:
            row = _draw(rng, variables, set(rows))
            if row is None:
                return Verdict("Unknown", reason="inputs-exhausted",
                               examples=e_main, iterations=k, trace=trace)
            e_rand.append(row)
            continue

        term = outcome.candidate
        rec["candidate"] = term.to_sexpr()
        status, cex = synth.verify(term, spec, variables, solver)
        rec["verify"] = status
        if status == "valid":
            return Verdict("Realizable", witness=term, examples=e_main,
                           iterations=k, trace=trace)
        if status == "valid-unknown":
            return Verdict("Realizable", witness=term,
                           reason="valid-unknown", examples=e_main,
                           iterations=k, trace=trace)
        rec["cex"] = list(cex)
        if tuple(cex) in e_main:
            # the candidate fits every persistent example by construction
            raise AssertionError(f"counterexample {list(cex)} is already"
                                 f" a persistent example")
        e_main.append(tuple(cex))
        e_rand = []

    return Verdict("Unknown", reason="max-rounds", examples=e_main,
                   iterations=budgets.max_rounds, trace=trace)


def _value_str(v):
    if isinstance(v, frozenset):
        if all(isinstance(x, str) for x in v):
            return "{" + ",".join(sorted(v)) + "}"
        return bset_str(v)
    return str(v)

