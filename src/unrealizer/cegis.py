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
what does not depend on them (`_RunState`, which dies with the run).
"""

import json
import random
import time
from dataclasses import dataclass, field

from . import approx, clia, logic, synth
from .booldom import bset_str
from .frontend import PointSpec, specialize
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
    """A run's grammar normalized and stratified once, each example's
    specification specialized once, and `logic.decide`'s atom rows."""

    def __init__(self):
        self.compiled, self.atom_rows = clia.Compiled(), {}
        self.rows, self.ps = (), PointSpec(())

    def specialize(self, spec, e):
        n = len(self.rows)
        if e.rows[:n] != self.rows:
            raise AssertionError("examples must extend the last round's")
        new = specialize(spec, e, n).formulas
        self.rows, self.ps = e.rows, PointSpec(self.ps.formulas + new)
        return self.ps


def check_unrealizable(g, spec, e, solver=None, mode="sl", state=None):
    """Exact decision on the examples in ``e`` (semi-linear mode), or a
    sound one-sided answer (predicate-abstraction mode, on one example
    only: its parity predicates abstract a single output).  `run_cegis`
    passes one `_RunState` to all its rounds."""
    solver = solver if solver is not None else Solver()
    state = state if state is not None else _RunState()
    ps = state.specialize(spec, e)
    try:
        if mode == "predabs":
            if e.dimension != 1:
                return CheckResult("Unknown", reason="predabs-single-example")
            values = approx.predabs_solve(g, e)
            gamma = approx.concretize(values[g.start],
                                      logic.output_names(e.dimension))
            status, witness = logic.decide(
                logic.conj(gamma, ps.conjunction()), solver, state.atom_rows)
            if status == "unsat":
                return CheckResult("Unrealizable", status, values)
            return CheckResult("Unknown", status, values, witness,
                               "abstraction-sat")
        result = clia.solve(g, e, solver, compiled=state.compiled)
        stats = {"strata": len(result.strata),
                 "mutual_iterations": {"+".join(k): v for k, v in
                                       result.mutual_iterations.items()}}
        query = logic.build_query(result.values[g.start], ps)
        status, witness = logic.decide(query, solver, state.atom_rows)
        if status == "unsat":
            return CheckResult("Unrealizable", status, result.values,
                               stats=stats)
        return CheckResult("Realizable", status, result.values, witness,
                           stats=stats)
    except BudgetExceeded:
        return CheckResult("Unknown", reason="ilp-budget")


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
        check = check_unrealizable(g, spec, e, solver, mode, state)
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
            outcome = synth.enumerate_solve(g, state.ps, e,
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

