"""The benchmark's workloads: what each one checks, why, and its known answer.

On every non-trivial input nearly all of the checker's time goes to exact
integer feasibility (`ilp.Solver.feasible`).  Which layer makes those calls
depends on the input, and the open performance work targets each caller
separately, so every workload below loads a different caller:

- ``lessthan-g2``: the Boolean ``LessThan`` fixpoint (`booldom`);
- ``dnf-max2``: ``logic.decide``, one call per DNF branch;
- ``cegis-gconst``: the full counterexample-guided loop, where a few
  systems grow by one example per round.

A workload is a pool of ``POOL_SIZE`` instances drawn once from
``POOL_SEED``; a run's ``--seed`` fixes the order in which the run checks
them.  The fixed pool lets the committed ``baseline.json`` hold the verdict
digest of every instance a run can meet.  It is a few times larger than a
run checks today, so that no instance repeats within a run: a cache kept
across checks would turn repeats into a gain that no user of the command
line sees.

Every instance has an answer known without the code under test; a verdict
that differs from it is a failure.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from unrealizer import booldom, cegis
from unrealizer.frontend import parse_problem
from unrealizer.grammar import ExampleSet
from unrealizer.ilp import Solver

ROOT = Path(__file__).resolve().parent.parent
POOL_SEED = 200400878
POOL_SIZE = 256
# Large enough that the round cap, not the clock, ends every CEGIS run.
CEGIS_SECONDS = 3600.0


@dataclass(frozen=True)
class Outcome:
    """What one check returned, reduced to what the answer check reads."""

    verdict: str
    reason: str | None
    query: str | None        # "sat"/"unsat" of the example check
    witness: dict | None     # ILP model of a sat query: o1..od and more
    iterations: int
    payload: str             # canonical verdict JSON

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.payload.encode()).hexdigest()[:16]


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _value_text(v) -> str:
    return booldom.bset_str(v) if isinstance(v, frozenset) else str(v)


def check_examples(problem, rows) -> Outcome:
    """One exact check on fixed examples (the ``check-examples`` command)."""
    e = ExampleSet(problem.variables, tuple(rows))
    res = cegis.check_unrealizable(problem.grammar, problem.spec, e, Solver())
    values = {nt: _value_text(v)
              for nt, v in sorted((res.values or {}).items())}
    payload = _canonical({"verdict": res.verdict, "reason": res.reason,
                          "query": res.query, "witness": res.witness,
                          "values": values, "stats": res.stats})
    return Outcome(res.verdict, res.reason, res.query, res.witness, 1,
                   payload)


def cegis_loop(problem, seed, rounds) -> Outcome:
    """The full loop (the ``check`` command) with a round cap."""
    budgets = cegis.Budgets(seconds=CEGIS_SECONDS, max_rounds=rounds)
    v = cegis.run_cegis(problem, seed=seed, budgets=budgets, solver=Solver())
    return Outcome(v.verdict, v.reason, None, None, v.iterations,
                   v.to_json())


# --- known answers, decided by the benchmark's own arithmetic ---------------

def g2_refutable(rows) -> bool:
    """Every g2 term outputs a multiple of x on each example, and the target
    2x+2 is a multiple of x only when x divides 2; one example with x = 0 or
    |x| >= 3 therefore refutes every term."""
    return any(x == 0 or 2 % x != 0 for (x,) in rows)


def max2_spec(f, x, y) -> bool:
    """The spec of problems/max2.sy: f >= x, f >= y, f = x or f = y."""
    return f >= x and f >= y and (f == x or f == y)


def max2_witness(x, y) -> int:
    """The term (ite (< y x) x y), which the grammar derives."""
    return x if y < x else y


def _expect(out, verdict, query) -> str | None:
    if out.verdict != verdict or out.query != query:
        return (f"expected {verdict} with query {query}, "
                f"got {out.verdict} with query {out.query}")
    return None


def judge_g2(rows, out, size) -> str | None:
    return _expect(out, "Unrealizable", "unsat")


def judge_max2(rows, out, size) -> str | None:
    wrong = _expect(out, "Realizable", "sat")
    if wrong:
        return wrong
    outputs = [(out.witness or {}).get(f"o{j + 1}") for j in range(len(rows))]
    if not all(o is not None and max2_spec(o, x, y)
               for o, (x, y) in zip(outputs, rows)):
        return f"returned outputs {outputs} violate the spec on {list(rows)}"
    return None


def judge_gconst(seed, out, rounds) -> str | None:
    got = (out.verdict, out.reason, out.iterations)
    if got != ("Unknown", "max-rounds", rounds):
        return f"expected ('Unknown', 'max-rounds', {rounds}), got {got}"
    return None


# --- pools -------------------------------------------------------------------

def draw_g2(rng, d):
    pool = []
    while len(pool) < POOL_SIZE:
        rows = tuple((x,) for x in rng.sample(range(-20, 21), d))
        if g2_refutable(rows):
            pool.append(rows)
    return pool


def draw_max2(rng, d):
    """Random pairs, each instance followed by its mirror (x and y swapped).

    ``decide`` tries the branches of ``f = x or f = y`` in a fixed order, so
    an instance costs more the more of its examples have x < y; a mirrored
    pair costs about the same whatever the draw, and a run checks the two
    back to back (``group=2``)."""
    pool = []
    while len(pool) < POOL_SIZE:
        rows = tuple((rng.randint(-20, 20), rng.randint(-20, 20))
                     for _ in range(d))
        for inst in (rows, tuple((y, x) for x, y in rows)):
            if not all(max2_spec(max2_witness(x, y), x, y) for x, y in inst):
                raise ValueError(f"max2 witness fails on {inst}")
            pool.append(inst)
    return pool


def draw_gconst(rng, rounds):
    return rng.sample(range(2 ** 31), POOL_SIZE)


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str       # problem file, relative to the checkout root
    size: int          # examples per instance, or the CEGIS round cap
    draw: Callable[[random.Random, int], list]
    judge: Callable[[Any, Outcome, int], "str | None"]
    loop: bool = False  # instances are CEGIS seeds, not example rows
    group: int = 1      # pool entries that are always checked back to back

    def load(self):
        return parse_problem((ROOT / self.problem).read_text())

    def pool(self) -> list:
        return self.draw(random.Random(POOL_SEED), self.size)

    def order(self, seed, count) -> list:
        """``count`` instances: the pool's groups shuffled by ``seed``,
        reshuffled on every pass."""
        pool, rng, out = self.pool(), random.Random(seed), []
        groups = [pool[i:i + self.group]
                  for i in range(0, len(pool), self.group)]
        while len(out) < count:
            for g in rng.sample(groups, len(groups)):
                out.extend(g)
        return out[:count]

    def run(self, problem, inst) -> Outcome:
        if self.loop:
            return cegis_loop(problem, inst, self.size)
        return check_examples(problem, inst)

    def prefixes(self, inst) -> list:
        """The scaling curve's inputs: every example prefix of ``inst``.  A
        CEGIS instance is its own curve, one point per round."""
        return [inst] if self.loop else [inst[:k] for k in
                                         range(1, len(inst) + 1)]

    @staticmethod
    def key(inst) -> str:
        return _canonical(inst)


# Sizes: with 6 examples (16 rounds) one check takes about a second on a
# 2-vCPU machine, so a 35-second run gathers 20 to 80 verdicts and the
# tail percentile has ten beyond it; each caller's share of the ILP time is
# what it is at 7 examples (20 rounds).
WORKLOADS = {w.name: w for w in (
    # g2's guards compare integer nonterminals, so the LessThan fixpoint
    # tries every guard pattern of every pair of components: nearly all ILP
    # calls come from booldom, and logic.decide makes a handful.  Judges the
    # LP-pruned prefix search for LessThan (ROADMAP item 2) and ILP
    # memoisation on many small systems (item 2's smaller wins).
    Workload("lessthan-g2",
             "tests/problems/g2.sy", 6, draw_g2, judge_g2),
    # One `or` per example puts 2^d branches into the query and decide
    # tries them one by one; LessThan's calls are settled by presolve.
    # Judges the lazy DNF split in decide (ROADMAP item 2).
    Workload("dnf-max2",
             "perfbench/problems/max2.sy", 6, draw_max2, judge_max2,
             group=2),
    # Each round adds a counterexample, so the ILP sees a few systems that
    # grow, not many small ones; the run also does each round's
    # normalisation, synthesis and verification.  Judges integer pivoting
    # (ROADMAP item 3) and compile-once (item 4).
    Workload("cegis-gconst",
             "tests/problems/gconst.sy", 16, draw_gconst, judge_gconst,
             loop=True),
)}
