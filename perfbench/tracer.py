"""Per-layer spans around the library, patched in from outside it.

`Tracer` replaces the entry point of each layer with a wrapper that records
calls and self time (time not covered by a wrapped callee), and credits
every `Solver.feasible` call to the nearest wrapped caller.  A function
that a module imports with ``from ... import`` is bound in that module's
own namespace too (``clia`` takes ``npa_solve``, ``stratify``, ``rem_if``
and more that way), so the wrapper replaces every binding of the function
object in the package.  Leaving the ``with`` block restores them all.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from unrealizer import (
    booldom, cegis, clia, frontend, gfa, grammar, ilp, logic, newton,
    rewrite, synth,
)

PACKAGE = "unrealizer"

# (layer, owner, attribute).  The layer's first dotted part names the caller
# in the ilp.by.<caller> counters.
TARGETS = (
    ("frontend", frontend, "parse_problem"),
    ("frontend", frontend, "specialize"),
    ("grammar", grammar, "expand_nary"),
    ("grammar", grammar, "check"),
    ("rewrite", rewrite, "to_plus_form"),
    ("rewrite", rewrite, "rem_if"),
    ("gfa", gfa, "build_equations"),
    ("gfa", gfa, "stratify"),
    ("gfa", gfa, "restrict"),
    ("gfa", gfa, "substitute"),
    ("newton", newton, "npa_solve"),
    ("clia", clia, "solve"),
    ("clia", clia, "solve_mutual"),
    ("clia", clia, "expand_ite"),
    ("clia.bool", clia, "solve_bool"),
    ("booldom.lt", booldom.LessThanCache, "abs_less_than"),
    ("logic.query", logic, "build_query"),
    ("logic.decide", logic, "decide"),
    ("ilp", ilp.Solver, "feasible"),
    ("synth", synth, "enumerate_solve"),
    ("synth.verify", synth, "verify"),
    ("cegis", cegis, "run_cegis"),
    ("cegis.check", cegis, "check_unrealizable"),
)


class Tracer:
    """Counts and self times per layer while the ``with`` block runs.

    Call `next_check` before each instance: the distinct-input ratios are
    taken within one instance, since instances share no work.  ``mark`` names
    a layer whose every entry appends a copy of `counts()` to ``marks``.
    """

    def __init__(self, mark: str | None = None):
        self.mark = mark
        self.marks: list[dict] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.ilp_by_calls: Counter = Counter()
        self.ilp_by_s: Counter = Counter()
        self.tally = Counter()  # ILP nodes, sat, distinct; LessThan distinct
        self.ilp_vars_max = 0
        self.ilp_rows_max = 0
        self.mutual_iterations = 0
        self.terms_built = 0
        self._systems: set = set()
        self._lt_pairs: set = set()
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    # --- patching ------------------------------------------------------------

    def __enter__(self):
        for layer, owner, attr in TARGETS:
            if isinstance(owner, type):
                fn = owner.__dict__[attr]
                sites = [owner]
            else:
                fn = getattr(owner, attr)
                sites = [m for name, m in list(sys.modules.items())
                         if name == PACKAGE or name.startswith(PACKAGE + ".")]
            wrapper = self._wrap(layer, attr, fn)
            for site in sites:
                for name, value in list(vars(site).items()):
                    if value is fn:
                        self._saved.append((site, name, fn))
                        setattr(site, name, wrapper)
        return self

    def __exit__(self, *exc):
        self.next_check()
        while self._saved:
            site, name, fn = self._saved.pop()
            setattr(site, name, fn)
        return False

    def _wrap(self, layer, attr, fn):
        stack = self._stack
        after = {"feasible": self._after_ilp,
                 "abs_less_than": self._after_lt,
                 "solve_mutual": self._after_mutual,
                 "enumerate_solve": self._after_synth}.get(attr)

        def wrapper(*args, **kwargs):
            if layer == self.mark:
                self.marks.append(self.counts())
            caller = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - t0
                stack.pop()
                if caller is not None:
                    caller[1] += spent
                self.calls[layer] += 1
                self.self_s[layer] += spent - frame[1]
            if after is not None:
                after(caller[0] if caller else "", args, result, spent)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- per-layer extras ----------------------------------------------------

    def _after_ilp(self, caller, args, res, spent):
        by = caller.split(".")[0] or "none"
        self.ilp_by_calls[by] += 1
        self.ilp_by_s[by] += spent
        self.tally["nodes"] += res.nodes
        self.tally["sat"] += res.status == "sat"
        system = args[1]
        self._systems.add(system)
        self.ilp_vars_max = max(self.ilp_vars_max, len(system.variables))
        self.ilp_rows_max = max(self.ilp_rows_max, len(system.constraints))

    def _after_lt(self, caller, args, res, spent):
        self._lt_pairs.add((args[1], args[2]))

    def _after_mutual(self, caller, args, res, spent):
        self.mutual_iterations += res.outer_iterations

    def _after_synth(self, caller, args, res, spent):
        self.terms_built += res.terms_built

    def next_check(self):
        self.tally["distinct"] += len(self._systems)
        self.tally["lt_distinct"] += len(self._lt_pairs)
        self._systems.clear()
        self._lt_pairs.clear()

    # --- reports -------------------------------------------------------------

    def counts(self) -> dict:
        """Every deterministic count so far: calls per layer, ILP calls per
        caller, branch-and-bound nodes."""
        out = {f"{layer}.calls": n for layer, n in sorted(self.calls.items())}
        out.update({f"ilp.by.{by}.calls": n
                    for by, n in sorted(self.ilp_by_calls.items())})
        out["ilp.nodes"] = self.tally["nodes"]
        return out

    def metrics(self, checks: int, wall_s: float) -> dict:
        """The per-layer metrics over ``checks`` instances that took
        ``wall_s`` seconds of traced wall time, as name -> (value, unit).

        Each group names the ROADMAP item it is meant to judge and the
        workload whose end-to-end numbers it should move."""
        per = 1.0 / checks
        calls, self_s = self.calls, self.self_s
        lt_calls, ilp_calls = calls["booldom.lt"], calls["ilp"]

        def count(n, unit="calls/check"):
            return (n * per, unit)

        def seconds(layer):
            return (self_s[layer] * per, "s/check")

        def share(part, whole):
            return (part / whole if whole else 1.0, "ratio")

        return {
            # Item 2, LP-pruned prefix search in LessThan: checks_per_s on
            # lessthan-g2; no change on dnf-max2 or cegis-gconst.
            "booldom.lt.calls": count(lt_calls),
            "booldom.lt.self_s": seconds("booldom.lt"),
            "booldom.lt.distinct_ratio": share(self.tally["lt_distinct"],
                                               lt_calls),
            "ilp.by.booldom.calls": count(self.ilp_by_calls["booldom"]),
            "ilp.by.booldom.s": count(self.ilp_by_s["booldom"], "s/check"),
            # Item 2, lazy DNF split in decide: verdict_s.p50 on dnf-max2;
            # no change on lessthan-g2, little on cegis-gconst.
            "logic.decide.calls": count(calls["logic.decide"]),
            "logic.decide.self_s": seconds("logic.decide"),
            "logic.query.self_s": seconds("logic.query"),
            "ilp.by.logic.calls": count(self.ilp_by_calls["logic"]),
            "ilp.by.logic.s": count(self.ilp_by_s["logic"], "s/check"),
            # Item 3, integer pivoting: checks_per_s on cegis-gconst most,
            # per-call overhead on lessthan-g2; item 2's memoised feasible:
            # lessthan-g2 only.
            "ilp.calls": count(ilp_calls),
            "ilp.self_s": seconds("ilp"),
            "ilp.nodes": count(self.tally["nodes"], "nodes/check"),
            "ilp.sat_ratio": share(self.tally["sat"], ilp_calls),
            "ilp.distinct_ratio": share(self.tally["distinct"], ilp_calls),
            "ilp.vars.max": (self.ilp_vars_max, "count"),
            "ilp.rows.max": (self.ilp_rows_max, "count"),
            # Item 2, Newton early stop: a little on cegis-gconst and
            # lessthan-g2.
            "newton.calls": count(calls["newton"]),
            "newton.self_s": seconds("newton"),
            "ilp.by.newton.calls": count(self.ilp_by_calls["newton"]),
            "ilp.by.newton.s": count(self.ilp_by_s["newton"], "s/check"),
            # The Boolean/integer alternation: lessthan-g2.
            "clia.bool.calls": count(calls["clia.bool"]),
            "clia.bool.self_s": seconds("clia.bool"),
            "clia.mutual_iterations": count(self.mutual_iterations,
                                            "iters/check"),
            "clia.self_s": seconds("clia"),
            # Item 4, compile once: cegis-gconst, as a simplification with
            # no gain (under 1 % of a run today).
            "frontend.self_s": seconds("frontend"),
            "grammar.self_s": seconds("grammar"),
            "rewrite.self_s": seconds("rewrite"),
            "gfa.self_s": seconds("gfa"),
            "cegis.rounds": count(calls["cegis.check"], "rounds/check"),
            "cegis.self_s": ((self_s["cegis"] + self_s["cegis.check"]) * per,
                             "s/check"),
            # Enumeration and verification: cegis-gconst only (under 2 %).
            "synth.calls": count(calls["synth"]),
            "synth.self_s": seconds("synth"),
            "synth.terms_built": count(self.terms_built, "terms/check"),
            "synth.verify.calls": count(calls["synth.verify"]),
            "synth.verify.self_s": seconds("synth.verify"),
            # The trace itself: share of wall time inside some span.
            "trace.covered_ratio": (sum(self_s.values()) / wall_s, "ratio"),
        }
