"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from unrealizer import clia, gfa, newton  # noqa: E402

WORKLOADS = workloads.WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_instances_are_deterministic_for_a_seed(name):
    w = WORKLOADS[name]
    assert w.pool() == w.pool()
    assert len(w.pool()) == workloads.POOL_SIZE
    n = workloads.POOL_SIZE
    assert w.order(7, 2 * n) == w.order(7, 2 * n)
    assert w.order(7, n) != w.order(8, n)
    # each pass checks every pool instance once
    first, second = w.order(7, 2 * n)[:n], w.order(7, 2 * n)[n:]
    for one_pass in (first, second):
        assert sorted(map(w.key, one_pass)) == sorted(map(w.key, w.pool()))


def test_pools_have_independently_known_answers():
    for rows in WORKLOADS["lessthan-g2"].pool():
        assert len(rows) == 6 and workloads.g2_refutable(rows)
    assert not workloads.g2_refutable(((1,), (-2,)))
    for rows in WORKLOADS["dnf-max2"].pool():
        for x, y in rows:
            assert workloads.max2_spec(workloads.max2_witness(x, y), x, y)
    # a run checks each max2 instance next to its mirror
    order = WORKLOADS["dnf-max2"].order(3, 40)
    for a, b in zip(order[::2], order[1::2]):
        assert b == tuple((y, x) for x, y in a)


def _outcome(name, inst):
    w = WORKLOADS[name]
    out = w.run(w.load(), inst)
    assert w.judge(inst, out, w.size) is None
    return w, out


def test_answer_check_rejects_planted_wrong_verdicts():
    rows = ((3,), (-4,))
    w, out = _outcome("lessthan-g2", rows)
    for planted in (dataclasses.replace(out, verdict="Realizable"),
                    dataclasses.replace(out, query="sat"),
                    dataclasses.replace(out, verdict="Unknown")):
        assert w.judge(rows, planted, w.size) is not None

    rows = ((3, 1), (-2, 5))
    w, out = _outcome("dnf-max2", rows)
    assert out.witness["o1"] == 3 and out.witness["o2"] == 5
    for planted in (dataclasses.replace(out, verdict="Unrealizable"),
                    dataclasses.replace(out, witness={**out.witness, "o2": -2}),
                    dataclasses.replace(out, witness={"o1": 3})):
        assert w.judge(rows, planted, w.size) is not None

    w = WORKLOADS["cegis-gconst"]
    out = workloads.cegis_loop(w.load(), 5, 2)
    assert w.judge(5, out, 2) is None
    for planted in (dataclasses.replace(out, reason="budget"),
                    dataclasses.replace(out, iterations=1),
                    dataclasses.replace(out, verdict="Unrealizable")):
        assert w.judge(5, planted, 2) is not None


def _bindings():
    """Every binding a tracer may replace: module globals and class attributes
    of the package."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == tracer.PACKAGE:
            for k, v in vars(mod).items():
                out[(modname, k)] = v
    for _, owner, attr in tracer.TARGETS:
        if isinstance(owner, type):
            out[(owner.__qualname__, attr)] = owner.__dict__[attr]
    return out


def test_traced_run_restores_every_wrapped_attribute():
    before = _bindings()
    w = WORKLOADS["lessthan-g2"]
    with tracer.Tracer() as tr:
        # from-imported names are wrapped in the importing module too
        assert clia.npa_solve is not before[("unrealizer.newton", "npa_solve")]
        assert clia.npa_solve.__wrapped__ is newton.npa_solve.__wrapped__
        assert clia.stratify.__wrapped__ is gfa.stratify.__wrapped__
        w.run(w.load(), ((3,), (-4,)))
    assert _bindings() == before
    assert tr.calls["newton"] > 0 and tr.ilp_by_calls["booldom"] > 0

    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert _bindings() == before


def test_self_times_add_up_to_the_wrapped_wall_time():
    w = WORKLOADS["dnf-max2"]
    problem = w.load()
    with tracer.Tracer() as tr:
        samples, wall = run._check(w, problem, [((1, 2), (4, 3), (0, 0))],
                                   tr=tr)
    m = tr.metrics(len(samples), wall)
    assert 0.9 <= m["trace.covered_ratio"][0] <= 1.0
    assert m["ilp.by.logic.calls"][0] >= 1
    assert tr.calls["cegis.check"] == 1


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {x["name"] for x in spec["workloads"]} == set(WORKLOADS)
    sample = run.Sample(None, None, None, 0.5)
    end_to_end = run._end_to_end([sample] * 3, 1.5, 0.2)
    per_layer = tracer.Tracer().metrics(1, 1.0)
    for name in ("trace.overhead_ratio", "verdict.digest_match_ratio"):
        per_layer[name] = (1.0, "ratio")
    for kind, reported in (("end_to_end", end_to_end),
                           ("per_layer", per_layer)):
        assert ([(x["name"], x["unit"]) for x in spec[kind]]
                == [(name, unit) for name, (_, unit) in reported.items()])


def test_baseline_covers_every_pool_instance():
    baseline = json.loads(run.BASELINE.read_text())
    for name, w in WORKLOADS.items():
        assert set(baseline[name]) == set(map(w.key, w.pool()))
