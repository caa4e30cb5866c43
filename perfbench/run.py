"""Benchmark of the unrealizability checker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It drives the library in ``src/`` in this
process, on one thread, as a closed loop: one caller, and the next check
starts only after the previous verdict.  The workloads, their inputs and
their known answers are in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics of an untraced run: wall-clock
times as measured, and ``setup_s`` as the median of a few fresh
interpreters that import the checker, parse the problem and draw the
instances.  Every verdict is compared with the instance's known answer and
its digest with ``baseline.json``.
``--trace 1`` runs untraced for half of ``--seconds``, then checks the same
instances again under the per-layer tracer (``tracer.py``) and reports the
per-layer metrics, the share of wall time the spans cover and the tracing
overhead.  It also prints the per-layer counts, which are deterministic, at
every example-set size of the run's first instance (every round, for a
CEGIS workload): the scaling curves.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit); the
lines before it are for people.

    python3 perfbench/run.py --write-baseline

checks every pool instance of every workload and rewrites ``baseline.json``
with their verdict digests.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
SETUP_PROBES = 5
ORDER_LENGTH = 2000  # more instances than any run can check
TAIL_BEYOND = 10     # samples the reported tail percentile leaves above it


@dataclass
class Sample:
    inst: object
    outcome: object  # workloads.Outcome, or None when the check raised
    failure: str | None
    seconds: float


def _load_modules():
    """Import the checker from this checkout's ``src/``, never from
    anywhere else, and the benchmark modules that use it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import unrealizer
        import tracer
        import workloads
    except ImportError as e:
        raise SystemExit(f"error: cannot import the checker from {src}: {e}")
    if not Path(unrealizer.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported {unrealizer.__file__}, "
                         f"not the checker in {src}")
    return workloads, tracer


def _setup(workloads, name, seed):
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[name]
    try:
        problem = w.load()
    except OSError as e:
        raise SystemExit(f"error: cannot read {w.problem}: {e}")
    return w, problem, w.order(seed, ORDER_LENGTH)


def _measure_setup(name, seed):
    """Median time from starting a fresh interpreter until it has imported
    the checker, parsed the problem and generated the instances."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--setup-only"]
    spans = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()  # CLOCK_MONOTONIC, shared with the child
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        words = done.stdout.split()
        if done.returncode != 0 or len(words) != 2 or words[0] != "ready":
            raise SystemExit("error: set-up probe failed: "
                             + done.stderr.strip())
        spans.append(float(words[1]) - start)
    return statistics.median(spans)


def _check(w, problem, instances, seconds=None, tr=None):
    """Check ``instances`` in order, stopping once ``seconds`` have passed
    (after all of them when None).  Returns the samples and the wall time."""
    samples = []
    start = time.perf_counter()
    for inst in instances:
        if tr is not None:
            tr.next_check()
        t0 = time.perf_counter()
        try:
            out = w.run(problem, inst)
        except Exception as e:  # a crash is one failed check, not the end
            out, failure = None, f"{type(e).__name__}: {e}"
        spent = time.perf_counter() - t0
        if out is not None:
            failure = w.judge(inst, out, w.size)
        samples.append(Sample(inst, out, failure, spent))
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return samples, time.perf_counter() - start


def _digests(w, samples):
    """(checked, matching): samples whose instance has a digest in the
    baseline, and how many of those equal it."""
    baseline = json.loads(BASELINE.read_text()).get(w.name, {})
    checked = matching = 0
    for s in samples:
        want = baseline.get(w.key(s.inst))
        if want is not None and s.outcome is not None:
            checked += 1
            matching += s.outcome.digest == want
    return checked, matching


def _tail(times):
    """The highest percentile with TAIL_BEYOND samples above it, as
    (value, percentile)."""
    ordered = sorted(times)
    i = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def _end_to_end(samples, wall, setup_s):
    times = [s.seconds for s in samples]
    tail, pct = _tail(times)
    print(f"# verdict_s.tail is p{pct:.1f} of {len(times)} samples")
    good = sum(s.failure is None for s in samples)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "checks_per_s": (len(samples) / wall, "1/s"),
        "verdict_s.p50": (statistics.median(times), "s"),
        "verdict_s.tail": (tail, "s"),
        "correct_ratio": (good / len(samples), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }


def _scaling(w, problem, inst, tracer):
    """Per-layer counts at every prefix size of ``inst``, or at every CEGIS
    round of it."""
    points = []
    for part in w.prefixes(inst):
        with tracer.Tracer(mark="cegis.check" if w.loop else None) as tr:
            w.run(problem, part)
        if not w.loop:
            points.append({"d": len(part), **tr.counts()})
            continue
        cuts = tr.marks + [tr.counts()]
        for r in range(1, len(cuts)):
            points.append({"round": r, **{
                k: v - cuts[r - 1].get(k, 0) for k, v in cuts[r].items()}})
    return points


def _per_layer(w, problem, order, seconds, tracer):
    plain, plain_wall = _check(w, problem, order, seconds / 2)
    with tracer.Tracer() as tr:
        traced, traced_wall = _check(w, problem, [s.inst for s in plain],
                                     tr=tr)
    metrics = tr.metrics(len(traced), traced_wall)
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    for point in _scaling(w, problem, order[0], tracer):
        print("# scaling " + json.dumps(point, sort_keys=True))
    return plain + traced, metrics


def _write_baseline(workloads):
    out = {}
    for w in workloads.WORKLOADS.values():
        problem = w.load()
        samples, wall = _check(w, problem, w.pool())
        bad = [s for s in samples if s.failure is not None]
        if bad:
            raise SystemExit(f"error: {w.name} {w.key(bad[0].inst)}: "
                             f"{bad[0].failure}")
        out[w.name] = {w.key(s.inst): s.outcome.digest for s in samples}
        q = statistics.quantiles([s.seconds for s in samples], n=4)
        print(f"{w.name}: {len(samples)} instances in {wall:.1f} s, "
              f"quartiles {q[0]:.3f} {q[1]:.3f} {q[2]:.3f} s")
    BASELINE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    workloads, tracer = _load_modules()
    if args.write_baseline:
        _write_baseline(workloads)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    w, problem, order = _setup(workloads, args.workload, args.seed)
    if args.setup_only:
        print(f"ready {time.monotonic()!r}", flush=True)
        return 0

    if args.trace:
        samples, metrics = _per_layer(w, problem, order, args.seconds, tracer)
    else:
        setup_s = _measure_setup(args.workload, args.seed)
        samples, wall = _check(w, problem, order, args.seconds)
        metrics = _end_to_end(samples, wall, setup_s)
        if len(samples) > workloads.POOL_SIZE:
            print(f"# WARNING: {len(samples)} checks outran the pool of "
                  f"{workloads.POOL_SIZE}, so instances repeated")
    checked, matching = _digests(w, samples)
    print(f"# verdict digests: {checked - matching} of {checked} differ "
          f"from {BASELINE.relative_to(ROOT)}")
    if args.trace:
        metrics["verdict.digest_match_ratio"] = (
            matching / checked if checked else 0.0, "ratio")
    failures = [s for s in samples if s.failure is not None]
    for s in failures[:5]:
        print(f"# FAILED {w.key(s.inst)}: {s.failure}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:28s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
