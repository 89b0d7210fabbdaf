"""One workload run in a fresh interpreter; started by run.py.

    python3 perfbench/measure.py --workload NAME --seed N --seconds S --trace 0|1
                                 [--setup-only] [--ops N]

Imports posetlab from the checkout's src/, builds the workload's op list
and oracle answers from the seed, then runs whole passes over the op list,
one op at a time (a closed loop with one client), until the next pass would
end after S seconds; there is always at least one pass.  Every op is timed
from submission to a checked verdict, and reported at reference speed
(REF_S below).

--trace 1 runs untraced passes for the first half of the time and traced
passes for the second half, and reports per-layer metrics plus the
tracing overhead.  --setup-only stops after building the inputs (run.py
times that for setup_s).  --ops N keeps only the first N ops (self-test).

The last line of stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# reference_s() on the machine the benchmark was tuned on (a 2-vCPU Intel
# Xeon VM, CPython 3.11) when that machine is quiet.  Its speed swings by up
# to 2x over tens of seconds, so every timing is rescaled to that quiet
# speed: wall time * REF_S / (reference_s() readings around it).
REF_S = 120e-6


def _import_posetlab():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import posetlab
    except ImportError as exc:
        sys.exit(f"measure.py: cannot import posetlab from {ROOT / 'src'}: {exc}")
    if Path(posetlab.__file__).resolve().parent != ROOT / "src" / "posetlab":
        sys.exit(f"measure.py: posetlab was imported from {posetlab.__file__}, "
                 f"not from this checkout")


def run_op(op, text, P, make_rng):
    """Run one op (parsing the group's poset first when P is None).

    Returns (P, ok).  A wrong answer or an unexpected exception is a failed
    op, never an aborted run; raising the expected exception is a success.
    """
    from posetlab import poset

    try:
        if P is None:
            P = poset.from_json(text)
        got = op.call(P, make_rng)
    except Exception as exc:  # the verdict is judged, the run goes on
        return P, isinstance(op.expect, type) and isinstance(exc, op.expect)
    if isinstance(op.expect, type):
        return P, False  # the expected exception was not raised
    try:
        return P, bool(op.check(got, op.expect))
    except Exception:
        return P, False


def reference_s(tries=2):
    """Time of a fixed pure-Python loop that uses no posetlab code (best of
    `tries`): a reading of how fast this machine runs Python right now."""
    best = None
    for _ in range(tries):
        t0 = perf_counter()
        d = {}
        for i in range(1000):
            d[i % 97] = d.get(i % 97, 0) + i * 3
        t = perf_counter() - t0
        best = t if best is None else min(best, t)
    return best


def run_pass(workload, make_rng, rec=None):
    """One pass over the op list.

    Returns (latencies, wall, failed): each op's latency at reference speed,
    its wall-clock latency, and the number of failed ops.  reference_s() is
    read between consecutive ops, outside their timings; each wall time is
    scaled by REF_S over the median of the three readings before the op and
    the three after it, which smooths the readings' own jitter.
    """
    wall, failed = [], 0
    refs = [reference_s()]
    for group in workload.groups:
        P = None
        for op in group.ops:
            t0 = perf_counter()
            if rec is None:
                P, ok = run_op(op, group.text, P, make_rng)
            else:
                with rec.op(op.kind):
                    P, ok = run_op(op, group.text, P, make_rng)
            wall.append(perf_counter() - t0)
            refs.append(reference_s())
            failed += not ok
    latencies = [dt * REF_S / statistics.median(refs[max(0, k - 2):k + 4])
                 for k, dt in enumerate(wall)]
    return latencies, wall, failed


def run_passes(workload, seconds, make_rng, rec=None):
    """Whole passes until the next one would overrun `seconds` of wall
    time (at least one)."""
    passes = []
    start = perf_counter()
    while not passes or ((perf_counter() - start) * (len(passes) + 1)
                         / len(passes)) <= seconds:
        passes.append(run_pass(workload, make_rng, rec))
    return passes


def _per_op(passes, which):
    """Each op's median latency over the passes (every pass runs the same
    ops in the same order), so a slow moment in one pass counts once."""
    return [statistics.median(t) for t in zip(*(p[which] for p in passes))]


def _throughput(passes, which=0):
    """Ops per second over the op list, from each op's median latency."""
    per_op = _per_op(passes, which)
    return len(per_op) / sum(per_op)


def _percentiles(per_op):
    q = statistics.quantiles(per_op, n=100, method="inclusive")
    return q[49], q[94]


def end_to_end(passes):
    """ops_per_s and the latency percentiles come from each op's median
    latency over the passes; every workload has at least 200 ops, so at
    least ten lie beyond the 95th percentile."""
    per_op = _per_op(passes, 0)
    p50, p95 = _percentiles(per_op)
    wall_p50, wall_p95 = _percentiles(_per_op(passes, 1))
    metrics = {
        "ops_per_s": _throughput(passes),
        "op_p50_ms": p50 * 1e3,
        "op_p95_ms": p95 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"percentile_ops": len(per_op),
            "ops_above_p95": sum(x > p95 for x in per_op),
            "wall_ops_per_s": _throughput(passes, 1),
            "wall_op_p50_ms": wall_p50 * 1e3, "wall_op_p95_ms": wall_p95 * 1e3}
    return metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--ops", type=int, default=None)
    args = parser.parse_args(argv)

    ref = reference_s(tries=10)
    start = perf_counter()
    _import_posetlab()
    import spans
    import workloads

    wl = workloads.build(args.workload, args.seed)
    if args.ops is not None:
        wl.truncate(args.ops)
    ops = wl.ops()
    out = {"digest": wl.digest(), "ops_per_pass": len(ops),
           "negative_frac": sum(op.negative for op in ops) / len(ops)}
    if args.setup_only:
        # import and input generation, and the reference speed around them
        out["setup_in_process_s"] = perf_counter() - start
        out["setup_reference_s"] = (ref + reference_s(tries=10)) / 2
        print(json.dumps(out))
        return

    untraced_s = args.seconds / 2 if args.trace else args.seconds
    passes = run_passes(wl, untraced_s, lambda seed: seed)
    if args.trace:
        rec = spans.Recorder()
        with spans.instrumented(rec):
            traced = run_passes(wl, args.seconds / 2, spans.CountingRandom, rec)
        metrics = rec.metrics(len(traced))
        metrics["trace_overhead_frac"] = 1 - _throughput(traced) / _throughput(passes)
        rec.dump(ROOT / ".perfbench" / f"spans-{args.workload}.json",
                 {"workload": args.workload, "seed": args.seed,
                  "digest": out["digest"], "passes": len(traced)})
        out["spans"] = len(rec.span_name) + rec.dropped
        passes += traced
    else:
        metrics, info = end_to_end(passes)
        out.update(info)
    out.update(passes=len(passes),
               attempted=sum(len(lat) for lat, _, _ in passes),
               failed=sum(f for _, _, f in passes),
               metrics=metrics)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
