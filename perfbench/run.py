"""posetlab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; posetlab is imported from its src/.  The
workloads (see BENCHMARK.json and workloads.py) are certify, decompose,
sheaf_sweep and flag_index.

--trace 0 first times SETUPS fresh interpreters that only import posetlab
and build the seeded inputs and oracle answers (setup_s is their median),
then runs the workload in one more fresh interpreter (measure.py) for S
seconds.  --trace 1 skips the set-up timing and reports the per-layer
metrics of a traced run instead.  Every run checks each answer.

Times are reported at reference speed (see measure.REF_S): a wall time is
rescaled by a fixed pure-Python loop timed in the same process just before
and after it, so that a shared machine's changing speed cancels out.  For
setup_s that rescales the import and input generation; starting and
stopping the interpreter around them is added as wall time.

The second-to-last line of stdout describes the run: the hash of the
generated op list (equal for equal seeds), the share of ops whose correct
verdict is negative, the number of ops the percentiles are taken over,
and the same figures in wall-clock time before rescaling.  The last line is
{"correct", "attempted", "failed", "metrics"}; "failed" / "attempted" is
the share of ops whose answer disagreed with the oracle or raised an
unexpected exception.  Exits non-zero without a result line when a child
fails, for example when the checkout has no posetlab sources.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from measure import REF_S
from spans import METRIC_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "decompose", "sheaf_sweep", "flag_index")
SETUPS = 5
DEADLINE_S = 170.0
UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p95_ms": "ms",
         "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(Exception):
    pass


def _child(args, extra, timeout):
    """Run measure.py in a fresh interpreter; returns (seconds, result)."""
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    if args.ops is not None:
        cmd += ["--ops", str(args.ops)]
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=max(timeout, 1.0), text=True)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"measure.py timed out after {exc.timeout:.0f} s") from exc
    elapsed = perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"measure.py exited with code {proc.returncode}")
    return elapsed, json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--ops", type=int, default=None,
                        help="run only the first N ops (self-test)")
    args = parser.parse_args(argv)

    start = perf_counter()
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUPS):
                setups.append(_child(args, ["--setup-only"],
                                     DEADLINE_S - (perf_counter() - start)))
        _, res = _child(args, [], DEADLINE_S - (perf_counter() - start))
    except ChildFailed as exc:
        sys.exit(f"run.py: {exc}")

    digests = {res.pop("digest")} | {out["digest"] for _, out in setups}
    same_inputs = len(digests) == 1  # every interpreter built the same op list
    metrics = res.pop("metrics")
    if setups:
        metrics["setup_s"] = statistics.median(
            wall - out["setup_in_process_s"]
            + out["setup_in_process_s"] * REF_S / out["setup_reference_s"]
            for wall, out in setups)
        res["wall_setup_s"] = statistics.median(wall for wall, _ in setups)
    units = METRIC_UNITS if args.trace else UNITS
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "digest": min(digests) if same_inputs else sorted(digests),
                      **res}))
    print(json.dumps({
        "correct": res["failed"] == 0 and same_inputs,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))


if __name__ == "__main__":
    main()
