"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py

Very small runs of every workload through run.py check that every metric
BENCHMARK.json names is emitted with its unit, that no op fails, and that
the traced run reports exactly the per-layer metrics listed there.  In
process, a planted wrong oracle answer and an unexpected exception must each
count as one failed op without stopping the pass, and tracing must leave
every rebound function as it found it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from posetlab import (constructions, flags, homology, linalg,  # noqa: E402
                      ncpoly, sheaves)
from posetlab.ncpoly import NcPoly  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--ops", "12"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", NAMES)
def test_small_run_emits_every_metric(workload):
    res = _run(workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 12
    assert _units(res) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())

    traced = _run(workload, 1)
    assert traced["correct"] and traced["failed"] == 0
    assert _units(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_workload_lists_agree():
    assert list(run.WORKLOADS) == NAMES == list(workloads.BUILDERS)


def test_per_layer_list_covers_every_layer():
    names = {m["name"] for m in SPEC["per_layer"]}
    for layer in spans.LAYERS:
        assert {f"{layer}.calls", f"{layer}.self_s"} <= names


def test_same_seed_same_inputs():
    digest = workloads.build("certify", 3).digest()
    assert workloads.build("certify", 3).digest() == digest
    assert workloads.build("certify", 4).digest() != digest


def _wrong(expect):
    if isinstance(expect, type):
        return ZeroDivisionError
    if isinstance(expect, NcPoly):
        return expect + NcPoly(expect.alphabet, {next(iter(expect.terms)): 1})
    if isinstance(expect, frozenset):
        return expect | {-1}
    if isinstance(expect, bool):
        return not expect
    return expect + 1


@pytest.mark.parametrize("workload", NAMES)
def test_planted_wrong_answer_counts_as_failed(workload):
    wl = workloads.build(workload, 7)
    wl.truncate(3)
    first = wl.groups[0].ops[0]
    assert measure.run_pass(wl, lambda seed: seed)[2] == 0

    first.expect = _wrong(first.expect)
    _, latencies, failed = measure.run_pass(wl, lambda seed: seed)
    assert (len(latencies), failed) == (3, 1)


def test_unexpected_exception_counts_as_failed():
    wl = workloads.build("flag_index", 7)
    wl.truncate(3)

    def broken(P, make_rng):
        raise RuntimeError("planted")

    wl.groups[0].ops[0].call = broken
    _, latencies, failed = measure.run_pass(wl, lambda seed: seed)
    assert (len(latencies), failed) == (3, 1)


def test_tracing_records_spans_and_restores_functions():
    before = (homology.sparse_rank, sheaves.solve_in_span, linalg.sparse_rank,
              ncpoly.NcPoly.__mul__, flags.cd_index)
    rec = spans.Recorder()
    with spans.instrumented(rec):
        assert homology.sparse_rank is linalg.sparse_rank is not before[0]
        assert sheaves.solve_in_span is linalg.solve_in_span is not before[1]
        with rec.op("cd_index"):
            flags.cd_index(constructions.polygon(5))
    assert (homology.sparse_rank, sheaves.solve_in_span, linalg.sparse_rank,
            ncpoly.NcPoly.__mul__, flags.cd_index) == before

    calls = dict(zip(spans.LAYERS, rec.calls))
    assert calls["flags.cd_index"] == 1 and calls["ncpoly.NcPoly.__mul__"] > 0
    assert rec.span_name[0] == rec.names.index("op:cd_index")
    assert rec.span_parent[0] == -1
    assert all(0 <= p < i for i, p in enumerate(rec.span_parent) if i)
    assert all(s <= e for s, e in zip(rec.span_start, rec.span_end))
