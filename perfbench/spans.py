"""In-memory span recorder for the traced run, and the layer boundaries.

`instrumented(recorder)` rebinds each function in LAYERS to a wrapper that
records a span (name, start, end, parent span) around the call, then puts
every original back on exit.  A function imported by name into another
module (`homology.sparse_rank`, `sheaves.solve_in_span`) is rebound in each
posetlab module that holds it; a method (`NcPoly.__mul__`) is rebound on its
class.  Nothing under src/ changes.

Self time of a span is its duration minus the durations of its direct child
spans.  Calls and self time are summed per layer as the spans close; the
span records themselves are kept, up to MAX_SPANS (24 bytes each), and
written out by `dump` when the run ends.  That covers every traced pass of
a 20-second run of each workload here; a longer run drops the rest and
counts them.
"""

from __future__ import annotations

import functools
import importlib
import json
import random
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# The layer boundaries, with the end-to-end metrics each is expected to move.
LAYERS = (
    # op_p50_ms on certify and flag_index, and setup_s
    "poset.from_json",
    "poset.GradedPoset.is_eulerian",
    # ops_per_s on flag_index, a little on decompose
    "ncpoly.NcPoly.__mul__",
    "ncpoly.cd_contract",
    # ops_per_s on flag_index and decompose
    "flags.ab_index",
    "flags.cd_index",
    "flags.near_cd_index",
    "flags.lambda_nu_prime_cd",
    # op_p50_ms on decompose
    "constructions.subdivision_target_and_map",
    "constructions.collapse_map",
    # ops_per_s and op_p95_ms on certify and decompose, and peak_rss_mb;
    # nothing on flag_index or sheaf_sweep
    "homology.certify_gorenstein",
    "homology.certify_near_gorenstein",
    "homology.derive_boundary",
    "homology._subset_betti",
    # sparse_rank: certify and decompose; the Fraction routines: sheaf_sweep
    "linalg.sparse_rank",
    "linalg.solve_in_span",
    "linalg.mat_rank",
    "linalg.mat_nullspace",
    "linalg.sparse_nullspace",
    # ops_per_s on decompose
    "subdivision.decompose",
    "subdivision.is_subdivision",
    # sheaf_sweep: ops_per_s (warm op_D), op_p95_ms (cold _alpha_family and
    # _dual_poset, paid once per poset)
    "sheaves.cd_coefficient_via_CD",
    "sheaves.op_C",
    "sheaves.op_D",
    "sheaves._alpha_family",
    "sheaves._dual_poset",
    "sheaves._kernel_sheaf",
)

# name -> unit of every per-layer metric the traced run reports
METRIC_UNITS = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "linalg.sparse_rank.rows": "count",
    "linalg.sparse_rank.nnz": "count",
    "homology.subset_betti.hit_ratio": "ratio",
    "homology.cert_cache.hit_ratio": "ratio",
    "subdivision.fiber_phi.hit_ratio": "ratio",
    "sheaves.alpha_family.hit_ratio": "ratio",
    "sheaves.op_D.attempts": "count",
    "sheaves.op_D.success_ratio": "ratio",
    "trace_overhead_frac": "ratio",
}

MAX_SPANS = 1_000_000


class CountingRandom(random.Random):
    """random.Random that counts randint draws (op_D draws two per alpha_f
    per attempt); with the same seed it yields the same numbers."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def randint(self, a, b):
        self.draws += 1
        return super().randint(a, b)


class Recorder:
    def __init__(self):
        self.names = list(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.counts = dict.fromkeys(
            ("sparse_rank.rows", "sparse_rank.nnz", "subset_betti.calls",
             "subset_betti.new", "cert.calls", "cert.new", "fiber_phi.lookups",
             "fiber_phi.new", "alpha_family.calls", "alpha_family.hits",
             "op_D.attempts", "op_D.successes"), 0)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self._stack = [[-1, 0.0]]  # open spans: [span id, child time]

    def _open(self, idx):
        if len(self.span_name) < MAX_SPANS:
            sid = len(self.span_name)
            self.span_name.append(idx)
            self.span_parent.append(self._stack[-1][0])
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            sid = -1
            self.dropped += 1
        frame = [sid, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, idx, frame, t0, t1):
        self._stack.pop()
        dur = t1 - t0
        self._stack[-1][1] += dur
        if idx < len(self.calls):
            self.calls[idx] += 1
            self.self_s[idx] += dur - frame[1]
        sid = frame[0]
        if sid >= 0:
            self.span_start[sid] = t0
            self.span_end[sid] = t1

    @contextmanager
    def op(self, kind):
        """Root span of one op; the op's library spans are its children."""
        name = f"op:{kind}"
        if name not in self.names:
            self.names.append(name)
        idx = self.names.index(name)
        frame = self._open(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, frame, t0, perf_counter())

    def wrap(self, idx, fn, probe=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = probe.before(args) if probe else None
            frame = rec._open(idx)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                rec._close(idx, frame, t0, perf_counter())
                if probe:
                    probe.after(state, args, ok)

        return wrapper

    def metrics(self, passes):
        """Per-layer metrics: calls, self time and work counts per traced
        pass; ratios over the whole traced run."""
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        def hit_ratio(new, calls):
            return 1 - new / calls if calls else 0.0

        out = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = self.calls[i] / passes
            out[f"{layer}.self_s"] = self.self_s[i] / passes
        out["linalg.sparse_rank.rows"] = c["sparse_rank.rows"] / passes
        out["linalg.sparse_rank.nnz"] = c["sparse_rank.nnz"] / passes
        out["homology.subset_betti.hit_ratio"] = hit_ratio(
            c["subset_betti.new"], c["subset_betti.calls"])
        out["homology.cert_cache.hit_ratio"] = hit_ratio(c["cert.new"], c["cert.calls"])
        out["subdivision.fiber_phi.hit_ratio"] = hit_ratio(
            c["fiber_phi.new"], c["fiber_phi.lookups"])
        out["sheaves.alpha_family.hit_ratio"] = ratio(
            c["alpha_family.hits"], c["alpha_family.calls"])
        out["sheaves.op_D.attempts"] = c["op_D.attempts"] / passes
        out["sheaves.op_D.success_ratio"] = ratio(
            c["op_D.successes"], c["op_D.attempts"])
        return out

    def dump(self, path, header):
        """Write the kept spans as JSON columns (span i is entry i of each;
        "name" indexes "names", "parent" is a span index or -1), streamed
        in chunks so a long trace needs no second copy in memory."""
        head = dict(header, names=self.names, dropped=self.dropped)
        columns = (("name", self.span_name), ("parent", self.span_parent),
                   ("start", self.span_start), ("end", self.span_end))
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write(json.dumps(head)[:-1] + ', "spans": {')
            for k, (key, col) in enumerate(columns):
                f.write(f'{", " if k else ""}"{key}": [')
                step = 1 << 16
                for i in range(0, len(col), step):
                    f.write(("," if i else "") + ",".join(map(repr, col[i:i + step])))
                f.write("]")
            f.write("}}")


# -- probes: counters read at the call boundaries -----------------------------


class _CacheGrowth:
    """Counts calls and new entries in root._cache[key] (root = args[0]),
    read before and after each call: hit ratio = 1 - new / calls."""

    def __init__(self, counts, key, calls, new):
        self.counts, self.key, self.calls, self.new = counts, key, calls, new

    def _size(self, root):
        return len(root._cache.get(self.key, ()))

    def before(self, args):
        return self._size(args[0])

    def after(self, size, args, ok):
        self.counts[self.calls] += 1
        self.counts[self.new] += self._size(args[0]) - size


class _SparseRankWork:
    """Rows and nonzeros of each matrix handed to sparse_rank."""

    def __init__(self, counts):
        self.counts = counts

    def before(self, args):
        rows = args[0]
        self.counts["sparse_rank.rows"] += len(rows)
        self.counts["sparse_rank.nnz"] += sum(len(r) for r in rows)

    def after(self, state, args, ok):
        pass


class _FiberPhi:
    """decompose looks Phi up once per target element in source._cache."""

    def __init__(self, counts):
        self.counts = counts

    def before(self, args):
        return len(args[0].source._cache.get("fiber_phi", ()))

    def after(self, size, args, ok):
        if ok:
            phi = args[0]
            self.counts["fiber_phi.lookups"] += len(phi.target)
            self.counts["fiber_phi.new"] += (
                len(phi.source._cache.get("fiber_phi", ())) - size)


class _AlphaFamily:
    """_alpha_family caches its result on the sheaf it is given."""

    def __init__(self, counts):
        self.counts = counts

    def before(self, args):
        return getattr(args[0], "_alpha_family_cache", None) is not None

    def after(self, hit, args, ok):
        self.counts["alpha_family.calls"] += 1
        self.counts["alpha_family.hits"] += hit


class _OpDAttempts:
    """Attempts = draws / (2 * number of alpha_f); needs a CountingRandom."""

    def __init__(self, counts):
        self.counts = counts

    def before(self, args):
        return args[1].draws

    def after(self, draws, args, ok):
        cached = getattr(args[0], "_alpha_family_cache", None)
        family = len(cached[2]) if cached else 0
        drawn = args[1].draws - draws
        self.counts["op_D.attempts"] += drawn // (2 * family) if family else 1
        self.counts["op_D.successes"] += ok


def _probes(counts):
    return {
        "linalg.sparse_rank": _SparseRankWork(counts),
        "homology._subset_betti": _CacheGrowth(
            counts, "subset_betti", "subset_betti.calls", "subset_betti.new"),
        "homology.certify_gorenstein": _CacheGrowth(
            counts, "gor_cert", "cert.calls", "cert.new"),
        "homology.certify_near_gorenstein": _CacheGrowth(
            counts, "ngor_cert", "cert.calls", "cert.new"),
        "subdivision.decompose": _FiberPhi(counts),
        "sheaves._alpha_family": _AlphaFamily(counts),
        "sheaves.op_D": _OpDAttempts(counts),
    }


def _resolve(layer):
    """(owner, attribute, original) for 'module.func' or 'module.Class.meth'."""
    parts = layer.split(".")
    owner = importlib.import_module("posetlab." + parts[0])
    for attr in parts[1:-1]:
        owner = getattr(owner, attr)
    return owner, parts[-1], getattr(owner, parts[-1])


@contextmanager
def instrumented(rec):
    """Rebind every layer function to its span wrapper; restore on exit."""
    probes = _probes(rec.counts)
    modules = [m for name, m in sys.modules.items()
               if name == "posetlab" or name.startswith("posetlab.")]
    undo = []
    try:
        for idx, layer in enumerate(LAYERS):
            owner, attr, original = _resolve(layer)
            wrapper = rec.wrap(idx, original, probes.get(layer))
            if isinstance(owner, type):
                sites = [(owner, attr)]
            else:
                sites = [(m, k) for m in modules
                         for k, v in vars(m).items() if v is original]
            for site, name in sites:
                undo.append((site, name, original))
                setattr(site, name, wrapper)
        yield rec
    finally:
        for site, name, original in reversed(undo):
            setattr(site, name, original)
