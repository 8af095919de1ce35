"""Closed-loop, single-client benchmark of kcanon.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root, which must hold ``src/kcanon``.  The run makes
the workload's inputs from the seed, times set-up, then runs whole cycles of
ops, each waiting for the previous one, until at least S seconds of op time
at reference speed (see below) have passed, and checks every op's output.  ``--trace 0`` prints the
end-to-end metrics.  ``--trace 1`` runs the same ops twice, untraced and then
with every public function of kcanon's ``graph``, ``solver`` and
``signatures`` modules wrapped in a span, and prints the per-layer metrics.

Times are reported at reference speed: after every 200 ms of op time the run
times a fixed pure-Python kernel, and each op's time is scaled by
REFERENCE_S over the kernel's time around it.  On a shared machine whose speed
drifts by tens of percent over tens of seconds this removes most of the drift;
the unscaled numbers are printed on the ``raw`` report line.

Report lines (environment, input properties, latency, outcomes, raw) come
first; the last line is the JSON result.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
# Per-position medians across cycles need at least two cycles.
MIN_CYCLES = 2
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import kcanon, kcanon.cli; "
    "print(time.perf_counter() - t)"
)
# One BLAS thread, whatever the caller's environment says, set before numpy
# is imported.  On a shared 2-CPU box a second OpenBLAS thread doubled CPU per
# query without making queries faster.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in BLAS_ENV})
# The reference kernel's duration that defines reference speed, and how much
# op time may pass between two timings of it (and two heap collections).
REFERENCE_S = 0.005
CALIBRATE_EVERY_S = 0.2


def blas_threads() -> dict:
    """Threads each loaded OpenBLAS library reports, read back through ctypes."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        return {}
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def _reference_kernel() -> int:
    s = 0
    for i in range(40_000):
        s += (i * i) % 7
    d = {}
    for i in range(20_000):
        d[i % 977] = s
    return s


def reference_seconds() -> float:
    """Median of three timings of the fixed kernel, with the collector off so
    the program's heap cannot change what the kernel does."""
    times = []
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            _reference_kernel()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def percentile(sorted_xs: list, p: float) -> float:
    """Linear interpolation between closest ranks."""
    k = (len(sorted_xs) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (k - lo)


def _summary(xs: list) -> dict:
    return {"min": min(xs), "median": statistics.median(xs), "max": max(xs)} if xs else {}


class Stats:
    """Everything one pass over the ops records."""

    def __init__(self):
        self.latency: list[float] = []  # seconds, as measured
        self.cpu: list[float] = []
        self.speed: list[float] = []  # per op: REFERENCE_S / kernel seconds around it
        self.kernel: list[float] = []
        self.cycles = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.asked = self.undecided = 0
        self.undecided_by: Counter = Counter()  # input family or kind -> count
        self.distinct = self.distinct_by_fingerprint = 0
        self.expansions = self.factorizations = self.relabel_checks = 0
        self.ns: list[int] = []
        self.ms: list[int] = []
        self.graphs = self.repeats = 0
        self._seen: set = set()

    def add_inputs(self, item) -> None:
        for n, m in item.sizes:
            self.ns.append(n)
            self.ms.append(m)
        for text in item.texts:
            key = hashlib.blake2b(text.encode(), digest_size=16).digest()
            self.graphs += 1
            self.repeats += key in self._seen
            self._seen.add(key)

    def decide(self, decided: bool, label: str) -> None:
        self.asked += 1
        self.undecided += not decided
        if not decided:
            self.undecided_by[label] += 1

    def calibrate(self) -> None:
        """Time the kernel; ops since the previous timing get the mean of both."""
        self.kernel.append(reference_seconds())
        if len(self.kernel) > 1:
            factor = REFERENCE_S / statistics.mean(self.kernel[-2:])
            self.speed += [factor] * (self.ops - len(self.speed))

    def scaled(self, samples: list) -> list:
        return [x * f for x, f in zip(samples, self.speed)]

    @property
    def ops(self) -> int:
        return len(self.latency)

    @property
    def repeat_share(self) -> float:
        return self.repeats / self.graphs if self.graphs else 0.0


def load_program():
    """Import kcanon from the checkout's src/."""
    if not (SRC / "kcanon" / "__init__.py").is_file():
        raise FileNotFoundError(f"kcanon sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def measure_setup(wl, repeats: int) -> tuple[float, float]:
    """Median over repeats of (import kcanon in a fresh interpreter + the
    workload's program set-up), at reference speed and as measured.  The last
    set-up is the one the ops use."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def import_seconds() -> float:
        out = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        return float(out.stdout)

    import_seconds()  # warm-up: byte-compiles kcanon in a fresh checkout
    raw, scaled = [], []
    for _ in range(repeats):
        before = reference_seconds()
        imported = import_seconds()
        t0 = time.perf_counter()
        wl.setup()
        raw.append(imported + time.perf_counter() - t0)
        scaled.append(raw[-1] * REFERENCE_S / statistics.mean([before, reference_seconds()]))
    return statistics.median(scaled), statistics.median(raw)


def run_pass(wl, seconds: float, count_factorizations, cycles: int | None = None, tracer=None) -> Stats:
    """Whole cycles of ops, at least MIN_CYCLES, until `seconds` of op time at
    reference speed have passed (or exactly `cycles`).  Counting reference
    time makes the number of cycles independent of how fast the machine
    happens to be running."""
    st = Stats()
    gc.collect()
    st.calibrate()
    since_calibration = reference_elapsed = 0.0
    while True:
        for item in wl.items(st.cycles):
            st.add_inputs(item)
            f0 = count_factorizations()
            if tracer is not None:
                tracer.begin_op(st.ops)
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                result, problems = wl.op(item), []
            except Exception as exc:  # a raising op is a failed op, not a failed run
                result, problems = None, [f"op raised {type(exc).__name__}"]
            t1, c1 = time.perf_counter(), time.process_time()
            if tracer is not None:
                tracer.end_op()
            st.latency.append(t1 - t0)
            st.cpu.append(c1 - c0)
            st.factorizations += count_factorizations() - f0
            if problems:
                if wl.decides:
                    st.decide(False, "op raised")
            else:
                if tracer is not None:
                    tracer.paused = True
                try:
                    problems = wl.check(item, result, st)
                finally:
                    if tracer is not None:
                        tracer.paused = False
            if problems:
                st.failed += 1
                st.failures.update(problems)
            del result
            since_calibration += t1 - t0
            reference_elapsed += (t1 - t0) * REFERENCE_S / st.kernel[-1]
            if since_calibration >= CALIBRATE_EVERY_S:
                # The next op starts from a collected heap, as in a fresh
                # `kcanon` process, and does not pay for the checks' garbage.
                gc.collect()
                st.calibrate()
                since_calibration = 0.0
        st.cycles += 1
        if (st.cycles >= cycles) if cycles is not None else (
                st.cycles >= MIN_CYCLES and reference_elapsed >= seconds):
            if len(st.speed) < st.ops:
                st.calibrate()
            return st


def median_cycle(samples: list, cycles: int) -> float:
    """Sum over a cycle's positions of each position's median across cycles.

    Every cycle runs the same schedule of sizes, so this is the cost of one
    typical cycle; a burst of load from outside the process that slows one
    cycle does not move it.
    """
    per_cycle = len(samples) // cycles
    return sum(statistics.median(samples[i::per_cycle]) for i in range(per_cycle))


def timings(wl, st: Stats, scaled: bool) -> dict:
    """Time metrics of a pass, at reference speed or as measured."""
    lat = st.scaled(st.latency) if scaled else st.latency
    cpu = st.scaled(st.cpu) if scaled else st.cpu
    ordered = sorted(lat)
    per_cycle = st.ops // st.cycles
    return {
        "ops_per_s": (per_cycle / median_cycle(lat, st.cycles), "1/s"),
        "latency_p50_ms": (percentile(ordered, 50) * 1e3, "ms"),
        "latency_tail_ms": (percentile(ordered, wl.tail_percentile) * 1e3, "ms"),
        "cpu_ms_per_op": (median_cycle(cpu, st.cycles) / per_cycle * 1e3, "ms"),
    }


def end_to_end(wl, st: Stats, setup_s: float) -> dict:
    return {
        **timings(wl, st, scaled=True),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
        "ok_share": (1 - st.failed / st.ops, "ratio"),
        "decided_share": (1 - st.undecided / st.asked if st.asked else 1.0, "ratio"),
    }


def per_layer(tracer, st: Stats, untraced: Stats) -> dict:
    inc, own = tracer.totals()
    per_op = lambda x: x / st.ops
    speed = statistics.median(st.speed)
    ms = lambda seconds: seconds * speed * 1e3 / st.ops
    serialize = {"signatures.Fingerprint.to_json", "signatures.Fingerprint.digest"}
    return {
        "graph.parse_ms_per_op": (ms(inc["graph.parse_edge_list"]), "ms"),
        "graph.input_bytes_per_op": (per_op(tracer.counts["input_bytes"]), "bytes"),
        "solver.build_system_ms_per_op": (ms(inc["solver.build_system"]), "ms"),
        "solver.factorizations_per_op": (per_op(st.factorizations), "count"),
        "solver.solve_all_pairs_ms_per_op": (ms(inc["solver.solve_all_pairs"]), "ms"),
        "solver.rhs_columns_per_op": (per_op(tracer.counts["rhs_columns"]), "count"),
        "solver.dense_bytes_per_op": (per_op(tracer.counts["dense_bytes"]), "bytes"),
        "solver.solve_pair_ms_per_op": (ms(inc["solver.solve_pair"]), "ms"),
        "solver.pair_currents_ms_per_op": (ms(inc["solver.pair_currents"]), "ms"),
        "solver.kcl_residual_ms_per_op": (ms(inc["solver.kcl_residual"]), "ms"),
        "signatures.node_signatures_self_ms_per_op": (ms(own["signatures.all_node_signatures"]), "ms"),
        "signatures.fingerprint_self_ms_per_op": (ms(own["signatures.fingerprint"]), "ms"),
        "signatures.serialize_ms_per_op": (ms(tracer.outermost(serialize)), "ms"),
        "signatures.values_materialized_per_op": (per_op(tracer.counts["values_materialized"]), "count"),
        "signatures.find_isomorphism_self_ms_per_op": (ms(own["signatures.find_isomorphism"]), "ms"),
        "signatures.verify_mapping_ms_per_op": (ms(inc["signatures.verify_mapping"]), "ms"),
        "signatures.fingerprint_reject_share": (
            st.distinct_by_fingerprint / st.distinct if st.distinct else 0.0, "ratio"),
        "signatures.canon_expansions_per_op": (per_op(st.expansions), "count"),
        "signatures.canon_search_self_ms_per_op": (ms(own["signatures.canonical_labeling"]), "ms"),
        "signatures.orbit_partition_self_ms_per_op": (ms(own["signatures.orbit_partition"]), "ms"),
        "input.repeat_share": (st.repeat_share, "ratio"),
        # Same ops in both passes, so the drop in ops/s is the time ratio.
        "trace.overhead_share": (1 - median_cycle(untraced.scaled(untraced.latency), untraced.cycles)
                                 / median_cycle(st.scaled(st.latency), st.cycles), "ratio"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 out_dir: Path = OUT, emit=print) -> dict:
    """Run one workload; emit report lines and return the result object."""
    nproc = len(os.sched_getaffinity(0))
    workloads = load_program()
    import numpy
    import scipy
    from kcanon import graph, signatures, solver

    import spans

    wl = workloads.WORKLOADS[name](seed, tiny=tiny)
    count_factorizations = solver.factorization_count
    setup_s, setup_raw_s = measure_setup(wl, 1 if tiny else SETUP_REPEATS)
    emit("env " + json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": nproc, "blas_threads_env": {v: os.environ[v] for v in BLAS_ENV},
        "blas_threads": blas_threads(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "canon_budget": workloads.CANON_BUDGET, "workload_config": wl.config(),
        "client": "closed loop, 1 client, 1 process",
    }))
    untraced = run_pass(wl, seconds, count_factorizations)
    passes = [untraced]
    st = untraced
    if trace:
        tracer = spans.Tracer()
        tracer.install((graph, solver, signatures), ((signatures.Fingerprint, "to_json"),
                                                     (signatures.Fingerprint, "digest")))
        try:
            st = run_pass(wl, seconds, count_factorizations, cycles=untraced.cycles, tracer=tracer)
        finally:
            tracer.uninstall()
        passes.append(st)
    lat = sorted(st.scaled(st.latency))
    tail = percentile(lat, wl.tail_percentile)
    emit("inputs " + json.dumps({
        "ops": st.ops, "cycles": st.cycles, "n": _summary(st.ns), "m": _summary(st.ms),
        "op_graphs": st.graphs, "input.repeat_share": st.repeat_share,
        # Properties of each op graph, from its size alone: the values a
        # fingerprint of it holds, (n + m) n(n-1), and the RHS columns of its
        # all-pairs solve, n(n-1)/2.  The work ops did is in the traced run.
        "fingerprint_values_per_graph": _summary([(n + m) * n * (n - 1) for n, m in zip(st.ns, st.ms)]),
        "all_pairs_columns_per_graph": _summary([n * (n - 1) // 2 for n in st.ns]),
        "relabel_checks": st.relabel_checks,
    }))
    emit("latency " + json.dumps({
        "samples": st.ops, "p50_ms": percentile(lat, 50) * 1e3, "tail_percentile": wl.tail_percentile,
        "tail_ms": tail * 1e3, "samples_beyond_tail": sum(x > tail for x in lat),
    }))
    emit("outcomes " + json.dumps({
        "failed": st.failed, "failed_share": st.failed / st.ops, "asked_for_decision": st.asked,
        "undecided": st.undecided, "undecided_by": dict(st.undecided_by), "undecided_share": st.undecided / st.asked if st.asked else 0.0,
        "failures": dict(st.failures),
    }))
    emit("raw " + json.dumps({
        **{k: v for k, (v, _) in timings(wl, st, scaled=False).items()}, "setup_s": setup_raw_s,
        "reference_kernel_ms": _summary([k * 1e3 for k in st.kernel]), "reference_ms": REFERENCE_S * 1e3,
    }))
    if trace:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(path)
        emit("trace " + json.dumps({"spans": len(tracer.spans), "file": str(path)}))
        metrics = per_layer(tracer, st, untraced)
    else:
        metrics = end_to_end(wl, st, setup_s)
    failed = sum(p.failed for p in passes)
    return {
        "correct": failed == 0,
        "attempted": sum(p.ops for p in passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fingerprint-large", "iso-registry", "canon-symmetric", "resistance-queries"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
