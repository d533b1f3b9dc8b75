"""Run one benchmark workload in this process: set up, warm up, time,
check and describe.

``run.py`` starts this file in a fresh single-threaded process for every
measurement. The steps:

1. Set-up: import ordmech and ``scipy.optimize`` from the checkout's
   ``src``, generate the seeded inputs, write the instance files, and run
   the first op once untimed (it pays lazy imports such as ``linprog``).
   Set-up time runs from process start until that is done; ``setup_s``
   is that time calibrated by the kernel timed right after it.
2. Timed passes: every op of the workload, in order, until ``--seconds``
   have gone by (whole passes only, at least one). Each op's output is
   checked after its timer stops, and a fixed kernel is timed between
   ops to calibrate the op times (see ``_run_pass``).
3. With ``--trace 0``, one more pass with spans on gives the workload
   descriptors (LP count and computed LP bytes per op). With ``--trace 1``
   untraced and traced passes alternate, so the tracing overhead shows,
   and a last pass under ``tracemalloc`` over the ops that solve LPs gives
   ``op.peak_alloc_mb``.

The result is printed as one JSON line and written, with the spans of a
traced run, under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 0
MAX_FAILURES_KEPT = 20
# Reference time of kernel_seconds(): calibrated times read as wall times
# on a host running at the speed where the kernel takes this long.
CAL_REF_S = 1.5e-3


def import_program():
    """Import ordmech from this checkout's sources, never from elsewhere."""
    if not (SRC / "ordmech" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ordmech sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import ordmech
    import scipy.optimize  # noqa: F401  (part of set-up: audits import linprog)

    if Path(ordmech.__file__).resolve().parent != SRC / "ordmech":
        raise ImportError(f"ordmech imported from {ordmech.__file__}, not {SRC}")


def load_reference(workload: str) -> dict:
    entries = json.loads(REFERENCE.read_text())
    if workload not in entries:
        raise KeyError(f"{REFERENCE.name} has no entry for {workload}")
    return entries[workload]


def kernel_seconds() -> float:
    """Best of three timings of a fixed CPU-bound kernel (Python bytecode,
    small numpy calls, and building, hashing and sorting fresh tuples, like
    the ops): the host's current speed."""
    import numpy as np

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        x = 0
        for i in range(4000):
            x += i * i
        a = np.arange(4000.0)
        for _ in range(10):
            a = np.sqrt(a * a + 1.0)
        table = {(i, -i): [i] for i in range(3000)}
        sorted(table, key=lambda t: t[1])
        best = min(best, time.perf_counter() - start)
    return best


class Tally:
    """Attempted and failed ops, latency samples and failure details."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.samples: dict[str, list[float]] = {}
        self.calibrated: dict[str, list[float]] = {}

    def execute(self, op) -> tuple[float, bool]:
        """Run one op and check its output outside the timer; return its
        time and whether it passed."""
        import workloads

        self.attempted += 1
        start = time.perf_counter()
        try:
            raw = op.run()
        except Exception:
            elapsed = time.perf_counter() - start
            self._fail(op, [traceback.format_exc(limit=4)])
            return elapsed, False
        elapsed = time.perf_counter() - start
        try:
            ref = None
            if self.reference is not None:
                ref = self.reference.get(op.op_id)
                if ref is None:
                    raise KeyError(f"no reference entry for {op.op_id}")
            problems = workloads.check_outcome(op.collect(raw), ref)
        except Exception:
            problems = [traceback.format_exc(limit=4)]
        if problems:
            self._fail(op, problems)
        return elapsed, not problems

    def _fail(self, op, problems: list[str]) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append({"op": op.op_id, "problems": problems})


def _run_pass(ops, tally: Tally, tracer=None) -> tuple[float, float]:
    """Run every op once; return the pass's raw and calibrated seconds.

    The kernel is timed between ops. An op's calibrated time is its wall
    time scaled by CAL_REF_S over the mean kernel time just before and
    just after it. On a shared 2-CPU virtual machine this cut the spread
    of a workload's throughput over ten seeds from up to 0.49 to under
    0.09 (quartile distance over median), as the host's speed swung by up
    to 1.8x over tens of seconds, longer than a run could average out.
    Only untraced passes add latency samples.
    """
    before = kernel_seconds()
    raw_total = cal_total = 0.0
    for op in ops:
        with tracer.op(op.op_id) if tracer else contextlib.nullcontext():
            elapsed, ok = tally.execute(op)
        after = kernel_seconds()
        calibrated = elapsed * CAL_REF_S * 2.0 / (before + after)
        if ok and tracer is None:
            tally.samples.setdefault(op.op_id, []).append(elapsed)
            tally.calibrated.setdefault(op.op_id, []).append(calibrated)
        raw_total += elapsed
        cal_total += calibrated
        before = after
    return raw_total, cal_total


def _traced_pass(ops, tally: Tally, tracer) -> tuple[float, float]:
    tracer.reset()
    tracer.install()
    try:
        return _run_pass(ops, tally, tracer)
    finally:
        tracer.uninstall()


def _alloc_pass(ops, tally: Tally) -> float:
    """Largest tracemalloc peak (MB) of one op. tracemalloc sees numpy but
    not HiGHS, and slows the scalar loops of the mechanism layer 10-20x,
    so the caller passes only the ops that solve LPs."""
    peak = 0
    tracemalloc.start()
    try:
        for op in ops:
            tracemalloc.reset_peak()
            tally.execute(op)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peak / 1e6


def machine_info(seed: int) -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "seed": seed}


def describe(ops, tracer) -> dict:
    """Deterministic workload descriptors from the last traced pass."""
    lp = tracer.op_lp_totals()
    per_op = []
    for op in ops:
        count, total, largest = lp.get(op.op_id, (0, 0, 0))
        per_op.append({"op": op.op_id, "kind": op.kind, "n": op.n, "m": op.m,
                       "classes": op.classes, "lps": count, "lp_bytes_computed": total,
                       "lp_bytes_computed_max": largest})
    agents = sum(d["n"] for d in per_op)
    classes = sum(d["classes"] for d in per_op)
    return {"ops_per_pass": len(ops), "agents": agents, "classes": classes,
            "classes_per_agent": classes / agents if agents else 0.0,
            "lps_per_pass": sum(d["lps"] for d in per_op),
            "lp_bytes_computed_per_pass": sum(d["lp_bytes_computed"] for d in per_op),
            "per_op": per_op}


def _timing(samples: dict[str, list[float]]) -> tuple:
    """(ops per second, p50 ms, p90 ms or None): the op count of a pass
    over the sum of each op's median time, and percentiles over every
    sample, p90 only when at least ten samples lie beyond it."""
    if not samples:
        return None, None, None
    flat = sorted(x for v in samples.values() for x in v)
    ops_per_s = len(samples) / sum(statistics.median(v) for v in samples.values())
    p90 = statistics.quantiles(flat, n=10)[-1] if len(flat) >= 2 else None
    if p90 is None or sum(x > p90 for x in flat) < 10:
        p90 = None
    return ops_per_s, statistics.median(flat) * 1e3, None if p90 is None else p90 * 1e3


def end_to_end(tally: Tally) -> dict:
    ops, p50, p90 = _timing(tally.samples)
    ops_cal, p50_cal, p90_cal = _timing(tally.calibrated)
    return {"ops_per_s": ops, "op_p50_ms": p50, "op_p90_ms": p90,
            "ops_per_s_calibrated": ops_cal, "op_p50_ms_calibrated": p50_cal,
            "op_p90_ms_calibrated": p90_cal,
            "op_samples": sum(len(v) for v in tally.samples.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "fail_rate": tally.failed / tally.attempted,
            "op_times_ms": {op: [t * 1e3 for t in v] for op, v in tally.samples.items()},
            "op_times_calibrated_ms": {op: [t * 1e3 for t in v]
                                       for op, v in tally.calibrated.items()}}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, started: float,
                 setup_only: bool = False, tiny: bool = False,
                 reference: dict | None = None, out_dir: Path = OUT) -> dict:
    """Measure one workload; ``started`` is the ``time.monotonic()`` at
    which set-up began (the process start when run from ``run.py``)."""
    import_program()
    import tracing
    import workloads

    ops = workloads.build(workload, seed, out_dir / "work" / workload, tiny)
    ops[0].run()
    setup = {"setup_wall_s": time.monotonic() - started}
    setup["setup_s"] = setup["setup_wall_s"] * CAL_REF_S / kernel_seconds()
    if setup_only:
        return setup
    if reference is None and seed == DEFAULT_SEED and not tiny:
        reference = load_reference(workload)

    tally = Tally(reference)
    tracer = tracing.Tracer()
    untraced, traced, layer_passes = [], [], []
    begin = time.monotonic()
    while True:
        untraced.append(_run_pass(ops, tally))
        if trace:
            traced.append(_traced_pass(ops, tally, tracer))
            layer_passes.append(tracer.pass_metrics(len(ops)))
        if time.monotonic() - begin >= seconds:
            break
    if not trace:
        _traced_pass(ops, tally, tracer)
        layer_passes.append(tracer.pass_metrics(len(ops)))
    descriptors = describe(ops, tracer)

    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "tiny": tiny, "reference_checked": reference is not None,
              "machine": machine_info(seed), **setup}
    per_layer = tracing.median_metrics(layer_passes)
    if trace:
        lp_ops = {d["op"] for d in descriptors["per_op"] if d["lps"]}
        per_layer["op.peak_alloc_mb"] = _alloc_pass([op for op in ops if op.op_id in lp_ops],
                                                    tally)
        per_layer["trace.overhead_pct"] = (statistics.median(t[1] for t in traced)
                                           / statistics.median(t[1] for t in untraced)
                                           - 1.0) * 100.0
        spans_path = out_dir / f"{workload}-seed{seed}-spans.jsonl"
        _write_spans(spans_path, tracer)
        result["spans_file"] = str(spans_path)
    result.update({
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures,
        "end_to_end": end_to_end(tally),
        "per_layer": per_layer,
        "missing": sorted(tracer.missing_metrics()),
        "passes": {"untraced_s": [t[0] for t in untraced],
                   "untraced_calibrated_s": [t[1] for t in untraced],
                   "traced_calibrated_s": [t[1] for t in traced]},
        "descriptors": descriptors,
    })
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    result["results_file"] = str(path)
    return result


def _write_spans(path: Path, tracer) -> None:
    """Spans of the last traced pass, one JSON object a line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for idx, (name, start, end, parent, op_id) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                 "parent": parent, "op": op_id}) + "\n")


def record_reference(workload: str, tiny: bool = False, out_dir: Path = OUT) -> dict:
    """Outputs of one pass at the default seed, after the intrinsic checks."""
    import_program()
    import workloads

    entries = {}
    for op in workloads.build(workload, DEFAULT_SEED, out_dir / "work" / workload, tiny):
        outcome = op.collect(op.run())
        problems = workloads.check_outcome(outcome, None)
        if problems:
            raise RuntimeError(f"{op.op_id}: {problems}")
        entries[op.op_id] = outcome.reference_entry()
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-reference", action="store_true",
                        help=f"rewrite this workload's entry in {REFERENCE.name}")
    args = parser.parse_args(argv)
    started = args.spawned_at if args.spawned_at is not None else time.monotonic()
    if args.record_reference:
        entries = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        entries[args.workload] = record_reference(args.workload)
        REFERENCE.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
        print(json.dumps({"recorded": len(entries[args.workload])}))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), started,
                          setup_only=args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
