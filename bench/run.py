"""ordmech benchmark: one seeded workload, timed end to end, checked, and
optionally traced layer by layer.

    python3 bench/run.py --workload small_audits --seed 0 --seconds 20 --trace 0

Workloads: small_audits, large_profiles, mechanisms_at_scale (see
bench/workloads.py for what each runs and why). Each measurement runs in
a fresh process with OMP/OpenBLAS/MKL limited to one thread. Set-up is
repeated in separate processes and ``setup_s`` is the median.

On a shared 2-CPU virtual machine the host's speed swung by up to 1.8x
over tens of seconds, so the gated timings are calibrated: each is scaled
by a fixed kernel timed next to it (``harness._run_pass``) to read as
time on a host at a fixed reference speed. Wall-clock figures are
printed beside them.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics: ``setup_s``, ``ops_per_s_calibrated``,
``op_p50_ms_calibrated`` and ``peak_rss_mb``.
With ``--trace 1`` it holds the per-layer metrics
(``<layer>.<function>.<stat>``, per pass, medians over traced passes);
a metric whose wrap point no longer exists reads ``"value": null,
"missing": true``. The lines above the JSON also give op_p90_ms (when at
least ten samples lie beyond it), fail_rate, the workload descriptors
and the versions; everything, with the spans of a traced run, is also
written under ``.bench_out/``.

At the default seed (0) outputs must also match bench/reference.json;
re-record it with ``python3 bench/harness.py --workload <name>
--record-reference`` only when a change is meant to alter outputs.

Exit status is 0 when a result was printed, non-zero otherwise (for
example when the checkout holds no ordmech sources).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import DEFAULT_SEED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
HARNESS = BENCH / "harness.py"
WORKLOADS = ("small_audits", "large_profiles", "mechanisms_at_scale")
SETUP_RUNS = 5
TIME_LIMIT_S = 170.0
E2E_UNITS = {"setup_s": "s", "ops_per_s_calibrated": "1/s", "op_p50_ms_calibrated": "ms",
             "peak_rss_mb": "MB"}


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def _spawn(args, extra: list[str], deadline: float) -> dict:
    """Run the harness in a fresh process and return its JSON result."""
    cmd = [sys.executable, str(HARNESS), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for another measurement process")
    proc = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())], cwd=ROOT,
                          env=_child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"harness exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _print_summary(result: dict, setups: list[dict]) -> None:
    m = result["machine"]
    print(f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']}"
          f"  trace {int(result['trace'])}  reference_checked {result['reference_checked']}")
    print(f"machine  python {m['python']}  numpy {m['numpy']}  scipy {m['scipy']}"
          f"  nproc {m['nproc']}  threads {m['threads']}")
    e2e = result["end_to_end"]
    for key in ("setup_wall_s", "setup_s"):
        samples = [s[key] for s in setups]
        print(f"{key:12s} {statistics.median(samples):.4f} s  "
              f"(median of {', '.join(f'{s:.4f}' for s in samples)})")
    print(f"{len(result['passes']['untraced_s'])} untraced passes of "
          f"{result['descriptors']['ops_per_pass']} ops, {e2e['op_samples']} timed samples; "
          "wall time, then calibrated to the reference host speed:")
    for name, unit in (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms")):
        for key in (name, f"{name}_calibrated"):
            value = e2e[key]
            print(f"{key:22s} " + (f"{value:.4f} {unit}" if value is not None else
                                   "not reported: fewer than 10 samples beyond p90"))
    print(f"peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB")
    print(f"fail_rate    {e2e['fail_rate']:.4f}  ({result['failed']}/{result['attempted']})")
    for failure in result["failures"][:3]:
        print(f"  FAILED {failure['op']}: {failure['problems'][0].strip()[:300]}")
    d = result["descriptors"]
    print(f"descriptors  agents {d['agents']}  classes {d['classes']}  classes_per_agent "
          f"{d['classes_per_agent']:.4f}  lps/pass {d['lps_per_pass']}  "
          f"lp_bytes_computed/pass {d['lp_bytes_computed_per_pass']}")
    kinds: dict[str, list[dict]] = {}
    for op in d["per_op"]:
        kinds.setdefault(op["kind"], []).append(op)
    for kind, ops in kinds.items():
        print(f"  {kind:32s} ops {len(ops):3d}  n {min(o['n'] for o in ops)}-"
              f"{max(o['n'] for o in ops)}  m {min(o['m'] for o in ops)}-"
              f"{max(o['m'] for o in ops)}  classes {sum(o['classes'] for o in ops)}  "
              f"lps {sum(o['lps'] for o in ops)}  "
              f"lp_mb_computed {sum(o['lp_bytes_computed'] for o in ops) / 1e6:.3f} "
              f"(largest {max(o['lp_bytes_computed_max'] for o in ops) / 1e6:.3f})")
    if result["trace"]:
        for name, value in result["per_layer"].items():
            print(f"  {name:48s} {value:.6g}")
    if result["missing"]:
        print(f"missing      {', '.join(result['missing'])}")
    print(f"results      {result['results_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ordmech benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "ordmech" / "__init__.py").is_file():
        print(f"error: no ordmech sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups = [_spawn(args, ["--setup-only"], deadline) for _ in range(SETUP_RUNS - 1)]
        result = _spawn(args, [], deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError,
            IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result)
    _print_summary(result, setups)

    if args.trace:
        import tracing

        units = tracing.metric_units()
        metrics = {name: ({"value": None, "unit": unit, "missing": True}
                          if name in result["missing"]
                          else {"value": result["per_layer"][name], "unit": unit})
                   for name, unit in units.items()}
    else:
        values = dict(result["end_to_end"],
                      setup_s=statistics.median(s["setup_s"] for s in setups))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
