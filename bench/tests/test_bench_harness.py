"""Smoke tests of the benchmark harness at a tiny size.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import copy
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, reference, out_dir, trace=False):
    return harness.run_workload(workload, harness.DEFAULT_SEED, 0.0, trace, time.monotonic(),
                                tiny=True, reference=reference, out_dir=out_dir)


@pytest.fixture(scope="module", params=run.WORKLOADS)
def recorded(request, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp(request.param)
    return request.param, harness.record_reference(request.param, tiny=True,
                                                   out_dir=out_dir), out_dir


def test_spec_names_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.metric_units()
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric


def test_tiny_workload_passes_with_valid_metric_names(recorded):
    workload, reference, out_dir = recorded
    result = _run(workload, reference, out_dir)
    assert result["failed"] == 0, result["failures"]
    assert result["end_to_end"]["fail_rate"] == 0
    assert set(run.E2E_UNITS) - {"setup_s"} <= set(result["end_to_end"])
    traced = _run(workload, reference, out_dir, trace=True)
    assert traced["failed"] == 0, traced["failures"]
    assert traced["missing"] == []
    assert set(traced["per_layer"]) == set(tracing.metric_units())
    assert all(NAME.match(name) for name in traced["per_layer"])


def test_perturbed_reference_counts_as_failure(recorded):
    workload, reference, out_dir = recorded
    perturbed = copy.deepcopy(reference)
    entry = next(e for e in perturbed.values() if e["audits"] or e["winner"] is not None)
    if entry["audits"]:
        entry["audits"][0]["value"] = float(entry["audits"][0]["value"]) * 1.001 + 1e-3
    else:
        entry["winner"] += 1
    result = _run(workload, perturbed, out_dir)
    assert result["end_to_end"]["fail_rate"] > 0


def test_sampled_reference_value_is_a_lower_bound():
    harness.import_program()
    import workloads

    ref = {"winner": 0, "assignment": None, "audits": [{"value": 1.5, "exact": False}]}
    higher = workloads.Outcome(winner=0, audits=[workloads.AuditOutcome(2.0, True, 2.0, 3.0)])
    lower = workloads.Outcome(winner=0, audits=[workloads.AuditOutcome(1.4, False, 1.4, 3.0)])
    assert workloads.check_outcome(higher, ref) == []
    assert workloads.check_outcome(lower, ref)
    exact_ref = {"winner": 0, "assignment": None, "audits": [{"value": 1.5, "exact": True}]}
    assert workloads.check_outcome(higher, exact_ref)


def test_missing_wrap_point_is_reported_and_originals_restored(monkeypatch, tmp_path):
    harness.import_program()
    import ordmech.core
    import ordmech.lp

    solve_lp = ordmech.lp.solve_lp
    monkeypatch.delattr(ordmech.core, "consistency_constraints")
    result = _run("small_audits", None, tmp_path, trace=True)
    assert result["failed"] == 0, result["failures"]
    assert {"core.consistency_constraints.calls", "core.consistency_constraints.rows_max"} \
        <= set(result["missing"])
    assert "lp.solve_lp.calls" not in result["missing"]
    assert ordmech.lp.solve_lp is solve_lp and ordmech.audit.solve_lp is solve_lp


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "small_audits",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
