"""Smoke test of the perf harness at its tiny scale and a second seed.

Not part of tier-1 (``testpaths = ["tests"]``); run it with
``PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_smoke.py``.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
BENCHMARK = json.loads((PERF_DIR.parents[1] / "BENCHMARK.json").read_text())


def test_quick_run_reports_every_metric(tmp_path):
    out = tmp_path / "quick.json"
    done = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--quick", "--seed", "11",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(out.read_text())

    # each workload process ends with the driver's result line; with
    # --quick that is the traced form: every per-layer metric, its unit
    lines = [
        json.loads(line) for line in done.stdout.splitlines()
        if line.startswith('{"correct"')
    ]
    assert len(lines) == len(BENCHMARK["workloads"])
    declared = {entry["name"]: entry["unit"] for entry in BENCHMARK["per_layer"]}
    for line in lines:
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == set(declared)
        for name, metric in line["metrics"].items():
            assert metric["unit"] == declared[name]
            assert math.isfinite(metric["value"]), name

    owned = set()
    for workload in BENCHMARK["workloads"]:
        data = result["workloads"][workload["name"]]
        assert data["failed"] == 0, data["failures"]
        for name, values in data["e2e"].items():
            assert all(math.isfinite(v) for v in values), name
            if name != "op_fail_ratio":
                assert all(v > 0 for v in values), name
        assert data["e2e"]["op_fail_ratio"] == [0.0]
        owned |= set(data["layers"])
    # every per-layer metric is produced by at least one workload
    assert set(declared) <= owned


def test_driver_form_prints_the_contract_line():
    done = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--workload", "serve_query",
         "--seed", "11", "--seconds", "0.5", "--trace", "0", "--quick"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    declared = {entry["name"]: entry["unit"] for entry in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in line["metrics"].values())
