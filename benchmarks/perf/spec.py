"""Frozen sizes and the metric tables.

Two tables of end-to-end metrics exist because two readers exist:

* ``E2E`` is what a maintainer reads -- every user-visible number of
  every workload under its own name, with the regression bound that
  ``run.py --compare`` and ``--selfcheck`` hold it to.
* ``BENCHMARK.json`` is what the driver reads.  Its contract makes every
  workload report every end-to-end metric, so it lists only the five
  that exist on all four workloads; ``CONTRACT`` says which named
  metric each of them is on each workload.
"""

from __future__ import annotations

import json

from harness import PERF_DIR

WORKLOADS = ("ingest_full", "store_durable", "serve_query", "live_mixed")

#: Sizes frozen after measuring on the 2-core box: one round of each
#: workload is 1-2 s, so a 20 s run replays it 9-20 times and the
#: driver's 92 runs fit its time cap.  ``records`` cuts the corpus to a
#: fixed length: the checker rejects 1-3 of the generated reports
#: depending on the seed, and a batch more or less moves every
#: per-batch percentile.  ``quick`` is the smoke-test scale.
SIZES = {
    "ingest_full": {
        "full": {
            "reports_per_site": 2,  # 84 reports per collection cycle
            "crf_training_scenarios": 10,
            "crf_max_iterations": 20,
        },
        "quick": {
            "reports_per_site": 1,
            "crf_training_scenarios": 4,
            "crf_max_iterations": 6,
        },
    },
    "store_durable": {
        "full": {"reports_per_site": 2, "records": 60, "batch": 6, "recover_cycles": 3},
        "quick": {"reports_per_site": 1, "records": 36, "batch": 12, "recover_cycles": 1},
    },
    "serve_query": {
        "full": {"reports_per_site": 7, "requests": 500},
        "quick": {"reports_per_site": 1, "requests": 100},
    },
    "live_mixed": {
        "full": {"reports_per_site": 2, "records": 80, "batch": 2},
        "quick": {"reports_per_site": 1, "records": 36, "batch": 6},
    },
}

#: name -> (unit, better, regression bound as a share of the baseline)
E2E = {
    "setup_s": ("s", "lower", 0.25),
    "reports_per_s": ("reports/s", "higher", 0.10),
    "queries_per_s": ("req/s", "higher", 0.10),
    "cycle_ms": ("ms", "lower", 0.10),
    "batch_p50_ms": ("ms", "lower", 0.10),
    "batch_max_ms": ("ms", "lower", 0.20),
    "query_p50_ms": ("ms", "lower", 0.10),
    "query_p95_ms": ("ms", "lower", 0.15),
    "feed_pull_p50_ms": ("ms", "lower", 0.10),
    "feed_pull_p95_ms": ("ms", "lower", 0.15),
    "freshness_p50_ms": ("ms", "lower", 0.10),
    "freshness_p90_ms": ("ms", "lower", 0.15),
    "recover_s": ("s", "lower", 0.10),
    "disk_bytes_per_report": ("bytes", "lower", 0.01),
    "feed_bytes_per_report": ("bytes", "lower", 0.01),
    "peak_rss_mb": ("MB", "lower", 0.20),
    "op_fail_ratio": ("ratio", "lower", 0.0),
}

#: which named metrics each workload produces
PRODUCES = {
    "ingest_full": (
        "setup_s", "reports_per_s", "cycle_ms", "peak_rss_mb", "op_fail_ratio",
    ),
    "store_durable": (
        "setup_s", "reports_per_s", "batch_p50_ms", "batch_max_ms", "recover_s",
        "disk_bytes_per_report", "peak_rss_mb", "op_fail_ratio",
    ),
    "serve_query": (
        "setup_s", "queries_per_s", "query_p50_ms", "query_p95_ms",
        "feed_pull_p50_ms", "feed_pull_p95_ms", "peak_rss_mb", "op_fail_ratio",
    ),
    "live_mixed": (
        "setup_s", "reports_per_s", "query_p50_ms", "query_p95_ms",
        "feed_pull_p50_ms", "feed_pull_p95_ms", "freshness_p50_ms",
        "freshness_p90_ms", "disk_bytes_per_report", "feed_bytes_per_report",
        "peak_rss_mb", "op_fail_ratio",
    ),
}

#: BENCHMARK.json end-to-end metric -> (named metric, scale) per workload.
#: ``op`` is the unit of work a user of that workload waits for: a
#: collection cycle, a durable batch (tail: restart to first answer), a
#: request, a batch becoming visible in the partner feed.
CONTRACT = {
    "ingest_full": {
        "ops_per_s": ("reports_per_s", 1.0),
        "op_p50_ms": ("cycle_ms", 1.0),
    },
    "store_durable": {
        "ops_per_s": ("reports_per_s", 1.0),
        "op_p50_ms": ("batch_p50_ms", 1.0),
    },
    "serve_query": {
        "ops_per_s": ("queries_per_s", 1.0),
        "op_p50_ms": ("query_p50_ms", 1.0),
    },
    "live_mixed": {
        "ops_per_s": ("reports_per_s", 1.0),
        "op_p50_ms": ("freshness_p50_ms", 1.0),
    },
}
for _aliases in CONTRACT.values():
    _aliases["setup_s"] = ("setup_s", 1.0)
    _aliases["peak_rss_mb"] = ("peak_rss_mb", 1.0)


def benchmark_json() -> dict:
    return json.loads((PERF_DIR.parents[1] / "BENCHMARK.json").read_text())


def contract_e2e(workload: str, named: dict[str, float]) -> dict[str, dict]:
    """The ``--trace 0`` metrics object of the driver's result line."""
    out = {}
    for entry in benchmark_json()["end_to_end"]:
        source, scale = CONTRACT[workload][entry["name"]]
        out[entry["name"]] = {"value": named[source] * scale, "unit": entry["unit"]}
    return out


def contract_layers(layers: dict[str, float]) -> dict[str, dict]:
    """The ``--trace 1`` metrics object: every per-layer metric, 0 where
    this workload bypasses the layer."""
    return {
        entry["name"]: {
            "value": float(layers.get(entry["name"], 0.0)),
            "unit": entry["unit"],
        }
        for entry in benchmark_json()["per_layer"]
    }
