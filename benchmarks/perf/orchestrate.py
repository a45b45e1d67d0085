"""The multi-workload front of ``run.py``: run every workload in its own
subprocess, summarise repeats, compare two result files, self-check."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import spec
from harness import PERF_DIR, quartile_spread, scratch_dir


def run_once(workload: str, args, trace: int) -> dict:
    """One fresh workload process; returns its detail record."""
    with scratch_dir() as tmp:
        detail = tmp / "detail.json"
        command = [
            sys.executable, str(PERF_DIR / "run.py"),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(trace),
            "--detail", str(detail),
        ]
        if args.quick:
            command.append("--quick")
        if trace and args.trace_out:
            command += ["--trace-out", args.trace_out]
        done = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        if not detail.exists():
            sys.stderr.write(done.stderr)
            raise SystemExit(f"{workload}: no result (exit {done.returncode})")
        record = json.loads(detail.read_text())
    record["exit"] = done.returncode
    return record


def run_sets(args, sets: int = 1) -> list[dict]:
    """``sets`` result sets of every workload, ``--repeat`` fresh
    processes per workload and set.  The runs of different sets
    alternate, so a host that slows down for a minute slows both sets.
    ``--quick`` and ``--trace-out`` add the traced pass (quick uses it
    alone: the traced process also produces the end-to-end numbers)."""
    results: list[dict] = [
        {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
        for _ in range(sets)
    ]
    for workload in spec.WORKLOADS:
        runs: list[list[dict]] = [[] for _ in range(sets)]
        if not args.quick:
            for _ in range(args.repeat):
                for index in range(sets):
                    runs[index].append(run_once(workload, args, trace=0))
        for index, result in enumerate(results):
            layers, shares = {}, {}
            if args.quick or args.trace_out:
                traced = run_once(workload, args, trace=1)
                layers, shares = traced["layers"], traced["layer_shares"]
                if args.quick:
                    runs[index] = [traced]
            result["workloads"][workload] = {
                "e2e": {
                    name: [run["e2e"][name] for run in runs[index]]
                    for name in spec.PRODUCES[workload]
                },
                "layers": layers,
                "layer_shares": shares,
                "failed": sum(run["failed"] for run in runs[index]),
                "failures": [f for run in runs[index] for f in run["failures"]],
                "info": runs[index][-1]["info"],
            }
    return results


def summary(result: dict) -> None:
    print(f"\nsummary  seed {result['seed']}  {result['seconds']} s per run")
    print(f"  {'workload':<14} {'metric':<24} {'median':>14} {'q1':>14} {'q3':>14}  unit")
    for workload, data in result["workloads"].items():
        for name, values in data["e2e"].items():
            q1, q3 = _quartiles(values)
            print(
                f"  {workload:<14} {name:<24} {statistics.median(values):>14.4f} "
                f"{q1:>14.4f} {q3:>14.4f}  {spec.E2E[name][0]} (n={len(values)})"
            )


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _worse_by(name: str, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / base
    return change if spec.E2E[name][1] == "lower" else -change


def compare(a: dict, b: dict, either_way: bool = False) -> int:
    """One row per (workload, end-to-end metric): both medians, the
    ratio with its base, the bound and ok / worse / unresolved
    (unresolved: the repeats spread wider than the bound, and B's runs
    are not all better than A's); then the per-layer deltas.  Returns
    the number of ``worse`` rows.  ``either_way`` also counts a metric
    that got *better* by more than its bound -- for two sets of the same
    code any difference that large is the ruler's, not the program's."""
    bad = 0
    print(f"  {'workload':<14} {'metric':<24} {'A median':>13} {'B median':>13} "
          f"{'B/A':>8} {'bound':>6}  verdict")
    for workload in spec.WORKLOADS:
        for name in spec.PRODUCES[workload]:
            va = a["workloads"][workload]["e2e"][name]
            vb = b["workloads"][workload]["e2e"][name]
            ma, mb = statistics.median(va), statistics.median(vb)
            bound = spec.E2E[name][2]
            worse = _worse_by(name, ma, mb)
            spread = max(quartile_spread(va), quartile_spread(vb))
            disjoint_better = (
                max(vb) < min(va) if spec.E2E[name][1] == "lower" else min(vb) > max(va)
            )
            if worse > bound or (either_way and -worse > bound):
                verdict = "worse" if worse > 0 else "differs"
                bad += 1
            elif spread > bound and not disjoint_better:
                verdict = f"unresolved (spread {spread:.1%})"
            else:
                verdict = "ok"
            ratio = f"{mb / ma:>7.3f}x" if ma else f"{'-':>8}"
            print(
                f"  {workload:<14} {name:<24} {ma:>13.4f} {mb:>13.4f} "
                f"{ratio} {bound:>6.0%}  {verdict}"
            )
    print("\n  per-layer deltas (B/A of A)")
    for workload in spec.WORKLOADS:
        la = a["workloads"][workload]["layers"]
        lb = b["workloads"][workload]["layers"]
        for name in sorted(set(la) & set(lb)):
            if name.startswith("e2e.") or not la[name]:
                continue
            print(f"  {workload:<14} {name:<34} {la[name]:>14.4f} "
                  f"{lb[name]:>14.4f} {lb[name] / la[name]:>7.3f}x")
    return bad


def main(args) -> int:
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        return 1 if compare(first, second) else 0
    if args.selfcheck:
        args.repeat = max(args.repeat, 3)
        first, second = run_sets(args, sets=2)
        failed = sum(
            data["failed"] for r in (first, second) for data in r["workloads"].values()
        )
        return 1 if compare(first, second, either_way=True) or failed else 0
    (result,) = run_sets(args)
    summary(result)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    failed = sum(data["failed"] for data in result["workloads"].values())
    return 1 if failed else 0
