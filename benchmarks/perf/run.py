"""One ruler for the whole system.

    python3 benchmarks/perf/run.py                       # all four workloads
    python3 benchmarks/perf/run.py --workload serve_query --seed 7 \
        --seconds 20 --trace 0                           # one workload (driver form)
    python3 benchmarks/perf/run.py --repeat 5 --out A.json --trace-out traces/
    python3 benchmarks/perf/run.py --compare A.json B.json
    python3 benchmarks/perf/run.py --selfcheck
    python3 benchmarks/perf/run.py --quick --seed 11     # smoke scale

Every workload runs in its own process.  A workload process prints each
metric by name with its unit and sample count, checks its outputs,
prints one JSON result line last and exits non-zero when a check failed.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR))
sys.path.insert(0, str(PERF_DIR.parents[1] / "src"))

import spec  # noqa: E402
from harness import (  # noqa: E402
    Recorder,
    Tally,
    now,
    peak_rss_mb,
    scratch_dir,
    start_host_clock,
    wall,
)


def load_workload(name: str):
    import importlib

    return importlib.import_module(f"wl_{name}")


def run_workload(args) -> int:
    """One workload in this process: set-up (repeated, median reported),
    untraced rounds until ``--seconds`` are used, and with ``--trace 1``
    a traced second half that yields the per-layer metrics."""
    workload = load_workload(args.workload)
    size = spec.SIZES[args.workload]["quick" if args.quick else "full"]
    tracing = args.trace == 1
    setup_repeats = 1 if (tracing or args.quick) else 3
    min_rounds = 1 if (tracing or args.quick) else 2
    untraced_seconds = args.seconds / 2 if tracing else args.seconds
    # every duration below is in host-clock seconds (harness.HostClock);
    # only the deadlines are wall time
    clock = start_host_clock()

    with scratch_dir() as tmp:
        setups, ctx = [], None
        for _ in range(setup_repeats):
            if ctx is not None:
                ctx.close()
            start = now()
            ctx = workload.setup(args.seed, size, tmp)
            setups.append(now() - start)

        tally = Tally()
        untraced = Recorder(args.workload, enabled=False)
        deadline = wall() + untraced_seconds
        while tally.count("round_s") < min_rounds or wall() < deadline:
            gc.collect()
            workload.run_round(ctx, tally, untraced)
        named = workload.summarize(tally)
        named["setup_s"] = statistics.median(setups)
        named["peak_rss_mb"] = peak_rss_mb()

        layers: dict[str, float] = {}
        recorder = None
        if tracing:
            recorder = Recorder(args.workload, enabled=True)
            traced = Tally()
            deadline = wall() + args.seconds / 2
            while traced.count("round_s") < 1 or wall() < deadline:
                gc.collect()
                workload.trace_round(ctx, traced, recorder)
            layers = workload.layer_metrics(ctx, traced, recorder)
            layers["corpus.build_s"] = ctx.corpus_build_s
            layers["host.calib_ms"] = clock.kernel_ms()
            layers["trace.overhead_ratio"] = (
                traced.median("round_s") / tally.median("round_s") - 1.0
            )
            layers.update({f"e2e.{name}": value for name, value in named.items()})
            tally.attempted += traced.attempted
            tally.failed += traced.failed
            tally.failures += traced.failures
        ctx.close()
    clock.stop()

    named["op_fail_ratio"] = tally.failed / max(1, tally.attempted)
    report(args, tally, named, layers, recorder)
    result = {
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": (
            spec.contract_layers(layers)
            if tracing
            else spec.contract_e2e(args.workload, named)
        ),
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def report(args, tally: Tally, named, layers, recorder) -> None:
    """Every metric by name with unit and sample count; the full detail
    also goes to ``--detail`` for the orchestrator."""
    rounds = tally.count("round_s")
    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  "
          f"attempted {tally.attempted}  failed {tally.failed}")
    kinds = load_workload(args.workload).KINDS
    for name in spec.PRODUCES[args.workload]:
        samples = ""
        if name in kinds:
            durations = [v for (kind, _), v in tally.ops.items() if kind in kinds[name]]
            samples = (f"n={len(durations)} operations, "
                       f"{sum(map(len, durations))} samples")
        print(f"  {name:<26} {named[name]:>14.4f} {spec.E2E[name][0]:<10} {samples}")
    for name in sorted(layers):
        print(f"  {name:<34} {layers[name]:>16.4f}")
    for key in sorted(tally.info):
        print(f"  {key:<26} {tally.info[key]}")
    for failure in tally.failures:
        print(f"  CHECK FAILED: {failure}")
    shares = recorder.layer_shares() if recorder is not None else {}
    if shares:
        print("  layer shares of traced self time: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in shares.items()
        ))
    if recorder is not None and args.trace_out:
        recorder.write(Path(args.trace_out))
    if args.detail:
        Path(args.detail).write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "rounds": rounds,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "failures": tally.failures,
            "e2e": {name: named[name] for name in spec.PRODUCES[args.workload]},
            "layers": layers,
            "layer_shares": shares,
            "info": tally.info,
        }, indent=2, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", metavar="DIR")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", metavar="FILE")
    parser.add_argument("--detail", metavar="FILE", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.5 if args.quick else spec.benchmark_json()["run_seconds"]
    if args.workload:
        if os.environ.get("PYTHONHASHSEED") != "0":
            # string hashing is randomised per process; pinning it makes
            # set/dict iteration order, and with it allocation patterns
            # and the digests, the same in every workload process
            os.environ["PYTHONHASHSEED"] = "0"
            os.execv(sys.executable, [sys.executable, *sys.argv])
        return run_workload(args)
    import orchestrate

    return orchestrate.main(args)


if __name__ == "__main__":
    sys.exit(main())
