"""E19 -- observability overhead budget and trace determinism.

OBSERVABILITY.md promises the instrumented system costs (near) nothing
when observability is off: every pipeline stage always runs under a
span context (enforced by the ``obs/untraced-stage`` lint rule), but
the default tracer/metrics are shared no-op singletons.

Reproduction: run the E3 processing pipeline three ways over the same
crawl batch -- (a) a pre-observability variant whose stage runner has
no span at all, (b) the instrumented pipeline with the default no-op
bundle, (c) the instrumented pipeline with live tracing + metrics --
and assert (b) stays within the 2% budget of (a).  Then re-check the
golden-trace property end-to-end: two seeded virtual-clock systems
must export byte-identical traces.
"""

from conftest import record_result

from repro import SecurityKG, SystemConfig
from repro.core import Checker, Extractor, ParserDispatch, Porter
from repro.core.pipeline import Pipeline, Stage
from repro.crawlers import CrawlEngine, Fetcher, build_all_crawlers
from repro.obs import make_obs
from repro.runtime import VirtualClock, clock_from_name
from repro.websim import SimulatedTransport, build_default_web

ROUNDS = 5
BUDGET_PCT = 2.0
#: Absolute noise floor (seconds): on a batch this small, scheduler
#: jitter can exceed 2% of a sub-second elapsed time.
NOISE_FLOOR_S = 0.05


class UntracedPipeline(Pipeline):
    """The pre-observability stage runner: no span, no metrics."""

    def _run_stage(self, stage, item, parent):
        return stage.fn(item)


def build_reports():
    web = build_default_web(scenario_count=12, reports_per_site=3)
    engine = CrawlEngine(
        build_all_crawlers(),
        Fetcher(SimulatedTransport(web, time_scale=1.0, clock=VirtualClock())),
        num_threads=8,
    )
    return Porter().port(engine.crawl().documents)


def make_pipeline(pipeline_cls=Pipeline, obs=None):
    checker = Checker()
    parsers = ParserDispatch()
    extractor = Extractor(obs=obs)
    return pipeline_cls(
        [
            Stage(
                "check",
                lambda r: r if checker.why_rejected(r) is None else None,
                workers=1,
            ),
            Stage("parse", parsers.parse, workers=4),
            Stage("extract", extractor.extract, workers=4),
        ],
        obs=obs,
    )


def best_of(factories, reports, rounds=ROUNDS):
    """Min elapsed per variant, rounds interleaved so drift (thermal,
    container neighbours) hits every variant equally."""
    best = [None] * len(factories)
    outputs = [None] * len(factories)
    for factory in factories:  # warmup: lazy imports, allocator
        factory().run(reports)
    for _ in range(rounds):
        for index, factory in enumerate(factories):
            result = factory().run(reports)
            if best[index] is None or result.elapsed < best[index]:
                best[index] = result.elapsed
                outputs[index] = len(result.outputs)
    return best, outputs


def run_traced_system():
    clock = clock_from_name("virtual")
    obs = make_obs(clock)
    kg = SecurityKG(
        SystemConfig(scenario_count=5, reports_per_site=2, clock="virtual"),
        clock=clock,
        obs=obs,
    )
    kg.run_once()
    return obs.tracer.export_jsonl()


def test_bench_observability(benchmark):
    reports = build_reports()

    (untraced_s, noop_s, live_s), (untraced_out, noop_out, live_out) = best_of(
        [
            lambda: make_pipeline(UntracedPipeline),
            lambda: make_pipeline(Pipeline),
            lambda: make_pipeline(Pipeline, obs=make_obs()),
        ],
        reports,
    )
    benchmark.pedantic(
        make_pipeline(Pipeline).run, args=(reports,), rounds=1, iterations=1
    )

    overhead_pct = (noop_s / untraced_s - 1.0) * 100
    live_pct = (live_s / untraced_s - 1.0) * 100
    first, second = run_traced_system(), run_traced_system()
    deterministic = first == second and len(first) > 0

    print(f"\nE19: observability overhead ({len(reports)} reports, "
          f"check->parse->extract, best of {ROUNDS})")
    print(f"  {'variant':<22} {'elapsed (s)':>12} {'vs untraced':>12}")
    print(f"  {'untraced pipeline':<22} {untraced_s:>12.3f} {'--':>12}")
    print(f"  {'no-op obs (default)':<22} {noop_s:>12.3f} "
          f"{overhead_pct:>+11.1f}%")
    print(f"  {'live trace+metrics':<22} {live_s:>12.3f} "
          f"{live_pct:>+11.1f}%")
    print(f"  virtual-clock trace byte-identical across runs: {deterministic}")

    record_result(
        "E19",
        {
            "untraced_s": round(untraced_s, 4),
            "noop_s": round(noop_s, 4),
            "live_s": round(live_s, 4),
            "noop_overhead_pct": round(overhead_pct, 2),
            "live_overhead_pct": round(live_pct, 2),
            "budget_pct": BUDGET_PCT,
            "trace_deterministic": deterministic,
        },
    )

    assert untraced_out == noop_out == live_out
    assert deterministic
    # The budget: disabled observability must be invisible in E3-style
    # throughput (with an absolute floor for sub-second noise).
    assert (
        overhead_pct <= BUDGET_PCT or (noop_s - untraced_s) <= NOISE_FLOOR_S
    ), f"no-op observability costs {overhead_pct:+.1f}%"
