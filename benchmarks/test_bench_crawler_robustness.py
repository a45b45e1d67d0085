"""E2 -- crawler coverage, periodic execution and reboot after failure.

Claims (section 2.2): 40+ crawlers, one per source; the framework
"schedules the periodic execution and reboot after failure for
different crawlers in an efficient and robust manner"; collection is
periodic and *incremental*.

Reproduction: crawl all sources with 15% injected transport failures
(retries must recover everything), crash a crawler job and watch the
scheduler reboot it, and re-crawl to confirm incremental no-op.  The
whole experiment runs under a :class:`~repro.runtime.VirtualClock`
with realistic latency (``time_scale=1.0``): retry backoff and
politeness delays are simulated exactly but cost no wall time.
"""

import time

from conftest import record_result

from repro.crawlers import (
    CRAWLER_REGISTRY,
    CrawlEngine,
    CrawlState,
    Fetcher,
    JobSpec,
    PeriodicScheduler,
    build_all_crawlers,
)
from repro.crawlers.state import CrawlParticipant
from repro.runtime import VirtualClock
from repro.storage import StorageEngine
from repro.websim import SimulatedTransport, build_default_web


def test_bench_robust_crawl(benchmark):
    web = build_default_web(scenario_count=15, reports_per_site=3)
    bench_started = time.perf_counter()

    def robust_crawl():
        transport = SimulatedTransport(
            web, time_scale=1.0, failure_rate=0.15, clock=VirtualClock()
        )
        fetcher = Fetcher(transport, max_retries=4, backoff=0.05)
        engine = CrawlEngine(build_all_crawlers(), fetcher, num_threads=8)
        return engine.crawl(), fetcher

    (result, fetcher) = benchmark.pedantic(robust_crawl, rounds=1, iterations=1)
    stats = fetcher.stats.snapshot()

    # incremental re-crawl with shared state collects nothing new
    state = CrawlState(StorageEngine(None, [CrawlParticipant()]))
    first = CrawlEngine(
        build_all_crawlers(),
        Fetcher(SimulatedTransport(web, time_scale=1.0, clock=VirtualClock())),
        num_threads=8,
        state=state,
    ).crawl()
    second = CrawlEngine(
        build_all_crawlers(),
        Fetcher(SimulatedTransport(web, time_scale=1.0, clock=VirtualClock())),
        num_threads=8,
        state=state,
    ).crawl()

    # scheduler reboots a crashing job, backing off on virtual time
    crashes = {"left": 2}
    scheduler_clock = VirtualClock()

    def flaky_job():
        if crashes["left"] > 0:
            crashes["left"] -= 1
            raise ConnectionError("site went away")
        return "ok"

    scheduler = PeriodicScheduler(
        [JobSpec("flaky-crawler", flaky_job, max_restarts=3, backoff=0.5)],
        clock=scheduler_clock,
    )
    outcomes = scheduler.run_cycles(1)
    wall_s = time.perf_counter() - bench_started

    print("\nE2: crawler coverage and robustness")
    print(f"  registered crawlers: {len(CRAWLER_REGISTRY)} (paper: 40+)")
    print(
        f"  with 15% injected failures: {result.article_count}/"
        f"{web.total_reports} reports collected, "
        f"{stats['retries']} retries, {result.errors and len(result.errors) or 0} "
        "permanent errors"
    )
    print(
        f"  incremental: first crawl {first.article_count} reports, "
        f"re-crawl {second.article_count} (expected 0)"
    )
    print(
        f"  scheduler reboot-after-failure: job crashed twice, outcome "
        f"{outcomes[0].status!r} after {outcomes[0].attempts} attempts, "
        f"{scheduler_clock.now():.1f}s of virtual backoff"
    )
    print(
        f"  wall time: {wall_s:.2f}s for {result.elapsed:.1f}s of "
        "simulated crawling (virtual clock)"
    )

    record_result(
        "E2",
        {
            "crawlers": len(CRAWLER_REGISTRY),
            "collected_with_failures": result.article_count,
            "expected": web.total_reports,
            "retries": stats["retries"],
            "incremental_second_crawl": second.article_count,
            "reboot_outcome": outcomes[0].status,
            "virtual_backoff_s": round(scheduler_clock.now(), 2),
            "wall_s": round(wall_s, 2),
        },
    )
    assert len(CRAWLER_REGISTRY) >= 40
    assert result.article_count == web.total_reports
    assert second.article_count == 0
    assert outcomes[0].status == "rebooted"
    # exact virtual backoff: two reboots at 0.5s and 1.0s
    assert scheduler_clock.now() == 1.5
    # wall-time budget: the simulated seconds must not be slept for real
    assert wall_s < 20.0, f"virtual-clock robustness run burned {wall_s:.1f}s"
