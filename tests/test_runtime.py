"""Tests for the unified runtime clock (repro.runtime).

The virtual clock is the substrate every timing-dependent layer now
stands on, so these tests pin down its coordination semantics (time
advances only when every registered worker is parked), the exact
virtual timestamps of backoff/politeness behaviour, and the headline
property: identical virtual-time crawls are byte-identical and consume
(essentially) zero wall time.
"""

import json
import threading
import time

import pytest

from repro.core.config import SystemConfig
from repro.core.system import SecurityKG
from repro.crawlers import (
    CrawlEngine,
    Fetcher,
    Frontier,
    HostRateLimiter,
    JobSpec,
    PeriodicScheduler,
    build_all_crawlers,
)
from repro.runtime import (
    REAL_CLOCK,
    Backoff,
    Clock,
    RealClock,
    RetryPolicy,
    Stopwatch,
    VirtualClock,
    clock_from_name,
)
from repro.websim import SimulatedTransport, build_default_web


class TestRealClock:
    def test_monotonic_now(self):
        clock = RealClock()
        first = clock.now()
        assert clock.now() >= first

    def test_sleep_zero_is_instant(self):
        start = time.perf_counter()
        REAL_CLOCK.sleep(0)
        REAL_CLOCK.sleep(-1)
        assert time.perf_counter() - start < 0.1

    def test_wait_for_set_event(self):
        event = threading.Event()
        event.set()
        assert REAL_CLOCK.wait_for(event, timeout=10.0)

    def test_worker_context_is_noop(self):
        with REAL_CLOCK.worker():
            pass

    def test_condition_is_plain(self):
        lock = threading.Lock()
        cond = REAL_CLOCK.condition(lock)
        assert isinstance(cond, threading.Condition)
        with lock:
            cond.notify_all()

    def test_satisfies_protocol(self):
        assert isinstance(REAL_CLOCK, Clock)
        assert isinstance(VirtualClock(), Clock)


class TestVirtualClockSingleThread:
    def test_sleep_advances_virtual_time_instantly(self):
        clock = VirtualClock()
        start = time.perf_counter()
        clock.sleep(3600.0)
        assert clock.now() == 3600.0
        assert time.perf_counter() - start < 1.0

    def test_sleep_accumulates(self):
        clock = VirtualClock()
        clock.sleep(1.5)
        clock.sleep(0.5)
        assert clock.now() == 2.0

    def test_nonpositive_sleep_is_noop(self):
        clock = VirtualClock()
        clock.sleep(0)
        clock.sleep(-5)
        assert clock.now() == 0.0
        assert clock.sleeps == 0

    def test_wait_for_unset_event_advances_timeout(self):
        clock = VirtualClock()
        assert not clock.wait_for(threading.Event(), timeout=7.0)
        assert clock.now() == 7.0

    def test_wait_for_set_event_is_instant(self):
        clock = VirtualClock()
        event = threading.Event()
        event.set()
        assert clock.wait_for(event, timeout=7.0)
        assert clock.now() == 0.0

    def test_stopwatch_measures_virtual_time(self):
        clock = VirtualClock()
        watch = Stopwatch(clock)
        clock.sleep(2.5)
        assert watch.elapsed == 2.5


class TestVirtualClockCoordination:
    def test_two_workers_interleave_deterministically(self):
        clock = VirtualClock()
        wakes: list[tuple[str, float]] = []
        lock = threading.Lock()
        ready = threading.Barrier(2)

        def run(name: str, delays: list[float]) -> None:
            with clock.worker():
                ready.wait()
                for delay in delays:
                    clock.sleep(delay)
                    with lock:
                        wakes.append((name, clock.now()))

        threads = [
            threading.Thread(target=run, args=("a", [1.0, 2.0])),
            threading.Thread(target=run, args=("b", [2.5])),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert sorted(wakes, key=lambda w: (w[1], w[0])) == [
            ("a", 1.0),
            ("b", 2.5),
            ("a", 3.0),
        ]
        assert clock.now() == 3.0

    def test_time_waits_for_runnable_worker(self):
        # A runnable (never-sleeping) worker pins virtual time until it
        # unregisters; only then may the sleeper's deadline be reached.
        clock = VirtualClock()
        observed: list[float] = []

        def sleeper() -> None:
            with clock.worker():
                clock.sleep(5.0)
                observed.append(clock.now())

        thread = threading.Thread(target=sleeper)
        with clock.worker():
            thread.start()
            # Hand the sleeper time to park; our registration keeps the
            # timeline frozen regardless of how long that takes.
            deadline = time.perf_counter() + 5.0
            while clock.sleeps == 0 and time.perf_counter() < deadline:
                time.sleep(0.001)  # repro: allow[raw-sleep]
            assert clock.now() == 0.0
        thread.join(timeout=10.0)
        assert observed == [5.0]

    def test_condition_wait_does_not_hold_up_time(self):
        clock = VirtualClock()
        lock = threading.Lock()
        cond = clock.condition(lock)
        state = {"go": False}
        done: list[float] = []

        def waiter() -> None:
            with clock.worker():
                with lock:
                    while not state["go"]:
                        cond.wait()
                done.append(clock.now())

        thread = threading.Thread(target=waiter)
        thread.start()
        # the only other activity is this unregistered sleep; it may
        # advance time because the sole worker is condition-waiting
        clock.sleep(4.0)
        assert clock.now() == 4.0
        with lock:
            state["go"] = True
            cond.notify()
        thread.join(timeout=10.0)
        assert done == [4.0]

    def test_notified_waiter_blocks_advancement_until_resumed(self):
        # A notify makes its target runnable immediately: time must not
        # jump to a sleeper's deadline in the window between the notify
        # and the woken thread actually resuming.
        clock = VirtualClock()
        lock = threading.Lock()
        cond = clock.condition(lock)
        state = {"go": False}
        seen: list[float] = []
        ready = threading.Barrier(2)

        def waiter() -> None:
            with clock.worker():
                ready.wait()
                with lock:
                    while not state["go"]:
                        cond.wait()
                seen.append(clock.now())
                clock.sleep(1.0)
                seen.append(clock.now())

        def sleeper() -> None:
            with clock.worker():
                ready.wait()
                # wait for the waiter to park, then hand it work and
                # immediately park on a far deadline
                deadline = time.perf_counter() + 5.0
                while time.perf_counter() < deadline:
                    with lock:
                        if cond._waiters:  # test-only peek
                            break
                    time.sleep(0.001)  # repro: allow[raw-sleep]
                with lock:
                    state["go"] = True
                    cond.notify()
                clock.sleep(100.0)

        threads = [
            threading.Thread(target=waiter),
            threading.Thread(target=sleeper),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        # the waiter woke at t=0 (not t=100) and finished its own sleep
        # before the far deadline
        assert seen == [0.0, 1.0]

    def test_unregistered_thread_sleep_is_instant(self):
        clock = VirtualClock()
        start = time.perf_counter()
        clock.sleep(1000.0)
        assert time.perf_counter() - start < 1.0


class TestRetryPolicy:
    def test_backoff_schedule(self):
        backoff = Backoff(base=0.1, factor=2.0)
        assert [backoff.delay(k) for k in range(4)] == pytest.approx(
            [0.1, 0.2, 0.4, 0.8]
        )

    def test_backoff_cap(self):
        backoff = Backoff(base=1.0, factor=10.0, max_delay=50.0)
        assert backoff.delay(3) == 50.0

    def test_attempts_sleep_between_retries(self):
        clock = VirtualClock()
        policy = RetryPolicy(max_retries=2, backoff=Backoff(base=1.0))
        stamps = [(attempt, clock.now()) for attempt in policy.attempts(clock)]
        # no sleep before the first attempt; 1s then 2s before retries
        assert stamps == [(0, 0.0), (1, 1.0), (2, 3.0)]

    def test_max_attempts(self):
        assert RetryPolicy(max_retries=3).max_attempts == 4


class TestClockFromName:
    def test_real_returns_shared_instance(self):
        assert clock_from_name("real") is REAL_CLOCK

    def test_virtual_returns_fresh_timelines(self):
        first = clock_from_name("virtual")
        second = clock_from_name("virtual")
        assert isinstance(first, VirtualClock)
        assert first is not second

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown clock"):
            clock_from_name("sundial")


class TestRateLimiterUnderVirtualClock:
    def test_exact_spacing_zero_wall_time(self):
        clock = VirtualClock()
        limiter = HostRateLimiter(clock=clock)
        limiter.set_host_delay("h", 2.0)
        start = time.perf_counter()
        waits = [limiter.acquire("h") for _ in range(3)]
        assert waits == [0.0, 2.0, 2.0]
        assert clock.now() == 4.0  # requests land at t=0, 2, 4
        assert time.perf_counter() - start < 1.0


class TestSchedulerUnderVirtualClock:
    def test_reboot_after_failure_exact_timestamps(self):
        clock = VirtualClock()
        calls = []

        def flaky():
            calls.append(clock.now())
            if len(calls) < 3:
                raise RuntimeError("boom")
            return "ok"

        scheduler = PeriodicScheduler(
            [JobSpec("flaky", flaky, max_restarts=3, backoff=0.1)],
            clock=clock,
        )
        start = time.perf_counter()
        outcomes = scheduler.run_cycles(1)
        # attempt at t=0 crashes; reboot after 0.1; crash again; reboot
        # after 0.2 more; third attempt succeeds at t=0.3 exactly
        assert calls == pytest.approx([0.0, 0.1, 0.3])
        assert outcomes[0].status == "rebooted"
        assert outcomes[0].attempts == 3
        assert outcomes[0].elapsed == pytest.approx(0.3)
        assert scheduler.stats.reboots == 2
        assert time.perf_counter() - start < 1.0

    def test_cycle_interval_is_virtual(self):
        clock = VirtualClock()
        stamps = []
        scheduler = PeriodicScheduler(
            [JobSpec("tick", lambda: stamps.append(clock.now()))],
            interval=60.0,
            clock=clock,
        )
        scheduler.run_cycles(3)
        assert stamps == [0.0, 60.0, 120.0]


class TestFrontierDrainUnderVirtualClock:
    def test_workers_exit_immediately_on_drain(self):
        # Regression: take(timeout=5.0) used to burn up to 5 real
        # seconds per idle worker after the frontier drained.
        clock = VirtualClock()
        frontier = Frontier(clock=clock)
        frontier.add("only")

        def worker() -> None:
            with clock.worker():
                while True:
                    url = frontier.take()
                    if url is None:
                        return
                    clock.sleep(0.01)
                    frontier.task_done()

        start = time.perf_counter()
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert all(not thread.is_alive() for thread in threads)
        assert time.perf_counter() - start < 2.0

    def test_close_wakes_blocked_takers(self):
        frontier = Frontier()
        frontier.add("a")
        assert frontier.take() == "a"  # in_flight > 0 keeps takers waiting
        results = []

        def taker() -> None:
            results.append(frontier.take())

        thread = threading.Thread(target=taker)
        thread.start()
        frontier.close()
        thread.join(timeout=5.0)
        assert results == [None]


class TestCrawlDeterminism:
    def _crawl(self):
        clock = VirtualClock()
        web = build_default_web(scenario_count=8, reports_per_site=3)
        transport = SimulatedTransport(
            web, failure_rate=0.2, time_scale=1.0, clock=clock
        )
        engine = CrawlEngine(
            build_all_crawlers(),
            Fetcher(transport, backoff=0.05),
            num_threads=4,
        )
        return engine.crawl()

    @staticmethod
    def _serialize(result) -> str:
        return json.dumps(
            {
                "elapsed": result.elapsed,
                "pages": result.pages_fetched,
                "errors": result.errors,
                "denied": result.denied,
                "documents": [
                    {
                        "url": doc.url,
                        "source": doc.source,
                        "fetched_at": doc.fetched_at,
                        "group_url": doc.group_url,
                        "page_no": doc.page_no,
                        "html": doc.html,
                    }
                    for doc in result.documents
                ],
            },
            sort_keys=True,
        )

    def test_identical_virtual_crawls_are_byte_identical(self):
        first, second = self._crawl(), self._crawl()
        assert first.article_count > 0
        assert self._serialize(first) == self._serialize(second)

    def test_virtual_crawl_costs_no_wall_time(self):
        start = time.perf_counter()
        result = self._crawl()
        wall = time.perf_counter() - start
        assert result.elapsed > wall  # simulated seconds exceed real ones
        assert wall < 10.0


class TestSystemClockWiring:
    def test_virtual_clock_flows_end_to_end(self):
        config = SystemConfig(
            scenario_count=5,
            reports_per_site=2,
            time_scale=1.0,
            clock="virtual",
            connectors=["graph"],
        )
        system = SecurityKG(config)
        assert isinstance(system.clock, VirtualClock)
        assert system.transport.clock is system.clock
        report = system.run_once()
        assert report.reports_stored > 0
        assert report.crawl.elapsed > 0  # virtual seconds were simulated

    def test_real_clock_is_default(self):
        system = SecurityKG(
            SystemConfig(scenario_count=3, reports_per_site=1)
        )
        assert system.clock is REAL_CLOCK

    def test_config_rejects_unknown_clock(self):
        with pytest.raises(ValueError, match="unknown clock"):
            SecurityKG(SystemConfig(clock="sundial"))

    def test_cli_clock_flag(self, tmp_path):
        import io

        from repro.cli import main as cli_main

        out = io.StringIO()
        code = cli_main(
            [
                "run",
                "--clock",
                "virtual",
                "--scenarios",
                "4",
                "--reports-per-site",
                "2",
                "--max-articles",
                "3",
            ],
            out=out,
        )
        assert code == 0
        assert "crawled" in out.getvalue()
