"""Periodic execution and reboot-after-failure.

The crawler framework "schedules the periodic execution and reboot
after failure for different crawlers in an efficient and robust manner"
(paper section 2.2).  :class:`PeriodicScheduler` owns a set of named
jobs; each cycle it runs every job, catches crashes, and reboots the
crashed job with exponential backoff up to a restart budget.  Jobs are
plain callables, so the same scheduler drives crawls in tests,
benchmarks and the end-to-end system.  Intervals and backoff are slept
on the injected :class:`~repro.runtime.Clock`, so long periodic runs
replay in milliseconds under virtual time with exact timestamps.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.obs import NO_OBS, Obs
from repro.runtime import REAL_CLOCK, Backoff, Clock, Stopwatch, named_lock


@dataclass
class JobOutcome:
    """Result of one job execution (including reboots)."""

    job: str
    cycle: int
    status: str  # 'ok' | 'rebooted' | 'failed'
    attempts: int
    elapsed: float
    error: str = ""
    value: object = None


@dataclass
class JobSpec:
    """One scheduled job."""

    name: str
    run: Callable[[], object]
    max_restarts: int = 2
    backoff: float = 0.01


@dataclass
class SchedulerStats:
    """Aggregate counters across cycles."""

    cycles: int = 0
    runs: int = 0
    reboots: int = 0
    failures: int = 0
    outcomes: list[JobOutcome] = field(default_factory=list)


class PeriodicScheduler:
    """Run jobs periodically, rebooting crashed jobs with backoff."""

    def __init__(
        self,
        jobs: list[JobSpec],
        interval: float = 0.0,
        clock: Clock | None = None,
        obs: Obs | None = None,
    ):
        self.jobs = list(jobs)
        self.interval = interval
        self.stats = SchedulerStats()
        self.clock = clock if clock is not None else REAL_CLOCK
        self.obs = obs if obs is not None else NO_OBS
        self._stop = threading.Event()
        # Guards every ``self.stats`` mutation, so a thread that holds
        # the scheduler to ``stop()`` it can also read the counters.
        self._stats_lock = named_lock("scheduler.stats")

    def _execute(self, job: JobSpec, cycle: int) -> JobOutcome:
        with self.obs.tracer.span(
            "scheduler.job", job=job.name, cycle=cycle
        ) as span:
            outcome = self._execute_attempts(job, cycle)
            span.set("status", outcome.status)
        self.obs.metrics.inc("scheduler.runs", job=job.name, status=outcome.status)
        self.obs.metrics.observe(
            "scheduler.job_seconds", outcome.elapsed, job=job.name
        )
        return outcome

    def _execute_attempts(self, job: JobSpec, cycle: int) -> JobOutcome:
        watch = Stopwatch(self.clock)
        schedule = Backoff(base=job.backoff)
        attempts = 0
        last_error = ""
        while attempts <= job.max_restarts:
            attempts += 1
            try:
                value = job.run()
            except Exception as error:  # reboot-after-failure semantics
                last_error = f"{type(error).__name__}: {error}"
                if attempts <= job.max_restarts:
                    with self._stats_lock:
                        self.stats.reboots += 1
                    self.obs.metrics.inc("scheduler.reboots", job=job.name)
                    self.clock.sleep(schedule.delay(attempts - 1))
                continue
            status = "ok" if attempts == 1 else "rebooted"
            return JobOutcome(
                job=job.name,
                cycle=cycle,
                status=status,
                attempts=attempts,
                elapsed=watch.elapsed,
                value=value,
            )
        with self._stats_lock:
            self.stats.failures += 1
        self.obs.metrics.inc("scheduler.failures", job=job.name)
        return JobOutcome(
            job=job.name,
            cycle=cycle,
            status="failed",
            attempts=attempts,
            elapsed=watch.elapsed,
            error=last_error,
        )

    def run_cycles(self, cycles: int = 1) -> list[JobOutcome]:
        """Run every job for ``cycles`` rounds (deterministic order)."""
        outcomes: list[JobOutcome] = []
        for cycle in range(cycles):
            if self._stop.is_set():
                break
            for job in self.jobs:
                outcome = self._execute(job, cycle)
                outcomes.append(outcome)
                with self._stats_lock:
                    self.stats.runs += 1
            with self._stats_lock:
                self.stats.cycles += 1
            if self.interval and cycle + 1 < cycles:
                self.clock.sleep(self.interval)
        with self._stats_lock:
            self.stats.outcomes.extend(outcomes)
        return outcomes

    def stop(self) -> None:
        self._stop.set()


__all__ = ["JobOutcome", "JobSpec", "PeriodicScheduler", "SchedulerStats"]
