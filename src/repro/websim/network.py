"""Simulated HTTP transport over the synthetic web.

Gives the crawler framework a network with realistic misbehaviour:
per-site latency, jitter, transient 5xx failures and timeouts, plus
per-host request accounting.  Latency is slept on the injected
:class:`~repro.runtime.Clock` scaled by ``time_scale`` -- under the
real clock throughput benchmarks (E1) measure real concurrency
effects; under a :class:`~repro.runtime.VirtualClock` the same
latency profile replays in milliseconds of wall time.

Failure injection is deterministic: whether fetch attempt *k* of a URL
fails is a pure function of ``(FAILURE_SEED, url, k)``, so a failing
crawl is exactly reproducible and retry logic can be tested without
flakiness.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.runtime import REAL_CLOCK, Clock, Stopwatch, named_lock
from repro.websim.rnd import derive_rng
from repro.websim.sites import Web

#: Seeds every latency draw and failure roll.
FAILURE_SEED = 99


class TransportError(Exception):
    """Connection-level failure (simulated timeout / reset)."""


@dataclass(frozen=True)
class Brownout:
    """A window during which one host's fetches mostly fail.

    Models a *gray failure*: the host is up (DNS resolves, connections
    open) but requests fail at ``failure_rate`` between ``start`` and
    ``end`` on the transport's clock.  Failures draw the same
    deterministic randomness as the baseline failure injection, so a
    browned-out crawl is exactly reproducible.
    """

    host: str
    start: float
    end: float
    failure_rate: float = 1.0

    def active(self, host: str, now: float) -> bool:
        return host == self.host and self.start <= now < self.end


@dataclass
class Response:
    """Result of one fetch."""

    url: str
    status: int
    body: str
    elapsed: float
    headers: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


@dataclass
class TransportStats:
    """Thread-safe counters for requests through the transport."""

    total: int = 0
    failures: int = 0
    by_host: dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=lambda: named_lock("websim.transport_stats"),
        repr=False,
    )

    def record(self, host: str, failed: bool) -> None:
        with self._lock:
            self.total += 1
            if failed:
                self.failures += 1
            self.by_host[host] = self.by_host.get(host, 0) + 1

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            return {
                "total": self.total,
                "failures": self.failures,
                "by_host": dict(self.by_host),
            }


class SimulatedTransport:
    """Fetch pages of a :class:`~repro.websim.sites.Web`.

    Parameters
    ----------
    web:
        The synthetic web to serve.
    failure_rate:
        Probability that any single fetch attempt fails with a 503 or a
        :class:`TransportError` (half each).  Retried attempts of the
        same URL draw fresh, deterministic randomness.
    time_scale:
        Multiplier on simulated latency.  ``1.0`` sleeps the site's
        configured latency; ``0.0`` disables sleeping for fast tests.
    clock:
        The runtime clock latency is slept on and ``elapsed`` is
        measured against.  Components downstream (fetcher, engine)
        inherit this clock, so injecting a virtual clock here threads
        virtual time through the whole crawl.
    brownouts:
        Optional :class:`Brownout` windows -- per-host gray-failure
        injection for health/quarantine experiments.
    """

    def __init__(
        self,
        web: Web,
        failure_rate: float = 0.0,
        time_scale: float = 1.0,
        clock: Clock | None = None,
        brownouts: list[Brownout] | None = None,
    ):
        self.web = web
        self.failure_rate = failure_rate
        self.time_scale = time_scale
        self.clock = clock if clock is not None else REAL_CLOCK
        self.brownouts = list(brownouts or [])
        self.stats = TransportStats()
        self._attempts: dict[str, int] = {}
        self._attempt_lock = named_lock("websim.attempts")

    def _next_attempt(self, url: str) -> int:
        with self._attempt_lock:
            attempt = self._attempts.get(url, 0)
            self._attempts[url] = attempt + 1
            return attempt

    def _host(self, url: str) -> str:
        return url.split("://", 1)[-1].split("/", 1)[0]

    def fetch(self, url: str) -> Response:
        """Fetch one URL, simulating latency and injected failures.

        Raises :class:`TransportError` for connection-level failures;
        returns non-2xx :class:`Response` objects for HTTP errors.
        """
        watch = Stopwatch(self.clock)
        host = self._host(url)
        site = self.web.site_for_url(url)

        if site is not None and self.time_scale > 0:
            low, high = site.latency_ms
            jitter = derive_rng(FAILURE_SEED, "lat", url).uniform(low, high)
            self.clock.sleep(jitter / 1000.0 * self.time_scale)

        attempt = self._next_attempt(url)
        failure_rate = self.failure_rate
        if self.brownouts:
            now = self.clock.now()
            for brownout in self.brownouts:
                if brownout.active(host, now):
                    failure_rate = max(failure_rate, brownout.failure_rate)
        roll = derive_rng(FAILURE_SEED, url, attempt).random()
        if roll < failure_rate:
            self.stats.record(host, failed=True)
            if roll < failure_rate / 2:
                raise TransportError(f"simulated connection reset for {url}")
            return Response(
                url=url,
                status=503,
                body="service unavailable",
                elapsed=watch.elapsed,
            )

        body = self.web.page(url)
        if body is None:
            self.stats.record(host, failed=False)
            return Response(
                url=url, status=404, body="not found", elapsed=watch.elapsed
            )
        self.stats.record(host, failed=False)
        return Response(
            url=url,
            status=200,
            body=body,
            elapsed=watch.elapsed,
            headers={"content-type": "text/html; charset=utf-8"},
        )


__all__ = [
    "Brownout",
    "Response",
    "SimulatedTransport",
    "TransportError",
    "TransportStats",
]
