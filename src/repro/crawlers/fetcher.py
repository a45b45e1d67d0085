"""Robust fetching: retries, backoff, robots gating, politeness.

The :class:`Fetcher` is the single choke point between the crawl engine
and the transport.  It caches per-host robots policies, applies the
rate limiter, retries transient failures (connection errors and 5xx)
through a shared :class:`~repro.runtime.RetryPolicy`, and keeps
counters the robustness benchmark (E2) reports.  Backoff sleeps go
through the transport's clock, so retry storms replay instantly under
virtual time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.crawlers.ratelimit import HostRateLimiter
from repro.crawlers.robots import RobotsPolicy, path_of
from repro.obs import NO_OBS, Obs
from repro.runtime import (
    REAL_CLOCK,
    Backoff,
    RetryPolicy,
    Stopwatch,
    named_lock,
)
from repro.websim.network import Response, SimulatedTransport, TransportError

#: The user agent robots.txt rules are matched against.
AGENT = "securitykg"


class FetchDenied(Exception):
    """The URL is disallowed by the host's robots policy."""


class FetchFailed(Exception):
    """All retry attempts were exhausted."""


@dataclass
class FetchStats:
    """Thread-safe fetch outcome counters."""

    attempts: int = 0
    successes: int = 0
    retries: int = 0
    denied: int = 0
    failures: int = 0
    _lock: threading.Lock = field(
        default_factory=lambda: named_lock("crawl.fetch_stats"), repr=False
    )

    def bump(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "attempts": self.attempts,
                "successes": self.successes,
                "retries": self.retries,
                "denied": self.denied,
                "failures": self.failures,
            }


class Fetcher:
    """Fetch URLs politely and robustly over a transport.

    Parameters
    ----------
    transport:
        Anything with ``fetch(url) -> Response`` raising
        :class:`TransportError` on connection problems (the simulated
        transport here; a real HTTP client in production).
    max_retries:
        Additional attempts after the first failure.
    backoff:
        Base backoff in seconds; attempt *k* sleeps ``backoff * 2**k``.

    robots.txt is fetched once per host and consulted for every URL.

    Backoff sleeps and politeness waits run on the transport's clock,
    so injecting a virtual clock into the transport is enough to
    virtualise the whole fetch path.
    """

    def __init__(
        self,
        transport: SimulatedTransport,
        max_retries: int = 3,
        backoff: float = 0.01,
        obs: Obs | None = None,
    ):
        self.transport = transport
        self.clock = getattr(transport, "clock", None) or REAL_CLOCK
        self.obs = obs if obs is not None else NO_OBS
        self.rate_limiter = HostRateLimiter(clock=self.clock, obs=self.obs)
        self.retry = RetryPolicy(
            max_retries=max_retries, backoff=Backoff(base=backoff)
        )
        self.stats = FetchStats()
        self._robots: dict[str, RobotsPolicy] = {}
        self._robots_lock = named_lock("crawl.robots")

    @property
    def max_retries(self) -> int:
        return self.retry.max_retries

    @staticmethod
    def host_of(url: str) -> str:
        return url.split("://", 1)[-1].split("/", 1)[0]

    def _robots_for(self, host: str) -> RobotsPolicy:
        with self._robots_lock:
            cached = self._robots.get(host)
        if cached is not None:
            return cached
        try:
            response = self.transport.fetch(f"https://{host}/robots.txt")
            policy = (
                RobotsPolicy.parse(response.body)
                if response.ok
                else RobotsPolicy.allow_all()
            )
        except TransportError:
            policy = RobotsPolicy.allow_all()
        with self._robots_lock:
            self._robots.setdefault(host, policy)
            policy = self._robots[host]
        delay = policy.crawl_delay(AGENT)
        if delay:
            self.rate_limiter.set_host_delay(host, delay)
        return policy

    def fetch(
        self,
        url: str,
        source: str | None = None,
        max_attempts: int | None = None,
    ) -> Response:
        """Fetch one URL with robots gating, politeness and retries.

        Raises :class:`FetchDenied` for robots-disallowed URLs and
        :class:`FetchFailed` when every attempt failed.  4xx responses
        are returned as-is (they are permanent, retrying is pointless).
        ``source`` labels the latency histogram (falls back to host).
        ``max_attempts`` caps the retry budget below the policy's
        (quarantine probes ask a yes/no question; retrying is waste).
        """
        host = self.host_of(url)
        if not url.endswith("/robots.txt"):
            policy = self._robots_for(host)
            if not policy.allowed(path_of(url), AGENT):
                self.stats.bump(denied=1)
                self.obs.metrics.inc("crawl.fetch_denied")
                raise FetchDenied(url)

        watch = Stopwatch(self.clock)
        last_error: Exception | None = None
        for attempt in self.retry.attempts(self.clock):
            if attempt:
                self.stats.bump(retries=1)
                self.obs.metrics.inc("crawl.fetch_retries")
            self.rate_limiter.acquire(host)
            self.stats.bump(attempts=1)
            self.obs.metrics.inc("crawl.fetch_attempts")
            try:
                response = self.transport.fetch(url)
            except TransportError as error:
                last_error = error
            else:
                if response.status < 500:
                    self.stats.bump(successes=1)
                    self.obs.metrics.observe(
                        "crawl.fetch_seconds",
                        watch.elapsed,
                        source=source or host,
                    )
                    return response
                last_error = FetchFailed(f"{url} -> {response.status}")
            if max_attempts is not None and attempt + 1 >= max_attempts:
                break
        self.stats.bump(failures=1)
        self.obs.metrics.inc("crawl.fetch_failures")
        self.obs.metrics.observe(
            "crawl.fetch_seconds", watch.elapsed, source=source or host
        )
        raise FetchFailed(f"giving up on {url}: {last_error}")


__all__ = ["FetchDenied", "FetchFailed", "FetchStats", "Fetcher"]
