"""Per-host politeness rate limiting.

Enforces a minimum interval between requests to the same host: the
host's robots ``Crawl-delay``, stretched by health feedback; a host
with neither is not throttled.
``acquire`` blocks the calling worker just long enough; hosts are
independent, so a multi-threaded crawl of 40+ sites proceeds at full
aggregate speed while each individual site sees a polite pace.  All
waiting happens on the injected :class:`~repro.runtime.Clock`, so under
a virtual clock the spacing between requests is exact and costs no
wall time.
"""

from __future__ import annotations

from repro.obs import NO_OBS, Obs
from repro.runtime import REAL_CLOCK, Clock, named_lock


class HostRateLimiter:
    """Minimum-interval limiter keyed by host."""

    def __init__(self, clock: Clock | None = None, obs: Obs | None = None):
        self.clock = clock if clock is not None else REAL_CLOCK
        self.obs = obs if obs is not None else NO_OBS
        self._next_allowed: dict[str, float] = {}
        self._host_delay: dict[str, float] = {}
        self._policy: dict[str, tuple[float, float]] = {}
        self._lock = named_lock("crawl.ratelimit")

    def set_host_delay(self, host: str, delay: float | None) -> None:
        """Apply a robots Crawl-delay for one host (None clears it)."""
        with self._lock:
            if delay is None:
                self._host_delay.pop(host, None)
            else:
                self._host_delay[host] = delay

    def set_host_multiplier(
        self, host: str, multiplier: float, floor: float = 0.0
    ) -> None:
        """Health-feedback throttle: stretch one host's interval.

        The effective interval becomes ``max(base, floor) * multiplier``
        -- the ``floor`` matters because a host without a Crawl-delay
        has interval 0, where a bare multiplier would change nothing.  A
        multiplier <= 1 with no floor clears the policy.
        """
        with self._lock:
            if multiplier <= 1.0 and floor <= 0.0:
                self._policy.pop(host, None)
            else:
                self._policy[host] = (multiplier, floor)

    def _interval_for(self, host: str) -> float:
        base = self._host_delay.get(host, 0.0)
        multiplier, floor = self._policy.get(host, (1.0, 0.0))
        return max(base, floor) * multiplier

    def acquire(self, host: str) -> float:
        """Block until the host may be contacted; returns the wait time.

        The reservation is made under the lock (so concurrent workers
        queue up distinct slots) but the sleep happens outside it.
        """
        with self._lock:
            now = self.clock.now()
            allowed_at = self._next_allowed.get(host, now)
            start = max(now, allowed_at)
            self._next_allowed[host] = start + self._interval_for(host)
        wait = start - now
        if wait > 0:
            self.obs.metrics.observe("crawl.ratelimit_wait_seconds", wait)
            self.clock.sleep(wait)
        return max(0.0, wait)


__all__ = ["HostRateLimiter"]
