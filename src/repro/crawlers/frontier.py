"""URL frontier: the crawl's thread-safe work queue.

Deduplicates URLs for the lifetime of the frontier, supports priority
levels (continuation pages jump the queue so multi-page reports finish
promptly) and provides a blocking ``take`` with in-flight accounting so
worker threads can detect global completion without busy-waiting or
polling timeouts: ``task_done`` and ``close`` wake every waiter the
moment the crawl is finished.
"""

from __future__ import annotations

import collections
import threading

from repro.obs import NO_OBS, Obs
from repro.runtime import REAL_CLOCK, Clock, named_lock


class Frontier:
    """Thread-safe deduplicating URL queue with two priority bands."""

    def __init__(self, clock: Clock | None = None, obs: Obs | None = None):
        self._clock = clock if clock is not None else REAL_CLOCK
        self._obs = obs if obs is not None else NO_OBS
        self._high: collections.deque[str] = collections.deque()
        self._normal: collections.deque[str] = collections.deque()
        self._seen: set[str] = set()
        self._in_flight = 0
        self._lock = named_lock("crawl.frontier")
        # clock-aware condition: waiting workers don't hold up virtual
        # time, and a notified worker counts as runnable immediately
        self._available = self._clock.condition(self._lock)
        self._closed = False

    def add(self, url: str, priority: bool = False) -> bool:
        """Enqueue a URL; returns False when it was already seen."""
        with self._lock:
            if url in self._seen or self._closed:
                return False
            self._seen.add(url)
            (self._high if priority else self._normal).append(url)
            self._obs.metrics.max_gauge(
                "crawl.frontier_depth_peak",
                len(self._high) + len(self._normal),
            )
            self._available.notify()
            return True

    def add_all(self, urls: list[str]) -> int:
        """Enqueue many URLs in the normal band; returns how many were new."""
        return sum(self.add(url) for url in urls)

    def mark_seen(self, url: str) -> None:
        """Record a URL as seen without queueing it (incremental crawls)."""
        with self._lock:
            self._seen.add(url)

    def take(self) -> str | None:
        """Block until a URL is available or the crawl is finished.

        Returns ``None`` when the frontier is drained *and* no worker is
        mid-task (so no new URLs can appear), or on close.  The
        drain/close wakeups make a timeout unnecessary.
        """
        with self._lock:
            while True:
                if self._high:
                    self._in_flight += 1
                    return self._high.popleft()
                if self._normal:
                    self._in_flight += 1
                    return self._normal.popleft()
                if self._closed or self._in_flight == 0:
                    return None
                self._available.wait()

    def task_done(self) -> None:
        """Signal that a taken URL finished processing."""
        with self._lock:
            self._in_flight -= 1
            if self._in_flight == 0 and not self._high and not self._normal:
                self._available.notify_all()

    def close(self) -> None:
        """Wake all waiters and refuse further URLs."""
        with self._lock:
            self._closed = True
            self._available.notify_all()

    def __len__(self) -> int:
        with self._lock:
            return len(self._high) + len(self._normal)


__all__ = ["Frontier"]
