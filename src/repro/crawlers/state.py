"""Incremental crawl state.

The paper's crawler framework collects "periodically and
incrementally": a re-crawl must skip reports it already has.  The
state records every article URL ever emitted plus per-source crawl
timestamps.

The state is a participant in a :class:`~repro.storage.StorageEngine`
and has no persistence of its own: seen-URL deltas are *staged* --
applied to memory immediately so the crawler's dedup works, but made
durable only by the transaction that stores the matching report.  A
crash between crawl and store therefore re-crawls the report instead
of silently losing it.  ``CrawlState()`` without an engine owns a
private in-memory one (a crawl that stores nothing).
"""

from __future__ import annotations

import json

from repro.storage.engine import StorageEngine


class CrawlParticipant:
    """The crawl state's storage-engine adapter.

    Ops: ``seen`` / ``unseen`` (url), ``crawl`` (source + timestamp).
    """

    name = "crawl"

    def __init__(self) -> None:
        self.seen: set[str] = set()
        self.last_crawl: dict[str, float] = {}

    def apply(self, ops: list[dict]) -> None:
        for op in ops:
            kind = op["op"]
            if kind == "seen":
                self.seen.add(op["url"])
            elif kind == "unseen":
                self.seen.discard(op["url"])
            elif kind == "crawl":
                self.last_crawl[op["source"]] = float(op["ts"])
            else:  # pragma: no cover - corrupted journal
                raise ValueError(f"unknown crawl operation {kind!r}")

    def snapshot_data(self) -> dict:
        return {
            "seen": sorted(self.seen),
            "last_crawl": dict(self.last_crawl),
        }

    def snapshot_text(self) -> str:
        return json.dumps(self.snapshot_data())

    def load_snapshot(self, data: dict) -> None:
        self.seen = set(data.get("seen", []))
        self.last_crawl = {
            str(k): float(v) for k, v in data.get("last_crawl", {}).items()
        }

    def reset(self) -> None:
        self.seen = set()
        self.last_crawl = {}


class CrawlState:
    """Thread-safe seen-URL set over a storage engine's crawl participant."""

    def __init__(self, engine: StorageEngine | None = None):
        if engine is None:
            engine = StorageEngine(None, [CrawlParticipant()])
        self.engine = engine
        self._participant = engine.participant(CrawlParticipant.name)
        self._lock = engine.lock

    def is_seen(self, url: str) -> bool:
        with self._lock:
            return url in self._participant.seen

    def mark_seen(self, url: str) -> bool:
        """Record a URL; returns False when it was already known.

        The delta is staged under the URL as its key: visible to dedup
        at once, durable only with the report's commit.
        """
        with self._lock:
            if url in self._participant.seen:
                return False
            self.engine.stage(
                CrawlParticipant.name, {"op": "seen", "url": url}, key=url
            )
            return True

    def unmark(self, url: str) -> None:
        """Forget a URL (e.g. its document was dropped by a crawl cap)."""
        with self._lock:
            if self.engine.unstage(CrawlParticipant.name, url):
                # the seen delta never became durable; just revert memory
                self._participant.apply([{"op": "unseen", "url": url}])
            elif url in self._participant.seen:
                self.engine.stage(
                    CrawlParticipant.name, {"op": "unseen", "url": url}, key=url
                )

    def record_crawl(self, source: str, timestamp: float) -> None:
        with self._lock:
            self.engine.stage(
                CrawlParticipant.name,
                {"op": "crawl", "source": source, "ts": timestamp},
            )

    def last_crawl(self, source: str) -> float | None:
        with self._lock:
            return self._participant.last_crawl.get(source)


__all__ = ["CrawlParticipant", "CrawlState"]
