"""Deterministic crash-point fault injection.

Every durability-critical boundary in the storage engine is named a
:data:`CRASH_POINTS` entry.  A :class:`CrashInjector` arms exactly one
of them (optionally the *n*-th time it is reached) and raises
:class:`InjectedCrash` there, simulating the process dying at that
instant.  Because the injector is configured explicitly (or derived
from a seed), every recovery test is reproducible: the same point, the
same hit, the same torn bytes.

Two special "torn" points make the engine leave *partial* bytes behind
before dying -- half a journal line, half a snapshot -- exercising the
recovery paths a clean kill cannot reach.
"""

from __future__ import annotations

import random


class InjectedCrash(RuntimeError):
    """A simulated process death raised at an armed crash point."""

    def __init__(self, point: str):
        super().__init__(f"injected crash at {point!r}")
        self.point = point


#: Every commit/checkpoint boundary the engine can die at, in the order
#: the code reaches them.  Tests iterate this matrix exhaustively.
CRASH_POINTS: tuple[str, ...] = (
    "commit.before-append",   # nothing reached the journal
    "commit.torn-append",     # half a journal line, no newline
    "commit.after-append",    # full line written+flushed, fsync skipped
    "commit.after-fsync",     # commit durable, in-memory apply discarded
    "checkpoint.begin",       # checkpoint requested, nothing written
    "checkpoint.torn-snapshot",   # partial snapshot temp file left behind
    "checkpoint.after-snapshot",  # new snapshot durable, manifest still old
    "checkpoint.torn-manifest",   # partial manifest temp file left behind
    "checkpoint.after-manifest",  # manifest swapped, old generation not yet removed
    "checkpoint.after-cleanup",   # checkpoint fully complete
    "checkpoint.feeds-snapshot",  # post-checkpoint feed snapshots about to run
)


class CrashInjector:
    """Arms one crash point; fires on its ``at_hit``-th occurrence."""

    def __init__(self, point: str, at_hit: int = 1):
        if point not in CRASH_POINTS:
            raise ValueError(
                f"unknown crash point {point!r}; known: {list(CRASH_POINTS)}"
            )
        if at_hit < 1:
            raise ValueError("at_hit is 1-based")
        self.point = point
        self.at_hit = at_hit
        self.hits = 0
        self.fired = False

    @classmethod
    def seeded(cls, seed: int) -> "CrashInjector":
        """Derive a reproducible (point, hit in 1..4) pair from a seed."""
        rng = random.Random(f"crash-injector-{seed}")
        return cls(rng.choice(CRASH_POINTS), at_hit=rng.randint(1, 4))

    def fire(self, point: str) -> bool:
        """Record reaching ``point``; True when the armed crash is due."""
        if self.fired or point != self.point:
            return False
        self.hits += 1
        if self.hits >= self.at_hit:
            self.fired = True
            return True
        return False


class NoFaults:
    """The null injector: never fires."""

    def fire(self, point: str) -> bool:
        del point
        return False


NO_FAULTS = NoFaults()

__all__ = [
    "CRASH_POINTS",
    "CrashInjector",
    "InjectedCrash",
    "NO_FAULTS",
    "NoFaults",
]
