"""Unified runtime clock: real and virtual time behind one interface.

Every timing-dependent layer of the system -- simulated network
latency, per-host politeness, retry backoff, scheduler intervals,
crawl/pipeline stopwatches -- reads time and sleeps through an
injected :class:`Clock` instead of the :mod:`time` module.  Two
implementations exist:

:class:`RealClock`
    Monotonic wall time and real ``time.sleep``; the deployment
    default (``python -m repro run``).

:class:`VirtualClock`
    A discrete-event timeline.  A thread calling ``sleep(d)`` parks on
    the timeline; virtual time jumps to the next pending deadline only
    when every registered worker thread is parked, so multi-threaded
    crawls replay the exact latency-overlap behaviour of a real run in
    milliseconds of wall time, deterministically.

The ``det/raw-sleep`` lint rule bans direct ``time.sleep`` /
``time.monotonic`` calls outside this package, so the substitution
cannot silently regress.
"""

from repro.runtime.clock import (
    REAL_CLOCK,
    Clock,
    RealClock,
    Stopwatch,
    VirtualClock,
    clock_from_name,
)
from repro.runtime.locks import (
    WITNESS,
    LockOrderViolation,
    LockOrderWitness,
    WitnessLock,
    named_lock,
)
from repro.runtime.memo import memoised
from repro.runtime.retry import Backoff, RetryPolicy

__all__ = [
    "Backoff",
    "Clock",
    "LockOrderViolation",
    "LockOrderWitness",
    "REAL_CLOCK",
    "RealClock",
    "RetryPolicy",
    "Stopwatch",
    "VirtualClock",
    "WITNESS",
    "WitnessLock",
    "clock_from_name",
    "memoised",
    "named_lock",
]
