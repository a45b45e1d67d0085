"""Real and virtual clocks plus the shared stopwatch.

This module is the single sanctioned home of raw ``time.sleep`` /
``time.monotonic`` calls (see the ``det/raw-sleep`` lint rule): every
other layer receives a :class:`Clock` and is thereby oblivious to
whether seconds are real or simulated.

The virtual clock is a discrete-event timeline in the SimPy/ns style:
nothing ever waits in real time; instead, time jumps straight to the
next deadline once no participating thread can make progress at the
current instant.  That makes latency-shaped benchmarks run in
milliseconds and timing-dependent behaviour (backoff, politeness
intervals, scheduler reboots) exactly assertable.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """What every timing-dependent component programs against."""

    def now(self) -> float:
        """Current time in seconds (monotonic; epoch is arbitrary)."""

    def sleep(self, seconds: float) -> None:
        """Suspend the calling thread for ``seconds``."""

    def wait_for(self, event: threading.Event, timeout: float) -> bool:
        """Wait up to ``timeout`` for ``event``; True when it is set."""

    def worker(self):
        """Context manager marking the calling thread as a coordinated
        worker for the duration (virtual time cannot pass while any
        registered worker is runnable)."""

    def condition(self, lock: threading.Lock):
        """A condition variable on ``lock`` that keeps the clock
        informed: a worker waiting on it does not hold up virtual time,
        and a notified waiter counts as runnable from the moment of the
        notify (so time cannot skip ahead before it resumes)."""


class RealClock:
    """Monotonic wall time; coordination hooks are plain primitives."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def wait_for(self, event: threading.Event, timeout: float) -> bool:
        return event.wait(timeout)

    @contextmanager
    def worker(self) -> Iterator[None]:
        yield

    def condition(self, lock: threading.Lock) -> threading.Condition:
        return threading.Condition(lock)


#: The process-wide real clock (stateless, so one instance suffices).
REAL_CLOCK = RealClock()


class _Sleeper:
    """One pending wake deadline on the virtual timeline."""

    __slots__ = ("deadline", "parked")

    def __init__(self, deadline: float, parked: bool):
        self.deadline = deadline
        self.parked = parked


class VirtualClock:
    """Discrete-event clock coordinating sleeping worker threads.

    Threads that participate in a multi-threaded section register via
    the ``worker()`` context manager.  ``sleep(d)`` parks the calling
    thread on the timeline; when *every* registered worker is parked
    (sleeping, or waiting on a :meth:`condition`) and no notified
    waiter is still on its way back, virtual time jumps to the earliest
    pending deadline.  The advancing thread unparks every sleeper whose
    deadline was reached *at the moment of the jump*, so a due-but-not-
    yet-resumed thread counts as runnable and time can never skip past
    work pending at the current instant.  A thread that never
    registered does not gate advancement -- in particular, a single
    unregistered thread sleeps with zero real delay.

    Registration itself is not synchronised: callers running several
    workers must ensure all of them have *entered* ``worker()`` before
    any starts sleeping (a ``threading.Barrier`` at the top of each
    worker body), or early workers could advance time while late ones
    are still starting up.

    Within one virtual instant all runnable work completes before time
    moves, which is what makes multi-threaded crawls deterministic:
    the set of (event, virtual-time) pairs depends only on the
    simulated latencies, never on OS scheduling.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._now = 0.0
        self._workers = 0  # registered worker threads
        self._parked = 0  # registered workers sleeping or condition-waiting
        self._pending_wakeups = 0  # notified waiters not yet resumed
        self._timeline: list[tuple[float, int, _Sleeper]] = []
        self._seq = itertools.count()
        self._local = threading.local()
        #: total ``sleep()`` calls that actually parked (introspection)
        self.sleeps = 0

    # -- Clock protocol ---------------------------------------------------

    def now(self) -> float:
        with self._cond:
            return self._now

    def sleep(self, seconds: float) -> None:
        if seconds <= 0:
            return
        with self._cond:
            self.sleeps += 1
            entry = _Sleeper(self._now + seconds, parked=self._is_worker())
            if entry.parked:
                self._parked += 1
            heapq.heappush(
                self._timeline, (entry.deadline, next(self._seq), entry)
            )
            self._advance_if_quiescent()
            while self._now < entry.deadline:
                self._cond.wait()
            if entry.parked:  # the advancer may have unparked us already
                entry.parked = False
                self._parked -= 1

    def wait_for(self, event: threading.Event, timeout: float) -> bool:
        if event.is_set():
            return True
        self.sleep(timeout)
        return event.is_set()

    @contextmanager
    def worker(self) -> Iterator[None]:
        with self._cond:
            self._workers += 1
            self._local.depth = getattr(self._local, "depth", 0) + 1
        try:
            yield
        finally:
            with self._cond:
                self._workers -= 1
                self._local.depth -= 1
                self._advance_if_quiescent()

    def condition(self, lock: threading.Lock) -> "_VirtualCondition":
        return _VirtualCondition(self, lock)

    # -- timeline ---------------------------------------------------------

    def _is_worker(self) -> bool:
        return getattr(self._local, "depth", 0) > 0

    def _advance_if_quiescent(self) -> None:
        """Jump to the next deadline when no registered worker can run.

        Caller must hold ``self._cond``.  Advancement is attempted at
        every *parking* event (sleep entry, condition-wait entry,
        worker unregister) and when the last pending wakeup is
        consumed; it is refused while any registered worker is runnable
        or any notified waiter has yet to resume.  Every sleeper due at
        the new instant is unparked here, by the advancing thread, so
        the accounting reflects runnability the moment time moves.
        """
        if self._pending_wakeups > 0:
            return
        if self._parked < self._workers:
            return
        if not self._timeline:
            return
        self._now = self._timeline[0][0]
        while self._timeline and self._timeline[0][0] <= self._now:
            _deadline, _seq, entry = heapq.heappop(self._timeline)
            if entry.parked:
                entry.parked = False
                self._parked -= 1
        self._cond.notify_all()

    # internal hooks for _VirtualCondition --------------------------------

    def _note_wait_enter(self, registered: bool) -> None:
        with self._cond:
            if registered:
                self._parked += 1
            self._advance_if_quiescent()

    def _note_wait_exit(self, registered: bool, consumed_wakeup: bool) -> None:
        with self._cond:
            if registered:
                self._parked -= 1
            if consumed_wakeup and self._pending_wakeups > 0:
                self._pending_wakeups -= 1
                if self._pending_wakeups == 0:
                    self._advance_if_quiescent()

    def _note_notify(self, count: int) -> None:
        with self._cond:
            self._pending_wakeups += count


class _VirtualCondition:
    """Condition variable that reports waiting/waking to a VirtualClock.

    Used exactly like ``threading.Condition(lock)`` (the caller holds
    ``lock`` around ``wait``/``notify``).  ``wait`` marks a registered
    worker as parked for the duration; ``notify`` records a pending
    wakeup so virtual time cannot advance until the woken thread has
    actually resumed and had its turn at the current instant.
    """

    def __init__(self, clock: VirtualClock, lock: threading.Lock):
        self._clock = clock
        self._cond = threading.Condition(lock)
        self._waiters = 0  # protected by `lock`
        self._pending = 0  # notified-but-not-resumed waiters; under `lock`

    def wait(self, timeout: float | None = None) -> bool:
        registered = self._clock._is_worker()
        self._waiters += 1
        self._clock._note_wait_enter(registered)
        try:
            return self._cond.wait(timeout)
        finally:
            self._waiters -= 1
            consumed = self._pending > 0
            if consumed:
                self._pending -= 1
            self._clock._note_wait_exit(registered, consumed)

    def notify(self, n: int = 1) -> None:
        grant = min(n, self._waiters - self._pending)
        if grant > 0:
            self._pending += grant
            self._clock._note_notify(grant)
        self._cond.notify(n)

    def notify_all(self) -> None:
        self.notify(self._waiters)


class Stopwatch:
    """Elapsed seconds against an injected clock.

    >>> clock = VirtualClock()
    >>> watch = Stopwatch(clock)
    >>> clock.sleep(2.5)
    >>> watch.elapsed
    2.5
    """

    def __init__(self, clock: Clock):
        self.clock = clock
        self.started_at = clock.now()

    @property
    def elapsed(self) -> float:
        return self.clock.now() - self.started_at


#: the clock names :func:`clock_from_name` resolves
CLOCKS = ("real", "virtual")


def clock_from_name(name: str) -> Clock:
    """Resolve a configuration string to a clock instance.

    ``"real"`` returns the shared :data:`REAL_CLOCK`; ``"virtual"``
    returns a fresh :class:`VirtualClock` (each deployment gets its own
    timeline).
    """
    if name == "real":
        return REAL_CLOCK
    if name == "virtual":
        return VirtualClock()
    raise ValueError(f"unknown clock {name!r}; known: {list(CLOCKS)}")


__all__ = [
    "CLOCKS",
    "Clock",
    "REAL_CLOCK",
    "RealClock",
    "Stopwatch",
    "VirtualClock",
    "clock_from_name",
]
