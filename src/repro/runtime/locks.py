"""Named locks and the runtime lock-order witness.

Every lock in the system is created through :func:`named_lock` with a
stable dotted name (``"storage.engine"``, ``"crawl.frontier"``, ...).
The names serve two masters:

* The static concurrency analyzer (:mod:`repro.analysis.concurrency`)
  reads the string literal at each ``named_lock("...")`` call site and
  builds a project-wide lock-acquisition-order graph from nested
  ``with`` blocks across call-graph edges.
* The runtime :class:`LockOrderWitness`, enabled under pytest, wraps
  each lock in a :class:`WitnessLock` that records the *actual*
  acquisition orders per thread.  The test suite asserts the observed
  edges are a subgraph of the static hierarchy, so the static model is
  validated dynamically on every test run.

In production the witness is disabled and :func:`named_lock` returns a
plain :class:`threading.Lock` / :class:`threading.RLock` -- zero
overhead, no wrapper in the acquire path.
"""

from __future__ import annotations

import threading
from typing import Iterable


class LockOrderViolation(RuntimeError):
    """An acquisition order contradicting the static lock hierarchy."""


class LockOrderWitness:
    """Records runtime lock-acquisition order edges per thread.

    An *edge* ``(a, b)`` means some thread acquired lock ``b`` while
    already holding lock ``a``.  Re-entrant acquisitions (the lock is
    already on the thread's held stack) record no edges, matching the
    static analysis, which treats re-entry as a no-op.  Edges between
    two holds of the *same* name (two instances of a per-object lock
    class) are skipped: the hierarchy orders lock *names*.

    When a static hierarchy (transitive closure of allowed edges) is
    installed via :meth:`enable`, an acquisition that *reverses* a
    known edge raises :class:`LockOrderViolation` immediately -- the
    earliest possible deadlock diagnostic.  Unknown edges are recorded
    silently and judged at end of session by :meth:`violations`.
    """

    def __init__(self) -> None:
        self._enabled = False
        self._local = threading.local()
        self._mutex = threading.Lock()
        #: (held_name, acquired_name) -> {"count": int, "threads": set}
        self.edges: dict[tuple[str, str], dict[str, object]] = {}
        self._closure: frozenset[tuple[str, str]] | None = None

    # -- lifecycle -------------------------------------------------------

    @property
    def active(self) -> bool:
        return self._enabled

    def enable(
        self, hierarchy: Iterable[tuple[str, str]] | None = None
    ) -> None:
        """Start witnessing; optionally install the static hierarchy.

        ``hierarchy`` is the *transitive closure* of allowed order
        edges; with it installed, reversed edges raise immediately.
        """
        self._enabled = True
        if hierarchy is not None:
            self._closure = frozenset(hierarchy)

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        """Drop recorded edges (held stacks are per-thread and drain)."""
        with self._mutex:
            self.edges = {}

    # -- recording (called from WitnessLock) -----------------------------

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def record_acquire(self, name: str) -> None:
        if not self._enabled:
            return
        stack = self._stack()
        if name in stack:  # re-entrant: no new ordering information
            stack.append(name)
            return
        held = list(dict.fromkeys(stack))
        stack.append(name)
        if not held:
            return
        thread_name = threading.current_thread().name
        with self._mutex:
            for item in held:
                edge = self.edges.setdefault(
                    (item, name), {"count": 0, "threads": set()}
                )
                edge["count"] = int(edge["count"]) + 1
                edge["threads"].add(thread_name)  # type: ignore[union-attr]
        if self._closure is not None:
            for item in held:
                if (name, item) in self._closure and (
                    item,
                    name,
                ) not in self._closure:
                    raise LockOrderViolation(
                        f"thread {thread_name!r} acquired {name!r} while "
                        f"holding {item!r}, reversing the static hierarchy "
                        f"edge {name!r} -> {item!r}"
                    )

    def record_release(self, name: str) -> None:
        if not self._enabled:
            return
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == name:
                del stack[index]
                return

    # -- reporting -------------------------------------------------------

    def observed_edges(self) -> list[tuple[str, str]]:
        """Distinct (held, acquired) pairs, sorted."""
        with self._mutex:
            return sorted(self.edges)

    def report(self) -> list[dict[str, object]]:
        """JSON-safe edge report (deterministically ordered)."""
        with self._mutex:
            return [
                {
                    "held": held,
                    "acquired": acquired,
                    "count": info["count"],
                    "threads": sorted(info["threads"]),  # type: ignore[arg-type]
                }
                for (held, acquired), info in sorted(self.edges.items())
            ]

    def violations(
        self,
        closure: Iterable[tuple[str, str]],
        known_names: Iterable[str] | None = None,
    ) -> list[tuple[str, str]]:
        """Observed edges absent from the static transitive closure.

        ``known_names`` restricts the check to locks the static model
        knows about, so witness unit tests with synthetic lock names
        do not trip the end-of-session validation.
        """
        allowed = set(closure)
        names = set(known_names) if known_names is not None else None
        bad = []
        for held, acquired in self.observed_edges():
            if names is not None and (
                held not in names or acquired not in names
            ):
                continue
            if (held, acquired) not in allowed:
                bad.append((held, acquired))
        return bad


class WitnessLock:
    """A named lock wrapper reporting acquisitions to a witness.

    Compatible with ``threading.Condition(lock)``: the stdlib
    condition delegates ``acquire``/``release`` and (when present)
    ``_is_owned`` to the lock it wraps, so condition waits release and
    re-acquire *through* this wrapper and the witness accounting stays
    correct across the wait.
    """

    __slots__ = ("name", "_lock", "_witness", "_owner", "_count")

    def __init__(
        self,
        name: str,
        witness: LockOrderWitness,
        *,
        reentrant: bool = False,
    ) -> None:
        self.name = name
        self._witness = witness
        self._lock: threading.RLock | threading.Lock = (
            threading.RLock() if reentrant else threading.Lock()
        )
        self._owner: int | None = None
        self._count = 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._lock.acquire(blocking, timeout)
        if got:
            me = threading.get_ident()
            if self._owner == me:
                self._count += 1
            else:
                self._owner = me
                self._count = 1
            self._witness.record_acquire(self.name)
        return got

    def release(self) -> None:
        if self._count <= 1:
            self._count = 0
            self._owner = None
        else:
            self._count -= 1
        self._witness.record_release(self.name)
        self._lock.release()

    def __enter__(self) -> "WitnessLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def locked(self) -> bool:
        return self._owner is not None

    def _is_owned(self) -> bool:
        """``threading.Condition`` protocol hook."""
        return self._owner == threading.get_ident()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "locked" if self.locked() else "unlocked"
        return f"<WitnessLock {self.name!r} {state}>"


#: The process-wide witness pytest enables (see tests/conftest.py).
WITNESS = LockOrderWitness()


def named_lock(name: str, *, reentrant: bool = False):
    """A lock registered in the concurrency model under ``name``.

    ``name`` must be a string *literal* at the call site -- the static
    analyzer reads it to identify the lock.  With the witness disabled
    (production) this returns a plain stdlib lock; under pytest it
    returns a :class:`WitnessLock` reporting to :data:`WITNESS`.
    """
    if WITNESS.active:
        return WitnessLock(name, WITNESS, reentrant=reentrant)
    return threading.RLock() if reentrant else threading.Lock()


__all__ = [
    "LockOrderViolation",
    "LockOrderWitness",
    "WITNESS",
    "WitnessLock",
    "named_lock",
]
