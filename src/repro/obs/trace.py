"""Structured tracing: hierarchical spans on the injected clock.

A :class:`Span` measures one operation (a fetch, a pipeline stage, a
storage commit) with a name, start/end timestamps, JSON-safe attributes
and an optional parent, forming per-report trees such as::

    run
    └── crawl
        └── crawl.fetch  url=... source=...

Spans are timed by the :class:`~repro.runtime.Clock` the tracer was
built with, so a run under ``--clock virtual`` produces *deterministic*
timestamps and the exported trace is byte-identical across runs with
the same seed -- the property the golden-trace tests pin down.

Two sinks:

* a bounded in-memory ring buffer (``export()`` / the ``/trace``
  endpoint) holding the most recent finished spans;
* a JSONL file (``write_jsonl``) persisted through the fsync'd
  ``repro.storage.atomic_write_text`` helper.

The export is *canonical*: spans are sorted by ``(start, end, name,
attrs)`` and renumbered in depth-first preorder, so thread-completion
races at identical virtual instants cannot reorder the output.

The default tracer everywhere is :data:`NULL_TRACER`, whose ``span()``
returns a shared no-op span -- instrumentation costs one method call
and an empty context-manager enter/exit when observability is off.
"""

from __future__ import annotations

import collections
import json
import threading

from repro.runtime import REAL_CLOCK, Clock, named_lock


class Span:
    """One timed operation; use as a context manager."""

    __slots__ = ("name", "attrs", "start", "end", "parent", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, parent: "Span | None", attrs: dict):
        self._tracer = tracer
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def set(self, key: str, value) -> "Span":
        """Attach a JSON-safe attribute; returns self for chaining."""
        self.attrs[key] = value
        return self

    def __enter__(self) -> "Span":
        self._tracer._begin(self)
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._finish(self)
        return False


class NullSpan:
    """Shared no-op span: the disabled-tracing fast path."""

    __slots__ = ()
    name = ""
    attrs: dict = {}
    start = 0.0
    end = 0.0
    duration = 0.0

    def set(self, key: str, value) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False


NULL_SPAN = NullSpan()


class Tracer:
    """Collects finished spans into a bounded ring buffer.

    Parameters
    ----------
    clock:
        Timestamp source.  Inject the deployment's clock so virtual-time
        runs emit deterministic traces.

    At most :attr:`RING` finished spans are retained in memory; older
    spans are evicted (their children export with ``parent: null``).
    """

    enabled = True
    RING = 8192

    def __init__(self, clock: Clock | None = None):
        self.clock = clock if clock is not None else REAL_CLOCK
        self._finished: collections.deque[Span] = collections.deque(
            maxlen=self.RING
        )
        self._open: dict[int, Span] = {}
        self._lock = named_lock("obs.tracer")
        self._local = threading.local()
        #: Optional ``hook(span)`` invoked for every finished span,
        #: outside the tracer lock (the health engine tails the stream
        #: through this; its callback takes its own lock).
        self.on_finish = None

    # -- span lifecycle ---------------------------------------------------

    def span(self, name: str, parent: "Span | None" = None, **attrs) -> Span:
        """Create a span.  ``parent`` overrides the thread-local current
        span (required when the child runs on a different thread)."""
        if parent is not None and not isinstance(parent, Span):
            parent = None  # a NullSpan handed across an obs boundary
        return Span(self, name, parent, attrs)

    def current(self) -> Span | None:
        """The innermost span open on *this* thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _begin(self, span: Span) -> None:
        if span.parent is None:
            span.parent = self.current()
        span.start = self.clock.now()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)
        with self._lock:
            self._open[id(span)] = span

    def _finish(self, span: Span) -> None:
        span.end = self.clock.now()
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # out-of-order close (defensive)
            stack.remove(span)
        with self._lock:
            self._open.pop(id(span), None)
            self._finished.append(span)
        hook = self.on_finish
        if hook is not None:
            hook(span)

    def record(
        self, name: str, start: float, seconds: float, parent=None, **attrs
    ) -> Span:
        """A finished span for work timed elsewhere (a worker process):
        ``seconds`` from ``start``, under ``parent`` or this thread's span."""
        span = Span(self, name, parent or self.current(), attrs)
        span.start, span.end = start, start + seconds
        with self._lock:
            self._finished.append(span)
        hook = self.on_finish
        if hook is not None:
            hook(span)
        return span

    # -- introspection ----------------------------------------------------

    @property
    def open_span_count(self) -> int:
        with self._lock:
            return len(self._open)

    # -- export -----------------------------------------------------------

    def export(self) -> list[dict]:
        """Finished spans as a canonical list of JSON-safe records.

        Roots and siblings are ordered by ``(start, end, name, attrs)``
        and ids are assigned in depth-first preorder, so the export is
        independent of thread completion order.  A span whose parent was
        evicted from the ring exports as a root (``parent: null``).
        """
        with self._lock:
            finished = list(self._finished)
        included = {id(span) for span in finished}
        children: dict[int, list[Span]] = {}
        roots: list[Span] = []
        for span in finished:
            if span.parent is not None and id(span.parent) in included:
                children.setdefault(id(span.parent), []).append(span)
            else:
                roots.append(span)

        def order(span: Span):
            return (
                span.start,
                span.end,
                span.name,
                json.dumps(span.attrs, sort_keys=True, default=str),
            )

        records: list[dict] = []

        def visit(span: Span, parent_id: int | None) -> None:
            span_id = len(records) + 1
            records.append(
                {
                    "id": span_id,
                    "parent": parent_id,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "attrs": {key: span.attrs[key] for key in sorted(span.attrs)},
                }
            )
            for child in sorted(children.get(id(span), []), key=order):
                visit(child, span_id)

        for root in sorted(roots, key=order):
            visit(root, None)
        return records

    def export_jsonl(self) -> str:
        """The canonical export as JSON-lines text (one span per line)."""
        return "".join(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            for record in self.export()
        )

    def write_jsonl(self, path) -> None:
        """Persist the trace to ``path`` via the atomic-write helper."""
        # imported lazily: repro.storage pulls in the engine, which
        # imports repro.obs -- a module-level import here would cycle
        from repro.storage.atomic import atomic_write_text

        atomic_write_text(path, self.export_jsonl())


class NullTracer:
    """Disabled tracing: every ``span()`` is the shared no-op span."""

    enabled = False
    __slots__ = ()

    def span(self, name: str, parent=None, **attrs) -> NullSpan:
        return NULL_SPAN

    def current(self) -> None:
        return None

    def record(self, name: str, start: float, seconds: float, parent=None, **_):
        return None

    @property
    def open_span_count(self) -> int:
        return 0

    def export(self) -> list[dict]:
        return []

    def export_jsonl(self) -> str:
        return ""

    def write_jsonl(self, path) -> None:
        from repro.storage.atomic import atomic_write_text

        atomic_write_text(path, "")


NULL_TRACER = NullTracer()

__all__ = ["NULL_SPAN", "NULL_TRACER", "NullSpan", "NullTracer", "Span", "Tracer"]
