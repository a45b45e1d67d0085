"""Deterministic observability: tracing, metrics, profiling hooks.

One :class:`Obs` bundle -- a tracer plus a metrics registry -- is
threaded through every layer of the system (crawl engine, fetcher,
pipeline, extractor, storage engine, connectors, fusion).  The default
is :data:`NO_OBS`, whose members are shared no-op singletons, so
instrumented hot paths cost a method call and an empty context-manager
round-trip when observability is off.

Build a live bundle with :func:`make_obs`, handing it the deployment's
clock so spans are timed on the same (possibly virtual) timeline as
the work they measure::

    from repro.obs import make_obs
    from repro.runtime import clock_from_name

    clock = clock_from_name("virtual")
    obs = make_obs(clock)
    system = SecurityKG(config, clock=clock, obs=obs)
    system.run_once()
    obs.tracer.write_jsonl("trace.jsonl")
    snapshot = obs.metrics.snapshot()

See ``OBSERVABILITY.md`` for the span taxonomy and metric catalogue.
"""

from __future__ import annotations

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
    label_key,
)
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullSpan,
    NullTracer,
    Span,
    Tracer,
)
from repro.runtime import Clock


class Obs:
    """A tracer and a metrics registry travelling together."""

    __slots__ = ("tracer", "metrics")

    def __init__(
        self,
        tracer: "Tracer | NullTracer",
        metrics: "MetricsRegistry | NullMetrics",
    ):
        self.tracer = tracer
        self.metrics = metrics

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled or self.metrics.enabled


#: The disabled bundle every component defaults to.
NO_OBS = Obs(NULL_TRACER, NULL_METRICS)


def make_obs(clock: Clock | None = None) -> Obs:
    """A live observability bundle timed on ``clock``."""
    return Obs(Tracer(clock), MetricsRegistry())


# Re-exported after NO_OBS exists: repro.obs.profile lazily imports
# NO_OBS from this package inside its export helpers.
from repro.obs.profile import profile_dict, render_profile  # noqa: E402

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "NO_OBS",
    "NULL_METRICS",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullMetrics",
    "NullSpan",
    "NullTracer",
    "Obs",
    "Span",
    "Tracer",
    "label_key",
    "make_obs",
    "profile_dict",
    "render_profile",
]
