"""Staged, parallel processing pipeline (paper section 2.1).

"To make the system scalable, we parallelize the processing procedure
of OSCTI reports.  We further pipeline the processing steps ... we
specify the formats of intermediate representations and make them
serializable.  With such pipeline design, we can have multiple
computing instances for a single step and pass serialized intermediate
results across the network."

This engine realises that design in-process on the standard library's
executors: each stage owns a ``ThreadPoolExecutor`` of ``stage.workers``
threads, and an item hops to the next stage's pool the moment its own
stage finishes (so the stages overlap).  A stage may instead submit to
another executor -- the ``extract`` stage hands each record, pickled,
to a forked extractor process (``ExtractorPool``), the serialized
crossing the paper describes.  Every item keeps the position it came in
at: outputs and errors are in input order whatever the worker counts.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.obs import NO_OBS, NULL_TRACER, Obs
from repro.runtime import REAL_CLOCK, Clock, Stopwatch

#: A stage function maps one item to one item, or None to filter it out.
StageFn = Callable[[object], "object | None"]


@dataclass
class Stage:
    """One pipeline step.

    ``workers`` parallel threads run ``fn``.  With ``settle``, ``fn`` submits:
    it returns a ``Future``, whose value the settling thread finishes
    with ``settle(began, value, span)`` under the stage's span.
    """

    name: str
    fn: StageFn
    workers: int = 1
    settle: Callable[[float, object, object], object] | None = None


@dataclass
class PipelineResult:
    """Outputs and errors, both in input order, plus wall-clock time."""

    outputs: list[object]
    elapsed: float
    errors: list[tuple[str, str]] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Output items per second."""
        return len(self.outputs) / self.elapsed if self.elapsed > 0 else 0.0


class Pipeline:
    """Run items through a chain of parallel stages.

    Stage workers never sleep, so they are not registered with the
    clock; under a virtual clock all timings read as ~0 (the stages are
    CPU-bound, and virtual time only models waiting).

    Every stage execution runs under a tracer span named after the
    stage (see :meth:`_run_stage`; the ``obs/untraced-stage`` lint rule
    enforces this), carrying the item's correlation key when
    ``item_key`` is given.  With the default :data:`~repro.obs.NO_OBS`
    the span is a shared no-op.
    """

    def __init__(
        self,
        stages: list[Stage],
        clock: Clock | None = None,
        obs: Obs | None = None,
        item_key: Callable[[object], "str | None"] | None = None,
    ):
        if not stages:
            raise ValueError("pipeline needs at least one stage")
        for stage in stages:
            if stage.workers < 1:
                raise ValueError(
                    f"stage {stage.name!r} needs at least one worker, "
                    f"got workers={stage.workers}"
                )
        self.stages = list(stages)
        self.clock = clock if clock is not None else REAL_CLOCK
        self.obs = obs if obs is not None else NO_OBS
        self.item_key = item_key

    def _run_stage(self, stage: Stage, item, parent):
        """One item through one stage, under the stage's tracer span (a
        submitting stage's is recorded when the item lands)."""
        tracer = self.obs.tracer if stage.settle is None else NULL_TRACER
        with tracer.span(stage.name, parent=parent) as span:
            key = self.item_key(item) if self.item_key is not None else None
            if key:
                span.set("report", key)
            result = stage.fn(item)
            if stage.settle is not None:
                return key, result
            # lets per-stage unit costs (repro.obs.profile) count only
            # the surviving items
            span.set("outcome", "filtered" if result is None else "ok")
            return result

    def run(self, items: list[object]) -> PipelineResult:
        """Process ``items``; blocks until every one has left the pipeline."""
        watch = Stopwatch(self.clock)
        run_span = self.obs.tracer.span("pipeline", items=len(items))
        with run_span, ExitStack() as stack:
            pools = [
                stack.enter_context(
                    ThreadPoolExecutor(stage.workers, thread_name_prefix=stage.name)
                )
                for stage in self.stages
            ]
            hops = deque(
                pools[0].submit(self._hop, pools, 0, item, run_span)
                for item in items
            )
            # popleft lets go of each chain of futures once it is
            # followed, so what a run keeps alive is what is in flight
            fates = []
            while hops:
                # follow one item's chain of hops and landings to its fate
                fate = hops.popleft().result()
                while not isinstance(fate, tuple):
                    fate = fate() if callable(fate) else fate.result()
                fates.append(fate)
        outputs = [value for value, _error in fates if value is not None]
        errors = [error for _value, error in fates if error is not None]
        return PipelineResult(outputs, watch.elapsed, errors)

    def _hop(self, pools, index: int, item, run_span):
        """``item`` through stage ``index``, on one of its workers: the
        future of its next hop, its landing (:meth:`_land`), or its fate."""
        stage = self.stages[index]
        begin = self.clock.now()
        try:
            result = self._run_stage(stage, item, run_span)
        except Exception as error:  # noqa: BLE001 - stage isolation
            return self._next(pools, index, begin, run_span, error=error)
        if stage.settle is not None:
            return partial(self._land, pools, index, begin, *result, run_span)
        return self._next(pools, index, begin, run_span, result)

    def _land(self, pools, index: int, began: float, key, future: Future, run_span):
        """A submitted item back, on the settling thread: its span, then settle."""
        stage = self.stages[index]
        attrs = {"report": key} if key else {}
        span = None
        try:
            value = future.result()
            span = self.obs.tracer.record(
                stage.name, began, self.clock.now() - began, parent=run_span,
                outcome="ok", **attrs,
            )
            result = stage.settle(began, value, span)
        except Exception as error:  # noqa: BLE001 - stage isolation
            if span is not None:  # settle failed
                span.set("error", type(error).__name__)
            else:
                self.obs.tracer.record(
                    stage.name, began, self.clock.now() - began, parent=run_span,
                    error=type(error).__name__, **attrs,
                )
            return self._next(pools, index, began, run_span, error=error)
        return self._next(pools, index, began, run_span, result)

    def _next(self, pools, index: int, begin: float, run_span, result=None, error=None):
        """Count an item out of stage ``index``; its fate or next hop."""
        stage = self.stages[index]
        outcome, fate = "ok", (result, None)
        if error is not None:
            outcome = "error"
            fate = (None, (stage.name, f"{type(error).__name__}: {error}"))
        elif result is None:
            outcome = "filtered"
        elif index + 1 < len(self.stages):
            fate = pools[index + 1].submit(
                self._hop, pools, index + 1, result, run_span
            )
        self.obs.metrics.observe(
            "pipeline.stage_seconds", self.clock.now() - begin, stage=stage.name
        )
        self.obs.metrics.inc("pipeline.items", stage=stage.name, outcome=outcome)
        return fate


__all__ = ["Pipeline", "PipelineResult", "Stage", "StageFn"]
