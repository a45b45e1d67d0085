"""Staged, parallel processing pipeline (paper section 2.1).

"To make the system scalable, we parallelize the processing procedure
of OSCTI reports.  We further pipeline the processing steps ... we
specify the formats of intermediate representations and make them
serializable.  With such pipeline design, we can have multiple
computing instances for a single step and pass serialized intermediate
results across the network."

This engine realises that design in-process on the standard library's
executors: each stage owns a ``ThreadPoolExecutor`` of ``stage.workers``
threads, an item hops to the next stage's pool the moment its own stage
finishes (so the stages overlap), and each boundary can be given a
codec (``encode``/``decode``) so items cross stages in their serialized
form -- exactly what shipping them across hosts would require, and what
benchmark E3 measures the cost/benefit of.  Every item keeps the
position it came in at: outputs and errors are in input order whatever
the worker counts.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable

from repro.obs import NO_OBS, Obs
from repro.runtime import REAL_CLOCK, Clock, Stopwatch

#: A stage function maps one item to one item, or None to filter it out.
StageFn = Callable[[object], "object | None"]


@dataclass
class Codec:
    """Serialisation boundary between two stages."""

    encode: Callable[[object], object]
    decode: Callable[[object], object]


@dataclass
class Stage:
    """One pipeline step.

    ``workers`` parallel threads run ``fn``; ``codec`` (if set) applies
    at this stage's *output* boundary.
    """

    name: str
    fn: StageFn
    workers: int = 1
    codec: Codec | None = None


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

    def _run_stage(self, stage: Stage, decoder: Codec | None, item, parent):
        """One item through one stage, under the stage's tracer span."""
        with self.obs.tracer.span(stage.name, parent=parent) as span:
            if decoder is not None:
                item = decoder.decode(item)
            if self.item_key is not None:
                key = self.item_key(item)
                if key:
                    span.set("report", key)
            result = stage.fn(item)
            # stamped before encoding so per-stage unit costs
            # (repro.obs.profile) can count only the surviving items
            span.set("outcome", "filtered" if result is None else "ok")
            if result is not None and stage.codec is not None:
                result = stage.codec.encode(result)
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
            first_hops = deque(
                pools[0].submit(self._hop, pools, 0, item, run_span)
                for item in items
            )
            # popleft lets go of each chain of futures once it is
            # followed, so what a run keeps alive is what is in flight
            fates = [_settle(first_hops.popleft()) for _ in items]
        outputs = [value for value, _error in fates if value is not None]
        last_codec = self.stages[-1].codec
        if last_codec is not None:
            outputs = [last_codec.decode(item) for item in outputs]
        return PipelineResult(
            outputs=outputs,
            elapsed=watch.elapsed,
            errors=[error for _value, error in fates if error is not None],
        )

    def _hop(self, pools, index: int, item, run_span):
        """``item`` through stage ``index``, on one of that stage's workers.

        Returns the future of the item's next hop, or -- once it is
        filtered, has failed, or has left the last stage -- its fate, a
        ``(value, error)`` pair with at most one side set.
        """
        stage = self.stages[index]
        decoder = self.stages[index - 1].codec if index else None
        fate = (None, None)
        begin = self.clock.now()
        try:
            result = self._run_stage(stage, decoder, item, run_span)
        except Exception as error:  # noqa: BLE001 - stage isolation
            outcome = "error"
            fate = (None, (stage.name, f"{type(error).__name__}: {error}"))
        else:
            outcome = "filtered" if result is None else "ok"
            if index + 1 == len(self.stages):
                fate = (result, None)
            elif result is not None:
                fate = pools[index + 1].submit(
                    self._hop, pools, index + 1, result, run_span
                )
        self.obs.metrics.observe(
            "pipeline.stage_seconds", self.clock.now() - begin, stage=stage.name
        )
        self.obs.metrics.inc("pipeline.items", stage=stage.name, outcome=outcome)
        return fate


def _settle(hop: Future):
    """Follow one item's chain of hops to its fate."""
    fate = hop.result()
    while isinstance(fate, Future):
        fate = fate.result()
    return fate


__all__ = ["Codec", "Pipeline", "PipelineResult", "Stage", "StageFn"]
