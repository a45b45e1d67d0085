"""Staged, parallel processing pipeline (paper section 2.1).

"To make the system scalable, we parallelize the processing procedure
of OSCTI reports.  We further pipeline the processing steps ... we
specify the formats of intermediate representations and make them
serializable.  With such pipeline design, we can have multiple
computing instances for a single step and pass serialized intermediate
results across the network."

This engine realises that design in-process: each stage owns a worker
pool, stages are connected by bounded queues, and each boundary can be
given a codec (``encode``/``decode``) so items cross stages in their
serialized form -- exactly what shipping them across hosts would
require, and what benchmark E3 measures the cost/benefit of.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.obs import NO_OBS, Obs
from repro.runtime import REAL_CLOCK, Clock, Stopwatch, named_lock

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
class StageStats:
    """Per-stage counters."""

    name: str
    processed: int = 0
    filtered: int = 0
    errors: int = 0
    busy_seconds: float = 0.0
    _lock: threading.Lock = field(
        default_factory=lambda: named_lock("pipeline.stage_stats"), repr=False
    )

    def record(self, elapsed: float, filtered: bool, error: bool) -> None:
        with self._lock:
            self.busy_seconds += elapsed
            if error:
                self.errors += 1
            elif filtered:
                self.filtered += 1
            else:
                self.processed += 1


@dataclass
class PipelineResult:
    """Outputs plus per-stage statistics and wall-clock time."""

    outputs: list[object]
    stages: list[StageStats]
    elapsed: float
    errors: list[tuple[str, str]] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Output items per second."""
        return len(self.outputs) / self.elapsed if self.elapsed > 0 else 0.0


_SENTINEL = object()
#: Items a stage may queue for the next one before its workers block.
QUEUE_SIZE = 128


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
        """Process ``items``; blocks until every stage drains."""
        run_span = self.obs.tracer.span("pipeline", items=len(items))
        with run_span:
            return self._run(items, run_span)

    def _run(self, items: list[object], run_span) -> PipelineResult:
        queues = [
            queue.Queue(maxsize=QUEUE_SIZE)
            for _ in range(len(self.stages) + 1)
        ]
        stats = [StageStats(stage.name) for stage in self.stages]
        errors: list[tuple[str, str]] = []
        errors_lock = named_lock("pipeline.errors")
        threads: list[threading.Thread] = []
        watch = Stopwatch(self.clock)

        for index, stage in enumerate(self.stages):
            exited = [0]
            exited_lock = named_lock("pipeline.exited")
            decoder = None if index == 0 else self.stages[index - 1].codec

            def worker(
                stage=stage,
                index=index,
                exited=exited,
                exited_lock=exited_lock,
                decoder=decoder,
                stage_stats=stats[index],
            ) -> None:
                in_queue, out_queue = queues[index], queues[index + 1]
                while True:
                    item = in_queue.get()
                    if item is _SENTINEL:
                        # Recycle the sentinel so sibling workers see it
                        # too; the last worker out signals downstream.
                        in_queue.put(_SENTINEL)
                        with exited_lock:
                            exited[0] += 1
                            last = exited[0] == stage.workers
                        if last:
                            out_queue.put(_SENTINEL)
                        return
                    begin = self.clock.now()
                    try:
                        result = self._run_stage(stage, decoder, item, run_span)
                    except Exception as error:  # noqa: BLE001 - stage isolation
                        elapsed = self.clock.now() - begin
                        stage_stats.record(elapsed, filtered=False, error=True)
                        self.obs.metrics.inc(
                            "pipeline.items", stage=stage.name, outcome="error"
                        )
                        self.obs.metrics.observe(
                            "pipeline.stage_seconds", elapsed, stage=stage.name
                        )
                        with errors_lock:
                            errors.append((stage.name, f"{type(error).__name__}: {error}"))
                        continue
                    elapsed = self.clock.now() - begin
                    self.obs.metrics.observe(
                        "pipeline.stage_seconds", elapsed, stage=stage.name
                    )
                    if result is None:
                        stage_stats.record(elapsed, filtered=True, error=False)
                        self.obs.metrics.inc(
                            "pipeline.items", stage=stage.name, outcome="filtered"
                        )
                    else:
                        stage_stats.record(elapsed, filtered=False, error=False)
                        self.obs.metrics.inc(
                            "pipeline.items", stage=stage.name, outcome="ok"
                        )
                        out_queue.put(result)

            for worker_index in range(stage.workers):
                thread = threading.Thread(
                    target=worker,
                    name=f"{stage.name}-{worker_index}",
                    daemon=True,
                )
                threads.append(thread)
                thread.start()

        def feed() -> None:
            # Feeding runs on its own thread: with bounded queues the
            # feeder can block on back-pressure while the main thread
            # must keep draining the final queue.
            for item in items:
                queues[0].put(item)
            queues[0].put(_SENTINEL)

        feeder = threading.Thread(target=feed, name="pipeline-feed", daemon=True)
        feeder.start()
        threads.append(feeder)

        outputs: list[object] = []
        final_queue = queues[-1]
        # each stage emits exactly one downstream sentinel once all its
        # workers drain (see worker logic above)
        while True:
            item = final_queue.get()
            if item is _SENTINEL:
                break
            outputs.append(item)
        for thread in threads:
            thread.join(timeout=30.0)

        last_codec = self.stages[-1].codec
        if last_codec is not None:
            outputs = [last_codec.decode(item) for item in outputs]
        return PipelineResult(
            outputs=outputs,
            stages=stats,
            elapsed=watch.elapsed,
            errors=errors,
        )


__all__ = ["Codec", "Pipeline", "PipelineResult", "Stage", "StageFn", "StageStats"]
