"""Staged, parallel processing pipeline (paper section 2.1).

"To make the system scalable, we parallelize the processing procedure
of OSCTI reports.  We further pipeline the processing steps ... we
specify the formats of intermediate representations and make them
serializable.  With such pipeline design, we can have multiple
computing instances for a single step and pass serialized intermediate
results across the network."

One loop realises that design in-process: each report is checked, then
parsed, on one ``ThreadPoolExecutor`` of ``workers`` threads, and the
calling thread takes the parsed records in input order and extracts
them -- inline, or by submitting each one, pickled, to a forked
extractor process (``ExtractorPool``), the serialized crossing the
paper describes, and settling the futures in input order.  Outputs and
errors are in input order whatever the worker counts.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.core.extractor import Extractor, ExtractorPool
from repro.obs import NO_OBS, Obs
from repro.ontology.intermediate import CTIRecord, ReportRecord
from repro.runtime import REAL_CLOCK, Clock, Stopwatch


@dataclass
class PipelineResult:
    """Outputs and errors, both in input order, plus wall-clock time and
    how many reports the check rejected, by reason."""

    outputs: list[CTIRecord]
    elapsed: float
    errors: list[tuple[str, str]] = field(default_factory=list)
    rejected: dict[str, int] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Output items per second."""
        return len(self.outputs) / self.elapsed if self.elapsed > 0 else 0.0


def _outcome(stage: str, value) -> str:
    """What a stage's function returned, as an outcome: only the check
    filters, by returning its reason."""
    return "filtered" if stage == "check" and value is not None else "ok"


class Pipeline:
    """check -> parse on ``workers`` threads, then extract in input order.

    ``check`` returns why it rejects a report (None to pass it) and
    ``parse`` its record; with a ``pool`` a record is extracted in a
    worker process, otherwise by ``extractor`` on the calling thread.

    Parse workers never sleep, so they are not registered with the
    clock; under a virtual clock all timings read as ~0 (the stages are
    CPU-bound, and virtual time only models waiting).

    Every stage execution runs under a tracer span named after the
    stage (see :meth:`_run_stage`; the ``obs/untraced-stage`` lint rule
    enforces this), carrying the report id.  With the default
    :data:`~repro.obs.NO_OBS` the span is a shared no-op.
    """

    def __init__(
        self,
        check: Callable[[ReportRecord], "str | None"],
        parse: Callable[[ReportRecord], CTIRecord],
        extractor: Extractor,
        pool: ExtractorPool | None = None,
        *,
        workers: int = 1,
        clock: Clock | None = None,
        obs: Obs | None = None,
    ):
        if workers < 1:
            raise ValueError(f"parse needs at least one worker, got workers={workers}")
        self.check = check
        self.parse = parse
        self.extractor = extractor
        self.pool = pool
        self.workers = workers
        self.clock = clock if clock is not None else REAL_CLOCK
        self.obs = obs if obs is not None else NO_OBS

    def run(self, reports: list[ReportRecord]) -> PipelineResult:
        """Process ``reports``; blocks until every one has left the pipeline."""
        watch = Stopwatch(self.clock)
        rejected: dict[str, int] = {}
        fates = []
        with self.obs.tracer.span("pipeline", items=len(reports)) as run_span:
            with ThreadPoolExecutor(self.workers, thread_name_prefix="parse") as parsing:
                parsed = [
                    parsing.submit(self._check_parse, report, run_span)
                    for report in reports
                ]
                for future in parsed:
                    record, error, reason = future.result()
                    if reason is not None:
                        rejected[reason] = rejected.get(reason, 0) + 1
                        self.obs.metrics.inc("pipeline.reports_rejected", reason=reason)
                    if record is None:
                        fates.append((None, error))
                    else:
                        fates.append(self._extract(record, run_span))
            fates = [fate() if callable(fate) else fate for fate in fates]
        outputs = [value for value, _error in fates if value is not None]
        errors = [error for _value, error in fates if error is not None]
        return PipelineResult(outputs, watch.elapsed, errors, rejected)

    def _check_parse(self, report: ReportRecord, run_span):
        """``report`` checked, then parsed, on a parse worker: its record,
        its error and the check's rejection reason (one or none set)."""
        reason, error = self._stage("check", self.check, report, run_span)
        if reason is not None or error is not None:
            return None, error, reason
        record, error = self._stage("parse", self.parse, report, run_span)
        return record, error, None

    def _extract(self, record: CTIRecord, run_span):
        """Inline, ``record``'s fate; with a pool, a call that settles it
        (:meth:`_land`) once it is submitted -- or failed to be."""
        if self.pool is None:
            return self._stage("extract", self.extractor.extract, record, run_span)
        began = self.clock.now()
        try:
            future = self.pool.submit(record)
        except Exception as error:  # noqa: BLE001 - settled as it would fail in flight
            future = Future()
            future.set_exception(error)
        return partial(self._land, began, record.report_id, future, run_span)

    def _stage(self, name: str, fn, item, run_span):
        """``fn(item)`` as stage ``name``, counted: (value, error)."""
        begin = self.clock.now()
        try:
            value = self._run_stage(name, fn, item, run_span)
        except Exception as error:  # noqa: BLE001 - stage isolation
            return self._fate(name, begin, error=error)
        return self._fate(name, begin, value)

    def _run_stage(self, name: str, fn, item, run_span):
        """``fn(item)`` under the stage's tracer span."""
        with self.obs.tracer.span(name, parent=run_span) as span:
            if item.report_id:
                span.set("report", item.report_id)
            value = fn(item)
            # lets per-stage unit costs (repro.obs.profile) count only
            # the surviving items
            span.set("outcome", _outcome(name, value))
            return value

    def _land(self, began: float, key: str, future: Future, run_span):
        """A submitted record back, on the calling thread: its ``extract``
        span, then :meth:`Extractor.emit` under it."""
        attrs = {"report": key} if key else {}
        span = None
        try:
            refined = future.result()
            span = self.obs.tracer.record(
                "extract", began, self.clock.now() - began, parent=run_span,
                outcome="ok", **attrs,
            )
            record = self.extractor.emit(began, refined, span)
        except Exception as error:  # noqa: BLE001 - stage isolation
            if span is not None:  # emit failed
                span.set("error", type(error).__name__)
            else:
                self.obs.tracer.record(
                    "extract", began, self.clock.now() - began, parent=run_span,
                    error=type(error).__name__, **attrs,
                )
            return self._fate("extract", began, error=error)
        return self._fate("extract", began, record)

    def _fate(self, name: str, begin: float, value=None, error=None):
        """Count an item out of stage ``name``: (value, error)."""
        self.obs.metrics.observe(
            "pipeline.stage_seconds", self.clock.now() - begin, stage=name
        )
        outcome = "error" if error is not None else _outcome(name, value)
        self.obs.metrics.inc("pipeline.items", stage=name, outcome=outcome)
        if error is not None:
            return None, (name, f"{type(error).__name__}: {error}")
        return value, None


__all__ = ["Pipeline", "PipelineResult"]
