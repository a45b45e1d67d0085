"""Unit tests for the processing loop: check -> parse -> extract."""

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extractor import Extractor, ExtractorPool
from repro.core.pipeline import Pipeline
from repro.nlp.baselines import GazetteerRecognizer
from repro.obs import make_obs
from repro.ontology import CTIRecord, ReportRecord


def items_counted(obs, stage, outcome):
    return obs.metrics.counter("pipeline.items", stage=stage, outcome=outcome)


def report(at: int, check="ok", parse="ok", extract="ok") -> ReportRecord:
    """Report ``at``, its fate at each stage in its title."""
    return ReportRecord(
        f"r{at}", "s", f"https://s.example/{at}",
        title=f"check={check} parse={parse} extract={extract}",
    )


def check(report: ReportRecord):
    """Rejects or raises where the title says so."""
    if "check=raise" in report.title:
        raise RuntimeError(f"check {report.report_id}")
    return "drawn" if "check=filter" in report.title else None


def parse(report: ReportRecord) -> CTIRecord:
    """Raises where the title says so; otherwise a record whose text
    names malware, so the extractor has something to find."""
    if "parse=raise" in report.title:
        raise RuntimeError(f"parse {report.report_id}")
    return CTIRecord(
        report.report_id, report.source, report.url,
        summary=f"{report.report_id} names Emotet and TrickBot. {report.title}",
    )


class Drawn(GazetteerRecognizer):
    """The gazetteer, raising on a text marked ``extract=raise``."""

    def extract(self, text):
        if "extract=raise" in text:
            raise RuntimeError(f"extract {text.split()[0]}")
        return super().extract(text)


def pipeline(workers=1, pool=None, obs=None, extractor=None, **stages):
    return Pipeline(
        stages.get("check", check),
        stages.get("parse", parse),
        extractor or Extractor(Drawn(), obs=obs),
        pool,
        workers=workers,
        obs=obs,
    )


@pytest.fixture(scope="module")
def forked():
    """Two extractor processes holding a ``Drawn`` extractor."""
    extractor = Extractor(Drawn())
    pool = ExtractorPool(extractor, 2)
    yield pool
    pool.close()


class TestBasics:
    def test_single_stage_identity(self):
        reports = [report(at) for at in range(3)]
        result = pipeline().run(reports)
        assert [r.report_id for r in result.outputs] == ["r0", "r1", "r2"]

    def test_chained_stages(self):
        result = pipeline().run([report(0)])
        (record,) = result.outputs
        assert record.summary.startswith("r0 names")  # parsed
        assert "Emotet" in {m.text for m in record.mentions}  # extracted

    def test_filtering_stage(self):
        obs = make_obs()
        reports = [report(at, check="filter" if at % 2 else "ok") for at in range(10)]
        result = pipeline(obs=obs).run(reports)
        assert [r.report_id for r in result.outputs] == ["r0", "r2", "r4", "r6", "r8"]
        assert result.rejected == {"drawn": 5} and result.errors == []
        assert items_counted(obs, "check", "filtered") == 5
        assert items_counted(obs, "check", "ok") == 5
        assert obs.metrics.counter("pipeline.reports_rejected", reason="drawn") == 5
        outcomes = sorted(
            span["attrs"]["outcome"]
            for span in obs.tracer.export()
            if span["name"] == "check"
        )
        assert outcomes == ["filtered"] * 5 + ["ok"] * 5

    def test_empty_input(self):
        result = pipeline().run([])
        assert result.outputs == [] and result.errors == [] and result.rejected == {}

    def test_stage_without_workers_rejected(self):
        # would build, then block run() forever
        with pytest.raises(ValueError, match="parse"):
            pipeline(workers=0)

    def test_result_throughput(self):
        result = pipeline().run([report(at) for at in range(10)])
        assert result.throughput > 0


class TestErrorIsolation:
    def test_stage_exception_drops_item_only(self):
        obs = make_obs()
        reports = [report(1), report(2, parse="raise"), report(3)]
        result = pipeline(workers=2, obs=obs).run(reports)
        assert [r.report_id for r in result.outputs] == ["r1", "r3"]
        assert items_counted(obs, "parse", "error") == 1
        assert result.errors == [("parse", "RuntimeError: parse r2")]
        errored = [
            span["attrs"] for span in obs.tracer.export() if "error" in span["attrs"]
        ]
        assert errored == [{"error": "RuntimeError", "report": "r2"}]

    def test_raising_middle_stage_does_not_hang(self):
        reports = [
            report(at, parse="raise" if at % 3 == 0 else "ok") for at in range(12)
        ]
        result = pipeline(workers=2).run(reports)
        assert [r.report_id for r in result.outputs] == [
            f"r{at}" for at in range(12) if at % 3
        ]
        assert result.errors == [
            ("parse", f"RuntimeError: parse r{at}") for at in range(12) if at % 3 == 0
        ]

    def test_a_failing_settle_or_encode_drops_its_item_only(self, forked):
        """A record that cannot be pickled to a worker, and one whose
        settling (``Extractor.emit``, on the calling thread) raises: each
        is that report's error, and its ``extract`` span's."""

        class Settling(Extractor):
            def emit(self, began, refined, parent=None):
                if refined[0].report_id == "r2":
                    raise RuntimeError("bad settle")
                return super().emit(began, refined, parent)

        def unpicklable(report):
            record = parse(report)
            if report.report_id == "r3":
                record.metadata["hook"] = lambda: None
            return record

        obs = make_obs()
        settling = Settling(Drawn(), obs=obs)
        result = pipeline(
            pool=forked, obs=obs, extractor=settling, parse=unpicklable
        ).run([report(at) for at in range(1, 5)])
        assert [r.report_id for r in result.outputs] == ["r1", "r4"]
        assert result.errors[0] == ("extract", "RuntimeError: bad settle")
        assert [stage for stage, _message in result.errors] == ["extract", "extract"]
        assert items_counted(obs, "extract", "error") == 2
        spans = [span for span in obs.tracer.export() if span["name"] == "extract"]
        assert sorted(
            (span["attrs"]["report"], "error" in span["attrs"]) for span in spans
        ) == [("r1", False), ("r2", True), ("r3", True), ("r4", False)]


class TestParallelism:
    def test_workers_speed_up_io_bound_stage(self):
        def slow(report):
            time.sleep(0.004)
            return parse(report)

        reports = [report(at) for at in range(32)]
        serial = pipeline(workers=1, parse=slow).run(reports)
        parallel = pipeline(workers=8, parse=slow).run(reports)
        assert [r.report_id for r in parallel.outputs] == [
            r.report_id for r in serial.outputs
        ] == [r.report_id for r in reports]
        assert parallel.elapsed < serial.elapsed / 2

    def test_all_items_processed_with_many_workers(self):
        reports = [report(at) for at in range(200)]
        result = pipeline(workers=4).run(reports)
        assert [r.report_id for r in result.outputs] == [r.report_id for r in reports]

    def test_thread_safety_of_stats(self):
        counter = []
        lock = threading.Lock()

        def count(report):
            with lock:
                counter.append(report.report_id)
            return parse(report)

        obs = make_obs()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more workers than cores, switching often
        try:
            result = pipeline(workers=8, obs=obs, parse=count).run(
                [report(at) for at in range(500)]
            )
        finally:
            sys.setswitchinterval(interval)
        assert len(counter) == 500
        assert [r.report_id for r in result.outputs] == [f"r{at}" for at in range(500)]
        for stage in ("check", "parse", "extract"):
            assert items_counted(obs, stage, "ok") == 500

    def test_run_twice_and_leave_no_thread_behind(self):
        baseline = threading.active_count()
        loop = pipeline(workers=3)
        for _ in range(2):
            result = loop.run([report(at) for at in range(3)])
            assert [r.report_id for r in result.outputs] == ["r0", "r1", "r2"]
            assert threading.active_count() == baseline


#: what a stage does to a report: pass it on, filter it (the check
#: only), raise
CHECKS = st.sampled_from(["ok", "ok", "ok", "filter", "raise"])
RAISES = st.sampled_from(["ok", "ok", "ok", "raise"])


class TestInputOrder:
    @settings(max_examples=60, deadline=None)
    @given(
        fates=st.lists(st.tuples(CHECKS, RAISES, RAISES), max_size=12),
        parse_workers=st.sampled_from([1, 2, 3]),
        extract_workers=st.sampled_from([1, 2]),
    )
    def test_outputs_and_errors_equal_the_serial_fold(
        self, forked, fates, parse_workers, extract_workers
    ):
        """Any report filtered or raising at the check, raising at parse
        or in the recogniser, on 1-3 parse threads and inline or in two
        extractor processes: the run is the serial fold, in input order."""
        reports = [report(at, *fate) for at, fate in enumerate(fates)]
        outputs, errors, rejected = [], [], {}
        for item in reports:
            try:
                if check(item) is not None:
                    rejected["drawn"] = rejected.get("drawn", 0) + 1
                    continue
            except RuntimeError as error:
                errors.append(("check", f"RuntimeError: {error}"))
                continue
            try:
                record = parse(item)
            except RuntimeError as error:
                errors.append(("parse", f"RuntimeError: {error}"))
                continue
            try:
                outputs.append(Extractor(Drawn()).extract(record).to_json())
            except RuntimeError as error:
                errors.append(("extract", f"RuntimeError: {error}"))

        pool = forked if extract_workers == 2 else None
        result = pipeline(workers=parse_workers, pool=pool).run(reports)
        assert [record.to_json() for record in result.outputs] == outputs
        assert result.errors == errors
        assert result.rejected == rejected
