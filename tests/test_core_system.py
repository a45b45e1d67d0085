"""Integration tests for the SecurityKG facade and configuration."""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro import SecurityKG, SystemConfig
from repro.connectors.base import Connector
from repro.nlp.baselines import GazetteerRecognizer
from repro.obs import make_obs
from repro.obs.profile import unit_costs
from repro.runtime import clock_from_name
from repro.storage import CrashInjector, InjectedCrash


class TestSystemConfig:
    def test_json_round_trip(self):
        config = SystemConfig(crawl_threads=3, connectors=["graph"])
        assert SystemConfig.from_json(config.to_json()) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig.from_dict({"no_such_option": 1})

    @pytest.mark.parametrize(
        "key", ["crawl_threads", "parse_workers", "extract_workers"]
    )
    def test_worker_counts_below_one_rejected(self, key):
        # a stage with no worker never runs: the cycle would hang or
        # crawl nothing; built directly or from a file, the config
        # refuses it the same way, before any worker is forked
        with pytest.raises(ValueError, match=key):
            SystemConfig.from_dict({key: 0})
        with pytest.raises(ValueError, match=key):
            SystemConfig(**{key: 0})

    @pytest.mark.parametrize("count", [0, -2])
    def test_partition_count_below_one_rejected(self, count):
        with pytest.raises(ValueError, match="partitions"):
            SystemConfig(partitions=count)
        with pytest.raises(ValueError, match="partitions"):
            SystemConfig.from_dict({"partitions": count})

    @pytest.mark.parametrize("count", ["2", 2.0, True, None])
    def test_non_integer_counts_rejected(self, count):
        with pytest.raises(ValueError, match="partitions must be an integer"):
            SystemConfig.from_dict({"partitions": count})

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object, got list"):
            SystemConfig.from_dict([1])

    def test_unknown_connector_rejected_before_any_file(self, tmp_path):
        """The name is refused with the known ones, before a partition
        engine opens its directory."""
        root = tmp_path / "kg"
        with pytest.raises(ValueError, match=r"\['neo4j'\]; known: \['graph'"):
            SecurityKG(SystemConfig(connectors=["graph", "neo4j"], storage_path=str(root)))
        assert not root.exists()

    def test_file_round_trip(self, tmp_path):
        config = SystemConfig(recognizer="regex")
        path = tmp_path / "config.json"
        path.write_text(config.to_json())
        assert SystemConfig.from_file(path) == config


class Hooked:
    """The gazetteer with a hook that runs on one text: sleep, raise, or
    kill the process (a worker's, never the one that built the hook)."""

    def __init__(self, text: str, hook: str):
        self.inner = GazetteerRecognizer()
        self.text, self.hook, self.built_in = text, hook, os.getpid()
        self.calls = 0

    def extract(self, text):
        self.calls += 1
        if text == self.text:
            if self.hook == "sleep":
                time.sleep(0.2)
            elif self.hook == "raise":
                raise LookupError("no model for this report")
            elif os.getpid() != self.built_in:
                os.kill(os.getpid(), signal.SIGKILL)
        return self.inner.extract(text)


@pytest.fixture(scope="module")
def small_system():
    kg = SecurityKG(
        SystemConfig(
            scenario_count=8,
            reports_per_site=3,
            sources=["ThreatPedia", "SecureListing", "InfoSec Ledger", "NVD Shadow",
                     "OTX Mirror"],
            connectors=["graph", "search", "sql"],
        )
    )
    kg.report = kg.run_once()
    return kg


class TestRunOnce:
    def test_everything_collected(self, small_system):
        assert small_system.report.crawl.article_count == 15
        assert small_system.report.reports_stored > 0
        assert small_system.report.pipeline_errors == []

    def test_graph_populated(self, small_system):
        stats = small_system.stats()
        assert stats["nodes"] > 20
        assert stats["edges"] > 20
        assert "Malware" in stats["labels"]

    def test_sql_connector_agrees_with_graph(self, small_system):
        sql = small_system.connectors["sql"]
        assert sql.entity_count() == small_system.graph.node_count
        assert sql.label_counts() == small_system.graph.label_counts()

    def test_search_connector_indexed_reports(self, small_system):
        search = small_system.connectors["search"]
        assert search.index.doc_count == small_system.report.reports_stored

    def test_incremental_second_run(self, small_system):
        second = small_system.run_once()
        assert second.crawl.article_count == 0
        assert second.reports_stored == 0

    def test_cypher_application(self, small_system):
        rows = small_system.cypher("MATCH (m:Malware) RETURN count(m) AS c")
        assert rows[0]["c"] == small_system.graph.label_counts()["Malware"]

    def test_keyword_search_application(self, small_system):
        malware = next(iter(small_system.graph.nodes("Malware")))
        name = malware.properties["name"]
        hits = small_system.keyword_search(name)
        assert hits, name

    def test_fusion_runs(self, small_system):
        report = small_system.run_fusion()
        assert report.nodes_after <= report.nodes_before

    def test_describe_is_readable(self, small_system):
        text = small_system.report.describe()
        assert "crawled" in text and "stored" in text


class TestConfigurationEffects:
    def test_max_articles_caps_collection(self):
        kg = SecurityKG(
            SystemConfig(
                scenario_count=6,
                reports_per_site=5,
                sources=["SecureListing"],
                connectors=["graph"],
            )
        )
        report = kg.run_once(max_articles=2)
        assert report.crawl.article_count == 2

    def test_run_once_checks_each_report_once(self):
        """The pipeline's check stage is the cycle's one check: it sees
        the reports it rejects, and its counts are the report's."""
        obs = make_obs()
        kg = SecurityKG(
            SystemConfig(
                scenario_count=6,
                reports_per_site=3,
                sources=["SecureListing", "ThreatPedia"],
                connectors=["graph"],
                checker_min_chars=1500,
                clock="virtual",
            ),
            obs=obs,
        )
        report = kg.run_once()
        assert (report.reports_ported, report.reports_rejected) == (6, 2)
        assert report.reports_stored == 4
        assert sum(report.rejection_reasons.values()) == 2
        assert all("too short" in reason for reason in report.rejection_reasons)
        counter = obs.metrics.counter
        assert counter("pipeline.items", stage="check", outcome="filtered") == 2
        assert counter("pipeline.items", stage="check", outcome="ok") == 4
        assert obs.metrics.counter_total("pipeline.reports_rejected") == 2
        outcomes = [
            span["attrs"]["outcome"]
            for span in obs.tracer.export()
            if span["name"] == "check"
        ]
        assert sorted(outcomes) == ["filtered"] * 2 + ["ok"] * 4

    def test_process_returns_records_in_input_order(self):
        """Whichever worker finishes first, so the store sees one order.
        The first report is the slow one *inside* a worker process: the
        recogniser arrives through the constructor, before the fork."""
        config = dict(
            scenario_count=6,
            reports_per_site=3,
            sources=["SecureListing"],
            connectors=["graph"],
        )
        probe = SecurityKG(SystemConfig(**config))
        reports = probe.checker.filter(probe.porter.port(probe.crawl().documents)).passed
        assert len(reports) == 3
        slow = Hooked(probe.parsers.parse(reports[0]).text, "sleep")
        with SecurityKG(
            SystemConfig(**config, extract_workers=2), recognizer=slow
        ) as kg:
            reports = kg.checker.filter(kg.porter.port(kg.crawl().documents)).passed
            records, result = kg.process(reports)
        assert [r.report_id for r in records] == [r.report_id for r in reports]
        assert result.elapsed >= 0.2 and not result.errors
        assert slow.calls == 0, "the parent's copy of the recogniser never ran"

    def test_regex_recognizer_configurable(self):
        kg = SecurityKG(
            SystemConfig(
                scenario_count=4,
                reports_per_site=2,
                sources=["SecureListing"],
                recognizer="regex",
                connectors=["graph"],
            )
        )
        report = kg.run_once()
        assert report.reports_stored > 0
        # the regex recogniser still finds IOC nodes
        assert any(
            label in kg.graph.label_counts() for label in ("IP", "Domain", "Hash")
        )

    def test_unknown_recognizer_rejected(self):
        with pytest.raises(ValueError):
            SecurityKG(SystemConfig(recognizer="nope"))

    def test_graph_persistence(self, tmp_path):
        config = SystemConfig(
            scenario_count=4,
            reports_per_site=2,
            sources=["OTX Mirror"],
            connectors=["graph"],
            storage_path=str(tmp_path / "graph"),
        )
        kg = SecurityKG(config)
        kg.run_once()
        nodes = kg.graph.node_count
        kg.close()

        reopened = SecurityKG(config)
        assert reopened.graph.node_count == nodes


class TestOneDeploymentShape:
    """The facade answers the same way whatever the partition count and
    whether or not the partitions are durable."""

    @staticmethod
    def answers(kg):
        """Everything the read surface says, in comparable form."""
        query = "MATCH (m:Malware) RETURN m.name ORDER BY m.name"
        pages, continuation = [], None
        while True:
            page = kg.cypher_paginated(query, 3, continuation=continuation)
            pages.extend(row.values for row in page.rows)
            continuation = page.continuation
            if continuation is None:
                break
        pull = kg.feeds.pull("public")
        return {
            "stats": kg.stats(),
            "search": [hit.doc_id for hit in kg.keyword_search("malware")],
            "cypher": [row.values for row in kg.cypher(query)],
            "pages": pages,
            "feed": (pull.status, pull.etag),
        }

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
    @pytest.mark.parametrize("partitions", [1, 2])
    def test_facade_contract(self, tmp_path, partitions, durable):
        config = SystemConfig(
            scenario_count=6,
            reports_per_site=2,
            sources=["ThreatPedia", "MalwareBulletin"],
            clock="virtual",
            partitions=partitions,
            storage_path=str(tmp_path / "state") if durable else None,
        )
        clock = clock_from_name("virtual")
        obs = make_obs(clock)
        kg = SecurityKG(config, clock=clock, obs=obs)
        assert kg.engine is kg.shards.partitions[0].engine
        assert kg.database is kg.shards.partitions[0].database
        assert kg.connectors is kg.shards.partitions[0].connectors

        report = kg.run_once()
        assert report.reports_stored > 0
        kg.run_fusion()
        kg.checkpoint()
        got = self.answers(kg)

        stats = got["stats"]
        assert set(stats) == {
            "nodes", "edges", "labels", "edge_types", "partitions"
        }
        assert [p["partition"] for p in stats["partitions"]] == list(
            range(partitions)
        )
        assert sum(p["nodes"] for p in stats["partitions"]) == stats["nodes"] > 0
        assert sum(
            p["reports_ingested"] for p in stats["partitions"]
        ) == report.reports_stored
        assert got["search"] and got["cypher"]
        assert got["pages"] == got["cypher"]
        assert got["feed"][0] == 200

        # the observable shape does not depend on the count either
        spans = [
            s for s in obs.tracer.export() if s["name"] == "store.shard"
        ]
        by_id = {s["id"]: s for s in obs.tracer.export()}
        assert {s["attrs"]["partition"] for s in spans} == set(range(partitions))
        assert all(by_id[s["parent"]]["name"] == "store" for s in spans)
        snapshot = obs.metrics.snapshot()
        labels = {f"partition={i}" for i in range(partitions)}
        assert set(snapshot["counters"]["shard.reports_stored"]) == labels
        assert labels <= set(snapshot["gauges"]["graph.nodes"])
        kg.close()

        if durable:
            reopened = SecurityKG(config)
            assert self.answers(reopened) == got
            assert reopened.run_once().reports_stored == 0
            reopened.close()


POOLED = dict(
    scenario_count=6,
    reports_per_site=3,
    sources=["SecureListing", "ThreatPedia"],
    connectors=["graph"],
    clock="virtual",  # one crawl order; the tracers below keep real time
)


def passed_reports(kg):
    return kg.checker.filter(kg.porter.port(kg.crawl().documents)).passed


def bounded(seconds: float, call):
    """``call()`` on a thread -- its result, or what it raised; fails
    instead of hanging the run."""
    box = []

    def run():
        try:
            box.append((call(), None))
        except Exception as error:  # noqa: BLE001 - re-raised below
            box.append((None, error))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    result, error = box[0]
    if error is not None:
        raise error
    return result


class TestExtractorProcesses:
    """``extract_workers = N > 1`` is N forked extractor processes."""

    @pytest.fixture(scope="class")
    def target_text(self):
        """The body of the second report every ``POOLED`` system crawls."""
        probe = SecurityKG(SystemConfig(**POOLED))
        reports = passed_reports(probe)
        assert len(reports) == 6
        return probe.parsers.parse(reports[1]).text

    def test_a_raising_recogniser_fails_one_report_the_same_way(self, target_text):
        outcomes = []
        for workers in (1, 2):
            with SecurityKG(
                SystemConfig(**POOLED, extract_workers=workers),
                recognizer=Hooked(target_text, "raise"),
            ) as kg:
                records, result = kg.process(passed_reports(kg))
            outcomes.append((result.errors, [r.to_json() for r in records]))
        errors, records = outcomes[0]
        assert errors == [("extract", "LookupError: no model for this report")]
        assert len(records) == 5
        assert outcomes[1] == outcomes[0]

    def test_a_killed_worker_is_typed_errors_not_a_hang(self, target_text):
        """SIGKILL inside a worker mid-run: ``process`` comes back with a
        ``BrokenProcessPool`` error for every report then in flight or
        still to come, the system stays broken (it never forks beside its
        running threads) until it is reopened, and ``close`` returns."""
        obs = make_obs()
        kg = SecurityKG(
            SystemConfig(**POOLED, extract_workers=2),
            recognizer=Hooked(target_text, "kill"),
            obs=obs,
        )
        reports = passed_reports(kg)

        def failed_spans(records):
            """One ``extract`` span per failed report, with its error --
            whether it failed in flight or at submission."""
            spans = [
                span["attrs"] for span in obs.tracer.export()
                if span["name"] == "extract" and "error" in span["attrs"]
            ]
            obs.tracer = make_obs().tracer
            assert sorted(attrs["report"] for attrs in spans) == sorted(
                {r.report_id for r in reports} - {r.report_id for r in records}
            )
            return {attrs["error"] for attrs in spans}

        obs.tracer = make_obs().tracer
        records, result = bounded(30, lambda: kg.process(reports))
        assert result.errors and len(records) + len(result.errors) == len(reports)
        assert {stage for stage, _message in result.errors} == {"extract"}
        assert all(
            message.startswith("BrokenProcessPool: ")
            for _stage, message in result.errors
        )
        assert failed_spans(records) == {"BrokenProcessPool"}
        first_cycle = len(result.errors)
        # the next cycle does not rebuild the pool: every report fails, typed
        records, result = bounded(30, lambda: kg.process(reports))
        assert records == [] and len(result.errors) == len(reports)
        assert {message.split(":")[0] for _stage, message in result.errors} == {
            "BrokenProcessPool"
        }
        assert failed_spans(records) == {"BrokenProcessPool"}
        assert obs.metrics.counter(
            "pipeline.items", stage="extract", outcome="error"
        ) == first_cycle + len(reports)
        bounded(30, kg.close)
        assert multiprocessing.active_children() == []
        with SecurityKG(SystemConfig(**POOLED, extract_workers=2)) as reopened:
            assert reopened.run_once().pipeline_errors == []

    def test_no_child_outlives_its_system(self, tmp_path):
        config = SystemConfig(**POOLED, extract_workers=2)
        kg = SecurityKG(config)
        assert len(multiprocessing.active_children()) == 2
        kg.run_once()
        kg.close()
        assert multiprocessing.active_children() == []
        with SecurityKG(config) as kg:
            assert len(multiprocessing.active_children()) == 2
        assert multiprocessing.active_children() == []
        # nor a system that could not be built
        (tmp_path / "state").mkdir()
        SecurityKG(
            SystemConfig(**POOLED, partitions=2, storage_path=str(tmp_path / "state"))
        ).close()
        with pytest.raises(Exception, match="partitions"):
            SecurityKG(
                SystemConfig(
                    **POOLED, extract_workers=2, storage_path=str(tmp_path / "state")
                )
            )
        assert multiprocessing.active_children() == []

    def test_one_worker_never_has_a_child(self):
        with SecurityKG(SystemConfig(**POOLED)) as kg:
            assert kg.extract_pool is None
            assert kg.run_once().reports_stored > 0
            assert multiprocessing.active_children() == []

    def test_no_fork_is_a_value_error_naming_the_platform(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr("sys.platform", "win32")
        with pytest.raises(ValueError, match="win32"):
            SecurityKG(SystemConfig(**POOLED, extract_workers=2))
        SecurityKG(SystemConfig(**POOLED)).close()  # one worker needs no fork

    @pytest.mark.forks_beside_threads
    def test_forking_beside_a_thread_in_the_lock_witness(self, small_recognizer):
        """Another thread nests named locks (so the witness takes its own
        mutex all the time) while systems fork: a child copies that mutex
        in whatever state it was, and must not need it -- it takes one
        lock, ``nlp.feature_cache``, never nested."""
        from repro.runtime import WITNESS, named_lock

        assert WITNESS.active
        outer, inner = named_lock("test.fork.outer"), named_lock("test.fork.inner")
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                with outer, inner:
                    pass

        thread = threading.Thread(target=hammer, daemon=True)
        thread.start()
        try:
            for _ in range(10):
                kg = SecurityKG(
                    SystemConfig(**POOLED, extract_workers=2),
                    recognizer=small_recognizer,
                )
                reports = passed_reports(kg)
                records, result = bounded(60, lambda: kg.process(reports))
                assert len(records) == len(reports) and not result.errors
                bounded(30, kg.close)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()


class Refusing(Connector):
    """A search backend that refuses every record."""

    name = "search"

    def ingest(self, record):
        raise ValueError("backend refused the record")


def refusing(kg):
    """``kg`` with every partition's search connector refusing."""
    for partition in kg.shards.partitions:
        partition.connectors[Refusing.name] = Refusing()
    return kg


class TestStoreErrors:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_writer_error_is_raised_not_swallowed(self, workers):
        """Any exception a partition writer meets -- not only an injected
        crash -- reaches the caller once the writers drain."""
        config = SystemConfig(
            **{**POOLED, "connectors": ["graph", Refusing.name]},
            extract_workers=workers,
        )
        with refusing(SecurityKG(config)) as kg:
            records, _result = kg.process(passed_reports(kg))
            with pytest.raises(ValueError, match="refused"):
                kg.store(records)
        with refusing(SecurityKG(config)) as kg:
            with pytest.raises(ValueError, match="refused"):
                kg.run_once()


def files(root):
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestStoreBehindExtract:
    """With extractor processes a cycle still stores after it extracts:
    the pool changes where a record is refined, never what is stored."""

    @pytest.mark.parametrize("partitions", [1, 2])
    def test_journal_and_snapshot_bytes_equal_process_then_store(
        self, tmp_path, partitions
    ):
        """``run_once`` with two extractor processes writes the journal
        and snapshot bytes that one in-thread extractor writes."""
        written = []
        for workers in (1, 2):
            config = SystemConfig(
                **POOLED, extract_workers=workers, partitions=partitions,
                storage_path=str(tmp_path / f"workers-{workers}"),
            )
            with SecurityKG(config) as kg:
                assert kg.run_once().reports_stored == 6
                kg.checkpoint()
            written.append(files(tmp_path / f"workers-{workers}"))
        assert any(name.endswith(".jsonl") for name in written[0])
        assert written[0] == written[1]

    def test_a_crash_mid_stream_is_raised_after_the_drain(self, tmp_path):
        """The first commit crashes at two extractor processes: the cycle
        ends in the crash once every report is extracted and every writer
        has drained, no child outlives ``close``, and a reopened system
        converges on what an uninterrupted one stores."""
        config = SystemConfig(
            **POOLED, extract_workers=2, storage_path=str(tmp_path / "state")
        )
        obs = make_obs()
        kg = SecurityKG(config, faults=CrashInjector("commit.after-append"), obs=obs)
        with pytest.raises(InjectedCrash):
            bounded(60, kg.run_once)
        assert obs.metrics.counter("pipeline.items", stage="extract", outcome="ok") == 6
        bounded(30, kg.close)
        assert multiprocessing.active_children() == []

        with SecurityKG(config) as resumed:
            report = resumed.run_once()
            assert report.reports_stored + report.reports_skipped == 5
            assert resumed.shards.ingested_count == 6
            got = resumed.stats()
        with SecurityKG(SystemConfig(**POOLED, extract_workers=2)) as reference:
            assert reference.run_once().reports_stored == 6
            expected = reference.stats()
        assert got == expected


class TestObservabilityAcrossTheBoundary:
    """What ``Extractor.extract`` tells the tracer and the registry does
    not depend on which process did the work."""

    @staticmethod
    def observed(workers: int):
        obs = make_obs()  # the real clock: durations are not all zero
        with SecurityKG(
            SystemConfig(**POOLED, extract_workers=workers), obs=obs
        ) as kg:
            report = kg.run_once()
        assert report.pipeline_errors == []
        spans = obs.tracer.export()
        by_id = {span["id"]: span for span in spans}

        def shape(span):
            parent = by_id.get(span["parent"])
            return (
                span["name"],
                sorted(span["attrs"].items()),
                parent and (parent["name"], parent["attrs"].get("report")),
            )

        pipeline = sorted(
            shape(span)
            for span in spans
            if span["name"].split(".")[0] in ("pipeline", "check", "parse", "extract")
        )
        return spans, pipeline, obs.metrics.snapshot()["counters"]

    def test_same_spans_and_counters_at_one_and_two_workers(self):
        spans, shapes, counters = self.observed(1)
        pooled_spans, pooled_shapes, pooled_counters = self.observed(2)
        assert pooled_shapes == shapes
        assert pooled_counters == counters
        names = [name for name, _attrs, _parent in shapes]
        assert names.count("extract.ner") == names.count("extract.relation") == 6
        for name, attrs, parent in shapes:
            if name.startswith("extract."):
                assert parent == ("extract", dict(attrs)["report"])
        assert sum(counters["extract.entities"].values()) > 0
        assert sum(counters["extract.iocs"].values()) > 0
        assert sum(counters["extract.relations"].values()) > 0
        # the workers' seconds arrive: `repro profile` prices a token
        for export in (spans, pooled_spans):
            ner = unit_costs(export)["extract.ner"]
            assert ner["units"]["tokens"] > 0
            assert ner["self_per_unit_s"]["tokens"] > 0
            for span in export:
                if span["name"] == "extract.ner":
                    parent = export[span["parent"] - 1]
                    assert parent["start"] <= span["start"] <= span["end"]

    def test_refine_touches_no_sink_and_returns_nothing_unobserved(self):
        from repro.core.extractor import Extractor
        from repro.ontology import CTIRecord

        def record():
            return CTIRecord(
                report_id="rpt-1", source="s", url="u",
                summary="Emotet drops TrickBot and connects to 10.1.2.3.",
            )

        refined, seen = Extractor().refine(record())
        assert seen is None and refined.mentions
        obs = make_obs()
        refined, (spans, counts) = Extractor(obs=obs).refine(record())
        assert [name for name, _seconds, _attrs in spans] == [
            "extract.ner", "extract.relation",
        ]
        assert {name for name, _label, _value in counts} == {
            "extract.iocs", "extract.entities", "extract.relations",
        }
        assert obs.tracer.export() == []
        assert obs.metrics.snapshot()["counters"] == {}
