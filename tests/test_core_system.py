"""Integration tests for the SecurityKG facade and configuration."""

import pytest

from repro import SecurityKG, SystemConfig
from repro.obs import make_obs
from repro.runtime import clock_from_name


class TestSystemConfig:
    def test_json_round_trip(self):
        config = SystemConfig(crawl_threads=3, connectors=["graph"])
        assert SystemConfig.from_json(config.to_json()) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig.from_dict({"no_such_option": 1})

    @pytest.mark.parametrize("key", ["parse_workers", "extract_workers"])
    def test_worker_counts_below_one_rejected(self, key):
        # a stage with no worker never runs: the cycle would hang
        with pytest.raises(ValueError, match=key):
            SystemConfig.from_dict({key: 0})

    def test_file_round_trip(self, tmp_path):
        config = SystemConfig(recognizer="regex")
        path = tmp_path / "config.json"
        config.save(path)
        assert SystemConfig.from_file(path) == config


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
                max_articles=2,
                connectors=["graph"],
            )
        )
        report = kg.run_once()
        assert report.crawl.article_count == 2

    def test_serialized_boundaries_equivalent(self):
        base = SystemConfig(
            scenario_count=6,
            reports_per_site=3,
            sources=["SecureListing"],
            connectors=["graph"],
        )
        plain = SecurityKG(base)
        plain.run_once()
        serialized_config = SystemConfig(**{**base.__dict__,
                                            "serialize_boundaries": True})
        serialized = SecurityKG(serialized_config)
        serialized.run_once()
        assert (
            plain.graph.label_counts() == serialized.graph.label_counts()
        )
        assert plain.graph.edge_count == serialized.graph.edge_count

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
        """Whichever worker finishes first, so the store sees one order."""
        import time

        kg = SecurityKG(
            SystemConfig(
                scenario_count=6,
                reports_per_site=3,
                sources=["SecureListing"],
                recognizer="gazetteer",
                connectors=["graph"],
                extract_workers=2,
            )
        )
        reports = kg.checker.filter(kg.porter.port(kg.crawl().documents)).passed
        assert len(reports) == 3
        extract = kg.extractor.extract

        def first_is_slow(record):
            if record.report_id == reports[0].report_id:
                time.sleep(0.05)
            return extract(record)

        kg.extractor.extract = first_is_slow
        records, _result = kg.process(reports)
        assert [r.report_id for r in records] == [r.report_id for r in reports]

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
