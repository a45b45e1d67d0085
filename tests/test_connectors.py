"""Unit tests for the storage connectors."""

import pytest

from repro.connectors import GraphConnector, SQLConnector, SearchConnector
from repro.connectors.sql import SQLParticipant
from repro.core.config import CONNECTORS, SystemConfig
from repro.graphdb import GraphDatabase
from repro.graphdb.wal import GraphParticipant
from repro.ontology import CTIRecord, EntityType, Mention, RelationMention
from repro.search.index import SearchIndexParticipant
from repro.sharding import ShardPartition
from repro.storage import StorageEngine


def graph_connector() -> GraphConnector:
    return GraphConnector(GraphDatabase(StorageEngine(None, [GraphParticipant()])))


def sql_connector() -> SQLConnector:
    return SQLConnector(StorageEngine(None, [SQLParticipant()]))


def search_connector() -> SearchConnector:
    return SearchConnector(StorageEngine(None, [SearchIndexParticipant()]))


def record_with(report_id="r1", malware="emotet", ip="10.0.0.1", verb="connects"):
    record = CTIRecord(
        report_id=report_id,
        source="ThreatPedia",
        url=f"https://x/{report_id}",
        title=f"Report about {malware}",
        vendor="Arcane Labs",
        report_category="malware",
        summary=f"The {malware} trojan connects to {ip}.",
    )
    record.add_ioc(EntityType.IP, ip)
    record.mentions.append(Mention(malware, EntityType.MALWARE))
    record.relations.append(
        RelationMention(malware, EntityType.MALWARE, verb, ip, EntityType.IP)
    )
    return record


class TestGraphConnector:
    def test_single_ingest_creates_entities(self):
        connector = graph_connector()
        stats = connector.ingest(record_with())
        assert stats.entities_created >= 4  # report, vendor, malware, ip
        assert connector.graph.find_node("Malware", merge_key="emotet")

    def test_exact_description_merge(self):
        connector = graph_connector()
        connector.ingest(record_with(report_id="r1"))
        connector.ingest(record_with(report_id="r2"))
        assert len(connector.graph.find_nodes("Malware")) == 1
        assert len(connector.graph.find_nodes("IP")) == 1
        # two distinct report nodes though
        assert len(connector.graph.find_nodes("MalwareReport")) == 2

    def test_case_variant_merges(self):
        connector = graph_connector()
        connector.ingest(record_with(malware="Emotet", report_id="a"))
        connector.ingest(record_with(malware="emotet", report_id="b"))
        assert len(connector.graph.find_nodes("Malware")) == 1

    def test_naming_convention_variant_does_not_merge(self):
        # deferred to the fusion stage by design
        connector = graph_connector()
        connector.ingest(record_with(malware="agent tesla", report_id="a"))
        connector.ingest(record_with(malware="AgentTesla", report_id="b"))
        assert len(connector.graph.find_nodes("Malware")) == 2

    def test_duplicate_relation_bumps_weight(self):
        connector = graph_connector()
        connector.ingest(record_with(report_id="r1"))
        connector.ingest(record_with(report_id="r2"))
        edges = [e for e in connector.graph.edges() if e.type == "CONNECTS_TO"]
        assert len(edges) == 1
        assert edges[0].properties["weight"] == 2
        assert set(edges[0].properties["reports"]) == {"r1", "r2"}

    def test_attributes_augmented_not_overwritten(self):
        connector = graph_connector()
        first = record_with(report_id="r1")
        first.mentions[0] = Mention("emotet", EntityType.MALWARE, method="parser")
        connector.ingest(first)
        node = connector.graph.find_node("Malware", merge_key="emotet")
        method_before = node.properties.get("method")
        connector.ingest(record_with(report_id="r2"))
        assert node.properties.get("method") == method_before


class TestSQLConnector:
    def test_ingest_and_counts(self):
        connector = sql_connector()
        connector.ingest(record_with(report_id="r1"))
        connector.ingest(record_with(report_id="r2"))
        assert connector.entity_count() > 0
        counts = connector.label_counts()
        assert counts["Malware"] == 1
        assert counts["MalwareReport"] == 2

    def test_relation_weight_merge(self):
        connector = sql_connector()
        connector.ingest(record_with(report_id="r1"))
        connector.ingest(record_with(report_id="r2"))
        row = connector.connection.execute(
            "SELECT weight FROM relations WHERE type = 'CONNECTS_TO'"
        ).fetchone()
        assert row[0] == 2

    def test_reports_table(self):
        connector = sql_connector()
        connector.ingest(record_with(report_id="r1"))
        rows = connector.connection.execute("SELECT * FROM reports").fetchall()
        assert len(rows) == 1

    def test_file_persistence(self, tmp_path):
        engine = StorageEngine(tmp_path / "kg", [SQLParticipant()])
        SQLConnector(engine).ingest(record_with())
        engine.close()
        reopened = SQLConnector(StorageEngine(tmp_path / "kg", [SQLParticipant()]))
        assert reopened.entity_count() > 0
        reopened.engine.close()

    def test_parity_with_graph_connector(self):
        graph = graph_connector()
        sql = sql_connector()
        for i in range(4):
            record = record_with(report_id=f"r{i}", malware=f"fam{i % 2}")
            graph.ingest(record)
            sql.ingest(record)
        assert sql.label_counts() == graph.graph.label_counts()


class TestSearchConnector:
    def test_reports_searchable(self):
        connector = search_connector()
        connector.ingest(record_with(malware="quakbot"))
        hits = connector.index.search("quakbot")
        assert hits and hits[0].doc_id == "r1"

    def test_ioc_values_searchable(self):
        connector = search_connector()
        connector.ingest(record_with(ip="10.99.88.77"))
        assert connector.index.search("10.99.88.77")


class TestRegistry:
    """The known connector names are ``CONNECTORS``; a partition builds them."""

    def test_known_connectors_registered(self):
        assert {"graph", "sql", "search"} <= set(CONNECTORS)
        partition = ShardPartition(0, None, list(CONNECTORS))
        connectors = partition.connectors
        assert {name: type(c) for name, c in connectors.items()} == {
            "graph": GraphConnector,
            "search": SearchConnector,
            "sql": SQLConnector,
        }
        assert connectors["graph"].database.engine is partition.engine
        assert connectors["search"].engine is partition.engine
        assert connectors["sql"].engine is partition.engine
        partition.engine.close()

    def test_create_by_name(self):
        partition = ShardPartition(0, None, ["sql"])
        connector = partition.connectors["sql"]
        assert list(partition.connectors) == ["sql"]
        assert isinstance(connector, SQLConnector)
        assert connector.engine is partition.engine
        partition.engine.close()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match=r"'bogus'.*known: \['graph'"):
            SystemConfig(connectors=["graph", "bogus"])
