"""Tests for the applications: threat search (demo scenarios) and stats."""

import pytest

from repro import SecurityKG, SystemConfig
from repro.apps import GrowthTracker, ThreatSearchApp, compute_stats


@pytest.fixture(scope="module")
def demo_system():
    kg = SecurityKG(
        SystemConfig(
            scenario_count=10,
            reports_per_site=4,
            connectors=["graph", "search"],
        )
    )
    kg.run_once()
    kg.run_fusion()
    return kg


@pytest.fixture(scope="module")
def app(demo_system):
    return ThreatSearchApp(demo_system)


class TestDemoScenario1:
    """Keyword search investigation (the 'wannacry' walkthrough)."""

    def test_investigation_has_focus_and_reports(self, demo_system, app):
        malware = next(iter(demo_system.graph.nodes("Malware")))
        name = malware.properties["name"]
        investigation = app.investigate(name)
        assert investigation.focus is not None
        assert investigation.reports
        assert investigation.related  # neighbours of every relevant type

    def test_investigation_surfaces_iocs(self, demo_system, app):
        malware = max(
            demo_system.graph.nodes("Malware"),
            key=lambda n: demo_system.graph.degree(n.node_id),
        )
        investigation = app.investigate(malware.properties["name"])
        ioc_kinds = {"IP", "Domain", "Hash", "FileName", "URL"}
        assert ioc_kinds & set(investigation.related)

    def test_summary_is_readable(self, demo_system, app):
        malware = next(iter(demo_system.graph.nodes("Malware")))
        text = app.investigate(malware.properties["name"]).summary()
        assert "Investigation" in text and "focus node" in text


class TestDemoScenario2:
    """Actor technique profiling (the 'cozyduke' walkthrough)."""

    def test_techniques_of_actor(self, demo_system, app):
        actors = sorted(
            demo_system.graph.nodes("ThreatActor"),
            key=lambda n: -demo_system.graph.degree(n.node_id),
        )
        assert actors
        techniques = app.techniques_of(actors[0].properties["name"])
        assert techniques, "the busiest actor should have USES edges"

    def test_actors_sharing_techniques(self, demo_system, app):
        found_any = False
        for actor in demo_system.graph.nodes("ThreatActor"):
            sharing = app.actors_sharing_techniques(actor.properties["name"])
            for other, count in sharing:
                assert other != actor.properties["name"]
                assert count >= 1
                found_any = True
        # with a shared scenario pool some technique overlap must exist
        assert found_any

    def test_unknown_actor(self, app):
        assert app.techniques_of("no such actor") == []
        assert app.actors_sharing_techniques("no such actor") == []


class TestDemoScenario3:
    """Cypher query returns the same node as keyword search."""

    def test_cypher_equals_keyword_focus(self, demo_system, app):
        for malware in list(demo_system.graph.nodes("Malware"))[:5]:
            name = malware.properties["name"]
            via_cypher = app.cypher_lookup(name)
            via_keyword = app.investigate(name).focus
            assert via_cypher is not None and via_keyword is not None
            assert via_cypher.node_id == via_keyword.node_id

    def test_paper_literal_query_form(self, demo_system):
        malware = next(iter(demo_system.graph.nodes("Malware")))
        name = malware.properties["name"]
        rows = demo_system.cypher(f'match (n) where n.name = "{name}" return n')
        assert rows and rows[0]["n"].node_id == malware.node_id

    def test_alias_lookup_after_fusion(self, demo_system, app):
        for node in demo_system.graph.nodes("Malware"):
            aliases = node.properties.get("aliases", [])
            if aliases:
                found = app.find_node(str(aliases[0]))
                assert found is not None and found.node_id == node.node_id
                return
        pytest.skip("no fused aliases in this corpus")


class TestStats:
    def test_compute_stats(self, demo_system):
        stats = compute_stats(demo_system.graph)
        assert stats.nodes == demo_system.graph.node_count
        assert stats.edges == demo_system.graph.edge_count
        assert sum(stats.labels.values()) == stats.nodes
        assert stats.top_entities[0][2] >= stats.top_entities[-1][2]
        assert sum(stats.degree_histogram.values()) == stats.nodes

    def test_describe(self, demo_system):
        text = compute_stats(demo_system.graph).describe()
        assert "knowledge graph" in text

    def test_growth_tracker(self):
        from repro.graphdb import PropertyGraph

        graph = PropertyGraph()
        tracker = GrowthTracker(graph)
        graph.create_node("A")
        tracker.record(new_reports=1)
        graph.create_node("B")
        graph.create_node("C")
        tracker.record(new_reports=2)
        assert tracker.series() == [(1, 1, 0), (3, 3, 0)]
