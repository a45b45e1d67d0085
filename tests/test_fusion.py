"""Unit tests for similarity metrics and knowledge fusion."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fusion import (
    KnowledgeFusion,
    jaro_winkler,
    name_similarity,
    squash,
    token_set_overlap,
)
from repro.graphdb import GraphDatabase
from repro.graphdb.wal import GraphParticipant
from repro.storage import StorageEngine


def in_memory_database() -> GraphDatabase:
    return GraphDatabase(StorageEngine(None, [GraphParticipant()]))


class TestSimilarity:
    def test_squash_removes_conventions(self):
        assert squash("Agent Tesla") == squash("agent_tesla") == squash("agent-tesla")
        assert squash("AgentTesla") == "agenttesla"

    def test_jaro_winkler_bounds_and_identity(self):
        assert jaro_winkler("emotet", "emotet") == 1.0
        assert jaro_winkler("abc", "xyz") == 0.0
        assert 0 < jaro_winkler("emotet", "emotett") < 1

    def test_prefix_bonus(self):
        assert jaro_winkler("trickbot", "trickbo") > jaro_winkler(
            "trickbot", "rickbott"
        )

    def test_token_overlap(self):
        assert token_set_overlap("cozy bear", "bear cozy") == 1.0
        assert token_set_overlap("cozy bear", "fancy bear") == pytest.approx(1 / 3)

    def test_name_similarity_convention_equals_one(self):
        assert name_similarity("Agent Tesla", "agent_tesla") == 1.0
        assert name_similarity("WannaCry", "wannacry") == 1.0

    def test_name_similarity_unrelated_low(self):
        assert name_similarity("emotet", "stuxnet") < 0.8

    @given(st.text(alphabet="abc XYZ_-", max_size=15))
    @settings(max_examples=50, deadline=None)
    def test_self_similarity(self, name):
        if squash(name):
            assert name_similarity(name, name) == 1.0


def seeded_database():
    """Three naming variants of one malware + an unrelated one, with
    edges, in an in-memory database (fusion commits through it)."""
    db = in_memory_database()
    a = db.create_node("Malware", {"name": "agent tesla", "merge_key": "agent tesla"})
    b = db.create_node("Malware", {"name": "AgentTesla", "merge_key": "agenttesla"})
    c = db.create_node("Malware", {"name": "agent_tesla", "merge_key": "agent_tesla"})
    other = db.create_node("Malware", {"name": "stuxnet", "merge_key": "stuxnet"})
    ip = db.create_node("IP", {"name": "10.0.0.1"})
    actor = db.create_node("ThreatActor", {"name": "mummy spider"})
    db.create_edge(a.node_id, "CONNECTS_TO", ip.node_id, {"weight": 2})
    db.create_edge(b.node_id, "CONNECTS_TO", ip.node_id, {"weight": 1})
    db.create_edge(c.node_id, "ATTRIBUTED_TO", actor.node_id)
    db.create_edge(other.node_id, "CONNECTS_TO", ip.node_id)
    return db, (a, b, c, other, ip, actor)


class TestKnowledgeFusion:
    def test_alias_groups_found(self):
        db, (a, b, c, other, *_rest) = seeded_database()
        groups = KnowledgeFusion().find_alias_groups(db.graph)
        assert len(groups) == 1
        assert set(groups[0]) == {a.node_id, b.node_id, c.node_id}

    def test_merge_migrates_edges(self):
        db, (_a, _b, _c, _other, ip, actor) = seeded_database()
        report = KnowledgeFusion().run(db)
        graph = db.graph
        assert report.groups_merged == 1
        assert report.aliases_resolved == 2
        assert graph.node_count == 4  # 1 fused malware + stuxnet + ip + actor
        (fused,) = [
            n
            for n in graph.nodes("Malware")
            if squash(str(n.properties["name"])) == "agenttesla"
        ]
        # edge weights combined, both relation types preserved
        connects = [
            e for e in graph.out_edges(fused.node_id, "CONNECTS_TO")
            if e.dst == ip.node_id
        ]
        assert len(connects) == 1
        assert connects[0].properties["weight"] == 3
        assert graph.out_edges(fused.node_id, "ATTRIBUTED_TO")[0].dst == actor.node_id

    def test_aliases_recorded(self):
        db, _nodes = seeded_database()
        KnowledgeFusion().run(db)
        (fused,) = [
            n
            for n in db.graph.nodes("Malware")
            if squash(str(n.properties["name"])) == "agenttesla"
        ]
        assert len(fused.properties["aliases"]) == 2

    def test_unrelated_node_untouched(self):
        db, (_a, _b, _c, other, *_rest) = seeded_database()
        KnowledgeFusion().run(db)
        assert db.graph.has_node(other.node_id)

    def test_ioc_labels_never_fused(self):
        db = in_memory_database()
        db.create_node("Hash", {"name": "a" * 64})
        db.create_node("Hash", {"name": "a" * 63 + "b"})
        report = KnowledgeFusion().run(db)
        assert report.groups_merged == 0

    def test_idempotent(self):
        db, _nodes = seeded_database()
        fusion = KnowledgeFusion()
        first = fusion.run(db)
        fused_seq = db.engine.last_seq
        second = fusion.run(db)
        assert first.groups_merged == 1
        assert second.groups_merged == 0
        assert second.nodes_after == second.nodes_before
        assert db.engine.last_seq == fused_seq  # nothing to merge, nothing journaled

    def test_canonical_is_highest_degree(self):
        db, (a, b, c, _other, _ip, _actor) = seeded_database()
        # 'a' (agent tesla) has 1 edge; add one more to make it clearly richest
        extra = db.create_node("FileName", {"name": "x.exe"})
        db.create_edge(a.node_id, "DROPS", extra.node_id)
        KnowledgeFusion().run(db)
        assert db.graph.has_node(a.node_id)
        assert not db.graph.has_node(b.node_id)
        assert not db.graph.has_node(c.node_id)

    def test_one_pass_is_one_journal_record(self):
        """Every merge of a pass rides a single commit: the pass is
        atomic on disk, and a reader keyed on ``last_seq`` sees it."""
        db, _nodes = seeded_database()
        db.create_node("Tool", {"name": "mimi katz"})
        db.create_node("Tool", {"name": "mimikatz"})
        before = db.engine.last_seq
        report = KnowledgeFusion().run(db)
        assert report.groups_merged == 2
        assert db.engine.last_seq == before + 1
