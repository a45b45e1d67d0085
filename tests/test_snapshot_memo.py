"""Checkpoint encodings against the reference encoder.

A checkpoint writes each participant's ``snapshot_text()``, which the
graph, the search index and the feed views join from per-item encodings
they memoise until the item changes.  The reference is ``json.dumps`` of
``snapshot_data()`` -- and, per feed tier, ``json.dumps`` of the view
with ``sort_keys`` -- so after every step of a random write sequence the
two must agree byte for byte, and no memo may hold an entry for an item
that is gone.  End to end, every snapshot and feed file a durable
deployment writes must equal the reference encoding of its state, and a
deployment that never checkpoints to disk fills no memo.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alias_corpus import alias_batch
from repro.core.config import SystemConfig
from repro.core.system import SecurityKG
from repro.feeds import TIERS, FeedPublisher
from repro.graphdb.wal import GraphParticipant
from repro.ontology.intermediate import CTIRecord
from repro.search.index import SearchIndexParticipant

LABELS = ["Malware", "Tool", "MalwareReport", "Unmapped"]
EDGE_TYPES = ["USES", "TARGETS", "MENTIONS", "CREATED_BY"]
NAMES = ["emotet", "Emotet", "trickbot", "mimikatz", "psexec"]
WORDS = ["agent", "tesla", "emotet", "drops", "the", "loader", "10.0.0.1",
         "evil.com", "c2", "payload", "ünïcode"]

values = st.one_of(
    st.integers(-5, 5),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.lists(st.text(max_size=3), max_size=3),
)
node_props = st.fixed_dictionaries(
    {},
    optional={
        "name": st.sampled_from(NAMES),
        "tlp": st.sampled_from(["white", "green", "amber", "red"]),
        "score": values,
        "tags": values,
    },
)
edge_props = st.fixed_dictionaries(
    {},
    optional={
        "weight": st.integers(1, 4),
        "reports": st.lists(st.sampled_from(["r1", "r2", "r3"]), max_size=3),
        "note": values,
    },
)
index = st.integers(0, 1 << 16)
graph_ops = st.lists(
    st.one_of(
        st.tuples(st.just("create_node"), st.sampled_from(LABELS), node_props),
        st.tuples(
            st.just("create_edge"), index, index, st.sampled_from(EDGE_TYPES),
            edge_props,
        ),
        st.tuples(st.just("set_node"), index, node_props),
        st.tuples(st.just("set_edge"), index, edge_props),
        st.tuples(st.just("delete_node"), index),
        st.tuples(st.just("delete_edge"), index),
        st.tuples(st.just("merge"), index, st.lists(index, min_size=1, max_size=3)),
        st.tuples(st.just("reload")),
    ),
    max_size=30,
)


def pick(ids, position):
    return ids[position % len(ids)] if ids else None


def reference_feed_text(state):
    """How a feed snapshot file was encoded before the per-object memo."""
    return json.dumps(
        {
            "etag": state.etag,
            "seq": state.seq,
            "objects": state.objects,
            "history": state.history,
        },
        sort_keys=True,
    )


class TestGraphAndFeedMemos:
    @staticmethod
    def apply(participant, op):
        graph = participant.graph
        nodes, edges = graph.node_ids(), sorted(e.edge_id for e in graph.edges())
        kind = op[0]
        if kind == "create_node":
            graph.create_node(op[1], op[2])
        elif kind == "create_edge" and nodes:
            graph.create_edge(pick(nodes, op[1]), op[3], pick(nodes, op[2]), op[4])
        elif kind == "set_node" and nodes:
            graph.set_node_properties(pick(nodes, op[1]), op[2])
        elif kind == "set_edge" and edges:
            graph.set_edge_properties(pick(edges, op[1]), op[2])
        elif kind == "delete_node" and nodes:
            graph.delete_node(pick(nodes, op[1]))
        elif kind == "delete_edge" and edges:
            graph.delete_edge(pick(edges, op[1]))
        elif kind == "merge" and nodes:
            canonical = pick(nodes, op[1])
            losers = sorted({pick(nodes, p) for p in op[2]} - {canonical})
            graph.merge_nodes(canonical, losers)
        elif kind == "reload":
            participant.load_snapshot(json.loads(participant.snapshot_text()))

    @given(graph_ops)
    @settings(max_examples=60, deadline=None)
    def test_every_step_encodes_like_the_reference(self, ops):
        participant = GraphParticipant()
        steps = [0]
        feeds = FeedPublisher(
            graph_source=lambda: participant.graph,
            stamp_source=lambda: (steps[0],),
        )
        for op in ops:
            self.apply(participant, op)
            graph = participant.graph
            # no memo outlives its item (checked before the fill below)
            assert set(graph._node_texts) <= set(graph.node_ids())
            assert set(graph._edge_texts) <= {e.edge_id for e in graph.edges()}
            assert participant.snapshot_text() == json.dumps(
                participant.snapshot_data()
            )
            steps[0] += 1
            feeds.describe()  # a refresh after the write
            for tier in TIERS:
                state = feeds._states[tier]
                assert set(state.pairs) <= set(state.objects)
                assert state.snapshot_text() == reference_feed_text(state)


fields = st.dictionaries(
    st.sampled_from(["title", "body", "name"]),
    st.lists(st.sampled_from(WORDS), max_size=8).map(" ".join),
    max_size=3,
)
doc_ids = st.sampled_from([f"d{i}" for i in range(5)])
search_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), doc_ids, fields),
        st.tuples(st.just("remove"), doc_ids),
        st.tuples(st.just("clear")),
        st.tuples(st.just("save")),
        st.tuples(st.just("restore")),
    ),
    max_size=30,
)


class TestSearchMemos:
    @given(search_ops)
    @settings(max_examples=200, deadline=None)
    def test_every_step_encodes_like_the_reference(self, ops):
        participant = SearchIndexParticipant()
        index = participant.index
        saved = {"documents": {}, "postings": {}, "doc_lengths": [], "field_totals": {}}
        for op in ops:
            kind = op[0]
            if kind == "add":  # a re-add of a live id replaces it
                index.add(op[1], op[2])
            elif kind == "remove":
                index.remove(op[1])
            elif kind == "clear":
                index.clear()
            elif kind == "save":
                saved = json.loads(json.dumps(index.to_state()))
            else:  # an earlier state, not necessarily the current one
                index.restore_state(saved)
            # posting texts live on the postings and die with them
            assert set(index._doc_texts) <= set(index.to_state()["documents"])
            assert participant.snapshot_text() == json.dumps(
                participant.snapshot_data()
            )


WORKLOAD = dict(
    scenario_count=6,
    reports_per_site=2,
    sources=["ThreatPedia", "MalwareBulletin", "SecureListing"],
    recognizer="gazetteer",
    clock="virtual",
    seed=7,
)
CONNECTORS = ["graph", "search", "sql"]


@pytest.fixture(scope="module")
def records():
    """Extracted crawl records plus a batch of alias-named reports, so
    the fusion pass has groups to merge."""
    with SecurityKG(SystemConfig(**WORKLOAD)) as kg:
        crawl = kg.crawl()
        processed, _result = kg.process(
            kg.checker.filter(kg.porter.port(crawl.documents)).passed
        )
    return [r.to_json() for r in processed] + [r.to_json() for r in alias_batch(0)]


def reference_snapshot(engine):
    return json.dumps(
        {
            "seq": engine.last_seq,
            "ingested": engine.ingested_ids(),
            "stores": {
                name: engine.participant(name).snapshot_data()
                for name in engine.participant_names
            },
        }
    )


def assert_files_match_reference(kg, root):
    for partition in kg.shards.partitions:
        engine = partition.engine
        manifest = json.loads((engine.path / "MANIFEST").read_text(encoding="utf-8"))
        written = (engine.path / manifest["snapshot"]).read_text(encoding="utf-8")
        assert written == reference_snapshot(engine)
    for tier in TIERS:
        written = (root / "feeds" / f"feed-{tier}.json").read_text(encoding="utf-8")
        assert written == reference_feed_text(kg.feeds._states[tier])


class TestCheckpointFiles:
    @pytest.mark.parametrize("partitions", [1, 2])
    def test_store_durable_run_writes_the_reference_bytes(
        self, tmp_path, records, partitions
    ):
        config = SystemConfig(
            storage_path=str(tmp_path), partitions=partitions,
            connectors=CONNECTORS, **WORKLOAD,
        )
        generations = 0
        with SecurityKG(config) as kg:
            for start in range(0, len(records), 6):
                kg.store([CTIRecord.from_json(p) for p in records[start:start + 6]])
                kg.checkpoint()
                generations += 1
                assert_files_match_reference(kg, tmp_path)
            assert kg.run_fusion().groups_merged > 0
            kg.checkpoint()
            assert_files_match_reference(kg, tmp_path)
        assert generations >= 3

    def test_in_memory_store_fills_no_memo(self, records):
        config = SystemConfig(partitions=2, connectors=CONNECTORS, **WORKLOAD)
        with SecurityKG(config) as kg:
            kg.store([CTIRecord.from_json(p) for p in records])
            kg.checkpoint()
            kg.run_fusion()
            kg.feeds.describe()
            for partition in kg.shards.partitions:
                graph = partition.database.graph
                assert graph._node_texts == {} and graph._edge_texts == {}
                index = partition.search_index
                assert index._doc_texts == {}
                assert all(
                    posting.text is None
                    for postings in index._postings.values()
                    for posting in postings
                )
            assert all(kg.feeds._states[tier].pairs == {} for tier in TIERS)
