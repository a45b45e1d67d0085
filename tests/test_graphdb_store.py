"""Unit tests for the property graph store, WAL and transactions."""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alias_corpus import graph_identity
from repro.graphdb import GraphDatabase, PropertyGraph
from repro.graphdb.wal import GraphParticipant


@pytest.fixture
def graph():
    return PropertyGraph()


class TestNodes:
    def test_create_and_get(self, graph):
        node = graph.create_node("Malware", {"name": "emotet"})
        assert graph.node(node.node_id).properties["name"] == "emotet"

    def test_missing_node_raises(self, graph):
        with pytest.raises(KeyError):
            graph.node(999)

    def test_label_index(self, graph):
        graph.create_node("Malware", {"name": "a"})
        graph.create_node("Tool", {"name": "b"})
        assert [n.label for n in graph.nodes("Malware")] == ["Malware"]

    def test_property_index_lookup(self, graph):
        for i in range(50):
            graph.create_node("Malware", {"name": f"m{i}"})
        found = graph.find_nodes("Malware", name="m7")
        assert len(found) == 1

    def test_find_on_unindexed_property(self, graph):
        graph.create_node("Malware", {"name": "a", "severity": "high"})
        graph.create_node("Malware", {"name": "b", "severity": "low"})
        assert len(graph.find_nodes("Malware", severity="high")) == 1

    def test_update_reindexes(self, graph):
        node = graph.create_node("Malware", {"name": "old"})
        graph.set_node_properties(node.node_id, {"name": "new"})
        assert graph.find_node("Malware", name="old") is None
        assert graph.find_node("Malware", name="new") is not None

    def test_delete_node_removes_edges(self, graph):
        a = graph.create_node("A")
        b = graph.create_node("B")
        graph.create_edge(a.node_id, "R", b.node_id)
        graph.delete_node(b.node_id)
        assert graph.edge_count == 0
        assert graph.out_edges(a.node_id) == []

    def test_restore_node_preserves_id_and_advances_counter(self, graph):
        graph.restore_node(10, "X", {"name": "n"})
        fresh = graph.create_node("Y")
        assert fresh.node_id > 10
        with pytest.raises(KeyError):
            graph.restore_node(10, "X", {})


class TestEdges:
    def test_create_edge_requires_endpoints(self, graph):
        a = graph.create_node("A")
        with pytest.raises(KeyError):
            graph.create_edge(a.node_id, "R", 42)

    def test_adjacency(self, graph):
        a = graph.create_node("A")
        b = graph.create_node("B")
        c = graph.create_node("C")
        graph.create_edge(a.node_id, "R", b.node_id)
        graph.create_edge(c.node_id, "S", a.node_id)
        assert [e.type for e in graph.out_edges(a.node_id)] == ["R"]
        assert [e.type for e in graph.in_edges(a.node_id)] == ["S"]
        names = {n.label for n in graph.neighbors(a.node_id)}
        assert names == {"B", "C"}

    def test_neighbors_filtered_by_type_and_direction(self, graph):
        a = graph.create_node("A")
        b = graph.create_node("B")
        graph.create_edge(a.node_id, "R", b.node_id)
        assert graph.neighbors(a.node_id, edge_type="R", direction="out")
        assert not graph.neighbors(a.node_id, edge_type="R", direction="in")
        assert not graph.neighbors(a.node_id, edge_type="X", direction="out")

    def test_counts(self, graph):
        a = graph.create_node("A")
        b = graph.create_node("B")
        graph.create_edge(a.node_id, "R", b.node_id)
        graph.create_edge(a.node_id, "R", b.node_id)
        assert graph.node_count == 2
        assert graph.edge_count == 2
        assert graph.label_counts() == {"A": 1, "B": 1}
        assert graph.edge_type_counts() == {"R": 2}

    def test_degree(self, graph):
        a = graph.create_node("A")
        b = graph.create_node("B")
        graph.create_edge(a.node_id, "R", b.node_id)
        graph.create_edge(b.node_id, "R", a.node_id)
        assert graph.degree(a.node_id) == 2


class TestTransactions:
    """Several graph mutations are one commit inside the engine's
    transaction -- the graph has no transaction of its own."""

    def test_commit_applies_batch(self, tmp_path):
        db = GraphDatabase(tmp_path / "db")
        with db.engine.transaction():
            m = db.create_node("Malware", {"name": "emotet"})
            f = db.create_node("FileName", {"name": "x.exe"})
            db.create_edge(m.node_id, "DROPS", f.node_id)
        assert db.graph.node_count == 2
        assert db.graph.edge_count == 1
        assert db.engine.last_seq == 1  # one journal record
        db.close()
        with GraphDatabase(tmp_path / "db") as reopened:
            assert reopened.graph.edge_count == 1

    def test_placeholder_mapping(self):
        """A batch may name the nodes it creates by placeholder: how
        older journals carry a Cypher CREATE."""
        outcome = GraphParticipant().apply(
            [
                {"op": "create_node", "ref": -1, "label": "A", "props": {"name": "x"}},
                {"op": "create_node", "ref": -2, "label": "B", "props": {}},
                {"op": "create_edge", "src": -1, "type": "R", "dst": -2, "props": {}},
            ]
        )
        assert outcome.id_map == {-1: 1, -2: 2}
        assert (outcome.edges[0].src, outcome.edges[0].dst) == (1, 2)

    def test_set_properties_in_transaction(self):
        db = GraphDatabase()
        node = db.create_node("A", {"name": "x"})
        with db.engine.transaction():
            db.set_node_properties(node.node_id, {"seen": 2})
        assert db.graph.node(node.node_id).properties["seen"] == 2


class TestDurability:
    def test_wal_replay_after_reopen(self, tmp_path):
        path = tmp_path / "db"
        with GraphDatabase(path) as db:
            m = db.create_node("Malware", {"name": "emotet"})
            f = db.create_node("FileName", {"name": "x.exe"})
            db.create_edge(m.node_id, "DROPS", f.node_id)
        with GraphDatabase(path) as reopened:
            assert reopened.graph.node_count == 2
            assert reopened.graph.edge_count == 1
            assert reopened.graph.find_node("Malware", name="emotet")

    def test_snapshot_compacts_wal(self, tmp_path):
        path = tmp_path / "db"
        with GraphDatabase(path) as db:
            for i in range(10):
                db.create_node("N", {"name": f"n{i}"})
            db.snapshot()
            # compaction starts a fresh (empty) journal generation
            assert db.engine.journal_path.read_text() == ""
            db.create_node("N", {"name": "post-snapshot"})
        with GraphDatabase(path) as reopened:
            assert reopened.graph.node_count == 11
            assert reopened.graph.find_node("N", name="post-snapshot")

    def test_edges_after_snapshot_reference_stable_ids(self, tmp_path):
        path = tmp_path / "db"
        with GraphDatabase(path) as db:
            a = db.create_node("A", {"name": "a"})
            b = db.create_node("B", {"name": "b"})
            db.snapshot()
            db.create_edge(a.node_id, "R", b.node_id)
        with GraphDatabase(path) as reopened:
            assert reopened.graph.edge_count == 1

    @staticmethod
    def _merged_database(path):
        """A store whose merge left gaps below both id high-water marks."""
        db = GraphDatabase(path)
        a = db.create_node("Malware", {"name": "agent tesla"})
        tool = db.create_node("Tool", {"name": "mimikatz"})
        b = db.create_node("Malware", {"name": "AgentTesla"})
        db.create_edge(a.node_id, "USES", tool.node_id, {"weight": 1})
        folded = db.create_edge(b.node_id, "USES", tool.node_id, {"weight": 2})
        db.create_edge(b.node_id, "RELATED_TO", a.node_id)
        db.merge_nodes(a.node_id, [b.node_id])  # deletes node 3, edges 2 and 3
        assert not db.graph.has_edge(folded.edge_id)
        return db

    @staticmethod
    def _identity(graph):
        return graph_identity(graph), graph.last_node_id, graph.last_edge_id

    @pytest.mark.parametrize("snapshot", [False, True], ids=["replay", "snapshot"])
    def test_merge_survives_reopen_with_its_id_gaps(self, tmp_path, snapshot):
        db = self._merged_database(tmp_path / "db")
        if snapshot:
            db.snapshot()
        assert self._identity(db.graph)[1:] == (3, 3)
        assert [e.edge_id for e in db.graph.edges()] == [1]
        assert db.graph.edge(1).properties["weight"] == 3
        with GraphDatabase(tmp_path / "db") as reopened:
            assert self._identity(reopened.graph) == self._identity(db.graph)
            # both processes draw the same ids for what comes next
            for database in (db, reopened):
                node = database.create_node("Tool", {"name": "psexec"})
                edge = database.create_edge(1, "USES", node.node_id)
                assert (node.node_id, edge.edge_id) == (4, 4)
        db.close()

    def test_snapshot_without_edge_ids_loads_as_it_always_did(self, tmp_path):
        """Stores written before snapshots carried edge ids and id
        high-water marks number edges in file order and restart both
        counters after the largest id present."""
        path = tmp_path / "db"
        with GraphDatabase(path) as db:
            nodes = [db.create_node("N", {"name": f"n{i}"}) for i in range(3)]
            for node in nodes[1:]:
                db.create_edge(nodes[0].node_id, "R", node.node_id)
            db.snapshot()
            snapshot_path = next(path.glob("snapshot-*.json"))
        data = json.loads(snapshot_path.read_text())
        graph_data = data["stores"]["graph"]
        del graph_data["last_node_id"], graph_data["last_edge_id"]
        for edge_data in graph_data["edges"]:
            del edge_data["id"]
        snapshot_path.write_text(json.dumps(data))
        with GraphDatabase(path) as reopened:
            assert [e.edge_id for e in reopened.graph.edges()] == [1, 2]
            assert reopened.create_node("N", {"name": "next"}).node_id == 4
            assert reopened.create_edge(1, "R", 4).edge_id == 3

    def test_torn_wal_tail_recovered(self, tmp_path):
        path = tmp_path / "db"
        with GraphDatabase(path) as db:
            db.create_node("N", {"name": "a"})
            db.create_node("N", {"name": "b"})
            journal = db.engine.journal_path
        # simulate a crash mid-append: half a JSON record at the tail
        with journal.open("a") as handle:
            handle.write('{"seq": 3, "ops": {"graph": [[{"op": "create_no')
        with GraphDatabase(path) as reopened:
            assert reopened.graph.node_count == 2
            # the torn tail was truncated; new writes land cleanly
            reopened.create_node("N", {"name": "c"})
        with GraphDatabase(path) as again:
            assert again.graph.node_count == 3

    def test_concurrent_writers_consistent(self, tmp_path):
        db = GraphDatabase(tmp_path / "db")

        def writer(k):
            for i in range(25):
                db.create_node("N", {"name": f"{k}-{i}"})

        threads = [threading.Thread(target=writer, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert db.graph.node_count == 100
        db.close()
        with GraphDatabase(tmp_path / "db") as reopened:
            assert reopened.graph.node_count == 100


class TestChangeCapture:
    def test_first_drain_reports_everything_then_only_what_changed(self):
        graph = PropertyGraph()
        a = graph.create_node("A", {"name": "a"}).node_id
        b = graph.create_node("A", {"name": "b"}).node_id
        edge = graph.create_edge(a, "R", b).edge_id
        assert graph.take_changes() == ([a, b], [edge])
        assert graph.take_changes() == ([], [])
        graph.set_node_properties(a, {"seen": True})
        c = graph.create_node("A", {"name": "c"}).node_id
        graph.set_edge_properties(edge, {"weight": 2})
        assert graph.take_changes() == ([a, c], [edge])
        graph.delete_node(b)  # takes its edge along
        assert graph.take_changes() == ([b], [edge])

    def test_undrained_graph_accumulates_nothing(self):
        graph = PropertyGraph()
        ids = [graph.create_node("A", {"name": str(i)}).node_id for i in range(50)]
        for node_id in ids:
            graph.set_node_properties(node_id, {"seen": True})
        graph.delete_node(ids[0])
        assert not graph._touched_nodes and not graph._touched_edges
        assert set(graph.take_changes()[0]) >= set(ids[1:])

    def test_merge_reports_the_edges_it_migrates(self):
        graph = PropertyGraph()
        keep = graph.create_node("A", {"name": "keep"}).node_id
        lose = graph.create_node("A", {"name": "lose"}).node_id
        other = graph.create_node("B", {"name": "other"}).node_id
        moved = graph.create_edge(lose, "R", other).edge_id
        graph.take_changes()
        graph.merge_nodes(keep, [lose])
        nodes, edges = graph.take_changes()
        assert nodes == [keep, lose]
        (recreated,) = [e.edge_id for e in graph.out_edges(keep)]
        assert edges == [moved, recreated]

    def test_sparse_ids_are_scanned_not_ranged(self):
        # a detached union copy restores ids from every partition's range
        graph = PropertyGraph()
        far = (1 << 40) + 1
        graph.restore_node(1, "A", {})
        graph.restore_node(far, "A", {})
        graph.restore_edge(far, 1, "R", far, {})
        assert graph.take_changes() == ([1, far], [far])


class TestProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["A", "B", "C"]),
                st.text(min_size=1, max_size=8),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_label_counts_match_inserts(self, inserts):
        graph = PropertyGraph()
        expected: dict[str, int] = {}
        for label, name in inserts:
            graph.create_node(label, {"name": name})
            expected[label] = expected.get(label, 0) + 1
        assert graph.label_counts() == expected
        assert graph.node_count == len(inserts)
