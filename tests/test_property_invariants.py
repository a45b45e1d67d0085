"""Property-based invariant tests across the core data structures."""

import json
import random as stdlib_random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extractor import Extractor
from repro.core.pipeline import Pipeline
from repro.fusion import KnowledgeFusion
from repro.graphdb import CypherEngine, GraphDatabase, PropertyGraph
from repro.graphdb.wal import GraphParticipant
from repro.nlp.tokenize import tokenize_sentences
from repro.ontology import CTIRecord, ReportRecord
from repro.search import SearchIndex, analyze
from repro.storage import StorageEngine
from repro.websim.scenario import generate_report_content, make_scenarios


# ---------------------------------------------------------------------------
# graph store: random operation sequences keep every index consistent

#: the edge types ops draw from, and one no edge ever has
_EDGE_TYPES = ("R", "S")
_UNUSED_TYPE = "T"


def _merged_triples(edges, canonical, losers):
    """The ``(src, type, dst)`` multiset ``merge_nodes`` leaves: an edge
    between two members of the group goes, one touching a loser moves
    to ``canonical`` and folds into an edge already there."""
    group = {canonical, *losers}
    moved = {loser: canonical for loser in losers}
    kept = Counter(
        triple for triple in edges.values()
        if triple[0] not in moved and triple[2] not in moved
    )
    arrived = {
        (moved.get(src, src), edge_type, moved.get(dst, dst))
        for src, edge_type, dst in edges.values()
        if (src in moved or dst in moved) and not {src, dst} <= group
    }
    for triple in arrived:
        kept[triple] = kept[triple] or 1
    return kept


class GraphModel:
    """Apply random ops to the store and a naive reference model."""

    def __init__(self):
        self.graph = PropertyGraph()
        self.nodes: dict[int, tuple[str, str]] = {}  # id -> (label, name)
        self.edges: dict[int, tuple[int, str, int]] = {}
        # change capture: the model as of the last drain, and every id
        # an op has named since
        self.drained = ({}, {})
        self.touched: tuple[set[int], set[int]] = (set(), set())

    def apply(self, op, rng):
        kind = op[0]
        touched_nodes, touched_edges = self.touched
        if kind == "add_node":
            label, name = op[1], op[2]
            node = self.graph.create_node(label, {"name": name})
            self.nodes[node.node_id] = (label, name)
            touched_nodes.add(node.node_id)
        elif kind == "add_edge" and self.nodes:
            # a self-loop now and then: degree counts it once per direction
            src, dst = rng.choice(sorted(self.nodes)), rng.choice(sorted(self.nodes))
            edge = self.graph.create_edge(src, op[1], dst)
            self.edges[edge.edge_id] = (src, op[1], dst)
            touched_edges.add(edge.edge_id)
        elif kind == "rename" and self.nodes:
            node_id = rng.choice(sorted(self.nodes))
            label, _old = self.nodes[node_id]
            self.graph.set_node_properties(node_id, {"name": op[1]})
            self.nodes[node_id] = (label, op[1])
            touched_nodes.add(node_id)
        elif kind == "del_edge" and self.edges:
            edge_id = rng.choice(sorted(self.edges))
            self.graph.delete_edge(edge_id)
            del self.edges[edge_id]
            touched_edges.add(edge_id)
        elif kind == "del_node" and self.nodes:
            node_id = rng.choice(sorted(self.nodes))
            self.graph.delete_node(node_id)
            del self.nodes[node_id]
            touched_nodes.add(node_id)
            touched_edges.update(
                eid
                for eid, e in self.edges.items()
                if e[0] == node_id or e[2] == node_id
            )
            self.edges = {
                eid: e
                for eid, e in self.edges.items()
                if e[0] != node_id and e[2] != node_id
            }
        elif kind == "merge" and len(self.nodes) >= 2:
            group = rng.sample(sorted(self.nodes), min(len(self.nodes), 1 + op[1]))
            self.merge(group[0], group[1:])
        elif kind == "reload":
            self.reload(rng)
        elif kind == "drain":
            self.check_drain()

    def merge(self, canonical, losers):
        """``merge_nodes``: edges move through ``_migrate_edge``, whose
        parallel-edge check folds a moved edge into an existing one."""
        touched_nodes, touched_edges = self.touched
        group = {canonical, *losers}
        expected = _merged_triples(self.edges, canonical, losers)
        last_edge_id = self.graph.last_edge_id
        self.graph.merge_nodes(canonical, losers)
        for loser in losers:
            del self.nodes[loser]
        touched_nodes.update(group)
        before = self.edges
        self.edges = {
            edge.edge_id: (edge.src, edge.type, edge.dst)
            for edge in self.graph.edges()
        }
        assert Counter(self.edges.values()) == expected
        # deleted, folded into (an edge of ``canonical``), or created --
        # some only to go again within the merge
        touched_edges.update(
            edge_id
            for edges in (before, self.edges)
            for edge_id, (src, _type, dst) in edges.items()
            if src in group or dst in group
        )
        touched_edges.update(range(last_edge_id + 1, self.graph.last_edge_id + 1))

    def reload(self, rng):
        """Restart: the graph rebuilt from its snapshot bytes, whose
        first drain reports every live id.  The edges are restored in
        a shuffled order, which the adjacency order must not follow."""
        writer = GraphParticipant()
        writer.graph = self.graph
        snapshot = json.loads(writer.snapshot_text())
        rng.shuffle(snapshot["edges"])
        reader = GraphParticipant()
        reader.load_snapshot(snapshot)
        self.graph = reader.graph
        self.drained = ({}, {})
        self.touched = (set(self.nodes), set(self.edges))

    def check_drain(self):
        """``take_changes`` reports every id whose state differs from
        the last drain, and no id that nothing touched since."""
        reported = self.graph.take_changes()
        for now, before, touched, ids in zip(
            (self.nodes, self.edges), self.drained, self.touched, reported
        ):
            assert ids == sorted(set(ids))
            changed = {
                item_id
                for item_id in now.keys() | before.keys()
                if now.get(item_id) != before.get(item_id)
            }
            assert changed <= set(ids) <= touched
        self.drained = (dict(self.nodes), dict(self.edges))
        self.touched = (set(), set())

    def check(self):
        self.check_drain()
        graph = self.graph
        assert graph.node_count == len(self.nodes)
        assert graph.edge_count == len(self.edges)
        # label index agrees
        expected_labels: dict[str, int] = {}
        for label, _name in self.nodes.values():
            expected_labels[label] = expected_labels.get(label, 0) + 1
        assert graph.label_counts() == expected_labels
        # adjacency: each direction's edges of a node, typed and untyped,
        # are the model's in ascending edge id, and degree is their count
        model = sorted(self.edges.items())
        for node_id in self.nodes:
            for edge_type in (None, *_EDGE_TYPES, _UNUSED_TYPE):
                both = 0
                for direction, listed, end in (
                    ("out", graph.out_edges, 0), ("in", graph.in_edges, 2)
                ):
                    expected = [
                        (edge_id, *triple)
                        for edge_id, triple in model
                        if triple[end] == node_id and edge_type in (None, triple[1])
                    ]
                    assert [
                        (e.edge_id, e.src, e.type, e.dst)
                        for e in listed(node_id, edge_type)
                    ] == expected, (node_id, edge_type, direction)
                    assert graph.degree(node_id, edge_type, direction) == len(expected)
                    both += len(expected)
                assert graph.degree(node_id, edge_type) == both
        # per-type totals: a recount, with no zero-count type
        assert graph.edge_type_counts() == dict(
            sorted(Counter(t for _src, t, _dst in self.edges.values()).items())
        )
        # property index: find by name returns exactly the right nodes
        for node_id, (label, name) in self.nodes.items():
            found = {n.node_id for n in graph.find_nodes(label, name=name)}
            expected = {
                nid
                for nid, (l2, n2) in self.nodes.items()
                if l2 == label and n2 == name
            }
            assert found == expected, (node_id, name)


_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("add_node"),
            st.sampled_from(["A", "B", "C"]),
            st.text(alphabet="xyz", min_size=1, max_size=4),
        ),
        st.tuples(st.just("add_edge"), st.sampled_from(_EDGE_TYPES)),
        st.tuples(st.just("rename"), st.text(alphabet="pq", min_size=1, max_size=4)),
        st.tuples(st.just("del_edge")),
        st.tuples(st.just("del_node")),
        st.tuples(st.just("merge"), st.integers(1, 3)),
        st.tuples(st.just("reload")),
        st.tuples(st.just("drain")),
    ),
    max_size=40,
)


class TestGraphStoreInvariants:
    @given(ops=_OPS, seed=st.integers(0, 1000), start_edges=st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_random_op_sequences_keep_indexes_consistent(
        self, ops, seed, start_edges
    ):
        rng = stdlib_random.Random(seed)
        model = GraphModel()
        # a starting graph dense enough that the ops meet same-type and
        # parallel edges on one node
        for at in range(4 if start_edges else 0):
            model.apply(("add_node", "ABC"[at % 3], "x"), rng)
        for at in range(start_edges):
            model.apply(("add_edge", _EDGE_TYPES[at % 2]), rng)
        for op in ops:
            model.apply(op, rng)
        model.check()


# ---------------------------------------------------------------------------
# cypher: results agree with a reference evaluation over the same graph


class TestCypherAgainstReference:
    @given(
        names=st.lists(
            st.text(alphabet="abc", min_size=1, max_size=3),
            min_size=1,
            max_size=12,
        ),
        needle=st.text(alphabet="abc", min_size=1, max_size=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_contains_filter_matches_python(self, names, needle):
        graph = PropertyGraph()
        for name in names:
            graph.create_node("N", {"name": name})
        engine = CypherEngine(graph)
        rows = engine.run(
            f'MATCH (n:N) WHERE n.name CONTAINS "{needle}" RETURN n.name'
        )
        got = sorted(r["n.name"] for r in rows)
        expected = sorted(n for n in names if needle in n)
        assert got == expected

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            max_size=15,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_count_matches_edge_count(self, edges):
        graph = PropertyGraph()
        ids = [graph.create_node("N", {"name": str(i)}).node_id for i in range(7)]
        for src, dst in edges:
            graph.create_edge(ids[src], "R", ids[dst])
        engine = CypherEngine(graph)
        rows = engine.run("MATCH (a)-[r:R]->(b) RETURN count(r) AS c")
        assert rows[0]["c"] == len(edges)

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            max_size=12,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_var_length_agrees_with_bfs(self, edges):
        graph = PropertyGraph()
        ids = [graph.create_node("N", {"name": str(i)}).node_id for i in range(6)]
        adj: dict[int, set[int]] = {i: set() for i in range(6)}
        for src, dst in edges:
            graph.create_edge(ids[src], "R", ids[dst])
            adj[src].add(dst)
        engine = CypherEngine(graph)
        rows = engine.run(
            'MATCH (a:N {name: "0"})-[:R*1..3]->(x) RETURN x.name'
        )
        got = sorted(r["x.name"] for r in rows)
        # reference BFS (node-distinct, depths 1..3, excluding start at depth 0)
        reached: set[int] = set()
        frontier = {0}
        seen = {0}
        for _ in range(3):
            frontier = {
                n for cur in frontier for n in adj[cur] if n not in seen
            }
            seen |= frontier
            reached |= frontier
        assert got == sorted(str(n) for n in reached)


# ---------------------------------------------------------------------------
# pipeline: outputs equal the sequential reference for arbitrary filters


class TestPipelineEquivalence:
    @given(
        items=st.lists(st.integers(-50, 50), max_size=60),
        modulus=st.integers(2, 5),
        workers=st.integers(1, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_parallel_equals_sequential(self, items, modulus, workers):
        def check(report):
            return None if int(report.title) % modulus == 0 else "not a multiple"

        def parse(report):
            return CTIRecord(report.report_id, report.source, report.url,
                             summary=str(int(report.title) * 3))

        reports = [
            ReportRecord(f"r{at}", "s", f"u{at}", title=str(x))
            for at, x in enumerate(items)
        ]
        result = Pipeline(check, parse, Extractor(), workers=workers).run(reports)
        assert [record.summary for record in result.outputs] == [
            str(x * 3) for x in items if x % modulus == 0
        ]
        assert sum(result.rejected.values()) == len(reports) - len(result.outputs)


# ---------------------------------------------------------------------------
# search: indexed documents are findable; removed ones are not


class TestSearchInvariants:
    @given(
        docs=st.dictionaries(
            st.text(alphabet="dk", min_size=1, max_size=3),
            st.text(alphabet="abcdef gh", min_size=1, max_size=25),
            max_size=8,
        ),
        drop=st.integers(0, 7),
    )
    @settings(max_examples=40, deadline=None)
    def test_remove_is_complete(self, docs, drop):
        index = SearchIndex()
        for doc_id, body in docs.items():
            index.add(doc_id, {"body": body})
        doc_ids = sorted(docs)
        if doc_ids:
            victim = doc_ids[drop % len(doc_ids)]
            index.remove(victim)
            for term in set(analyze(docs[victim])):
                assert all(
                    h.doc_id != victim for h in index.search(term, limit=20)
                )
        assert index.doc_count == max(0, len(docs) - (1 if docs else 0))


# ---------------------------------------------------------------------------
# fusion: never merges across labels; node count never increases


class TestFusionInvariants:
    @given(
        names=st.lists(
            st.sampled_from(
                ["agent tesla", "AgentTesla", "agent_tesla", "emotet",
                 "Emotet-2", "trickbot"]
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_fusion_monotone_and_label_safe(self, names):
        database = GraphDatabase(StorageEngine(None, [GraphParticipant()]))
        graph = database.graph
        for i, name in enumerate(names):
            label = "Malware" if i % 2 == 0 else "Tool"
            database.create_node(label, {"name": name, "merge_key": name.lower()})
        before_labels = set(graph.label_counts())
        before = graph.node_count
        report = KnowledgeFusion().run(database)
        assert graph.node_count <= before
        assert set(graph.label_counts()) <= before_labels
        assert report.nodes_after == graph.node_count
        # merged groups never mix labels
        for group in report.merged_groups:
            assert len(group) >= 2


# ---------------------------------------------------------------------------
# corpus generator: every gold mention survives tokenization intact


class TestCorpusTokenizationContract:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_gold_mentions_recoverable_from_tokens(self, seed):
        scenario = make_scenarios(1, seed=seed)[0]
        content = generate_report_content(
            scenario, stdlib_random.Random(seed), sentence_count=6
        )
        for gold_sentence in content.truth.sentences:
            sentences = tokenize_sentences(gold_sentence.text)
            token_texts = [
                t.text for s in sentences for t in s.tokens
            ]
            joined = " ".join(token_texts)
            for mention in gold_sentence.mentions:
                normalised = " ".join(mention.text.split())
                assert normalised in joined or mention.text in token_texts, (
                    mention.text,
                    token_texts,
                )
