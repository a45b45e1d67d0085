"""The prepared-query map of ``CypherEngine``.

``_prepare`` keeps, per query text, the parsed query (for good) and the
strict-analysis verdict and compiled plan (for one graph version).  The
contract under test: nobody can tell.  A long-lived engine answers every
query exactly as a brand-new engine on the same graph does -- rows or
error text, strict and non-strict, after every kind of write, at one
partition and at three -- and both answer as the brute-force reference
in ``cypher_oracle`` does.
"""

from __future__ import annotations

import re
import sys
import threading
from collections import Counter

import cypher_oracle
import pytest
import test_analysis_sweep
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graphdb.cypher.executor as executor
from repro.graphdb import (
    CypherAnalysisError,
    CypherEngine,
    CypherRuntimeError,
    PropertyGraph,
)
from repro.graphdb.cypher.parser import parse
from repro.obs import make_obs
from repro.ontology.entities import EntityType
from repro.ontology.intermediate import CTIRecord, Mention, RelationMention
from repro.runtime.clock import VirtualClock
from repro.sharding import ID_STRIDE, ShardSet


def small_graph() -> PropertyGraph:
    graph = PropertyGraph()
    actors = [
        graph.create_node("ThreatActor", {"name": f"actor-{i}"}) for i in range(3)
    ]
    for i in range(9):
        malware = graph.create_node(
            "Malware", {"name": f"mal-{i}", "year": 2010 + i % 4}
        )
        graph.create_edge(
            malware.node_id, "ATTRIBUTED_TO", actors[i % 3].node_id
        )
    return graph


def counters(obs) -> dict[str, int]:
    series = obs.metrics.snapshot()["counters"].get("cypher.prepared", {})
    return {key.split("=")[1]: value for key, value in series.items()}


# -- the analyzer's view follows the graph version ----------------------------


class TestSchemaFollowsTheGraphVersion:
    """The analyzer's schema used to be stamped with ``(node_count,
    edge_count)``: a delete plus a create leaves both where they were,
    and a strict query for the new label was refused for the life of
    the engine."""

    @pytest.mark.parametrize("partitions", [1, 2])
    def test_new_label_is_known_when_the_counts_did_not_move(self, partitions):
        shards = ShardSet(partitions)
        first, last = shards.partitions[0].graph, shards.partitions[-1].graph
        first.create_node("Malware", {"name": "emotet"})
        scratch = first.create_node("Tool", {"name": "scratch"})
        engine = shards.cypher
        assert engine.run("MATCH (n) RETURN count(*) AS n")[0]["n"] == 2
        with pytest.raises(CypherAnalysisError, match="cypher/unknown-label"):
            engine.run("MATCH (w:Widget) RETURN w.name")

        counts = (shards.graph.node_count, shards.graph.edge_count)
        first.delete_node(scratch.node_id)
        last.create_node("Widget", {"name": "w-1"})
        assert (shards.graph.node_count, shards.graph.edge_count) == counts

        fresh = CypherEngine(shards.graph)
        query = "MATCH (w:Widget) RETURN w.name"
        assert [row["w.name"] for row in fresh.run(query)] == ["w-1"]
        assert [row["w.name"] for row in engine.run(query)] == ["w-1"]
        shards.close()

    def test_version_moves_on_every_mutation_primitive(self):
        graph = PropertyGraph()
        seen = [graph.version]

        def moved():
            seen.append(graph.version)
            return seen[-1] > seen[-2]

        a = graph.create_node("Malware", {"name": "a"})
        assert moved()
        b = graph.create_node("Malware", {"name": "b"})
        edge = graph.create_edge(a.node_id, "RELATED_TO", b.node_id)
        assert moved()
        graph.set_node_properties(a.node_id, {"year": 1})
        assert moved()
        graph.set_edge_properties(edge.edge_id, {"weight": 2})
        assert moved()
        graph.delete_edge(edge.edge_id)
        assert moved()
        graph.delete_node(b.node_id)
        assert moved()
        graph.take_changes()
        graph.node_ids()
        assert not moved()


# -- what the map keeps, and for how long -------------------------------------


class TestPreparedMap:
    QUERY = "MATCH (m:Malware)-[:ATTRIBUTED_TO]->(a) RETURN a.name, count(m) AS n"

    def test_outcomes_are_counted_and_a_plan_is_built_on_a_miss_only(self):
        obs = make_obs(VirtualClock())
        graph = small_graph()
        engine = CypherEngine(graph, obs=obs)

        def plan_spans():
            return sum(s["name"] == "cypher.plan" for s in obs.tracer.export())

        first = engine.run(self.QUERY)
        assert counters(obs) == {"miss": 1} and plan_spans() == 1
        for _ in range(3):
            assert engine.run(self.QUERY) == first
        engine.run_paginated(self.QUERY, 2)
        engine.task(self.QUERY).run_to_completion()
        engine.profile(self.QUERY)
        assert counters(obs) == {"miss": 1, "hit": 6} and plan_spans() == 1

        graph.create_node("Malware", {"name": "late"})
        assert engine.run(self.QUERY) == first  # unattributed: same groups
        assert counters(obs) == {"miss": 1, "hit": 6, "invalidated": 1}
        assert plan_spans() == 2
        gauges = obs.metrics.snapshot()["gauges"]["cypher.prepared_entries"]
        assert list(gauges.values()) == [1]

    def test_a_non_strict_entry_does_not_vouch_for_a_strict_run(self):
        engine = CypherEngine(small_graph())
        typo = "MATCH (m:Malwear) RETURN m.name"
        assert engine.run(typo, strict=False) == []
        with pytest.raises(CypherAnalysisError, match="cypher/unknown-label"):
            engine.run(typo)
        assert engine.run(typo, strict=False) == []
        # and a verdict earned in strict mode serves both
        good = "MATCH (m:Malware) RETURN count(*) AS n"
        assert engine.run(good) == engine.run(good, strict=False)

    def test_a_failed_analysis_is_judged_afresh_every_time(self, monkeypatch):
        graph = small_graph()
        engine = CypherEngine(graph)
        checks = []
        original = CypherEngine._check
        monkeypatch.setattr(
            CypherEngine,
            "_check",
            lambda self, parsed, source: checks.append(source)
            or original(self, parsed, source),
        )
        query = "MATCH (w:Widget) RETURN w.name"
        for _ in range(3):
            with pytest.raises(CypherAnalysisError):
                engine.run(query)
        assert checks == [query] * 3 and query not in engine._prepared
        graph.create_node("Widget", {"name": "w"})
        assert [row["w.name"] for row in engine.run(query)] == ["w"]
        assert engine.run(query) and len(checks) == 4  # now it is kept

    def test_a_query_that_raised_at_run_time_runs_again(self):
        graph = small_graph()
        engine = CypherEngine(graph)
        query = "MATCH (m:Malware) WHERE m.name > 5 RETURN m.name"
        for _ in range(2):
            with pytest.raises(CypherRuntimeError, match="not supported between"):
                engine.run(query, strict=False)
        for rank, node in enumerate(list(graph.nodes("Malware"))):
            graph.set_node_properties(node.node_id, {"name": rank})
        assert [r["m.name"] for r in engine.run(query, strict=False)] == [6, 7, 8]
        with pytest.raises(CypherRuntimeError, match="unsupported aggregate"):
            engine.run("MATCH (m) RETURN count(m) > 1 AS big", strict=False)
        assert "MATCH (m) RETURN count(m) > 1 AS big" not in engine._prepared

    def test_the_map_never_exceeds_its_cap(self, monkeypatch):
        monkeypatch.setattr(executor, "PREPARED_CAP", 4)
        graph = small_graph()
        engine = CypherEngine(graph)
        queries = [
            f'MATCH (m:Malware {{name: "mal-{i}"}}) RETURN m.year' for i in range(9)
        ]
        for _ in range(2):
            for query in queries:
                assert engine.run(query) == CypherEngine(graph).run(query)
                assert len(engine._prepared) <= 4
        # the oldest went first
        assert list(engine._prepared) == queries[-4:]
        # replacing a stale entry is not a new one
        graph.create_node("Tool", {"name": "t"})
        engine.run(queries[-1])
        assert list(engine._prepared) == queries[-4:]

    @pytest.mark.parametrize("prefix", ["EXPLAIN ", "PROFILE "])
    def test_explain_and_profile_of_a_kept_query(self, prefix):
        clock = VirtualClock()
        graph = small_graph()
        kept = CypherEngine(graph, clock=clock)
        query = (
            "MATCH (m:Malware)-[:ATTRIBUTED_TO]->(a) WHERE m.year > 2010 "
            "RETURN a.name, collect(m.name) AS names ORDER BY a.name"
        )
        kept.run(query)

        def operators(engine):
            # seconds are differences of a shared, advancing clock: equal
            # to the tick, not to the last float digit
            return [
                {k: round(v, 9) if isinstance(v, float) else v for k, v in op.items()}
                for op in engine.profile(query, step_cost=0.001).operators
            ]

        for _ in range(2):
            fresh = CypherEngine(graph, clock=clock)
            assert kept.run(prefix + query) == fresh.run(prefix + query)
            assert operators(kept) == operators(fresh)

    def test_concurrent_queries_share_the_map(self, monkeypatch):
        """More threads than cores, a tiny switch interval, a cap the
        texts overflow and a writer moving the graph version under the
        readers: every answer is the single-threaded one and the racing
        inserts never push the map past its cap."""
        monkeypatch.setattr(executor, "PREPARED_CAP", 5)
        graph = small_graph()
        engine = CypherEngine(graph)
        queries = [
            f'MATCH (m:Malware {{name: "mal-{i}"}})-[:ATTRIBUTED_TO]->(a) '
            "RETURN a.name, m.year"
            for i in range(7)
        ] + [
            "MATCH (m:Malware) RETURN count(m) AS n, min(m.year) AS y",
            "MATCH (a:ThreatActor)<-[:ATTRIBUTED_TO]-(m) "
            "RETURN a.name, collect(DISTINCT m.year) AS years ORDER BY a.name",
        ]
        expected = [CypherEngine(graph).run(query) for query in queries]
        wrong: list[str] = []
        oversize: list[int] = []

        def read_all():
            for _ in range(30):
                for query, rows in zip(queries, expected):
                    try:
                        if engine.run(query) != rows:
                            wrong.append(query)
                    except Exception as error:  # noqa: BLE001 - reported below
                        wrong.append(f"{query}: {error!r}")
                    if len(engine._prepared) > 5:
                        oversize.append(len(engine._prepared))

        def write_noise():
            for i in range(120):
                graph.create_node("Noise", {"name": f"noise-{i}"})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=read_all, name=f"reader-{i}")
                for i in range(5)
            ] + [threading.Thread(target=write_noise, name="writer-0")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == [] and oversize == []
        assert len(engine._prepared) == 5
        # quiesced: the long-lived engine sees what the writer left
        rows = engine.run("MATCH (n:Noise) RETURN count(*) AS n")
        assert rows[0]["n"] == 120


# -- cached == fresh == oracle, as a property ---------------------------------

ACTORS = ["APT29", "FIN7", "Lazarus Group"]
MALWARE = ["agent tesla", "zeus panda", "vidar stealer", "Teardrop"]
TOOLS = ["mimikatz", "cobalt strike"]


def record(index: int) -> CTIRecord:
    actor = ACTORS[index % len(ACTORS)]
    family = MALWARE[(index // 2) % len(MALWARE)]
    tool = TOOLS[index % len(TOOLS)]
    return CTIRecord(
        report_id=f"rpt-{index:04d}",
        source="UnitSource",
        url=f"https://unit.test/report/{index}",
        title=f"report {index}",
        report_category="attack" if index % 3 else "malware",
        mentions=[
            Mention(actor, EntityType.THREAT_ACTOR),
            Mention(family, EntityType.MALWARE),
            Mention(tool, EntityType.TOOL),
        ],
        relations=[
            RelationMention(
                actor, EntityType.THREAT_ACTOR, "uses", family, EntityType.MALWARE
            ),
            RelationMention(
                actor, EntityType.THREAT_ACTOR, "uses", tool, EntityType.TOOL
            ),
        ],
    )


#: every MATCH the repo ships (apps, examples, benchmarks), f-string
#: slots filled with "x" -- most name labels this little graph lacks,
#: which is the strict-mode refusal path
SHIPPED = sorted(
    {
        query
        for _location, query in test_analysis_sweep.QUERIES
        if not query.lstrip().lower().startswith("create")
    }
)
TEMPLATES = [
    "MATCH (r)-[:MENTIONS]->(e) RETURN e.name, count(r) AS n ORDER BY n DESC LIMIT 5",
    "MATCH (r)-[:MENTIONS]->(a:Malware), (r)-[:MENTIONS]->(b:ThreatActor) "
    "RETURN a.name, b.name, count(r) AS n ORDER BY n DESC LIMIT 4",
    'MATCH (a:ThreatActor {name: "APT29"})-[:USES]->(t) RETURN t.name ORDER BY t.name',
    "MATCH (a:ThreatActor)-[e:USES]->(t) RETURN a.name, avg(e.weight) AS w, "
    "count(DISTINCT t) AS used ORDER BY a.name",
    "MATCH (m:Malware) RETURN collect(DISTINCT m.name) AS names, count(*) AS n",
    "MATCH (r:AttackReport)-[*1..2]->(x:Tool) RETURN DISTINCT x.name",
    "MATCH (w:Widget)-[:RELATED_TO]->(v) RETURN w.name, v.name, w.year",
    "MATCH (n) WHERE n.year >= 2 RETURN n.name, n.year ORDER BY n.year, n.name",
    "EXPLAIN MATCH (a:ThreatActor)-[:USES]->(m:Malware) RETURN a.name, m.name",
    # one text of runtime error per query, whichever row meets it first
    "MATCH (m:Malware) WHERE m.name > 5 RETURN m.name",
    "MATCH (m:Malware) RETURN sum(m.name) AS s",
    "MATCH (m:Malware) RETURN count(m) > 1 AS big",
]

_LABEL = st.sampled_from(["", ":Malware", ":ThreatActor", ":Tool", ":Widget"])
_ITEM = st.sampled_from(
    [
        "a.name", "b.name", "b", "count(b) AS c", "count(*) AS c",
        "count(DISTINCT b.name) AS c", "collect(b.name) AS c",
        "collect(DISTINCT a.name) AS c", "min(b.name) AS c", "max(a.year) AS c",
        "sum(a.year) AS c", "avg(a.year) AS c",
    ]
)
_WHERE = st.sampled_from(
    [
        "", " WHERE a.name IS NOT NULL", ' WHERE b.name CONTAINS "a"',
        " WHERE a.year < 3 OR NOT b.name STARTS WITH \"m\"",
        ' WHERE a.name IN ["APT29", "FIN7", "w-1"]', " WHERE a.name <> b.name",
    ]
)
_TAIL = st.sampled_from(["", " ORDER BY a.name", " ORDER BY a.name DESC LIMIT 3"])
_REL = st.sampled_from(["-[:USES]->", "<-[:MENTIONS]-", "-[:RELATED_TO]-", "-->"])


@st.composite
def generated_query(draw) -> str:
    rel = draw(_REL)
    items = draw(st.lists(_ITEM, min_size=1, max_size=3, unique=True))
    tail = draw(_TAIL)
    if tail and "a.name" not in items:
        # a grouped row can only be sorted on what it returns
        items.insert(0, "a.name")
    distinct = "DISTINCT " if draw(st.booleans()) else ""
    return (
        f"MATCH (a{draw(_LABEL)}){rel}(b{draw(_LABEL)}){draw(_WHERE)} "
        f"RETURN {distinct}{', '.join(items)}{tail}"
    )


def answer(engine, query, strict):
    """``("rows", fingerprints)`` -- a list under ORDER BY, a multiset
    otherwise -- or ``("error", type, text)``."""
    try:
        rows = engine.run(query, strict=strict)
    except CypherRuntimeError as error:
        return ("error", type(error).__name__, str(error)), None
    prints = [cypher_oracle._fp(sorted(row.values.items())) for row in rows]
    if "ORDER BY" not in query.upper():
        prints = Counter(prints)
    return ("rows", prints), rows


def apply_write(shards: ShardSet, kind: str, seed: int) -> None:
    graph = shards.graph
    ids = graph.node_ids()

    def partition_of(node_id):
        return shards.partitions[(node_id - 1) // ID_STRIDE]

    if kind == "store":
        shards.store([record(100 + seed % 40)])
    elif kind == "create":
        shards.cypher.run(
            f'CREATE (w:Widget {{name: "w-{seed % 3}", year: {seed % 5}}})'
            f'-[:RELATED_TO]->(v:Widget {{name: "v-{seed % 2}"}})'
        )
    elif kind == "set":
        node_id = ids[seed % len(ids)]
        partition_of(node_id).database.set_node_properties(
            node_id, {"year": seed % 5}
        )
    elif kind == "delete":
        node_id = ids[seed % len(ids)]
        partition_of(node_id).graph.delete_node(node_id)
    elif kind == "merge":
        node = graph.node(ids[seed % len(ids)])
        partition = partition_of(node.node_id)
        same = [
            other.node_id
            for other in partition.graph.nodes(node.label)
            if other.node_id != node.node_id
        ]
        if same:
            partition.database.merge_nodes(node.node_id, [same[seed % len(same)]])


class TestCachedEqualsFresh:
    @settings(max_examples=40, deadline=None)
    @given(
        partitions=st.sampled_from([1, 3]),
        writes=st.lists(
            st.tuples(
                st.sampled_from(["store", "create", "set", "delete", "merge"]),
                st.integers(min_value=0, max_value=10_000),
            ),
            min_size=1,
            max_size=5,
        ),
        shipped=st.lists(st.sampled_from(SHIPPED), max_size=3, unique=True),
        templates=st.lists(
            st.sampled_from(TEMPLATES), min_size=2, max_size=5, unique=True
        ),
        generated=st.lists(generated_query(), max_size=3, unique=True),
    )
    def test_after_every_write(
        self, partitions, writes, shipped, templates, generated
    ):
        shards = ShardSet(partitions)
        try:
            shards.store([record(index) for index in range(8)])
            engine = shards.cypher
            queries = shipped + templates + generated
            for query in queries:  # every text is in the map before a write
                answer(engine, query, strict=False)
            for kind, seed in writes:
                apply_write(shards, kind, seed)
                reference = shards.merged_graph()
                for query in queries:
                    for strict in (True, False):
                        fresh, _ = answer(CypherEngine(shards.graph), query, strict)
                        kept, rows = answer(engine, query, strict)
                        again, _ = answer(engine, query, strict)  # a hit
                        assert kept == fresh, (query, strict)
                        assert again == fresh, (query, strict)
                    self.check_against_oracle(kept, rows, reference, query)
        finally:
            shards.close()

    @staticmethod
    def check_against_oracle(kept, rows, reference, query):
        """The non-strict answer against the brute-force evaluator."""
        parsed = parse(query)
        if parsed.explain or parsed.profile:
            return
        if kept[0] == "rows":
            cypher_oracle.check(rows, reference, query)
            return
        if "unsupported aggregate" in kept[2]:
            return  # refused by the planner; the oracle has no planner
        with pytest.raises(CypherRuntimeError, match=re.escape(kept[2])):
            cypher_oracle.evaluate(reference, parsed)
