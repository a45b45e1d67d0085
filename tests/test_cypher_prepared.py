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
import tempfile
import threading
import time
from collections import Counter
from contextlib import contextmanager
from unittest import mock

from alias_corpus import alias_batch
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
from repro.graphdb.cypher import ast
from repro.graphdb.cypher.parser import parse
from repro.obs import make_obs
from repro.ontology.entities import EntityType
from repro.ontology.intermediate import CTIRecord, Mention, RelationMention
from repro.runtime.clock import VirtualClock
from repro.sharding import ID_STRIDE, ShardSet
from test_graphdb_cypher import journaled_engine


def small_graph(graph: PropertyGraph | None = None) -> PropertyGraph:
    graph = graph if graph is not None else PropertyGraph()
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
# the count shapes a plan counts instead of enumerating -- count(b),
# count(*), count(r) -- beside their near misses: count(DISTINCT b),
# collect(b), b in WHERE or in a second path, and a *1..2 hop
_ITEM = st.sampled_from(
    [
        "a.name", "b.name", "b", "count(b) AS c", "count(*) AS c",
        "count(*) AS n", "count(r) AS k", "count(DISTINCT b) AS c",
        "count(DISTINCT b.name) AS c", "collect(b) AS c", "collect(b.name) AS c",
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
_REL = st.sampled_from(
    [
        "-[:USES]->", "<-[:MENTIONS]-", "-[:RELATED_TO]-", "-->",
        "-[r:USES]->", "-[r:RELATED_TO]-", "-[:USES*1..2]->",
    ]
)
# a third node ahead of ``a``: with ``b`` both ends of the path count;
# an anonymous one counts with no named variable to qualify
_HEAD = st.sampled_from(
    ["", "(c)-[:MENTIONS]->", "(:AttackReport)-[:MENTIONS]->", "()-[:RELATED_TO]-"]
)
_MORE = st.sampled_from(["", ", (b)<-[:MENTIONS]-(d)"])


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
        f"MATCH {draw(_HEAD)}(a{draw(_LABEL)}){rel}(b{draw(_LABEL)})"
        f"{draw(_MORE)}{draw(_WHERE)} "
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
    elif kind in ("loop", "parallel"):
        # RELATED_TO onto the node itself, or twice onto another node of
        # its partition: an undirected hop meets a loop twice, and each
        # parallel edge is a match of its own
        node_id = ids[seed % len(ids)]
        partition = partition_of(node_id)
        if kind == "loop":
            targets = [node_id]
        else:
            local = partition.graph.node_ids()
            targets = [local[(seed // 7) % len(local)]] * 2
        for target in targets:
            partition.database.create_edge(node_id, "RELATED_TO", target)
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
                st.sampled_from(
                    ["store", "create", "set", "delete", "merge", "loop", "parallel"]
                ),
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


# -- the rows a run keeps beside its plan -------------------------------------


def results(obs) -> dict[str, int]:
    series = obs.metrics.snapshot()["counters"].get("cypher.results", {})
    return {key.split("=")[1]: value for key, value in series.items()}


def slices(obs) -> int:
    return sum(obs.metrics.snapshot()["counters"].get("cypher.slices", {}).values())


@contextmanager
def write_during_drain(write):
    """Run ``write`` once, from inside the next query drain."""
    original = executor.QueryTask.run_to_completion
    pending = [write]

    def drain(task):
        rows = original(task)
        while pending:
            pending.pop()()
        return rows

    with mock.patch.object(executor.QueryTask, "run_to_completion", drain):
        yield pending


class TestKeptRows:
    QUERY = (
        "MATCH (m:Malware)-[:ATTRIBUTED_TO]->(a) "
        "RETURN a.name, collect(m.name) AS names ORDER BY a.name"
    )

    def test_a_repeat_is_answered_without_a_drain(self):
        obs = make_obs(VirtualClock())
        engine = CypherEngine(small_graph(), obs=obs)
        first = engine.run(self.QUERY)
        drained = slices(obs)
        for _ in range(3):
            assert engine.run(self.QUERY) == first
        assert results(obs) == {"miss": 1, "hit": 3}
        assert slices(obs) == drained
        assert engine._prepared[self.QUERY].rows is not None

    def test_mutating_returned_rows_changes_no_later_answer(self):
        engine = CypherEngine(small_graph())
        expected = CypherEngine(engine.graph).run(self.QUERY)
        for _ in range(3):
            rows = engine.run(self.QUERY)
            assert rows == expected
            rows[0].values["names"].append("forged")
            rows[1].values.clear()
            rows.pop()
        assert engine.run(self.QUERY) == expected

    def test_only_a_plain_match_through_run_is_kept(self):
        obs = make_obs(VirtualClock())
        engine = journaled_engine(obs=obs)
        graph = small_graph(engine.graph)
        for prefix in ("EXPLAIN ", "PROFILE "):
            for _ in range(2):
                engine.run(prefix + self.QUERY)
            assert engine._prepared[prefix + self.QUERY].rows is None
        engine.run_paginated(self.QUERY, 1)
        engine.task(self.QUERY).run_to_completion()
        engine.profile(self.QUERY)
        assert engine._prepared[self.QUERY].rows is None
        create = 'CREATE (t:Tool {name: "t"})'
        engine.run(create)
        engine.run(create)
        assert len(list(graph.nodes("Tool"))) == 2
        assert results(obs) == {}

    def test_a_write_moves_the_answer(self):
        engine = journaled_engine()
        graph = small_graph(engine.graph)
        query = "MATCH (m:Malware) RETURN count(*) AS n"
        assert engine.run(query)[0]["n"] == 9
        assert engine.run(query)[0]["n"] == 9
        engine.run('CREATE (m:Malware {name: "late"})')
        assert engine._prepared[query].rows is not None  # stale, not yet dropped
        assert engine.run(query)[0]["n"] == 10
        assert engine.run(query) == CypherEngine(graph).run(query)

    def test_a_stale_entry_drops_its_rows_when_prepared_again(self):
        graph = small_graph()
        engine = CypherEngine(graph)
        engine.run(self.QUERY)
        graph.create_node("Tool", {"name": "t"})
        engine.run_paginated(self.QUERY, 2)  # prepares, drains no full result
        assert engine._prepared[self.QUERY].rows is None

    def test_a_write_during_the_drain_keeps_nothing(self):
        obs = make_obs(VirtualClock())
        graph = small_graph()
        engine = CypherEngine(graph, obs=obs)
        query = "MATCH (m:Malware) RETURN count(*) AS n"
        with write_during_drain(lambda: graph.create_node("Malware", {"name": "x"})):
            engine.run(query)
        assert engine._prepared[query].rows is None
        assert engine.run(query)[0]["n"] == 10
        assert engine.run(query)[0]["n"] == 10
        assert results(obs) == {"miss": 2, "hit": 1}

    def test_an_entry_replaced_during_the_drain_is_not_overwritten(self):
        graph = small_graph()
        engine = CypherEngine(graph)
        query = "MATCH (m:Malware) RETURN count(*) AS n"
        with write_during_drain(lambda: engine._prepared.pop(query)):
            engine.run(query)
        assert query not in engine._prepared

    def test_a_long_result_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(executor, "RESULT_ROWS_CAP", 9)
        graph = small_graph()
        engine = CypherEngine(graph)
        engine.run("MATCH (m:Malware) RETURN m.name")
        assert engine._prepared["MATCH (m:Malware) RETURN m.name"].rows is not None
        engine.run("MATCH (n) RETURN n.name")
        assert engine._prepared["MATCH (n) RETURN n.name"].rows is None

    def test_a_non_strict_drain_serves_a_strict_run_after_its_check(self):
        graph = small_graph()
        engine = CypherEngine(graph)
        expected = engine.run(self.QUERY, strict=False)
        assert engine.run(self.QUERY) == expected
        assert engine._prepared[self.QUERY].checked
        assert engine._prepared[self.QUERY].rows is not None


    def test_a_concurrent_run_never_answers_older_than_a_finished_write(self):
        """More threads than cores and a tiny switch interval: a count
        read by a run that starts after a write finished includes it,
        however the kept rows of the racing runs were stored."""
        graph = small_graph()
        graph.create_node("Noise", {"name": "first"})
        engine = CypherEngine(graph)
        query = "MATCH (n:Noise) RETURN count(*) AS n"
        finished = [1]
        stale: list[object] = []

        def read():
            while finished[0] < 151:
                floor = finished[0]
                try:
                    seen = engine.run(query)[0]["n"]
                except Exception as error:  # noqa: BLE001 - reported below
                    stale.append(error)
                    return
                if seen < floor:
                    stale.append((seen, floor))

        def write():
            for i in range(150):
                graph.create_node("Noise", {"name": f"noise-{i}"})
                finished[0] = i + 2
                time.sleep(0.0005)  # let the readers keep rows in between

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=read, name=f"reader-{i}") for i in range(4)
            ] + [threading.Thread(target=write, name="writer-0")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert stale == []
        assert engine.run(query)[0]["n"] == 151


#: the serving mix's Cypher templates, with names the corpus below has
SERVE_QUERY = sorted(
    {
        query
        for location, query in test_analysis_sweep.QUERIES
        if "wl_serve_query" in location
    }
    | {
        'MATCH (m:Malware {name: "agent tesla"}) RETURN m.name, m.aliases',
        'MATCH (a:ThreatActor {name: "APT29"})-[:USES]->(t) '
        "RETURN t.name ORDER BY t.name",
    }
)


def ingest(shards: ShardSet, seed: int) -> None:
    """Connector ingest of corpus records: a batch of alias-laden
    reports (fusion has groups to merge) or one actor report."""
    if seed % 2:
        shards.store(alias_batch(1 + seed % 3))
    else:
        shards.store([record(100 + seed % 40)])


class TestCachedEqualsFreshEqualsOracle:
    """Writes interleaved with the serving mix and the oracle's grammar:
    every ``run`` of the long-lived engine -- the miss, the hit after
    it, the hit after its rows were mutated, and the run after a write
    landed during its drain -- answers as a brand-new engine and as the
    brute-force oracle do."""

    @settings(max_examples=25, deadline=None)
    @given(
        partitions=st.sampled_from([1, 2]),
        writes=st.lists(
            st.tuples(
                st.sampled_from(["ingest", "create", "fuse", "reopen"]),
                st.integers(min_value=0, max_value=10_000),
                st.booleans(),
            ),
            min_size=1,
            max_size=4,
        ),
        served=st.lists(
            st.sampled_from(SERVE_QUERY), min_size=2, max_size=5, unique=True
        ),
        generated=st.lists(generated_query(), max_size=3, unique=True),
    )
    def test_interleaved(self, partitions, writes, served, generated):
        queries = served + generated
        with tempfile.TemporaryDirectory() as root:
            shards = ShardSet(partitions, root=root)
            try:
                shards.store(alias_batch(0) + [record(1), record(2)])
                for query in queries:
                    self.check(shards, query)
                for kind, seed, racing in writes:
                    if kind == "ingest":
                        ingest(shards, seed)
                    elif kind == "create":
                        shards.cypher.run(
                            f'CREATE (m:Malware {{name: "m-{seed % 3}"}})'
                            f'-[:USES]->(t:Tool {{name: "mimikatz"}})'
                        )
                    elif kind == "fuse":
                        shards.fuse()
                    else:
                        shards.checkpoint()
                        shards.close()
                        shards = ShardSet(partitions, root=root)
                    for index, query in enumerate(queries):
                        if racing and index == seed % len(queries):
                            self.race(shards, query, seed)
                        self.check(shards, query)
            finally:
                shards.close()

    @staticmethod
    def check(shards: ShardSet, query: str) -> None:
        engine = shards.cypher
        fresh, _ = answer(CypherEngine(shards.graph), query, strict=False)
        kept, rows = answer(engine, query, strict=False)
        assert kept == fresh, query
        for row in rows or ():
            row.values.clear()
        # a hit: copies of the kept rows, so even their lists are the
        # caller's (a drained row may hold a graph-owned property list)
        again, rows = answer(engine, query, strict=False)
        assert again == fresh, query
        for row in rows or ():
            for value in row.values.values():
                if isinstance(value, list):
                    value.append("forged")
        last, rows = answer(engine, query, strict=False)
        assert last == fresh, query
        TestCachedEqualsFresh.check_against_oracle(
            last, rows, shards.merged_graph(), query
        )

    @staticmethod
    def race(shards: ShardSet, query: str, seed: int) -> None:
        """Run ``query`` with a journaled write landing inside its
        drain: the rows it drained are not kept."""
        engine = shards.cypher
        engine.run(f'CREATE (n:Malware {{name: "before-{seed}"}})')
        if not _drains(shards, query):
            return
        write = f'CREATE (n:Malware {{name: "race-{seed}"}})'
        with write_during_drain(lambda: engine.run(write)) as pending:
            engine.run(query, strict=False)
        assert not pending, "the query was not drained"
        assert engine._prepared[query].rows is None


def _drains(shards: ShardSet, query: str) -> bool:
    """The query is a plain MATCH that runs without an error."""
    parsed = parse(query)
    try:
        CypherEngine(shards.graph).run(query, strict=False)
    except CypherRuntimeError:
        return False
    return isinstance(parsed, ast.MatchQuery) and not (
        parsed.explain or parsed.profile
    )
