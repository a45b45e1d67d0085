"""Preemptable Cypher execution: planner, iterators, pagination, UI.

The core contract under test: a physical plan run slice-by-slice --
suspended at arbitrary safe points and resumed from its JSON-safe
continuation -- produces byte-identical rows to the same plan run in
one uninterrupted pull, which in turn is a correct answer according to
the brute-force evaluator in ``cypher_oracle`` (an eager nested-loop
reference that shares nothing with the planner or the operators).
"""

import json

import cypher_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SecurityKG, SystemConfig
from repro.graphdb import CypherEngine, CypherRuntimeError, PropertyGraph
from repro.graphdb.cypher.iterators import ExecutionContext
from repro.graphdb.cypher.parser import parse
from repro.graphdb.cypher.planner import build_plan
from repro.ui import ExplorerAPI


def build_graph() -> PropertyGraph:
    graph = PropertyGraph()
    actors = []
    for i in range(4):
        actors.append(
            graph.create_node("ThreatActor", {"name": f"actor-{i}"})
        )
    techniques = []
    for i in range(6):
        techniques.append(
            graph.create_node("Technique", {"name": f"tech-{i}"})
        )
    for i in range(18):
        node = graph.create_node(
            "Malware", {"name": f"mal-{i:02d}", "year": 2000 + (i % 7)}
        )
        graph.create_edge(
            node.node_id, "ATTRIBUTED_TO", actors[i % len(actors)].node_id
        )
        graph.create_edge(
            node.node_id, "USES", techniques[i % len(techniques)].node_id
        )
        if i % 3 == 0:
            graph.create_edge(
                node.node_id, "CONNECTS_TO", techniques[(i + 1) % 6].node_id
            )
    for actor, tech in zip(actors, techniques):
        graph.create_edge(actor.node_id, "USES", tech.node_id)
    return graph


@pytest.fixture(scope="module")
def graph():
    return build_graph()


@pytest.fixture(scope="module")
def engine(graph):
    return CypherEngine(graph)


# Query shapes covering every physical operator: scans (all/label/
# index), expansions (single and variable-length, both directions),
# filters, projection, aggregation, ORDER BY, DISTINCT, SKIP/LIMIT.
QUERIES = [
    "MATCH (n) RETURN n.name",
    "MATCH (m:Malware) RETURN m.name",
    'MATCH (m:Malware {name: "mal-07"}) RETURN m.year',
    "MATCH (m:Malware) WHERE m.year > 2003 RETURN m.name, m.year",
    "MATCH (m:Malware)-[:ATTRIBUTED_TO]->(a:ThreatActor) "
    "RETURN m.name, a.name",
    "MATCH (a:ThreatActor)<-[:ATTRIBUTED_TO]-(m:Malware) "
    'WHERE a.name = "actor-1" RETURN m.name',
    "MATCH (m:Malware)-[:ATTRIBUTED_TO]->(a)-[:USES]->(t:Technique) "
    "RETURN m.name, t.name",
    "MATCH (m:Malware)-[:CONNECTS_TO*1..2]->(x) RETURN m.name, x.name",
    "MATCH (a:ThreatActor) RETURN a.name, count(a) ORDER BY a.name",
    "MATCH (m:Malware)-[:ATTRIBUTED_TO]->(a) "
    "RETURN a.name, count(m), collect(m.name) ORDER BY a.name",
    "MATCH (m:Malware) RETURN avg(m.year), min(m.year), max(m.year), "
    "sum(m.year)",
    "MATCH (m:Malware) RETURN count(DISTINCT m.year)",
    "MATCH (m:Malware) RETURN DISTINCT m.year ORDER BY m.year",
    "MATCH (m:Malware) RETURN m.name ORDER BY m.year DESC, m.name "
    "SKIP 3 LIMIT 5",
    "MATCH (m:Malware), (a:ThreatActor) "
    "RETURN m.name, a.name ORDER BY m.name, a.name LIMIT 7",
]


def values(rows):
    return [row.values for row in rows]


def fingerprint(rows, query):
    """Canonical result fingerprint for sliced-vs-unsliced parity.

    Without ORDER BY Cypher leaves row order unspecified, so the
    fingerprint is order-insensitive.  With it the fingerprint is the
    exact list -- which is stricter than the language: ORDER BY fixes
    the sequence only up to rows that tie on every sort key, and among
    those the order is whatever the plan produced (stable sort).  That
    is fine here because both sides run the same plan; against an
    independent reference use ``cypher_oracle.check``, which compares
    sort keys.
    """
    printable = [repr(sorted(row.values.items())) for row in rows]
    if "ORDER BY" in query.upper():
        return printable
    return sorted(printable)


def run_sliced(engine, query, steps_per_slice, roundtrip=True):
    """Run preemptably, suspending every ``steps_per_slice`` ticks.

    Between slices the whole execution state is serialised to JSON and
    reloaded into a brand-new task, which is the strongest version of
    the resume contract (nothing survives in memory).
    """
    context = ExecutionContext(steps_per_slice=steps_per_slice)
    task = engine.task(query, context=context)
    rows = []
    continuation = None
    while True:
        if roundtrip and continuation is not None:
            task = engine.task(
                query, context=ExecutionContext(steps_per_slice=steps_per_slice)
            )
            task.load(json.loads(json.dumps(continuation)))
        rows.extend(task.step())
        continuation = task.save()
        if continuation is None:
            return rows


class TestSliceParity:
    @pytest.mark.parametrize("query", QUERIES)
    def test_single_step_slices_match_unsliced(self, engine, query):
        """Suspending at EVERY safe point changes nothing."""
        unsliced = engine.task(query).run_to_completion()
        sliced = run_sliced(engine, query, steps_per_slice=1)
        assert values(sliced) == values(unsliced)

    @pytest.mark.parametrize("query", QUERIES)
    def test_preemptable_matches_eager(self, engine, graph, query):
        """Both entry points answer like the eager brute-force oracle."""
        cypher_oracle.check(engine.run(query), graph, query)
        cypher_oracle.check(
            engine.task(query).run_to_completion(), graph, query
        )

    @settings(max_examples=40, deadline=None)
    @given(
        query=st.sampled_from(QUERIES),
        steps=st.integers(min_value=1, max_value=23),
    )
    def test_any_slice_size_is_byte_identical(self, query, steps):
        # Fresh engine per example: hypothesis shrinks across examples
        # and module-scoped state must not leak between them.
        engine = CypherEngine(build_graph())
        unsliced = engine.task(query).run_to_completion()
        sliced = run_sliced(engine, query, steps_per_slice=steps)
        assert values(sliced) == values(unsliced)
        assert fingerprint(sliced, query) == fingerprint(
            engine.run(query), query
        )

    def test_pagination_matches_eager_at_many_page_sizes(self, engine, graph):
        query = (
            "MATCH (m:Malware)-[:ATTRIBUTED_TO]->(a) "
            "RETURN m.name, a.name ORDER BY m.name"
        )
        for page_size in (1, 2, 3, 7, 100):
            rows = []
            continuation = None
            while True:
                page = engine.run_paginated(
                    query, page_size, continuation=continuation
                )
                rows.extend(page.rows)
                continuation = page.continuation
                if continuation is None:
                    break
                # the wire format is JSON: round-trip every hop
                continuation = json.loads(json.dumps(continuation))
            cypher_oracle.check(rows, graph, query)

    def test_continuation_is_json_safe(self, engine):
        task = engine.task(
            "MATCH (m:Malware)-[:USES]->(t) RETURN m.name, t.name",
            context=ExecutionContext(steps_per_slice=2),
        )
        task.step()
        continuation = task.save()
        assert continuation is not None
        json.dumps(continuation)  # must not raise

    def test_stale_plan_continuation_rejected(self, engine):
        task = engine.task(
            "MATCH (m:Malware) RETURN m.name",
            context=ExecutionContext(steps_per_slice=1),
        )
        task.step()
        continuation = task.save()
        other = engine.task("MATCH (a:ThreatActor) RETURN a.name")
        with pytest.raises(CypherRuntimeError, match="does not match"):
            other.load(continuation)


def add_tied_comentions(graph: PropertyGraph) -> None:
    """15 reports, each mentioning one of 5 malware and one of 3 actors:
    every (malware, actor) pair is co-mentioned exactly once, so an
    ``ORDER BY n DESC LIMIT k`` over the pairs is decided by tie-break
    alone -- and there are fewer actors than malware, so the planner
    anchors on the side the query does not write first."""
    actors = [
        graph.create_node("ThreatActor", {"name": f"actor-{i}"})
        for i in range(3)
    ]
    malware = [
        graph.create_node("Malware", {"name": f"mal-{i}"}) for i in range(5)
    ]
    for i in range(15):
        report = graph.create_node("MalwareReport", {"name": f"report-{i:02d}"})
        graph.create_edge(report.node_id, "MENTIONS", malware[i % 5].node_id)
        graph.create_edge(report.node_id, "MENTIONS", actors[i % 3].node_id)


class TestOneExecutor:
    """Every entry point drains the same plan: with all counts tied the
    top-k is pure tie-break, so any second MATCH path with its own
    enumeration order shows up as different rows."""

    QUERY = (
        "MATCH (r)-[:MENTIONS]->(a:Malware), (r)-[:MENTIONS]->(b:ThreatActor) "
        "RETURN a.name, b.name, count(r) AS n ORDER BY n DESC LIMIT 4"
    )

    def test_run_equals_task_as_ordered_list_on_ties(self):
        graph = PropertyGraph()
        add_tied_comentions(graph)
        engine = CypherEngine(graph)
        ran = engine.run(self.QUERY)
        assert values(ran) == values(
            engine.task(self.QUERY).run_to_completion()
        )
        cypher_oracle.check(ran, graph, self.QUERY)

    def test_api_rows_independent_of_page_size(self):
        kg = SecurityKG(SystemConfig(scenario_count=2, reports_per_site=1))
        add_tied_comentions(kg.graph)
        api = ExplorerAPI(kg)
        status, whole = api.handle("POST", "/api/cypher", {"query": self.QUERY})
        assert status == 200 and len(whole["rows"]) == 4
        rows, cursor = [], None
        while True:
            body = {"query": self.QUERY, "page_size": 3}
            if cursor is not None:
                body["cursor"] = cursor
            status, page = api.handle("POST", "/api/cypher", body)
            assert status == 200
            rows.extend(page["rows"])
            cursor = page["cursor"]
            if cursor is None:
                break
        assert rows == whole["rows"]


class TestPlanner:
    def plan_lines(self, graph, query):
        plan = build_plan(parse(query), graph)
        return plan.explain_lines()

    def test_indexed_equality_uses_index_scan(self, graph):
        lines = self.plan_lines(
            graph, 'MATCH (m:Malware {name: "mal-03"}) RETURN m'
        )
        assert any("IndexScan" in line for line in lines)
        assert not any("LabelScan" in line for line in lines)

    def test_where_equality_on_indexed_property_uses_index(self, graph):
        lines = self.plan_lines(
            graph, 'MATCH (m:Malware) WHERE m.name = "mal-03" RETURN m'
        )
        assert any("IndexScan" in line for line in lines)

    def test_unindexed_property_falls_back_to_label_scan(self, graph):
        # ``year`` is not in INDEXED_PROPERTIES: no index to use.
        lines = self.plan_lines(
            graph, "MATCH (m:Malware {year: 2003}) RETURN m"
        )
        assert any("LabelScan" in line for line in lines)
        assert not any("IndexScan" in line for line in lines)

    def test_unlabelled_scan_is_all_nodes(self, graph):
        lines = self.plan_lines(graph, "MATCH (n) RETURN n.name")
        assert any("AllNodesScan" in line for line in lines)

    def test_cartesian_join_orders_smaller_side_first(self, graph):
        # 4 ThreatActor vs 18 Malware: the cheaper scan must run first
        # (deeper in the tree), so the expensive side is the outer loop
        # driven once per cheap row -- never the other way round.
        lines = self.plan_lines(
            graph, "MATCH (m:Malware), (a:ThreatActor) RETURN m.name, a.name"
        )
        actor_depth = next(
            line.index("LabelScan") for line in lines if "ThreatActor" in line
        )
        malware_depth = next(
            line.index("LabelScan") for line in lines if "Malware" in line
        )
        assert actor_depth > malware_depth

    def test_disconnected_paths_start_from_cheapest_anchor(self, graph):
        # The indexed single-row anchor is planned before the label scan
        # even though it is written second.
        lines = self.plan_lines(
            graph,
            'MATCH (m:Malware), (a:ThreatActor {name: "actor-2"}) '
            "RETURN m.name, a.name",
        )
        index_at = next(
            i for i, line in enumerate(lines) if "IndexScan" in line
        )
        label_at = next(
            i for i, line in enumerate(lines) if "LabelScan" in line
        )
        # explain is root-first: deeper (earlier-executed) = later line
        assert index_at > label_at

    def test_filter_pushed_below_expansion(self, graph):
        lines = self.plan_lines(
            graph,
            "MATCH (m:Malware)-[:ATTRIBUTED_TO]->(a) "
            "WHERE m.year > 2003 RETURN a.name",
        )
        filter_at = next(
            i for i, line in enumerate(lines) if "Filter" in line
        )
        expand_at = next(
            i for i, line in enumerate(lines) if "ExpandEdge" in line
        )
        # root-first listing: pushed-down filter prints after (below)
        # the expansion it feeds.
        assert filter_at > expand_at

    def test_signature_stable_and_structure_sensitive(self, graph):
        q1 = "MATCH (m:Malware) RETURN m.name"
        same = build_plan(parse(q1), graph).signature()
        again = build_plan(parse(q1), graph).signature()
        other = build_plan(
            parse("MATCH (a:ThreatActor) RETURN a.name"), graph
        ).signature()
        assert same == again
        assert same != other

    def test_explain_through_engine(self, engine):
        rows = engine.run("EXPLAIN MATCH (m:Malware) RETURN m.name")
        assert rows and all(set(r.values) == {"plan"} for r in rows)
        assert any("LabelScan" in r["plan"] for r in rows)

    def test_aggregate_in_nested_expression_rejected(self, engine):
        query = "MATCH (m:Malware) RETURN count(m) > 5 AS big"
        with pytest.raises(CypherRuntimeError, match="aggregate"):
            engine.task(query, strict=False)
        with pytest.raises(CypherRuntimeError, match="aggregate"):
            engine.run(query, strict=False)


class TestQuantumAndObs:
    def test_virtual_quantum_suspends_long_scan(self):
        from repro.obs import make_obs
        from repro.runtime.clock import VirtualClock

        clock = VirtualClock()
        obs = make_obs(clock)
        engine = CypherEngine(build_graph(), obs=obs)
        context = ExecutionContext(clock=clock, quantum=0.005, step_cost=0.001)
        task = engine.task("MATCH (n) RETURN n.name", context=context)
        rows = task.run_to_completion()
        assert values(rows) == values(engine.run("MATCH (n) RETURN n.name"))
        counters = obs.metrics.snapshot()["counters"]
        assert sum(counters["cypher.slices"].values()) > 1
        assert sum(counters["cypher.suspended"].values()) >= 1
        names = {span["name"] for span in obs.tracer.export()}
        assert "cypher.plan" in names
        assert "cypher.slice" in names


def mentions_graph(reports_per_entity: int, entities: int = 3) -> PropertyGraph:
    """``entities`` malware, each mentioned by ``reports_per_entity``
    reports: the groups stay put while the rows under them grow."""
    graph = PropertyGraph()
    for e in range(entities):
        entity = graph.create_node(
            "Malware", {"name": f"mal-{e}", "score": float(e + 1)}
        )
        for r in range(reports_per_entity):
            report = graph.create_node(
                "MalwareReport", {"name": f"rep-{e}-{r:04d}", "size": r % 7}
            )
            graph.create_edge(report.node_id, "MENTIONS", entity.node_id)
    return graph


class TestAggregateContinuations:
    """An aggregation's continuation carries running state per group --
    O(groups) -- and only ``collect`` / ``DISTINCT`` carry values."""

    RUNNING = [
        "count(r)", "count(*)", "sum(r.size)", "min(r.size)", "max(r.size)",
        "avg(r.size)",
    ]

    @staticmethod
    def first_cursor(graph, query) -> str:
        page = CypherEngine(graph).run_paginated(query, 1)
        assert page.continuation is not None
        return json.dumps(page.continuation, separators=(",", ":"))

    @pytest.mark.parametrize("aggregate", RUNNING)
    def test_cursor_size_is_flat_in_rows_consumed(self, aggregate):
        query = (
            f"MATCH (r)-[:MENTIONS]->(e) RETURN e.name, {aggregate} AS a "
            "ORDER BY e.name"
        )
        few = self.first_cursor(mentions_graph(4), query)
        many = self.first_cursor(mentions_graph(400), query)
        # 100x the rows under the same three groups: the same cursor but
        # for the digits of the totals (and of the larger node ids)
        assert len(many) <= len(few) + 40, (len(few), len(many))
        assert "rep-" not in many

    @pytest.mark.parametrize("aggregate", RUNNING)
    def test_cursor_taken_mid_consume_holds_no_rows(self, aggregate):
        graph = mentions_graph(60, entities=1)
        query = f"MATCH (r)-[:MENTIONS]->(e) RETURN {aggregate} AS a"
        task = CypherEngine(graph).task(
            query, context=ExecutionContext(steps_per_slice=25)
        )
        sizes = []
        while not task.done:
            task.step()
            continuation = task.save()
            if continuation is not None:
                sizes.append(len(json.dumps(continuation)))
        assert len(sizes) > 3
        assert max(sizes) <= min(sizes) + 20, sizes

    AGGREGATES = [
        "collect(m.name)", "collect(DISTINCT m.year)", "count(DISTINCT m.year)",
        "sum(DISTINCT m.year)", "avg(DISTINCT m.year)", "min(DISTINCT m.year)",
        "max(m.name)", "avg(m.year)", "collect(DISTINCT a)", "count(DISTINCT a)",
    ]

    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_every_slice_size_round_trips_through_json(self, engine, graph, aggregate):
        query = (
            "MATCH (m:Malware)-[:ATTRIBUTED_TO]->(a) "
            f"RETURN a.name, {aggregate} AS v ORDER BY a.name"
        )
        unsliced = engine.run(query)
        cypher_oracle.check(unsliced, graph, query)
        # 4 actor scans + 18 expansions + 4 emits: past 40 it is one slice
        for steps in range(1, 42):
            sliced = run_sliced(engine, query, steps_per_slice=steps)
            assert values(sliced) == values(unsliced), steps

    def test_v1_continuation_is_refused(self, engine):
        query = "MATCH (m:Malware) RETURN count(m)"
        task = engine.task(query, context=ExecutionContext(steps_per_slice=3))
        task.step()
        continuation = task.save()
        assert continuation["v"] == 2
        stale = dict(continuation, v=1)
        with pytest.raises(CypherRuntimeError, match="does not match"):
            engine.task(query).load(stale)
        with pytest.raises(CypherRuntimeError, match="does not match"):
            engine.run_paginated(query, 5, continuation=stale)

    def test_count_distinct_is_linear_in_values(self):
        """``count(DISTINCT x)`` over n values hashes each once and
        compares none of them pairwise: the comparison count a
        membership *list* runs up (n^2 / 2) is the regression."""

        class Counted:
            compared = 0

            def __init__(self, token):
                self.token = token

            def __hash__(self):
                return hash(self.token)

            def __eq__(self, other):
                Counted.compared += 1
                return self.token == other.token

        n = 400
        graph = PropertyGraph()
        for i in range(n):
            graph.create_node("Sample", {"token": Counted(i)})
            graph.create_node("Sample", {"token": Counted(i)})  # a repeat
        engine = CypherEngine(graph, strict=False)
        rows = engine.run(
            "MATCH (s:Sample) RETURN count(DISTINCT s.token) AS c, "
            "collect(DISTINCT s.token) AS v"
        )
        assert rows[0]["c"] == n and len(rows[0]["v"]) == n
        # one comparison per repeat and aggregate, plus hash collisions
        assert Counted.compared <= 4 * n, Counted.compared
