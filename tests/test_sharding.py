"""The sharding layer: router placement, store fan-out, one graph view.

Covers the placement properties the design leans on (stability, balance,
insertion-order independence -- hypothesis-driven), the per-partition
store semantics (exactly-once markers, crash isolation, disjoint id
ranges), Cypher over the union view against a single-partition
deployment and against the brute-force oracle.
"""

from __future__ import annotations

import json
import random
import sys
import threading
from io import StringIO

import cypher_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectors.base import Connector, IngestStats
from repro.core.config import SystemConfig
from repro.core.system import SecurityKG
from repro.graphdb.cypher.executor import CypherRuntimeError
from repro.graphdb.store import PropertyGraph
from repro.obs import make_obs
from repro.ontology.entities import EntityType
from repro.ontology.intermediate import CTIRecord, Mention, RelationMention
from repro.runtime import clock_from_name
from repro.sharding import (
    ID_STRIDE,
    GraphUnion,
    ShardRouter,
    ShardSet,
    ShardedCrawlState,
)
from repro.storage import StorageError
from repro.storage.faults import CrashInjector, InjectedCrash

# -- fixtures ---------------------------------------------------------------

ENTITIES = [
    ("agent tesla", EntityType.MALWARE),
    ("zeus panda", EntityType.MALWARE),
    ("vidar stealer", EntityType.MALWARE),
    ("Teardrop", EntityType.MALWARE),
    ("APT29", EntityType.THREAT_ACTOR),
    ("FIN7", EntityType.THREAT_ACTOR),
    ("mimikatz", EntityType.TOOL),
    ("cobalt strike", EntityType.TOOL),
]


def _record(index: int, entity: str | None = None) -> CTIRecord:
    name, etype = ENTITIES[index % len(ENTITIES)]
    if entity is not None:
        name, etype = entity, EntityType.MALWARE
    return CTIRecord(
        report_id=f"rpt-{index:04d}",
        source="UnitSource",
        url=f"https://unit.test/report/{index}",
        title=f"report {index} on {name}",
        mentions=[Mention(name, etype, confidence=0.9)],
    )


def _batch(count: int) -> list[CTIRecord]:
    return [_record(index) for index in range(count)]


# -- router placement properties --------------------------------------------


class TestShardRouter:
    def test_rejects_zero_partitions(self):
        with pytest.raises(ValueError):
            ShardRouter(0)

    def test_single_partition_owns_everything(self):
        router = ShardRouter(1)
        assert {router.partition_for(f"key-{i}") for i in range(50)} == {0}

    @given(
        st.lists(st.text(min_size=1, max_size=30), min_size=1, max_size=40),
        st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=40)
    def test_placement_stable_across_instances(self, keys, partitions):
        first, second = ShardRouter(partitions), ShardRouter(partitions)
        for key in keys:
            owner = first.partition_for(key)
            assert owner == second.partition_for(key)
            assert 0 <= owner < partitions

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25)
    def test_balanced_within_tolerance(self, partitions, seed):
        rng = random.Random(seed)
        count = 600
        keys = [
            f"Malware\x1fsample-{rng.randrange(10**9)}-{index}"
            for index in range(count)
        ]
        router = ShardRouter(partitions)
        loads = [0] * partitions
        for key in keys:
            loads[router.partition_for(key)] += 1
        expected = count / partitions
        # blake2b placement is uniform; these bounds are > 5 sigma out
        assert max(loads) < expected * 2.0
        assert min(loads) > expected * 0.4

    @given(
        st.lists(st.integers(min_value=0, max_value=10**6),
                 min_size=1, max_size=60, unique=True),
        st.integers(min_value=2, max_value=6),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=30)
    def test_placement_independent_of_insertion_order(
        self, seeds, partitions, rng
    ):
        records = [_record(seed, entity=f"sample-{seed}") for seed in seeds]
        shuffled = list(records)
        rng.shuffle(shuffled)
        router = ShardRouter(partitions)
        by_id_sorted = {
            r.report_id: router.partition_for_record(r)
            for r in sorted(records, key=lambda r: r.report_id)
        }
        by_id_shuffled = {
            r.report_id: router.partition_for_record(r) for r in shuffled
        }
        assert by_id_sorted == by_id_shuffled

    def test_entity_key_folds_name_case(self):
        router = ShardRouter(4)
        assert router.partition_for_entity(
            "Malware", "Agent Tesla"
        ) == router.partition_for_entity("Malware", "agent tesla")

    def test_anchor_is_smallest_entity_key(self):
        router = ShardRouter(4)
        record = _record(0)
        record.mentions = [
            Mention("zeta", EntityType.MALWARE),
            Mention("alpha", EntityType.MALWARE),
        ]
        assert router.anchor_key(record) == router.entity_key(
            "Malware", "alpha"
        )

    def test_mentionless_record_routes_by_report_id(self):
        router = ShardRouter(4)
        record = _record(3)
        record.mentions = []
        assert "rpt-0003" in router.anchor_key(record)



# -- the store fan-out ------------------------------------------------------


class Recording(Connector):
    """Stands in for a partition's search connector and remembers the
    order the partition handed it records in."""

    name = "search"

    def __init__(self):
        self.order: list[str] = []

    def ingest(self, record):
        self.order.append(record.report_id)
        return IngestStats(records=1)


class TestShardSetStore:
    def test_stream_commits_each_partition_in_arrival_order(self):
        """Each partition commits its own records in the order they
        arrived in the batch, and each lands on its router partition."""
        shards = ShardSet(3, connectors=[Recording.name])
        for partition in shards.partitions:
            partition.connectors[Recording.name] = Recording()
        records = _batch(24)
        outcome = shards.store(records)
        assert (outcome.stored, outcome.skipped) == (24, 0)
        assert outcome.ingest[Recording.name].records == 24
        for partition in shards.partitions:
            assert partition.connectors[Recording.name].order == [
                record.report_id
                for record in records
                if shards.router.partition_for_record(record) == partition.index
            ]
        shards.close()

    def test_store_is_exactly_once_per_partition(self):
        shards = ShardSet(3)
        records = _batch(16)
        outcome = shards.store(records)
        assert outcome.stored == 16
        assert outcome.skipped == 0
        assert shards.ingested_count == 16
        replay = shards.store(records)
        assert replay.stored == 0
        assert replay.skipped == 16
        assert shards.ingested_count == 16
        assert shards.is_ingested("rpt-0000")
        assert not shards.is_ingested("rpt-9999")
        shards.close()

    def test_records_land_on_their_router_partition(self):
        shards = ShardSet(4)
        records = _batch(20)
        shards.store(records)
        for record in records:
            owner = shards.router.partition_for_record(record)
            for partition in shards.partitions:
                ingested = partition.engine.is_ingested(record.report_id)
                assert ingested == (partition.index == owner)
        shards.close()

    def test_partition_id_ranges_are_disjoint(self):
        shards = ShardSet(3)
        shards.store(_batch(18))
        for partition in shards.partitions:
            low = partition.index * ID_STRIDE
            for node in partition.graph.nodes():
                assert low < node.node_id <= low + ID_STRIDE
        merged = shards.merged_graph()
        total = sum(p.graph.node_count for p in shards.partitions)
        assert merged.node_count == total
        assert merged.edge_count == sum(
            p.graph.edge_count for p in shards.partitions
        )
        shards.close()

    def test_store_starts_no_thread(self, monkeypatch):
        """Partitions commit on the caller's thread."""

        def refuse(thread):
            raise AssertionError(f"store() started thread {thread.name!r}")

        shards = ShardSet(3)
        records = _batch(18)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        outcome = shards.store(records)
        monkeypatch.undo()
        assert outcome.stored == len(records)
        assert shards.ingested_count == len(records)
        assert all(p.engine.ingested_count for p in shards.partitions)
        shards.close()

    def test_crash_on_one_partition_leaves_others_committed(self, tmp_path):
        faults = CrashInjector("commit.before-append")
        shards = ShardSet(3, root=tmp_path, faults=faults)
        records = _batch(18)
        groups = {index: [] for index in range(3)}
        for record in records:
            groups[shards.router.partition_for_record(record)].append(record)
        assert groups[0], "fixture must route records to partition 0"
        with pytest.raises(InjectedCrash):
            shards.store(records)
        # partition 0 lost its first in-flight commit; the others ran
        assert shards.partitions[0].engine.ingested_count == 0
        for partition in shards.partitions[1:]:
            assert partition.engine.ingested_count == len(
                groups[partition.index]
            )
        # reopening and replaying converges with no duplicates
        recovered = ShardSet(3, root=tmp_path)
        outcome = recovered.store(records)
        assert outcome.stored == len(groups[0])
        assert outcome.skipped == len(records) - len(groups[0])
        assert recovered.ingested_count == len(records)
        recovered.close()

    def test_metrics_carry_partition_labels(self):
        clock = clock_from_name("virtual")
        obs = make_obs(clock)
        shards = ShardSet(2, obs=obs, clock=clock)
        shards.store(_batch(10))
        snapshot = obs.metrics.snapshot()
        stored = snapshot["counters"]["shard.reports_stored"]
        assert set(stored) == {"partition=0", "partition=1"}
        assert sum(stored.values()) == 10
        spans = [
            s for s in obs.tracer.export() if s["name"] == "store.shard"
        ]
        assert {s["attrs"]["partition"] for s in spans} == {0, 1}
        shards.close()

    def test_sharded_crawl_state_routes_and_aggregates(self):
        shards = ShardSet(3)
        state = ShardedCrawlState(shards)
        urls = [f"https://unit.test/page/{i}" for i in range(12)]

        def seen_count():
            return sum(
                len(p.engine.participant("crawl").seen) for p in shards.partitions
            )

        for url in urls:
            assert state.mark_seen(url)
        assert not state.mark_seen(urls[0])
        assert seen_count() == 12
        assert all(state.is_seen(url) for url in urls)
        state.unmark(urls[0])
        assert not state.is_seen(urls[0])
        assert seen_count() == 11
        state.record_crawl("UnitSource", 42.0)
        assert state.last_crawl("UnitSource") == 42.0
        assert state.last_crawl("Other") is None
        shards.close()


# -- Cypher over N partitions ------------------------------------------------


def _values(rows):
    return [row.values for row in rows]


class TestShardedCypher:
    @pytest.fixture()
    def pair(self):
        """The same corpus stored on 1 partition and on 4."""
        single = ShardSet(1)
        sharded = ShardSet(4)
        records = _batch(24)
        single.store(records)
        sharded.store(records)
        yield single.cypher, sharded.cypher
        single.close()
        sharded.close()

    def test_ordered_scan_matches_single_partition(self, pair):
        one, many = pair
        query = "MATCH (m:Malware) RETURN m.name ORDER BY m.name"
        assert _values(many.run(query)) == _values(one.run(query))

    def test_order_skip_limit_matches(self, pair):
        one, many = pair
        query = (
            "MATCH (r:AttackReport)-[:MENTIONS]->(m:Malware) "
            "RETURN r.name, m.name ORDER BY r.name SKIP 2 LIMIT 5"
        )
        assert _values(many.run(query)) == _values(one.run(query))

    def test_distinct_merges_across_partitions(self, pair):
        one, many = pair
        query = "MATCH (m:Malware) RETURN DISTINCT m.name ORDER BY m.name"
        assert _values(many.run(query)) == _values(one.run(query))

    def test_global_count_sums_partials(self, pair):
        one, many = pair
        query = "MATCH (m:Malware) RETURN count(m) AS n"
        assert _values(many.run(query)) == _values(one.run(query))

    def test_grouped_count_merges_by_group_key(self, pair):
        one, many = pair
        query = (
            "MATCH (r:AttackReport)-[:MENTIONS]->(m:Malware) "
            "RETURN m.name, count(r) AS reports ORDER BY m.name"
        )
        assert _values(many.run(query)) == _values(one.run(query))

    def test_collect_distinct_dedupes_across_partitions(self, pair):
        one, many = pair
        query = (
            "MATCH (m:Malware) "
            "RETURN collect(DISTINCT m.name) AS names"
        )
        got = _values(many.run(query))[0]["names"]
        want = _values(one.run(query))[0]["names"]
        assert sorted(got) == sorted(want)

    def test_count_distinct_merges_across_partitions(self, pair):
        one, many = pair
        query = "MATCH (m:Malware) RETURN count(DISTINCT m.name) AS n"
        assert _values(many.run(query)) == _values(one.run(query))

    def test_numeric_aggregates_match_single_partition(self, pair):
        one, many = pair
        query = (
            "MATCH (r:AttackReport)-[:MENTIONS]->(m:Malware) "
            "RETURN m.name, count(r) AS n, min(r.name) AS lo, "
            "max(r.name) AS hi ORDER BY m.name"
        )
        assert _values(many.run(query)) == _values(one.run(query))

    def test_avg_merges_from_sum_count_partials(self, pair):
        one, many = pair
        # seed a numeric property spread across partitions (the
        # duplicated 4 exercises cross-partition DISTINCT dedup)
        for engine in (one, many):
            for index, score in enumerate((2, 4, 6, 9, 4)):
                engine.run(
                    f"CREATE (:Malware {{name: 'avg-sample-{index}', "
                    f"merge_key: 'malware::avg-sample-{index}', "
                    f"score: {score}}})",
                    strict=False,
                )
        query = (
            "MATCH (m:Malware) WHERE m.score IS NOT NULL "
            "RETURN avg(m.score) AS a, sum(m.score) AS s, "
            "count(DISTINCT m.score) AS d, avg(DISTINCT m.score) AS ad"
        )
        assert _values(many.run(query)) == _values(one.run(query))
        merged = _values(many.run(query))[0]
        assert merged == {"a": 5.0, "s": 25, "d": 4, "ad": 5.25}

    def test_paginated_streaming_matches_full_run(self, pair):
        one, many = pair
        query = "MATCH (m:Malware) RETURN m.name"
        full = [row.values for row in many.run(query)]
        rows, cont = [], None
        while True:
            page = many.run_paginated(query, page_size=3, continuation=cont)
            assert len(page.rows) <= 3
            rows.extend(row.values for row in page.rows)
            cont = page.continuation
            if cont is None:
                break
        assert rows == full
        assert sorted(map(str, rows)) == sorted(
            str(row.values) for row in one.run(query)
        )

    def test_paginated_blocking_matches_full_run(self, pair):
        _one, many = pair
        query = (
            "MATCH (m:Malware) RETURN m.name AS name ORDER BY name"
        )
        full = [row.values for row in many.run(query)]
        rows, cont = [], None
        while True:
            page = many.run_paginated(query, page_size=2, continuation=cont)
            rows.extend(row.values for row in page.rows)
            cont = page.continuation
            if cont is None:
                break
        assert rows == full

    def test_limit_pushdown_returns_enough_rows(self, pair):
        one, many = pair
        query = "MATCH (m:Malware) RETURN m.name LIMIT 3"
        assert len(many.run(query)) == len(one.run(query)) == 3

    def test_create_routes_to_owning_partition(self):
        shards = ShardSet(3)
        engine = shards.cypher
        engine.run(
            "CREATE (:Malware {name: 'routed-sample', merge_key: "
            "'malware::routed-sample'})",
            strict=False,
        )
        owner = shards.router.partition_for_entity("Malware", "routed-sample")
        for partition in shards.partitions:
            count = partition.graph.node_count
            assert count == (1 if partition.index == owner else 0)
        rows = engine.run(
            "MATCH (m:Malware) RETURN m.name", strict=False
        )
        assert _values(rows) == [{"m.name": "routed-sample"}]
        shards.close()

    def test_requires_at_least_one_engine(self):
        with pytest.raises(ValueError):
            GraphUnion([])
        with pytest.raises(ValueError):
            ShardSet(0)


class TestNumericOrderBy:
    """ORDER BY over a count column that mixes one- and two-digit
    values, against the brute-force oracle: numbers sort as numbers in
    the engine's OrderByOp, at one partition and at three."""

    #: reports per malware family -- as strings "10" < "11" < "2" < "9"
    COUNTS = {"fam-a": 2, "fam-b": 9, "fam-c": 10, "fam-d": 11, "fam-e": 1}

    QUERIES = [
        "MATCH (r)-[:MENTIONS]->(m:Malware) "
        "RETURN m.name, count(r) AS n ORDER BY n DESC LIMIT 3",
        "MATCH (r)-[:MENTIONS]->(m:Malware) "
        "RETURN m.name, count(r) AS n ORDER BY n, m.name",
        "MATCH (r)-[:MENTIONS]->(m:Malware) "
        "RETURN m.name, count(r) AS n ORDER BY n DESC SKIP 1 LIMIT 2",
    ]

    @pytest.fixture(params=[1, 3])
    def shards(self, request):
        shards = ShardSet(request.param)
        names = [n for n, count in self.COUNTS.items() for _ in range(count)]
        shards.store(
            [_record(index, entity=name) for index, name in enumerate(names)]
        )
        yield shards
        shards.close()

    @pytest.mark.parametrize("query", QUERIES)
    def test_matches_oracle(self, shards, query):
        graph = shards.merged_graph()
        cypher_oracle.check(shards.cypher.run(query), graph, query)
        pages, continuation = [], None
        while True:
            page = shards.cypher.run_paginated(
                query, 2, continuation=continuation
            )
            pages.extend(page.rows)
            continuation = page.continuation
            if continuation is None:
                break
        cypher_oracle.check(pages, graph, query)

    def test_top_list_is_the_numeric_top(self, shards):
        rows = shards.cypher.run(self.QUERIES[0])
        assert [row["n"] for row in rows] == [11, 10, 9]


def _linked_records() -> list[CTIRecord]:
    """Reports naming an actor, a malware and a tool each, with USES
    relations between them: every entity recurs under several anchors,
    so at N > 1 relations pull copies of it onto several partitions."""
    actors = ["APT29", "FIN7", "Lazarus Group"]
    malware = ["agent tesla", "zeus panda", "vidar stealer", "Teardrop"]
    tools = ["mimikatz", "cobalt strike"]
    records = []
    for index in range(14):
        actor = actors[index % len(actors)]
        family = malware[(index // 2) % len(malware)]
        tool = tools[index % len(tools)]
        record = _record(index)
        record.mentions = [
            Mention(actor, EntityType.THREAT_ACTOR),
            Mention(family, EntityType.MALWARE),
            Mention(tool, EntityType.TOOL),
        ]
        record.relations = [
            RelationMention(
                actor, EntityType.THREAT_ACTOR, "uses", family, EntityType.MALWARE
            ),
            RelationMention(
                actor, EntityType.THREAT_ACTOR, "uses", tool, EntityType.TOOL
            ),
        ]
        records.append(record)
    return records


class TestDifferentialAtN:
    """The engine over N partitions against the brute-force oracle over
    the detached union copy: run and paged, at every query shape the
    deleted gather side used to re-implement."""

    QUERIES = {
        "connected-path": (
            "MATCH (r:AttackReport)-[:MENTIONS]->(m:Malware) "
            "RETURN r.name, m.name"
        ),
        "shared-variable-two-paths": (
            "MATCH (r)-[:MENTIONS]->(a:Malware), (r)-[:MENTIONS]->(b:ThreatActor) "
            "RETURN a.name, b.name, count(r) AS n ORDER BY n DESC LIMIT 10"
        ),
        "disconnected-count": (
            "MATCH (a:Malware), (b:ThreatActor) RETURN count(*) AS pairs"
        ),
        "disconnected-rows": (
            "MATCH (a:Malware), (b:ThreatActor) RETURN a.name, b.name"
        ),
        "group-by-node": (
            "MATCH (r)-[:MENTIONS]->(m:Malware) RETURN m, count(r) AS n"
        ),
        "distinct-node": (
            "MATCH (r)-[:MENTIONS]->(m:Malware) RETURN DISTINCT m"
        ),
        "count-distinct-node": (
            "MATCH (r:AttackReport)-[:MENTIONS]->(m) "
            "RETURN count(DISTINCT m) AS entities, count(m) AS mentions"
        ),
        "collect-distinct": (
            "MATCH (m:Malware) RETURN collect(DISTINCT m.name) AS names"
        ),
        "avg-over-edges": (
            "MATCH (a:ThreatActor)-[e:USES]->(t) RETURN a.name, "
            "avg(e.weight) AS w, count(DISTINCT t) AS used ORDER BY a.name"
        ),
        "var-length": (
            "MATCH (r:AttackReport)-[*1..2]->(x:Tool) RETURN r.name, x.name"
        ),
        "order-skip-limit": (
            "MATCH (r:AttackReport)-[:MENTIONS]->(m) "
            "RETURN r.name, m.name ORDER BY m.name, r.name SKIP 3 LIMIT 7"
        ),
    }

    @pytest.fixture(scope="class", params=[1, 3])
    def shards(self, request):
        shards = ShardSet(request.param)
        shards.store(_linked_records())
        yield shards
        shards.close()

    def test_corpus_spreads_entities_over_partitions(self, shards):
        copies = shards.graph.find_nodes("ThreatActor", name="APT29")
        if len(shards.partitions) == 1:
            assert len(copies) == 1
        else:
            assert len(copies) > 1, "no entity was pulled onto two partitions"
            assert len({node.properties["merge_key"] for node in copies}) == 1

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_run_and_pages_match_oracle(self, shards, name):
        query = self.QUERIES[name]
        reference = shards.merged_graph()
        rows = shards.cypher.run(query)
        assert rows, "vacuous query"
        cypher_oracle.check(rows, reference, query)
        for page_size in (1, 3, 10_000):
            paged, continuation = [], None
            while True:
                page = shards.cypher.run_paginated(
                    query, page_size, continuation=continuation
                )
                assert len(page.rows) <= page_size
                paged.extend(page.rows)
                if page.continuation is None:
                    break
                # the wire form: what a client hands back is JSON
                continuation = json.loads(json.dumps(page.continuation))
            assert _values(paged) == _values(rows)

    def test_disconnected_pattern_pairs_across_partitions(self, shards):
        graph = shards.graph
        pairs = graph.label_count("Malware") * graph.label_count("ThreatActor")
        rows = shards.cypher.run(self.QUERIES["disconnected-count"])
        assert _values(rows) == [{"pairs": pairs}]

    def test_blocking_query_pages_scan_once(self, monkeypatch):
        clock = clock_from_name("virtual")
        obs = make_obs(clock)
        shards = ShardSet(3, obs=obs, clock=clock)
        shards.store(_linked_records())
        scans = []
        original = PropertyGraph.node_ids
        monkeypatch.setattr(
            PropertyGraph,
            "node_ids",
            lambda graph, label=None: scans.append(label) or original(graph, label),
        )
        query = "MATCH (m:Malware) RETURN m.name AS name ORDER BY name"
        pages, continuation = 0, None
        while True:
            page = shards.cypher.run_paginated(query, 2, continuation=continuation)
            pages += 1
            continuation = page.continuation
            if continuation is None:
                break
        assert pages > 2
        # page 1 drains and sorts; later pages resume the sorted rows
        assert scans == ["Malware"] * len(shards.partitions)
        slices = [s for s in obs.tracer.export() if s["name"] == "cypher.slice"]
        assert len(slices) == pages
        shards.close()


# -- search / fusion / stats over N partitions --------------------------------


class TestShardSetReads:
    def test_search_merges_with_canonical_order(self):
        shards = ShardSet(3)
        shards.store(_batch(24))
        hits = shards.search("report", limit=8)
        assert len(hits) == 8
        keys = [(-hit.score, hit.doc_id) for hit in hits]
        assert keys == sorted(keys)
        shards.close()

    def test_stats_aggregates_and_breaks_down(self):
        shards = ShardSet(3)
        shards.store(_batch(24))
        stats = shards.stats()
        assert [p["partition"] for p in stats["partitions"]] == [0, 1, 2]
        assert stats["nodes"] == sum(
            p["nodes"] for p in stats["partitions"]
        )
        assert sum(p["reports_ingested"] for p in stats["partitions"]) == 24
        assert sum(stats["labels"].values()) == stats["nodes"]
        shards.close()

    def test_fusion_scans_every_partition(self):
        shards = ShardSet(2)
        records = _batch(8)
        # alias pairs on both partitions: fusion should fold each pair
        for index, record in enumerate(records):
            record.mentions.append(
                Mention(record.mentions[0].text.upper(), EntityType.MALWARE)
            )
        shards.store(records)
        report = shards.fuse()
        assert report.nodes_before >= report.nodes_after
        assert report.merged_groups == sorted(report.merged_groups)
        shards.close()


# -- the SecurityKG facade --------------------------------------------------


WORKLOAD = dict(
    scenario_count=6,
    reports_per_site=2,
    sources=["ThreatPedia", "MalwareBulletin"],
    clock="virtual",
    seed=7,
)


class TestShardedSecurityKG:
    def test_run_once_with_partitions(self):
        kg = SecurityKG(SystemConfig(partitions=3, **WORKLOAD))
        report = kg.run_once()
        assert report.reports_stored > 0
        stats = kg.stats()
        assert len(stats["partitions"]) == 3
        assert stats["nodes"] == kg.graph.node_count
        assert kg.keyword_search("malware", limit=3)
        rows = kg.cypher("MATCH (m:Malware) RETURN m.name ORDER BY m.name")
        assert rows
        kg.run_fusion()
        kg.close()

    def test_sharded_matches_single_partition_graph(self):
        single = SecurityKG(SystemConfig(partitions=1, **WORKLOAD))
        sharded = SecurityKG(SystemConfig(partitions=3, **WORKLOAD))
        single.run_once()
        sharded.run_once()

        def canonical(graph):
            # Entities mentioned by reports anchored on several
            # partitions legitimately exist as one copy per partition,
            # so compare the *set* of logical nodes and edges.
            def ident(node_id):
                node = graph.node(node_id)
                return (node.label, node.properties.get("name", ""))

            nodes = {ident(node.node_id) for node in graph.nodes()}
            edges = {
                (ident(edge.src), edge.type, ident(edge.dst))
                for edge in graph.edges()
            }
            return nodes, edges

        assert canonical(sharded.graph) == canonical(single.graph)
        single.close()
        sharded.close()

    def test_persistent_sharded_state_reopens(self, tmp_path):
        config = SystemConfig(
            partitions=2, storage_path=str(tmp_path), **WORKLOAD
        )
        kg = SecurityKG(config)
        first = kg.run_once()
        kg.checkpoint()
        kg.close()
        assert (tmp_path / "partition-0").is_dir()
        assert (tmp_path / "partition-1").is_dir()
        reopened = SecurityKG(SystemConfig(
            partitions=2, storage_path=str(tmp_path), **WORKLOAD
        ))
        # everything already crawled and ingested: nothing new
        second = reopened.run_once()
        assert second.reports_stored == 0
        assert reopened.stats()["nodes"] == kg.stats()["nodes"]
        reopened.close()
        assert first.reports_stored > 0


class TestPartitionCountGuard:
    """A storage directory reopens only with the count that wrote it."""

    @staticmethod
    def _write(root, partitions):
        shards = ShardSet(partitions, root=root)
        shards.store(_batch(12))
        nodes = shards.stats()["nodes"]
        shards.close()
        return nodes

    @pytest.mark.parametrize("written, reopened", [(2, 1), (1, 2), (2, 4)])
    def test_other_count_is_refused_before_any_engine_opens(
        self, tmp_path, written, reopened
    ):
        nodes = self._write(tmp_path, written)
        before = sorted(p.name for p in tmp_path.rglob("*"))
        with pytest.raises(StorageError, match=f"partitions={written}"):
            ShardSet(reopened, root=tmp_path)
        # nothing was created or replayed by the refused open
        assert sorted(p.name for p in tmp_path.rglob("*")) == before
        again = ShardSet(written, root=tmp_path)
        assert again.stats()["nodes"] == nodes
        assert again.store(_batch(12)).stored == 0  # markers intact
        again.close()

    @pytest.mark.parametrize("partitions", [1, 3])
    def test_fresh_and_empty_directories_are_accepted(self, tmp_path, partitions):
        (tmp_path / "empty").mkdir()
        for root in (tmp_path / "absent", tmp_path / "empty"):
            shards = ShardSet(partitions, root=root)
            assert shards.stats()["nodes"] == 0
            shards.close()

    def test_single_partition_keeps_the_flat_layout(self, tmp_path):
        self._write(tmp_path, 1)
        assert (tmp_path / "MANIFEST").is_file()
        assert not list(tmp_path.glob("partition-*"))


# -- CLI --------------------------------------------------------------------


class TestShardingCLI:
    def test_partition_mismatch_exits_with_message(self, tmp_path):
        from repro.cli import main

        small = ["--clock", "virtual", "--scenarios", "6",
                 "--reports-per-site", "2", "--state", str(tmp_path)]
        assert main(["run", "--partitions", "2", *small], out=StringIO()) == 0
        out = StringIO()
        assert main(["stats", "--partitions", "2", *small], out=out) == 0
        assert "0 nodes" not in out.getvalue()
        out = StringIO()
        code = main(["stats", *small], out=out)  # default count: 1
        assert code == 2
        assert "partitions=2" in out.getvalue()
        assert "Traceback" not in out.getvalue()

    @pytest.mark.parametrize("count", ["0", "-2", "two"])
    def test_partitions_below_one_is_a_usage_error(self, count, capsys, tmp_path):
        """Exit 2 and no traceback either way: argparse refuses a count
        that is not an integer, the config check one below 1."""
        from repro.cli import main

        out, state = StringIO(), tmp_path / "state"
        argv = ["stats", "--partitions", count, "--state", str(state)]
        if count == "two":
            with pytest.raises(SystemExit) as exit_info:
                main(argv, out=out)
            assert exit_info.value.code == 2
            assert "--partitions" in capsys.readouterr().err
        else:
            assert main(argv, out=out) == 2
            assert out.getvalue() == (
                f"config error: partitions must be at least 1, got {count}\n"
            )
        assert "Traceback" not in out.getvalue() + capsys.readouterr().err
        assert not state.exists()

    def test_partitions_flag_overrides_config_file(self, tmp_path):
        from repro.cli import main

        config = tmp_path / "config.json"
        config.write_text(SystemConfig(partitions=2, clock="virtual").to_json())
        state = tmp_path / "state"
        small = ["--config", str(config), "--state", str(state),
                 "--scenarios", "4", "--reports-per-site", "1"]
        assert main(["run", *small, "--partitions", "1"], out=StringIO()) == 0
        assert not list(state.glob("partition-*"))
        out = StringIO()
        assert main(["stats", *small], out=out) == 2  # the file's count: 2
        assert "partitions=1" in out.getvalue()

    def test_run_and_by_partition_drilldown(self, tmp_path):
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        out = StringIO()
        code = main(
            [
                "run", "--clock", "virtual", "--partitions", "2",
                "--scenarios", "6", "--reports-per-site", "2",
                "--trace", str(trace),
            ],
            out=out,
        )
        assert code == 0, out.getvalue()
        out = StringIO()
        code = main(
            ["profile", "--from-trace", str(trace), "--by-partition"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "partition" in text
        out = StringIO()
        code = main(
            [
                "profile", "--from-trace", str(trace), "--by-partition",
                "--json",
            ],
            out=out,
        )
        assert code == 0
        payload = json.loads(out.getvalue())
        assert set(payload) == {"0", "1"}
        assert all("stored" in entry for entry in payload.values())


# -- label / property-key interning -----------------------------------------


class TestInterning:
    def test_labels_and_property_keys_are_interned(self):
        graph = PropertyGraph()
        label = "Mal" + "ware"  # a fresh, non-interned string
        key = "na" + "me"
        node = graph.create_node(label, {key: "sample"})
        assert node.label is sys.intern("Malware")
        assert all(k is sys.intern(k) for k in node.properties)
        other = graph.create_node("Mal" + "ware", {"na" + "me": "second"})
        assert other.label is node.label

    def test_restored_nodes_intern_too(self):
        graph = PropertyGraph()
        graph.restore_node(7, "Thr" + "eatActor", {"na" + "me": "actor"})
        node = graph.node(7)
        assert node.label is sys.intern("ThreatActor")
        assert all(k is sys.intern(k) for k in node.properties)
