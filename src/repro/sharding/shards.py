"""N >= 1 storage partitions behind one store/search/fusion facade.

This is the only deployment shape: a :class:`ShardSet` of one is the
whole of a single-host system, and more partitions are more of the
same.  Each :class:`ShardPartition` is a complete vertical slice of the
storage stage: its own :class:`~repro.storage.engine.StorageEngine`
(journal, snapshot/manifest generations, checkpoint cycle, ingest
markers, crash points; in memory when no path is given) with its own
graph / search-index / crawl-state (and optionally SQL) participants
and connectors.  The :class:`ShardSet` owns N of them plus the
:class:`~repro.sharding.router.ShardRouter` that decides placement, and
exposes the operations every facade layer builds on:

* ``store()`` fans a record batch out to one writer thread per
  partition; each writer commits its records to *its* engine only, so a
  crash injected on one partition loses in-flight work on that shard
  alone while the others run to completion (the E21 isolation claim);
* ``search()`` / ``fuse()`` / ``stats()`` scan every partition and
  merge with a canonical ordering, so seeded virtual-clock runs stay
  byte-identical no matter how the OS scheduled the workers;
* ``graph`` is the one knowledge graph every reader sees, and
  ``cypher`` the one :class:`~repro.graphdb.cypher.executor.CypherEngine`
  over it.

Graph ids are globally unique: partition ``i`` hands out ids from
``i * 2**40 + 1``, so the partitions' graphs read as one
(:class:`~repro.sharding.union.GraphUnion`) without renumbering.

Everything that depends on the partition *count* is decided here and
nowhere else, from ``len(partitions)``: the directory layout
(:func:`partition_paths`) and :attr:`ShardSet.graph` (the live graph of
a single partition, the live union view of several).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.connectors.base import Connector, IngestStats
from repro.connectors.graph import GraphConnector
from repro.connectors.searchconn import SearchConnector
from repro.connectors.sql import SQLConnector, SQLParticipant
from repro.crawlers.state import CrawlParticipant, CrawlState
from repro.fusion.fuse import FusionReport, KnowledgeFusion
from repro.graphdb.cypher import ast
from repro.graphdb.cypher.executor import CypherEngine
from repro.graphdb.store import PropertyGraph
from repro.graphdb.wal import GraphDatabase, GraphParticipant
from repro.obs import NO_OBS, Obs
from repro.ontology.intermediate import CTIRecord
from repro.runtime import Clock, clock_from_name, named_lock
from repro.search.index import SearchHit, SearchIndexParticipant
from repro.sharding.router import ShardRouter
from repro.sharding.union import ID_STRIDE, GraphUnion
from repro.storage.engine import StorageEngine, StorageError


def partition_paths(root: str | Path | None, count: int) -> list[Path | None]:
    """The on-disk layout rule: one engine directory per partition.

    A single partition keeps its engine files directly under ``root``;
    several live in ``root/partition-<i>``.  A directory written with a
    different count is refused before any engine opens it -- reopening
    it would either see an empty store or re-route every record past
    the ingest markers that make replay exactly-once.  An empty or
    absent directory is a fresh store at any count.
    """
    if root is None:
        return [None] * count
    root = Path(root)
    sharded = len(list(root.glob("partition-*")))
    flat = (root / StorageEngine.MANIFEST).exists()
    mismatch = sharded if count == 1 else (flat or sharded not in (0, count))
    if mismatch:
        raise StorageError(
            f"{root} holds a store written with partitions={sharded or 1}; "
            f"it cannot be opened with partitions={count}"
        )
    if count == 1:
        return [root]
    return [root / f"partition-{index}" for index in range(count)]


class ShardWorkerStats:
    """Per-partition ingest counters behind that partition's own lock.

    The ``shard.<n>.stats`` locks are the per-partition tier of the
    lock hierarchy: the analyzer records the family as the single
    canonical name ``shard.*.stats``, and the runtime witness allows
    same-family nesting only in ascending instance order.
    """

    def __init__(self, index: int):
        self.index = index
        self._lock = named_lock(f"shard.{index}.stats")
        self.stored = 0
        self.skipped = 0

    def record(self, stored: int = 0, skipped: int = 0) -> None:
        with self._lock:
            self.stored += stored
            self.skipped += skipped

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {"stored": self.stored, "skipped": self.skipped}


@dataclass
class ShardStoreOutcome:
    """What one (possibly partial) store fan-out accomplished."""

    ingest: dict[str, IngestStats] = field(default_factory=dict)
    stored: int = 0
    skipped: int = 0


class ShardPartition:
    """One shard: engine + participants + connectors."""

    def __init__(
        self,
        index: int,
        path: str | Path | None,
        connector_names: list[str],
        faults=None,
        obs: Obs = NO_OBS,
    ):
        self.index = index
        participants = [
            GraphParticipant(id_base=index * ID_STRIDE),
            SearchIndexParticipant(),
            CrawlParticipant(),
        ]
        if "sql" in connector_names:
            participants.append(SQLParticipant())
        self.engine = StorageEngine(path, participants, faults=faults, obs=obs)
        self.database = GraphDatabase(engine=self.engine)
        self.state = CrawlState(engine=self.engine)
        self.search_index = self.engine.participant(
            SearchIndexParticipant.name
        ).index
        self.connectors: dict[str, Connector] = {}
        for name in connector_names:
            connector = self._build_connector(name)
            connector.obs = obs
            self.connectors[name] = connector
        self.stats = ShardWorkerStats(index)

    def _build_connector(self, name: str) -> Connector:
        if name == "graph":
            return GraphConnector(self.database)
        if name == "search":
            return SearchConnector(engine=self.engine)
        if name == "sql":
            return SQLConnector(engine=self.engine)
        from repro.connectors.base import registry

        return registry.create(name)

    @property
    def graph(self) -> PropertyGraph:
        return self.database.graph


class ShardSet:
    """N partitions behind one store / search / graph / Cypher surface.

    Parameters
    ----------
    partitions:
        Number of shards (>= 1).
    root:
        Storage directory, laid out by :func:`partition_paths`;
        ``None`` keeps every partition in memory.
    connectors:
        Connector names each partition instantiates (same vocabulary as
        ``SystemConfig.connectors``).
    faults:
        Optional :class:`~repro.storage.CrashInjector`, armed on
        partition 0 only -- the deterministic "kill one shard" story
        the E21 isolation benchmark measures.
    clock:
        Runtime clock; store workers register with it so a virtual
        clock advances through modelled commit latency deterministically.
    """

    def __init__(
        self,
        partitions: int,
        root: str | Path | None = None,
        connectors: list[str] | None = None,
        faults=None,
        obs: Obs | None = None,
        clock: Clock | None = None,
    ):
        self.obs = obs if obs is not None else NO_OBS
        self.clock = clock if clock is not None else clock_from_name("real")
        self.router = ShardRouter(partitions)
        self.connector_names = list(
            connectors if connectors is not None else ["graph", "search"]
        )
        self.partitions: list[ShardPartition] = [
            ShardPartition(
                index,
                path,
                self.connector_names,
                faults=faults if index == 0 else None,
                obs=self.obs,
            )
            for index, path in enumerate(partition_paths(root, partitions))
        ]
        #: the knowledge graph: a single partition's live graph, or the
        #: live union view of several
        self.graph: PropertyGraph | GraphUnion = (
            self.partitions[0].graph
            if len(self.partitions) == 1
            else GraphUnion([p.graph for p in self.partitions])
        )
        #: the Cypher entry point: the one engine, over the one graph
        self.cypher = CypherEngine(
            self.graph,
            obs=self.obs,
            clock=self.clock,
            database_for=self._create_database,
        )

    # -- the store fan-out ---------------------------------------------

    def store(
        self,
        records: list[CTIRecord],
        parent_span=None,
        commit_latency: float = 0.0,
    ) -> ShardStoreOutcome:
        """Commit a batch: one writer thread per partition, each committing
        its records in batch order to its own engine only.

        Exactly-once semantics hold per partition: each engine keeps its
        own ingest markers, so a replayed batch skips records its
        partition already owns.  ``commit_latency`` models per-commit I/O
        time on the injected clock (slept *outside* every lock).  Any
        error a writer meets is re-raised, in partition order, once every
        writer has finished -- the surviving partitions' commits are
        already durable, but the batch flush is skipped, as in a killed
        process.
        """
        groups: list[list[CTIRecord]] = [[] for _ in self.partitions]
        for record in records:
            groups[self.router.partition_for_record(record)].append(record)
        results: list[ShardStoreOutcome | None] = [None] * len(self.partitions)
        errors: list[Exception | None] = [None] * len(self.partitions)
        barrier = threading.Barrier(len(self.partitions))
        threads = [
            threading.Thread(
                target=self._store_worker,
                args=(
                    partition, groups[partition.index], parent_span, barrier,
                    commit_latency, results, errors,
                ),
                name=f"shard-worker-{partition.index}",
                daemon=True,
            )
            for partition in self.partitions
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for error in errors:
            if error is not None:
                raise error
        for partition in self.partitions:
            partition.engine.flush()
        merged = ShardStoreOutcome(
            ingest={name: IngestStats() for name in self.connector_names}
        )
        for result in results:
            for name, stats in result.ingest.items():
                merged.ingest[name] += stats
            merged.stored += result.stored
            merged.skipped += result.skipped
        return merged

    def _store_worker(
        self, partition, records, parent, barrier, commit_latency,
        results, errors,
    ) -> None:
        index = partition.index
        totals = {name: IngestStats() for name in partition.connectors}
        stored = skipped = 0
        try:
            with self.clock.worker():
                # every worker must be registered before any of them
                # sleeps, or the virtual clock would advance early
                barrier.wait()
                with self.obs.tracer.span(
                    "store.shard", parent=parent, partition=index
                ) as span:
                    for record in records:
                        if partition.engine.is_ingested(record.report_id):
                            skipped += 1
                            continue
                        with partition.engine.transaction() as tx:
                            for name, connector in partition.connectors.items():
                                totals[name] += connector.ingest_one(record)
                            tx.adopt_staged(CrawlParticipant.name, [record.url])
                            tx.mark_ingested(record.report_id)
                        stored += 1
                        if commit_latency > 0.0:
                            self.clock.sleep(commit_latency)
                    span.set("stored", stored)
                    span.set("skipped", skipped)
        except Exception as error:  # noqa: BLE001 - re-raised by store()
            errors[index] = error
        partition.stats.record(stored=stored, skipped=skipped)
        self.obs.metrics.inc("shard.reports_stored", stored, partition=str(index))
        self.obs.metrics.inc("shard.reports_skipped", skipped, partition=str(index))
        results[index] = ShardStoreOutcome(
            ingest=totals, stored=stored, skipped=skipped
        )

    # -- reads over every partition --------------------------------------

    def search(self, query: str, limit: int = 10) -> list[SearchHit]:
        """Keyword search over every partition's index, merged by
        ``(-score, doc_id)``.

        BM25 statistics (document frequencies, average lengths) are
        per-partition, so scores are a local approximation of the
        single-index ranking -- the standard distributed-search
        trade-off.  The merge order itself is canonical.
        """
        if "search" not in self.connector_names:
            raise RuntimeError("the 'search' connector is not configured")
        hits: list[SearchHit] = []
        for partition in self.partitions:
            hits.extend(partition.search_index.search(query, limit=limit))
        hits.sort(key=lambda hit: (-hit.score, hit.doc_id))
        return hits[:limit]

    def fuse(self, fusion: KnowledgeFusion | None = None) -> FusionReport:
        """Knowledge fusion partition by partition (entities co-locate
        by anchor hash, so merge candidates are overwhelmingly local),
        one journaled transaction each: re-running the idempotent pass
        heals a crash between partitions.  The per-partition reports are
        summed and group lists sorted for a canonical merged report."""
        fusion = fusion if fusion is not None else KnowledgeFusion()
        merged = FusionReport()
        groups: list[list[str]] = []
        for partition in self.partitions:
            report = fusion.run(partition.database)
            merged.nodes_before += report.nodes_before
            merged.nodes_after += report.nodes_after
            merged.groups_merged += report.groups_merged
            merged.aliases_resolved += report.aliases_resolved
            groups.extend(report.merged_groups)
        merged.merged_groups = sorted(groups)
        return merged

    def stats(self) -> dict[str, object]:
        """Aggregate graph statistics plus a per-partition breakdown."""
        per_partition: list[dict[str, object]] = []
        for partition in self.partitions:
            per_partition.append(
                {
                    "partition": partition.index,
                    "nodes": partition.graph.node_count,
                    "edges": partition.graph.edge_count,
                    "reports_ingested": partition.engine.ingested_count,
                }
            )
        graph = self.graph
        return {
            "nodes": graph.node_count,
            "edges": graph.edge_count,
            "labels": graph.label_counts(),
            "edge_types": graph.edge_type_counts(),
            "partitions": per_partition,
        }

    def _create_database(self, query: ast.CreateQuery) -> GraphDatabase:
        """Where a Cypher CREATE is journaled: the partition owning its
        first node's entity key (deterministic; partition 0 when
        nameless).  One CREATE writes one partition, so its edges never
        cross."""
        first = query.paths[0].nodes[0]
        props = dict(first.properties)
        name = props.get("name") or props.get("merge_key")
        owner = 0
        if isinstance(name, str) and name:
            owner = self.router.partition_for_entity(first.label or "Node", name)
        return self.partitions[owner].database

    def merged_graph(self) -> PropertyGraph:
        """A detached union copy of the graph, for offline use and as
        the reference the tests compare the live view against.  Node ids
        are preserved verbatim -- the per-partition id ranges are
        disjoint -- and mutations do not write back to any partition."""
        merged = PropertyGraph()
        for partition in self.partitions:
            graph = partition.graph
            for node in graph.nodes():
                merged.restore_node(node.node_id, node.label, node.properties)
            for edge in graph.edges():
                merged.create_edge(edge.src, edge.type, edge.dst, edge.properties)
        return merged

    def feed_stamp(self) -> tuple[int, ...]:
        """Cheap change stamp for the feed publisher: each partition's
        journal ``last_seq``, in partition order (every graph change is
        a commit).  Deterministic for seeded runs, so feed deltas are
        too."""
        return tuple(partition.engine.last_seq for partition in self.partitions)

    # -- ingest markers -------------------------------------------------

    def is_ingested(self, report_id: str) -> bool:
        return any(p.engine.is_ingested(report_id) for p in self.partitions)

    @property
    def ingested_count(self) -> int:
        return sum(p.engine.ingested_count for p in self.partitions)

    def ingested_ids(self) -> list[str]:
        ids: set[str] = set()
        for partition in self.partitions:
            ids.update(partition.engine.ingested_ids())
        return sorted(ids)

    # -- lifecycle ------------------------------------------------------

    def checkpoint(self) -> None:
        for partition in self.partitions:
            partition.engine.checkpoint()

    def close(self) -> None:
        for partition in self.partitions:
            partition.engine.close()


class ShardedCrawlState:
    """One logical crawl state over N partition-attached states.

    URLs and sources are routed by hash; a URL's partition may differ
    from its eventual report's record partition (records route by
    anchor *entity*), in which case the staged seen-delta becomes
    durable with the batch flush instead of the report's own commit --
    a crash in between simply re-crawls that report, and the ingest
    marker on the owning partition keeps the replay exactly-once.
    """

    def __init__(self, shards: ShardSet):
        self._shards = shards
        self._router = shards.router

    def _state_for(self, key: str) -> CrawlState:
        return self._shards.partitions[self._router.partition_for(key)].state

    def is_seen(self, url: str) -> bool:
        return self._state_for(url).is_seen(url)

    def mark_seen(self, url: str) -> bool:
        return self._state_for(url).mark_seen(url)

    def unmark(self, url: str) -> None:
        self._state_for(url).unmark(url)

    def record_crawl(self, source: str, timestamp: float) -> None:
        self._state_for(source).record_crawl(source, timestamp)

    def last_crawl(self, source: str) -> float | None:
        return self._state_for(source).last_crawl(source)


__all__ = [
    "ID_STRIDE",
    "ShardPartition",
    "ShardSet",
    "ShardStoreOutcome",
    "ShardWorkerStats",
    "ShardedCrawlState",
    "partition_paths",
]
