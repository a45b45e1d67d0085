"""The SecurityKG facade: the whole system behind one object.

Wires the four lifecycle stages of paper Figure 1 -- collection
(crawler framework), processing (porter / checker / parsers /
extractors on the parallel pipeline), storage (connectors), and
applications (Cypher, keyword search, graph exploration) -- plus the
off-pipeline knowledge-fusion stage.

>>> from repro.core.system import SecurityKG
>>> from repro.core.config import SystemConfig
>>> kg = SecurityKG(SystemConfig(reports_per_site=2, scenario_count=5,
...                              sources=["ThreatPedia"]))
>>> report = kg.run_once()
>>> report.reports_stored
2
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from repro.connectors.base import IngestStats
from repro.core.checker import Checker, make_min_text_check, default_checks
from repro.core.config import SystemConfig
from repro.core.extractor import Extractor, ExtractorPool
from repro.core.parsers import ParserDispatch
from repro.core.pipeline import Pipeline, Stage
from repro.core.porter import Porter
from repro.crawlers.engine import CrawlEngine, CrawlResult
from repro.crawlers.fetcher import Fetcher
from repro.crawlers.sources import build_all_crawlers
from repro.feeds import FeedPublisher
from repro.fusion.fuse import FusionReport, KnowledgeFusion
from repro.graphdb.cypher.executor import ResultRow
from repro.nlp.baselines import GazetteerRecognizer, RegexRecognizer
from repro.obs import NO_OBS, Obs, make_obs
from repro.obs.health import HealthEngine
from repro.ontology.intermediate import CTIRecord, ReportRecord
from repro.runtime import Clock, clock_from_name
from repro.search.index import SearchHit
from repro.sharding import ShardSet, ShardedCrawlState
from repro.websim.network import SimulatedTransport
from repro.websim.scenario import generate_report_content, make_scenarios
from repro.websim.sites import Web, build_default_web


@dataclass
class SystemReport:
    """What one collection/processing/storage cycle accomplished."""

    crawl: CrawlResult
    reports_ported: int = 0
    reports_rejected: int = 0
    reports_stored: int = 0
    reports_skipped: int = 0
    rejection_reasons: dict[str, int] = field(default_factory=dict)
    ingest: dict[str, IngestStats] = field(default_factory=dict)
    pipeline_elapsed: float = 0.0
    pipeline_errors: list[tuple[str, str]] = field(default_factory=list)
    #: metrics snapshot taken at the end of the cycle (empty shape when
    #: the system runs with the default no-op observability bundle)
    metrics: dict = field(default_factory=dict)
    #: health report from the online health engine (None when disabled)
    health: dict | None = None

    @property
    def reports_per_minute(self) -> float:
        return self.crawl.reports_per_minute

    def describe(self) -> str:
        """Human-readable one-cycle summary."""
        lines = [
            f"crawled {self.crawl.article_count} reports "
            f"({self.crawl.pages_fetched} pages) in {self.crawl.elapsed:.2f}s",
            f"ported {self.reports_ported}, rejected {self.reports_rejected} "
            f"{dict(self.rejection_reasons)}",
            f"processed + stored {self.reports_stored} reports in "
            f"{self.pipeline_elapsed:.2f}s",
        ]
        if self.reports_skipped:
            lines.append(
                f"skipped {self.reports_skipped} already-ingested reports"
            )
        for name, stats in self.ingest.items():
            lines.append(
                f"  {name}: +{stats.entities_created} entities "
                f"({stats.entities_merged} merged), "
                f"+{stats.relations_created} relations "
                f"({stats.relations_merged} merged)"
            )
        return "\n".join(lines)


class SecurityKG:
    """Automated OSCTI gathering and management.

    Parameters
    ----------
    config:
        Deployment configuration (see :class:`SystemConfig`).
    web:
        The web to crawl.  Defaults to the simulated OSCTI web shaped
        by the configuration; a different ``Web`` (or one with a real
        transport behind it) can be injected.
    recognizer:
        Pre-built entity recogniser; overrides ``config.recognizer``.
    clock:
        Pre-built runtime clock; overrides ``config.clock``.  One clock
        flows to the transport, crawl engine and pipeline so the whole
        deployment shares a single notion of time.
    faults:
        Optional :class:`~repro.storage.CrashInjector` forwarded to the
        storage engine (recovery tests and the E18 benchmark).
    obs:
        Observability bundle (tracer + metrics registry) threaded
        through every layer -- crawl engine, pipeline, extractor,
        storage engine, connectors.  Defaults to the no-op
        :data:`~repro.obs.NO_OBS`; build a live one with
        :func:`repro.obs.make_obs`, sharing this system's clock so
        spans land on the same timeline as the work they measure.
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        web: Web | None = None,
        recognizer=None,
        clock: Clock | None = None,
        faults=None,
        obs: Obs | None = None,
    ):
        self.config = config or SystemConfig()
        self.clock = (
            clock if clock is not None else clock_from_name(self.config.clock)
        )
        self.obs = obs if obs is not None else NO_OBS
        self.health: HealthEngine | None = None
        if self.config.health:
            if not self.obs.enabled:
                # the health engine tails spans and metrics; silently
                # evaluating nothing would be worse than upgrading
                self.obs = make_obs(self.clock)
            self.health = HealthEngine.from_config(
                self.config.health_rules,
                clock=self.clock,
                obs=self.obs,
                interval=self.config.health_interval,
                start=self.clock.now(),
            )
            self.obs.tracer.on_finish = self.health.observe_span
        self.web = web or build_default_web(
            scenario_count=self.config.scenario_count,
            reports_per_site=self.config.reports_per_site,
            seed=self.config.seed,
        )
        self.transport = SimulatedTransport(
            self.web,
            failure_rate=self.config.failure_rate,
            time_scale=self.config.time_scale,
            clock=self.clock,
        )
        self.extractor = Extractor(
            recognizer=recognizer or self._build_recognizer(),
            min_confidence=self.config.recognizer_min_confidence,
            obs=self.obs,
        )
        # extract_workers > 1 forks them here: before the ShardSet opens
        # a file and before any thread of this system starts, so a child
        # inherits no descriptor and no lock another thread holds
        workers = self.config.extract_workers
        self.extract_pool = (
            ExtractorPool(self.extractor, workers) if workers > 1 else None
        )
        # The one deployment shape: N >= 1 partitions, each a complete
        # storage engine (in memory without a storage_path), one store
        # worker per partition, one graph view for every read path.
        try:
            self.shards = ShardSet(
                self.config.partitions,
                root=self.config.storage_path,
                connectors=self.config.connectors,
                faults=faults,
                obs=self.obs,
                clock=self.clock,
            )
        except BaseException:
            self._close_pool()
            raise
        self.state = ShardedCrawlState(self.shards)
        # Partition 0's own objects -- with one partition, the whole
        # deployment.  Fault injection and feed snapshots live there.
        first = self.shards.partitions[0]
        self.engine = first.engine
        self.database = first.database
        self.connectors = first.connectors
        self.porter = Porter()
        checks = default_checks()
        checks[1] = make_min_text_check(self.config.checker_min_chars)
        self.checker = Checker(checks)
        self.parsers = ParserDispatch()
        self.fusion = KnowledgeFusion()
        # Dissemination: one TLP-tiered feed publisher over the whole
        # graph.  Its change stamp rides the journal seq numbers; its
        # snapshots ride partition 0's checkpoint cycle
        # (ShardSet.checkpoint visits it first, so a crash there leaves
        # the remaining partitions untouched, matching the E21
        # isolation story).
        feed_path = (
            None
            if self.config.storage_path is None
            else Path(self.config.storage_path) / "feeds"
        )
        self.feeds = FeedPublisher(
            graph_source=lambda: self.graph,
            stamp_source=self.shards.feed_stamp,
            keys=self.config.feed_keys,
            path=feed_path,
            history=self.config.feed_history,
            obs=self.obs,
        )
        self.engine.add_checkpoint_step(self.feeds.snapshot)
        self._last_skipped = 0
        self._last_rejected: dict[str, int] = {}

    # -- wiring ----------------------------------------------------------

    def _build_recognizer(self):
        choice = self.config.recognizer
        if choice == "gazetteer":
            return GazetteerRecognizer()
        if choice == "regex":
            return RegexRecognizer()
        if choice == "crf":
            from repro.nlp.ner import EntityRecognizer

            scenarios = make_scenarios(
                self.config.crf_training_scenarios,
                seed=self.config.seed + 4,
                known_only=True,
            )
            texts = []
            for scenario in scenarios:
                for k in range(2):
                    content = generate_report_content(
                        scenario,
                        random.Random(f"train-{scenario.scenario_id}-{k}"),
                        sentence_count=8,
                    )
                    texts.append(
                        " ".join(gs.text for gs in content.truth.sentences)
                    )
            return EntityRecognizer.train(
                texts, max_iterations=self.config.crf_max_iterations
            )
        raise ValueError(f"unknown recognizer {self.config.recognizer!r}")

    # -- the lifecycle ---------------------------------------------------------

    @property
    def graph(self):
        """The knowledge graph -- one partition's live graph, or the
        live read-only union of several (see :attr:`ShardSet.graph`)."""
        return self.shards.graph

    def crawl(self, max_articles: int | None = None) -> CrawlResult:
        """Collection stage: run the crawler framework once."""
        crawlers = build_all_crawlers(self.config.sources)
        engine = CrawlEngine(
            crawlers,
            Fetcher(self.transport, obs=self.obs),
            num_threads=self.config.crawl_threads,
            state=self.state,
            max_articles=max_articles or self.config.max_articles,
            clock=self.clock,
            obs=self.obs,
            health=self.health,
        )
        return engine.crawl()

    def process(self, reports: list[ReportRecord]) -> tuple[list[CTIRecord], object]:
        """Processing stage: checker -> parsers -> extractors, pipelined.

        The check stage is the cycle's one check; ``run_once`` reports
        what it rejected (``pipeline.reports_rejected``, by reason).
        """
        # the check stage has one worker, so only that thread counts
        rejected = self._last_rejected = {}

        def check(record: ReportRecord):
            reason = self.checker.why_rejected(record)
            if reason is None:
                return record
            rejected[reason] = rejected.get(reason, 0) + 1
            self.obs.metrics.inc("pipeline.reports_rejected", reason=reason)
            return None

        if self.extract_pool is None:
            extract = Stage("extract", self.extractor.extract)
        else:  # the stage's one thread only submits to the processes
            extract = Stage(
                "extract", self.extract_pool.submit, settle=self.extractor.emit
            )
        pipeline = Pipeline(
            [
                Stage("check", check, workers=1),
                Stage("parse", self.parsers.parse, workers=self.config.parse_workers),
                extract,
            ],
            clock=self.clock,
            obs=self.obs,
            item_key=lambda item: getattr(item, "report_id", None),
        )
        # outputs are in input order, so what the store does with them
        # (which mention first creates a shared node, every node id)
        # does not depend on thread timing
        result = pipeline.run(reports)
        return result.outputs, result

    def store(self, records: list[CTIRecord]) -> dict[str, IngestStats]:
        """Storage stage: one atomic cross-store commit per report.

        Each report's graph mutations, search-index docs, SQL rows,
        *and* its seen-URL delta land in one engine transaction with an
        ingest marker, so replaying the same input after a crash is
        exactly-once: already-marked reports are skipped (counted in
        ``SystemReport.reports_skipped``), unmarked ones re-ingest.
        Leftover staged crawl state (rejected reports' URLs, crawl
        timestamps) is flushed at the end of the batch.

        The batch fans out to one worker per partition, each committing
        to its own engine (see :meth:`ShardSet.store`).
        """
        with self.obs.tracer.span("store", records=len(records)) as span:
            outcome = self.shards.store(records, parent_span=span)
        self.obs.metrics.inc("storage.reports_skipped", outcome.skipped)
        self._last_skipped = outcome.skipped
        return outcome.ingest

    def run_once(self, max_articles: int | None = None) -> SystemReport:
        """One full collect -> process -> store cycle."""
        with self.obs.tracer.span("run") as run_span:
            crawl_result = self.crawl(max_articles=max_articles)
            ported = self.porter.port(crawl_result.documents)
            records, pipeline_result = self.process(ported)
            ingest = self.store(records)
            reasons = self._last_rejected
            skipped = self._last_skipped
            self._update_graph_gauges()
            run_span.set("reports_stored", len(records) - skipped)
            health_report = None
            if self.health is not None:
                # end-of-cycle verdict spans nest under this run span
                previous_parent = self.health.bind_parent(run_span)
                health_report = self.health.finalize(self.clock.now())
                self.health.bind_parent(previous_parent)
        return SystemReport(
            crawl=crawl_result,
            reports_ported=len(ported),
            reports_rejected=sum(reasons.values()),
            reports_stored=len(records) - skipped,
            reports_skipped=skipped,
            rejection_reasons=reasons,
            ingest=ingest,
            pipeline_elapsed=pipeline_result.elapsed,
            pipeline_errors=list(pipeline_result.errors),
            metrics=self.obs.metrics.snapshot(),
            health=health_report,
        )

    def run_fusion(self) -> FusionReport:
        """Off-pipeline knowledge fusion over the stored graph."""
        with self.obs.tracer.span("fuse") as span:
            report = self.shards.fuse(self.fusion)
            span.set("groups_merged", report.groups_merged)
        self.obs.metrics.inc("fusion.groups_merged", report.groups_merged)
        self.obs.metrics.inc("fusion.aliases_resolved", report.aliases_resolved)
        self._update_graph_gauges()
        return report

    def _update_graph_gauges(self) -> None:
        """Refresh the graph-size gauges (skipped when metrics are off)."""
        metrics = self.obs.metrics
        if not metrics.enabled:
            return
        stats = self.shards.stats()
        metrics.set_gauge("graph.nodes", stats["nodes"])
        metrics.set_gauge("graph.edges", stats["edges"])
        for label, count in stats["labels"].items():
            metrics.set_gauge("graph.nodes_by_label", count, label=label)
        for edge_type, count in stats["edge_types"].items():
            metrics.set_gauge("graph.edges_by_type", count, type=edge_type)
        for entry in stats["partitions"]:
            partition = str(entry["partition"])
            metrics.set_gauge("graph.nodes", entry["nodes"], partition=partition)
            metrics.set_gauge("graph.edges", entry["edges"], partition=partition)

    # -- applications -----------------------------------------------------------

    def cypher(self, query: str, strict: bool | None = None) -> list[ResultRow]:
        """Cypher search over the knowledge graph (the Neo4j path).

        Queries are semantically analyzed before execution by default;
        ``strict=False`` skips the analysis for exploratory queries.
        """
        return self.shards.cypher.run(query, strict=strict)

    def cypher_paginated(
        self,
        query: str,
        page_size: int,
        continuation: dict | None = None,
        strict: bool | None = None,
    ):
        """One page of a Cypher result plus a resume continuation.

        Executes preemptably -- the underlying scans stop once the page
        is full and the returned
        :class:`~repro.graphdb.cypher.executor.CypherPage` carries a
        JSON-safe continuation resuming exactly after the last row.
        """
        return self.shards.cypher.run_paginated(
            query, page_size, continuation=continuation, strict=strict
        )

    def cypher_profile(
        self,
        query: str,
        strict: bool | None = None,
        step_cost: float = 0.0,
    ):
        """Execute a Cypher query with per-operator instrumentation.

        Returns a :class:`~repro.graphdb.cypher.executor.QueryProfile`
        whose rows are identical to :meth:`cypher` output and whose
        operator counters (rows, ``next()`` calls, cumulative/self
        seconds on the injected clock) annotate the physical plan, the
        same operator chain at every partition count.
        """
        return self.shards.cypher.profile(query, strict=strict, step_cost=step_cost)

    def keyword_search(self, query: str, limit: int = 10) -> list[SearchHit]:
        """Keyword search over collected reports (the Elasticsearch path)."""
        return self.shards.search(query, limit=limit)

    def health_report(self) -> dict:
        """The health engine's current canonical report.

        No evaluation is forced here, so after ``run_once`` the
        endpoint serves byte-for-byte the same JSON that
        ``run --health-out`` persisted for the cycle.
        """
        if self.health is None:
            return {"enabled": False}
        return self.health.report()

    def stats(self) -> dict[str, object]:
        """Knowledge-graph size summary with a per-partition
        ``"partitions"`` breakdown."""
        return self.shards.stats()

    # -- lifecycle --------------------------------------------------------

    def checkpoint(self) -> None:
        """Compact every partition's storage journal."""
        self.shards.checkpoint()

    def close(self) -> None:
        """End the extractor processes; release storage (flushing staged state)."""
        self._close_pool()
        self.shards.close()

    def _close_pool(self) -> None:
        if self.extract_pool is not None:
            self.extract_pool.close()

    def __enter__(self) -> "SecurityKG":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


__all__ = ["SecurityKG", "SystemReport"]
