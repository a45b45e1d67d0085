"""``live_mixed`` -- the same layers used differently: reads beside
writes, sharded and durable.

One round builds a fresh ``SecurityKG(storage_path=<tmp>, partitions=2,
feed_keys=...)`` and, for each small batch of ``corpus_g`` records:
``store(batch)`` -> one cursor-carrying delta pull per tier (``public``,
``partner``, ``internal``) -> two Cypher requests and one search.  Every
commit moves the feed stamp, so the next pull pays a full
``merged_graph()`` + ``export_graph()`` + three ``filter_bundle()``
rebuilds on a growing graph (O(graph) per batch, O(n^2) per round) while
the same pull costs microseconds on ``serve_query``.  A read-side cache
that is cheap on ``serve_query`` but adds invalidation work to commits,
or an incremental feed that helps here but slows static pulls, shows as
one workload up and the other down.  It is also the only workload on
the ``sharding`` scatter-gather paths.
"""

from __future__ import annotations

import json
import random
import shutil

import harness
from harness import Recorder, Tally, disk_bytes, now, percentile
from inputs import base_config, build_corpus, graph_digest
from repro.core.system import SecurityKG
from repro.ontology.stix import export_graph, filter_bundle
from repro.feeds.tlp import TIER_MAX_TLP
from repro.ui.server import ExplorerAPI
from wl_serve_query import AGG2HOP, FEED_KEYS, HEAVY_COMENTION, TIERS, vocabulary

NAME = "live_mixed"
CONNECTORS = ["graph", "search"]
HEADERS = {"X-API-Key": FEED_KEYS["internal"]}
#: the two Cypher requests issued after every commit
QUERIES = (AGG2HOP, HEAVY_COMENTION)


class Context(harness.Context):
    def __init__(self, corpus, size, tmp):
        self.corpus = corpus
        self.size = size
        self.tmp = tmp
        self.corpus_build_s = corpus.build_s
        self.round_no = 0


def _open(path, partitions: int = 2) -> SecurityKG:
    return SecurityKG(
        base_config(
            storage_path=None if path is None else str(path),
            partitions=partitions,
            connectors=CONNECTORS,
            feed_keys=FEED_KEYS,
        )
    )


def setup(seed: int, size: dict, tmp) -> Context:
    ctx = Context(build_corpus(seed, size["reports_per_site"], size["records"]), size, tmp)
    # search words come from the finished graph so every round (and the
    # empty early graph) sees the same seeded request sequence
    reference = _open(None, partitions=1)
    reference.store(ctx.corpus.records())
    words = vocabulary(reference)
    reference.close()
    rng = random.Random(seed)
    batches = -(-len(ctx.corpus.payloads) // size["batch"])
    ctx.words = [
        " ".join(rng.sample(words, rng.randint(1, 3))) for _ in range(batches)
    ]
    # warm-up slice: ~5 % of the batches, results discarded
    _round(ctx, Tally(), Recorder(NAME), limit=max(2, batches // 20))
    return ctx


def _objects(payload: dict) -> list[dict]:
    if payload["mode"] == "full":
        return payload["bundle"]["objects"]
    return payload["objects"]


def _apply(view: dict, payload: dict) -> None:
    """Compose one pull into a client-side copy of the tier."""
    if payload["mode"] == "full":
        view.clear()
    for stix_object in _objects(payload):
        view[stix_object["id"]] = stix_object
    for object_id in payload.get("deleted", ()):
        view.pop(object_id, None)


def _round(
    ctx: Context, tally: Tally, rec: Recorder, limit: int | None = None
) -> None:
    ctx.round_no += 1
    path = ctx.tmp / f"live-{ctx.round_no}"
    records = ctx.corpus.records()
    size = ctx.size["batch"]
    batches = [records[i:i + size] for i in range(0, len(records), size)][:limit]
    kg = _open(path)
    api = ExplorerAPI(kg)
    cursors = {tier: None for tier in TIERS}
    views: dict[str, dict] = {tier: {} for tier in TIERS}
    totals = {"busy": 0.0, "delta_bytes": 0, "stored": 0}

    def request(name, kind, index, method, path_, body=None, headers=None):
        with rec.span(name, index) as span:
            status, payload, response_headers = api.handle_full(
                method, path_, body, headers
            )
        totals["busy"] += span.duration
        tally.timed(kind, index, span.duration)
        tally.op(status == 200, f"{method} {path_.split('?')[0]} -> {status}")
        return status, payload, response_headers

    for index, batch in enumerate(batches):
        with rec.span("sharding.store", index) as store:
            kg.store(batch)
        tally.timed("store", index, store.duration)
        totals["busy"] += store.duration
        totals["stored"] += len(batch)
        for tier in TIERS:
            query = f"?cursor={cursors[tier]}" if cursors[tier] else ""
            # the first pull after a commit pays the rebuild of all tiers
            name = "feeds.refresh" if tier == TIERS[0] else "feeds.delta"
            status, payload, headers = request(
                name, "pull." + tier, index, "GET", f"/feeds/{tier}{query}",
                headers=HEADERS,
            )
            if status != 200:
                continue
            cursors[tier] = headers["X-Feed-Cursor"]
            _apply(views[tier], payload)
            totals["delta_bytes"] += len(json.dumps(payload, separators=(",", ":")))
            if tier == "partner":
                served = {o.get("x_url") for o in _objects(payload)}
                tally.op(
                    all(record.url in served for record in batch),
                    f"batch {index} missing from the partner delta",
                )
        for number, query in enumerate(QUERIES):
            request("graphdb.query", "query", (index, number), "POST",
                    "/api/cypher", {"query": query})
        request("ui.search", "query", (index, "search"), "POST", "/api/search",
                {"query": ctx.words[index]})

    if limit is None:
        _finish_round(ctx, tally, rec, kg, api, views, totals)
    kg.close()
    if limit is None:
        tally.add("disk_bytes_per_report", disk_bytes(path) / totals["stored"])
    shutil.rmtree(path)


def _finish_round(ctx, tally, rec, kg, api, views, totals) -> None:
    """Round-level numbers and the output checks."""
    stored = totals["stored"]
    tally.attempted += stored
    ingested = kg.shards.ingested_count
    if ingested != stored:
        tally.failed += abs(stored - ingested)
        tally.failures.append(f"stored {stored} reports, {ingested} ingested")
    full_bytes = 0
    for tier in TIERS:
        status, payload, _ = api.handle_full("GET", f"/feeds/{tier}", headers=HEADERS)
        final = {o["id"]: o for o in payload["bundle"]["objects"]}
        full_bytes += len(json.dumps(payload, separators=(",", ":")))
        tally.op(
            status == 200 and final == views[tier],
            f"composed {tier} deltas differ from the final full pull",
        )
    tally.add("round_s", totals["busy"])
    tally.add("feed_bytes_per_report", totals["delta_bytes"] / stored)
    tally.add("delta_over_full", totals["delta_bytes"] / full_bytes)
    tally.info["reports_stored"] = stored
    tally.info["batches"] = -(-stored // ctx.size["batch"])
    tally.info["digest.corpus"] = ctx.corpus.digest
    tally.info["digest.graph"] = graph_digest(kg.graph)
    if rec.enabled:
        _decompose_refresh(ctx, tally, rec, kg)


def _decompose_refresh(ctx, tally: Tally, rec: Recorder, kg: SecurityKG) -> None:
    """What one feed refresh is made of, at the final graph size."""
    with rec.span("probe.sharding.merged_graph") as merge:
        graph = kg.shards.merged_graph()
    with rec.span("probe.ontology.export") as export:
        bundle = export_graph(graph, markings=True)
    with rec.span("probe.ontology.filter") as filtering:
        for tier in TIERS:
            filter_bundle(bundle, TIER_MAX_TLP[tier], sanitize=(tier == "public"))
    tally.add("merged_graph_ms", merge.duration * 1e3)
    tally.add("export_us_per_node", export.duration * 1e6 / graph.node_count)
    tally.add(
        "filter_us_per_object",
        filtering.duration * 1e6 / (3 * len(bundle.objects)),
    )
    with rec.span("probe.sharding.search") as search:
        for words in ctx.words:
            kg.shards.search(words)
    tally.add("sharding_search_us", search.duration * 1e6 / len(ctx.words))

    single = _open(None, partitions=1)
    single.store(ctx.corpus.records())
    timings = []
    for system in (kg, single):
        start = now()
        for query in QUERIES * 3:
            system.cypher(query)
        timings.append(now() - start)
    single.close()
    tally.add("cypher_over_single", timings[0] / timings[1])


def run_round(ctx: Context, tally: Tally, rec: Recorder) -> None:
    _round(ctx, tally, rec)


trace_round = run_round


PULLS = tuple("pull." + tier for tier in TIERS)
#: operation kinds each timing metric is computed from (for sample counts)
KINDS = {
    "reports_per_s": ("store", "query", *PULLS),
    "query_p50_ms": ("query",), "query_p95_ms": ("query",),
    "feed_pull_p50_ms": PULLS, "feed_pull_p95_ms": PULLS,
    "freshness_p50_ms": ("store",), "freshness_p90_ms": ("store",),
}


def summarize(tally: Tally) -> dict[str, float]:
    stores, queries, pulls = (
        tally.steady("store"), tally.steady("query"), tally.steady(*PULLS)
    )
    # freshness of a batch: its store(batch) call -> its reports returned
    # in the partner delta, which the one client pulls after the public one
    freshness = [
        sum(parts) for parts in zip(
            stores, tally.steady("pull.public"), tally.steady("pull.partner")
        )
    ]
    return {
        "reports_per_s": tally.info["reports_stored"] / (
            sum(stores) + sum(queries) + sum(pulls)
        ),
        "query_p50_ms": percentile(queries, 50) * 1e3,
        "query_p95_ms": percentile(queries, 95) * 1e3,
        "feed_pull_p50_ms": percentile(pulls, 50) * 1e3,
        "feed_pull_p95_ms": percentile(pulls, 95) * 1e3,
        "freshness_p50_ms": percentile(freshness, 50) * 1e3,
        "freshness_p90_ms": percentile(freshness, 90) * 1e3,
        "disk_bytes_per_report": tally.median("disk_bytes_per_report"),
        "feed_bytes_per_report": tally.median("feed_bytes_per_report"),
    }


def layer_metrics(ctx: Context, tally: Tally, rec: Recorder) -> dict[str, float]:
    refreshes = tally.steady("pull.public")
    return {
        # the first pull after a commit, at the median and at the final
        # graph size
        "feeds.refresh_p50_ms": percentile(refreshes, 50) * 1e3,
        "feeds.refresh_last_ms": refreshes[-1] * 1e3,
        "feeds.delta_over_full_bytes": tally.median("delta_over_full"),
        "ontology.export_us_per_node": tally.median("export_us_per_node"),
        "ontology.filter_us_per_object": tally.median("filter_us_per_object"),
        "sharding.store_us_per_report": (
            sum(tally.steady("store")) * 1e6 / tally.info["reports_stored"]
        ),
        "sharding.merged_graph_ms": tally.median("merged_graph_ms"),
        "sharding.search_us": tally.median("sharding_search_us"),
        "sharding.cypher_over_single_ratio": tally.median("cypher_over_single"),
    }

