"""``serve_query`` -- the read side on a static graph.

All of ``corpus_g`` is loaded into an in-memory ``SecurityKG`` in
set-up; one round is a seeded mix of requests through
``ExplorerAPI.handle_full`` in three latency classes:

* light 60 % -- Cypher point lookup and one-hop expand on names drawn
  from the graph, ``/api/search`` with 1-3 vocabulary words,
  ``GET /feeds/<tier>`` with ``If-None-Match`` (304), ``GET /api/stats``;
* medium 28 % -- two-hop aggregations, ``ORDER BY .. LIMIT`` top lists,
  a paginated label scan followed page by page (``page_size=25``);
* heavy 12 % -- whole-graph ``MENTIONS`` aggregation and co-mention count.

``graphdb.cypher`` (parser, analyzer, planner, both the eager executor
and the iterator path), ``search`` and ``ui`` do the work; the ingest
layers do nothing in the timed region, so the one-executor deletion and
any plan/result cache are judged here.  The shares put p50 inside the
point/expand plateau and p95 inside the heavy aggregation, so neither
percentile sits on a class boundary.  It bypasses feed rebuilds: the
graph never changes, so every feed poll is a 304.
"""

from __future__ import annotations

import json
import random
import statistics

import harness
from harness import Recorder, Tally, digest, percentile
from inputs import base_config, build_corpus, graph_digest
from repro.core.system import SecurityKG
from repro.graphdb.cypher import CypherEngine, build_plan, parse
from repro.ui.server import ExplorerAPI

NAME = "serve_query"
FEED_KEYS = {"partner": "bench-partner-key", "internal": "bench-internal-key"}
TIERS = ("public", "partner", "internal")
PAGE_SIZE = 25

# Fixed Cypher templates (literals, so tests/test_analysis_sweep.py
# checks them against the closed ontology).  The obvious
# (:Malware)-[:USES]->(:Technique) shape returns 0 rows on this web; the
# start-up guard refuses any template that would benchmark an empty scan.
AGG2HOP = (
    "MATCH (a:ThreatActor)-[:USES]->(t:Technique)<-[:SPREADS_VIA]-(m:Malware) "
    "RETURN a.name, m.name, count(t) AS shared ORDER BY shared DESC LIMIT 10"
)
ATTRIBUTED = (
    "MATCH (m:Malware)-[:ATTRIBUTED_TO]->(a:ThreatActor)-[:USES]->(t:Technique) "
    "RETURN a.name, count(t) AS techniques ORDER BY techniques DESC LIMIT 10"
)
TOP_DESCRIBED = (
    "MATCH (r:MalwareReport)-[:DESCRIBES]->(m:Malware) "
    "RETURN m.name, count(r) AS reports ORDER BY reports DESC LIMIT 10"
)
LABEL_SCAN = "MATCH (d:Domain) RETURN d.name"
HEAVY_MENTIONS = (
    "MATCH (r)-[:MENTIONS]->(e) "
    "RETURN e.name, count(r) AS n ORDER BY n DESC LIMIT 10"
)
HEAVY_COMENTION = (
    "MATCH (r)-[:MENTIONS]->(a:Malware), (r)-[:MENTIONS]->(b:ThreatActor) "
    "RETURN a.name, b.name, count(r) AS n ORDER BY n DESC LIMIT 10"
)
MALWARE_NAMES = "MATCH (m:Malware) RETURN m.name"
ACTORS_WITH_USES = "MATCH (a:ThreatActor)-[:USES]->(t) RETURN DISTINCT a.name"
MALWARE_WITH_C2 = "MATCH (m:Malware)-[:CONNECTS_TO]->(x) RETURN DISTINCT m.name"


def point_query(name: str) -> str:
    return f'MATCH (m:Malware {{name: "{name}"}}) RETURN m.name, m.aliases'


def actor_expand(name: str) -> str:
    return (
        f'MATCH (a:ThreatActor {{name: "{name}"}})-[:USES]->(t) '
        "RETURN t.name ORDER BY t.name"
    )


def malware_expand(name: str) -> str:
    return (
        f'MATCH (m:Malware {{name: "{name}"}})-[:CONNECTS_TO]->(x) '
        "RETURN x.name ORDER BY x.name"
    )


#: requests per 1000, by kind -- light 600 / medium 280 / heavy 120.
#: ``scan`` is a whole paginated scan (one request per page).
MIX = {
    "point": 270, "expand": 270, "search": 20, "feed304": 20, "stats": 20,
    "agg2hop": 70, "attributed": 50, "toplist": 60, "scan_pages": 100,
    "heavy_mentions": 85, "heavy_comention": 35,
}
#: span name per request kind (layer prefix = the layer doing the work)
SPAN = {
    "point": "graphdb.point", "expand": "graphdb.expand",
    "agg2hop": "graphdb.agg2hop", "attributed": "graphdb.agg2hop",
    "toplist": "graphdb.agg2hop", "page": "graphdb.page",
    "heavy_mentions": "graphdb.heavy", "heavy_comention": "graphdb.heavy",
    "search": "ui.search", "stats": "ui.stats", "feed304": "feeds.pull_304",
}


class Context(harness.Context):
    def __init__(self):
        self.expected: dict[str, str] = {}

    def close(self) -> None:
        self.kg.close()


def _names(kg: SecurityKG, query: str, column: str) -> list[str]:
    return sorted(str(row[column]) for row in kg.cypher(query))


def vocabulary(kg: SecurityKG) -> list[str]:
    """Search words: the tokens of concept-entity names in the graph."""
    words = set()
    for label in ("Malware", "ThreatActor", "Technique", "Tool"):
        for node in kg.graph.nodes(label):
            words.update(
                w for w in str(node.properties.get("name", "")).lower().split()
                if w.isalpha() and len(w) > 3
            )
    return sorted(words)


def build_requests(ctx: Context, seed: int, count: int) -> list[tuple]:
    """``(kind, key, method, path, body, headers)`` rows with exact
    per-kind counts, shuffled by the seeded RNG."""
    rng = random.Random(seed)
    scale = count / 1000.0
    requests: list[tuple] = []

    def cypher(kind: str, query: str):
        requests.append((kind, query, "POST", "/api/cypher", {"query": query}, None))

    for kind, share in MIX.items():
        n = max(1, round(share * scale))
        if kind == "point":
            for _ in range(n):
                cypher(kind, point_query(rng.choice(ctx.malware)))
        elif kind == "expand":
            for i in range(n):
                if i % 2:
                    cypher(kind, actor_expand(rng.choice(ctx.actors)))
                else:
                    cypher(kind, malware_expand(rng.choice(ctx.c2_malware)))
        elif kind == "search":
            for _ in range(n):
                words = " ".join(rng.sample(ctx.vocabulary, rng.randint(1, 3)))
                requests.append(
                    (kind, "search:" + words, "POST", "/api/search",
                     {"query": words}, None)
                )
        elif kind == "feed304":
            for i in range(n):
                tier = TIERS[i % 3]
                requests.append(
                    (kind, "feed:" + tier, "GET", f"/feeds/{tier}", None,
                     {"X-API-Key": FEED_KEYS["internal"],
                      "If-None-Match": ctx.etags[tier]})
                )
        elif kind == "stats":
            requests.extend(
                [(kind, "stats", "GET", "/api/stats", None, None)] * n
            )
        elif kind == "scan_pages":
            scans = max(1, round(n / ctx.scan_pages))
            requests.extend([("scan", LABEL_SCAN, None, None, None, None)] * scans)
        else:
            query = {
                "agg2hop": AGG2HOP, "attributed": ATTRIBUTED,
                "toplist": TOP_DESCRIBED, "heavy_mentions": HEAVY_MENTIONS,
                "heavy_comention": HEAVY_COMENTION,
            }[kind]
            for _ in range(n):
                cypher(kind, query)
    rng.shuffle(requests)
    return requests


def setup(seed: int, size: dict, _tmp) -> Context:
    ctx = Context()
    corpus = build_corpus(seed, size["reports_per_site"])
    ctx.corpus_build_s = corpus.build_s
    ctx.corpus_digest = corpus.digest
    kg = SecurityKG(
        base_config(connectors=["graph", "search"], feed_keys=FEED_KEYS)
    )
    kg.store(corpus.records())
    ctx.kg = kg
    ctx.api = ExplorerAPI(kg)
    ctx.reports = len(corpus.payloads)

    ctx.malware = _names(kg, MALWARE_NAMES, "m.name")
    ctx.actors = _names(kg, ACTORS_WITH_USES, "a.name")
    ctx.c2_malware = _names(kg, MALWARE_WITH_C2, "m.name")
    ctx.vocabulary = vocabulary(kg)
    ctx.etags = {}
    for tier in TIERS:
        status, _payload, headers = ctx.api.handle_full(
            "GET", f"/feeds/{tier}", headers={"X-API-Key": FEED_KEYS["internal"]}
        )
        if status != 200:
            raise RuntimeError(f"feed tier {tier} not served: {status}")
        ctx.etags[tier] = headers["ETag"]

    # query-mix guard: every template answers >= 1 row under the strict
    # analyzer (a 400 here is an analysis error) -- no empty scans
    ctx.templates = [
        point_query(ctx.malware[0]), actor_expand(ctx.actors[0]),
        malware_expand(ctx.c2_malware[0]), AGG2HOP, ATTRIBUTED, TOP_DESCRIBED,
        LABEL_SCAN, HEAVY_MENTIONS, HEAVY_COMENTION,
    ]
    for query in ctx.templates:
        status, payload, _ = ctx.api.handle_full(
            "POST", "/api/cypher", {"query": query, "strict": True}
        )
        if status != 200 or not payload["rows"]:
            raise RuntimeError(f"query-mix guard: {status} / 0 rows for {query!r}")
    ctx.scan_rows = ctx.api.handle_full(
        "POST", "/api/cypher", {"query": LABEL_SCAN}
    )[1]["rows"]
    ctx.scan_pages = -(-len(ctx.scan_rows) // PAGE_SIZE)

    ctx.graph_digest = graph_digest(kg.graph)
    ctx.requests = build_requests(ctx, seed, size["requests"])
    # warm-up slice: ~5 % of the round, results discarded
    _play(ctx, ctx.requests[: max(10, len(ctx.requests) // 20)], Tally(),
          Recorder(NAME), check=False)
    return ctx


def _scan(ctx: Context, tally: Tally, rec: Recorder, op_id: int, check: bool) -> float:
    """One paginated label scan, followed page by page."""
    rows, cursor, busy, page = [], None, 0.0, 0
    while True:
        body = {"query": LABEL_SCAN, "page_size": PAGE_SIZE}
        if cursor:
            body["cursor"] = cursor
        with rec.span(SPAN["page"], op_id) as span:
            status, payload, _ = ctx.api.handle_full("POST", "/api/cypher", body)
        busy += span.duration
        tally.timed("page", (op_id, page), span.duration)
        page += 1
        if not tally.op(status == 200, f"page request -> {status}"):
            return busy
        rows.extend(payload["rows"])
        cursor = payload["cursor"]
        if not cursor:
            break
    if check:
        tally.op(rows == ctx.scan_rows, "pages do not concatenate to the full scan")
    return busy


def _play(ctx, requests, tally: Tally, rec: Recorder, check: bool = True) -> float:
    """Closed loop, one client: the next request is issued when the
    previous one returns.  Returns the summed request time."""
    busy = 0.0
    rows = 0
    for op_id, (kind, key, method, path, body, headers) in enumerate(requests):
        if kind == "scan":
            busy += _scan(ctx, tally, rec, op_id, check)
            rows += len(ctx.scan_rows)
            continue
        with rec.span(SPAN[kind], op_id) as span:
            status, payload, _ = ctx.api.handle_full(method, path, body, headers)
        busy += span.duration
        tally.timed(kind, op_id, span.duration)
        if not tally.op(
            status == (304 if kind == "feed304" else 200), f"{kind} -> {status}"
        ):
            continue
        if kind in ("search", "stats", "feed304"):
            continue
        rows += len(payload["rows"])
        if check:
            # same request, same static graph: same rows as its first run
            seen = digest(payload["rows"])
            tally.op(
                ctx.expected.setdefault(key, seen) == seen,
                f"{kind} rows changed between executions",
            )
    tally.info["rows_per_round"] = rows
    return busy


def run_round(ctx: Context, tally: Tally, rec: Recorder) -> None:
    tally.add("round_s", _play(ctx, ctx.requests, tally, rec))
    tally.info["reports_loaded"] = ctx.reports
    tally.info["digest.corpus"] = ctx.corpus_digest
    tally.info["digest.graph"] = ctx.graph_digest


trace_round = run_round

#: every request kind that is a query (Cypher, search, stats); the
#: remaining kind, ``feed304``, is a feed pull
QUERY_KINDS = tuple(kind for kind in SPAN if kind != "feed304")
#: operation kinds each timing metric is computed from (for sample counts)
KINDS = {
    "queries_per_s": (*QUERY_KINDS, "feed304"),
    "query_p50_ms": QUERY_KINDS, "query_p95_ms": QUERY_KINDS,
    "feed_pull_p50_ms": ("feed304",), "feed_pull_p95_ms": ("feed304",),
}


def summarize(tally: Tally) -> dict[str, float]:
    queries, pulls = tally.steady(*QUERY_KINDS), tally.steady("feed304")
    return {
        "queries_per_s": (len(queries) + len(pulls)) / (sum(queries) + sum(pulls)),
        "query_p50_ms": percentile(queries, 50) * 1e3,
        "query_p95_ms": percentile(queries, 95) * 1e3,
        "feed_pull_p50_ms": percentile(pulls, 50) * 1e3,
        "feed_pull_p95_ms": percentile(pulls, 95) * 1e3,
    }


def layer_metrics(ctx: Context, tally: Tally, rec: Recorder) -> dict[str, float]:
    def typical(*kinds: str) -> float:
        return statistics.median(tally.steady(*kinds))

    layers = {
        "graphdb.point_us": typical("point") * 1e6,
        "graphdb.expand_us": typical("expand") * 1e6,
        "graphdb.agg2hop_ms": typical("agg2hop", "attributed", "toplist") * 1e3,
        "graphdb.heavy_ms": typical("heavy_mentions") * 1e3,
        "graphdb.page_us_per_row": sum(tally.steady("page")) * 1e6 / (
            len(ctx.scan_rows) * sum(1 for r in ctx.requests if r[0] == "scan")
        ),
        "graphdb.rows_returned": tally.info["rows_per_round"],
        "ui.stats_us": typical("stats") * 1e6,
        "feeds.pull_304_us": typical("feed304") * 1e6,
    }
    layers.update(_probes(ctx, rec))
    return layers


def _mean_us(rec: Recorder, name: str, calls) -> float:
    """Mean microseconds of a list of zero-argument calls, under one span."""
    with rec.span(name) as span:
        for call in calls:
            call()
    return span.duration * 1e6 / len(calls)


def _probes(ctx: Context, rec: Recorder) -> dict[str, float]:
    """Unit costs of the layers a request crosses, called directly."""
    graph = ctx.kg.graph
    engine = CypherEngine(graph)
    templates = ctx.templates * 5
    parsed = [parse(query) for query in ctx.templates]
    heavy = [AGG2HOP, ATTRIBUTED, TOP_DESCRIBED, HEAVY_MENTIONS, HEAVY_COMENTION]
    eager = _mean_us(rec, "probe.graphdb.eager", [
        (lambda q=q: engine.run(q)) for q in heavy
    ])
    iterator = _mean_us(rec, "probe.graphdb.iterator", [
        (lambda q=q: engine.task(q).run_to_completion()) for q in heavy
    ])

    index = ctx.kg.connectors["search"].index
    rng = random.Random(0)
    word_sets = [
        " ".join(rng.sample(ctx.vocabulary, rng.randint(1, 3))) for _ in range(40)
    ]
    phrases = [" ".join(name.lower().split()[:2]) for name in ctx.malware[:40]]
    keyword_us = _mean_us(rec, "probe.search.keyword", [
        (lambda w=w: ctx.kg.keyword_search(w)) for w in word_sets
    ])
    request_us = _mean_us(rec, "probe.ui.search", [
        (lambda w=w: ctx.api.handle_full("POST", "/api/search", {"query": w}))
        for w in word_sets
    ])

    pulls, size = [], 0
    for _ in range(3):
        with rec.span("probe.feeds.full_pull") as pull:
            response = ctx.kg.feeds.pull("internal")
        pulls.append(pull.duration)
        size = len(json.dumps(response.payload, separators=(",", ":")))
    return {
        "graphdb.parse_us": _mean_us(rec, "probe.graphdb.parse", [
            (lambda q=q: parse(q)) for q in templates
        ]),
        "graphdb.analyze_us": _mean_us(rec, "probe.graphdb.analyze", [
            (lambda p=p, q=q: engine.analyze(p, q))
            for p, q in zip(parsed, ctx.templates)
        ] * 5),
        "graphdb.plan_us": _mean_us(rec, "probe.graphdb.plan", [
            (lambda p=p: build_plan(p, graph)) for p in parsed
        ] * 5),
        "graphdb.iter_over_eager_ratio": iterator / eager,
        "search.query_us": _mean_us(rec, "probe.search.query", [
            (lambda w=w: index.search(w)) for w in word_sets
        ]),
        "search.phrase_us": _mean_us(rec, "probe.search.phrase", [
            (lambda p=p: index.phrase_search(p)) for p in phrases
        ]),
        "search.docs": index.doc_count,
        # /api/search minus keyword_search: the name scan over every
        # graph node, the explorer layout and the view snapshot
        "ui.search_overhead_us": request_us - keyword_us,
        "feeds.full_pull_ms": statistics.median(pulls) * 1e3,
        "feeds.full_pull_bytes": size,
    }

