"""``ingest_full`` -- the paper's whole write path with the paper's
extractor.

One round is one collection cycle: a fresh in-memory ``SecurityKG``
(CRF recogniser, 2 parse + 2 extract workers, graph and search
connectors) runs ``run_once()`` over the full 42-site web.  ``htmlparse``,
``nlp`` (CRF decode, relation walk) and ``core.pipeline`` do almost all
the work and ``storage`` almost none, so the single-DOM-build, numpy
Viterbi and process-worker items of the roadmap show here and nowhere
else.  It bypasses every durability and read-side optimisation.
"""

from __future__ import annotations

import harness
from harness import Recorder, Tally, now
from inputs import WARMUP_SOURCES, base_config, build_web, graph_digest
from repro.core.system import SecurityKG
from repro.htmlparse import parse as parse_html
from repro.htmlparse import tokenize as tokenize_html
from repro.nlp.tokenize import tokenize_sentences

CONNECTORS = ["graph", "search"]
#: family-agnostic selectors for the standalone selector probe
PROBE_SELECTORS = ("div p", "ul li", "h1", "a[href]")


class Context(harness.Context):
    def __init__(self, web, crf):
        self.web = web
        self.crf = crf
        self.graph_nodes = None


def _config(**overrides):
    fields = dict(
        recognizer="crf", parse_workers=2, extract_workers=2, connectors=CONNECTORS
    )
    fields.update(overrides)
    return base_config(**fields)


def setup(seed: int, size: dict, _tmp) -> Context:
    """Materialise the web, train the CRF the way a ``recognizer="crf"``
    deployment does at start-up, and warm up on one site per family."""
    web = build_web(seed, size["reports_per_site"])
    trainer = SecurityKG(
        _config(
            crf_training_scenarios=size["crf_training_scenarios"],
            crf_max_iterations=size["crf_max_iterations"],
            sources=WARMUP_SOURCES,
        ),
        web=web,
    )
    trainer.run_once()
    trainer.close()
    return Context(web, trainer.extractor.recognizer)


def _check_cycle(ctx: Context, tally: Tally, kg: SecurityKG, report) -> None:
    """Invariants, not goldens: nothing lost, nothing errored, and the
    graph answers a query as soon as the cycle returns."""
    lost = report.reports_ported - report.reports_rejected - report.reports_stored
    tally.attempted += report.reports_ported
    problems = lost + len(report.pipeline_errors) + len(report.crawl.errors)
    if problems:
        tally.failed += problems
        tally.failures.append(
            f"cycle lost {lost} reports, {len(report.pipeline_errors)} pipeline "
            f"errors, {len(report.crawl.errors)} crawl errors"
        )
    rows = kg.cypher("MATCH (r)-[:MENTIONS]->(e) RETURN count(*) AS mentions")
    tally.op(rows[0]["mentions"] > 0, "ingested graph answers no MENTIONS")
    stats = kg.stats()
    tally.info["reports_stored"] = report.reports_stored
    tally.info["graph_nodes"] = ctx.graph_nodes = stats["nodes"]
    tally.info["graph_edges"] = stats["edges"]
    tally.info["digest.graph"] = graph_digest(kg.graph)


def run_round(ctx: Context, tally: Tally, rec: Recorder) -> None:
    kg = SecurityKG(_config(), web=ctx.web, recognizer=ctx.crf)
    with rec.span("cycle") as cycle:
        report = kg.run_once()
    tally.timed("cycle", 0, cycle.duration)
    tally.add("round_s", cycle.duration)
    _check_cycle(ctx, tally, kg, report)
    kg.close()


#: operation kinds each timing metric is computed from (for sample counts)
KINDS = {"reports_per_s": ("cycle",), "cycle_ms": ("cycle",)}


def summarize(tally: Tally) -> dict[str, float]:
    (cycle_s,) = tally.steady("cycle")
    return {
        "reports_per_s": tally.info["reports_stored"] / cycle_s,
        "cycle_ms": cycle_s * 1e3,
    }


# -- traced pass ----------------------------------------------------------


class _TracedRecognizer:
    """Span around each call into ``nlp`` NER (the recogniser is a
    constructor argument of ``SecurityKG``, so this is plain injection)."""

    def __init__(self, inner, rec: Recorder, tally: Tally):
        self.inner, self.rec, self.tally = inner, rec, tally

    def extract(self, text):
        with self.rec.span("nlp.ner"):
            sentences, mentions = self.inner.extract(text)
        self.tally.add("nlp.tokens", sum(len(s.tokens) for s in sentences))
        self.tally.add("nlp.sentences", len(sentences))
        return sentences, mentions


class _TracedRelations:
    def __init__(self, inner, rec: Recorder, tally: Tally):
        self.inner, self.rec, self.tally = inner, rec, tally

    def extract_with_mentions(self, tokens, mentions, sentence_index=0):
        with self.rec.span("nlp.relation"):
            relations = self.inner.extract_with_mentions(
                tokens, mentions, sentence_index
            )
        self.tally.add("nlp.relations", len(relations))
        return relations


class TracedConnector:
    """Span around each ``Connector.ingest_one`` (shared with
    ``store_durable``; connectors are a public dict of the facade)."""

    def __init__(self, inner, rec: Recorder):
        self.inner, self.rec = inner, rec

    def ingest_one(self, record):
        with self.rec.span(f"connectors.{self.inner.name}", record.report_id):
            return self.inner.ingest_one(record)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def trace_connectors(kg: SecurityKG, rec: Recorder) -> None:
    for name, connector in list(kg.connectors.items()):
        kg.connectors[name] = TracedConnector(connector, rec)


def trace_round(ctx: Context, tally: Tally, rec: Recorder) -> None:
    """The same cycle driven stage by stage, serially, so each span's
    wall time is that stage's own work rather than GIL scheduling."""
    kg = SecurityKG(
        _config(parse_workers=1, extract_workers=1),
        web=ctx.web,
        recognizer=_TracedRecognizer(ctx.crf, rec, tally),
    )
    kg.extractor.relations = _TracedRelations(kg.extractor.relations, rec, tally)
    trace_connectors(kg, rec)
    start = now()
    with rec.span("crawlers.crawl"):
        crawl = kg.crawl()
    with rec.span("core.port"):
        ported = kg.porter.port(crawl.documents)
    with rec.span("core.check"):
        checked = kg.checker.filter(ported)
    records = []
    for report in checked.passed:
        with rec.span("core.parse", report.report_id):
            record = kg.parsers.parse(report)
        with rec.span("core.extract", report.report_id):
            records.append(kg.extractor.extract(record))
    with rec.span("storage.store"):
        kg.store(records)
    tally.add("round_s", now() - start)
    tally.add("crawlers.pages", crawl.pages_fetched)
    tally.add("core.ported", len(ported))
    tally.add("core.check_rejected", len(checked.rejected))
    tally.add("core.mentions", sum(len(r.mentions) for r in records))
    tally.op(
        kg.stats()["nodes"] == ctx.graph_nodes,
        "serial traced cycle built a different graph than run_once",
    )
    kg.close()
    ctx.last_crawl, ctx.last_passed, ctx.last_records = crawl, checked.passed, records


def layer_metrics(ctx: Context, tally: Tally, rec: Recorder) -> dict[str, float]:
    rounds = tally.count("round_s")
    table = rec.self_times()

    def total(name: str) -> float:
        return table.get(name, {"total_s": 0.0})["total_s"] / rounds

    def per(name: str, count: float) -> float:
        return total(name) * 1e6 / count if count else 0.0

    pages = tally.median("crawlers.pages")
    ported = tally.median("core.ported")
    passed = len(ctx.last_passed)
    tokens = sum(tally.samples["nlp.tokens"]) / rounds
    sentences = sum(tally.samples["nlp.sentences"]) / rounds
    layers = {
        "crawlers.us_per_page": per("crawlers.crawl", pages),
        "crawlers.pages": pages,
        "core.port_us_per_report": per("core.port", ported),
        "core.check_us_per_report": per("core.check", ported),
        "core.check_rejected": tally.median("core.check_rejected"),
        "core.parse_us_per_report": per("core.parse", passed),
        "core.extract_us_per_report": per("core.extract", passed),
        "core.mentions": tally.median("core.mentions"),
        "nlp.ner_us_per_token": per("nlp.ner", tokens),
        "nlp.relation_us_per_sentence": per("nlp.relation", sentences),
        "nlp.tokens": tokens,
        "nlp.relations": sum(tally.samples["nlp.relations"]) / rounds,
        "connectors.graph_us_per_report": per("connectors.graph", passed),
        "connectors.search_us_per_report": per("connectors.search", passed),
    }
    # the spans must account for the serial stage wall time
    covered = sum(
        row["self_s"] for name, row in table.items() if not name.startswith("probe.")
    )
    tally.op(
        abs(covered / sum(tally.samples["round_s"]) - 1.0) < 0.10,
        "per-layer self times do not sum to the serial stage wall time",
    )
    layers.update(_probes(ctx, rec, serial_s=sum(
        total(name) for name in ("core.check", "core.parse", "core.extract")
    )))
    return layers


def _probes(ctx: Context, rec: Recorder, serial_s: float) -> dict[str, float]:
    """Standalone unit costs of layers the facade calls internally."""
    pages = [document.html for document in ctx.last_crawl.documents]
    kilobytes = sum(len(page) for page in pages) / 1024.0
    with rec.span("probe.htmlparse.tokenize") as tokenize_span:
        for page in pages:
            tokenize_html(page)
    with rec.span("probe.htmlparse.parse") as parse_span:
        documents = [parse_html(page) for page in pages]
    with rec.span("probe.htmlparse.select") as select_span:
        for document in documents:
            for selector in PROBE_SELECTORS:
                document.select(selector)
    dom_nodes = sum(1 for document in documents for _ in document.root.iter())

    texts = [record.text for record in ctx.last_records]
    with rec.span("probe.nlp.tokenize") as words_span:
        tokens = sum(
            len(sentence.tokens)
            for text in texts
            for sentence in tokenize_sentences(text)
        )

    # the pipelined processing stage, exactly as run_once drives it
    kg = SecurityKG(_config(), web=ctx.web, recognizer=ctx.crf)
    with rec.span("probe.core.pipeline") as pipeline_span:
        kg.process(ctx.last_passed)
    kg.close()
    return {
        "htmlparse.tokenize_us_per_kb": tokenize_span.duration * 1e6 / kilobytes,
        "htmlparse.parse_us_per_kb": parse_span.duration * 1e6 / kilobytes,
        "htmlparse.select_us_per_page": select_span.duration * 1e6 / len(pages),
        "htmlparse.dom_nodes": dom_nodes,
        "nlp.tokenize_us_per_token": words_span.duration * 1e6 / tokens,
        "core.pipeline_s": pipeline_span.duration,
        "core.pipeline_speedup": serial_s / pipeline_span.duration,
    }

