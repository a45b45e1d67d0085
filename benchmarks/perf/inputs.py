"""Seeded inputs: the simulated web, the pre-extracted gazetteer corpus
and the CRF used by ``ingest_full``.

``--seed`` reaches only ``repro.websim`` (here) and the request-mix RNG
(in the workloads); the system under test receives just the generated
web / records / requests and keeps its default configuration seed, so
the CRF model is the same at every benchmark seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from harness import digest, now
from repro.core.config import SystemConfig
from repro.core.system import SecurityKG
from repro.ontology.intermediate import CTIRecord
from repro.websim import build_default_web
from repro.websim.sites import Web

#: the paper's ">40 sources": all 42 sites, 40 shared threat scenarios
SCENARIOS = 40
#: one site per family, for the ingest warm-up slice
WARMUP_SOURCES = [
    "ThreatPedia", "SecureListing", "InfoSec Ledger", "NVD Shadow", "OTX Mirror",
]


def base_config(**overrides) -> SystemConfig:
    """Virtual clock, no failures, no latency scaling: simulated network
    time costs no wall time, so the numbers are this program's CPU and
    I/O.  The web is always injected, so the web-shape fields are unused."""
    return SystemConfig(
        clock="virtual", failure_rate=0.0, time_scale=0.0, **overrides
    )


def build_web(seed: int, reports_per_site: int) -> Web:
    """The 42-site web, fully materialised (page rendering is input
    generation, not work of the system under test)."""
    web = build_default_web(
        scenario_count=SCENARIOS, reports_per_site=reports_per_site, seed=seed
    )
    for site in web.sites:
        site.pages()
    return web


@dataclass
class Corpus:
    """Pre-extracted records, serialised so every consumer gets fresh
    objects (connectors must never see a record another store mutated)."""

    payloads: list[str]
    build_s: float
    digest: str

    def records(self, limit: int | None = None) -> list[CTIRecord]:
        return [CTIRecord.from_json(p) for p in self.payloads[:limit]]

    @property
    def json_bytes(self) -> int:
        return sum(len(p.encode("utf-8")) for p in self.payloads)


def build_corpus(
    seed: int, reports_per_site: int, records: int | None = None
) -> Corpus:
    """``corpus_g``: full crawl -> port -> check -> process with the
    gazetteer recogniser (one worker per stage: this is set-up, and the
    serial order keeps the record order canonical), cut to the first
    ``records`` records when a workload needs a fixed count."""
    start = now()
    kg = SecurityKG(
        base_config(recognizer="gazetteer", parse_workers=1, extract_workers=1),
        web=build_web(seed, reports_per_site),
    )
    crawl = kg.crawl()
    checked = kg.checker.filter(kg.porter.port(crawl.documents))
    processed, result = kg.process(checked.passed)
    kg.close()
    if result.errors:
        raise RuntimeError(f"corpus build hit pipeline errors: {result.errors[:3]}")
    payloads = [record.to_json() for record in processed[:records]]
    if records is not None and len(payloads) < records:
        raise RuntimeError(f"corpus has {len(payloads)} records, need {records}")
    return Corpus(payloads, now() - start, digest(payloads))


def graph_digest(graph) -> str:
    """Content digest of a property graph (ids, labels, properties)."""
    return digest(
        [
            sorted((n.node_id, n.label, digest(n.properties)) for n in graph.nodes()),
            sorted(
                (e.src, e.type, e.dst, digest(e.properties)) for e in graph.edges()
            ),
        ]
    )


def store_digest(engine) -> str:
    """Content digest of every participant of a storage engine (graph,
    search index, crawl state, SQL mirror)."""
    return digest(
        {
            name: engine.participant(name).snapshot_data()
            for name in engine.participant_names
        }
    )
