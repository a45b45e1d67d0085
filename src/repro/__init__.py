"""SecurityKG reproduction.

A full-system reproduction of *"A System for Automated Open-Source
Threat Intelligence Gathering and Management"* (SecurityKG, SIGMOD 2021
demonstration).  The package implements the paper's pipeline --
collection, processing, storage, applications -- together with every
substrate the paper depends on: a simulated OSCTI web, an HTML parser,
an NLP stack with a from-scratch CRF trained by data programming, a
property-graph database with a Cypher subset, BM25 full-text search,
knowledge fusion, and a Barnes-Hut layout engine behind a headless UI.

>>> from repro import SecurityKG, SystemConfig
>>> kg = SecurityKG(SystemConfig(scenario_count=5, reports_per_site=2,
...                              sources=["ThreatPedia"]))
>>> kg.run_once().reports_stored
2

Subpackages
-----------
runtime
    Injected clock (real or virtual discrete-event time), stopwatch,
    retry/backoff policies.
ontology
    Entity/relation vocabulary, intermediate report and CTI
    representations, ontology validation.
websim
    Deterministic synthetic web of 40+ OSCTI sources with ground truth.
htmlparse
    From-scratch HTML tokenizer, DOM and CSS-selector subset.
crawlers
    Crawler framework: frontier, throttling, scheduling, 40+ sources.
nlp
    Tokenization with IOC protection, POS tagging, embeddings, data
    programming, linear-chain CRF NER, dependency-based relations.
graphdb
    In-process property graph database with a Cypher-subset engine.
search
    Inverted index + BM25 full-text search.
core
    Processing loop (porters, checkers, parsers, extractors) and the
    SecurityKG facade.
connectors
    Graph, SQL and search storage connectors.
fusion
    Knowledge-fusion stage (alias clustering, node merge).
ui
    Headless UI view-model: Barnes-Hut layout, graph explorer, JSON API.
apps
    Applications over the knowledge graph (threat search, statistics).
"""

from repro.core.config import SystemConfig
from repro.core.system import SecurityKG, SystemReport

__version__ = "1.0.0"

__all__ = ["SecurityKG", "SystemConfig", "SystemReport", "__version__"]
