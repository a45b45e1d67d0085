"""System configuration (paper section 2.1).

"The system can be configured through a user-provided configuration
file, which specifies the set of components to use and the additional
parameters (e.g., threshold values for entity recognition) passed to
these components."

:class:`SystemConfig` is that file's schema; it round-trips through
JSON so deployments are reproducible.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.crawlers.sources import CRAWLER_REGISTRY
from repro.feeds.tlp import TIERS
from repro.obs.health import rules_from_config
from repro.runtime.checked import Bound, check_fields
from repro.runtime.clock import CLOCKS
from repro.storage.atomic import atomic_write_text

#: the connectors a partition can build (see ``repro.connectors``)
CONNECTORS = ("graph", "search", "sql")
#: the entity recognisers ``SecurityKG`` can build
RECOGNIZERS = ("crf", "gazetteer", "regex")


@dataclass(frozen=True)
class SystemConfig:
    """Everything a SecurityKG deployment needs to know.

    Frozen; each value is checked once, when built, against its
    annotation and :data:`LIMITS` (one ``ValueError`` names the field).

    Attributes
    ----------
    sources:
        Site names to collect from (``None`` = every registered source).
    scenario_count / reports_per_site / seed:
        Shape of the simulated web backing the crawl.
    crawl_threads:
        Worker pool size of the crawl engine.
    failure_rate / time_scale:
        Transport misbehaviour knobs (see the simulated network).
    parse_workers:
        Threads that check then parse each report.  CPU-bound Python
        beside the DOM memo: under the GIL more is a loss (E3).
    extract_workers:
        ``1`` extracts on the processing loop's thread; ``N > 1`` means
        N extractor processes forked at construction (``ValueError`` on
        a platform without ``fork``), records pickled in and out -- the
        serialized stage crossing of section 2.1 -- never threads (E3).
    connectors:
        Storage connectors each partition builds on its engine, from
        :data:`CONNECTORS`.
    recognizer:
        ``"crf"`` (the paper's extractor; trains at startup),
        ``"gazetteer"`` or ``"regex"`` (baselines).
    recognizer_min_confidence:
        Entity-recognition threshold passed to the extractor -- the
        paper's example of a component parameter.
    crf_training_scenarios / crf_max_iterations:
        Training budget when ``recognizer == "crf"``.
    storage_path:
        Directory for the storage engines (``None`` = in-memory).  The
        graph, search index, crawl state and SQL mirror of a partition
        all persist under that partition's one crash-consistent journal.
    partitions:
        Storage partitions, each an independent engine with its own
        journal and checkpoint cycle: ``1`` keeps the engine files
        directly under ``storage_path``, N > 1 hash-partitions entities
        across ``storage_path/partition-<i>``.  A directory reopens only
        with the count that wrote it.
    checker_min_chars:
        Minimum rendered-text length accepted by the checker.
    clock:
        ``"real"`` (wall time; the deployment default) or ``"virtual"``
        (discrete-event time: crawls replay simulated latency instantly
        and deterministically -- the benchmark/test mode).
    health:
        Enable the online health engine (``repro.obs.health``) and with
        it a live observability bundle.
    health_rules:
        Optional rule overrides, mapping rule name to field overrides
        (plus an ``"engine"`` entry for engine parameters, the
        evaluation ``interval`` among them: 5 s unless set there) --
        see ``repro.obs.health.rules_from_config``.
    feed_keys:
        API keys for the protected dissemination feed tiers, e.g.
        ``{"partner": "...", "internal": "..."}``.  A key grants its
        tier and every tier below it; ``public`` needs no key.  Tiers
        with no key configured are not served (see DISSEMINATION.md).
    feed_history:
        Feed change-log entries retained per tier; pulls presenting a
        cursor older than the window fall back to a full resync.
    """

    sources: list[str] | None = None
    scenario_count: int = 40
    reports_per_site: int = 10
    seed: int = 7
    crawl_threads: int = 8
    failure_rate: float = 0.0
    time_scale: float = 0.0
    parse_workers: int = 1
    extract_workers: int = 1
    connectors: list[str] = field(default_factory=lambda: ["graph", "search"])
    recognizer: str = "gazetteer"
    recognizer_min_confidence: float = 0.3
    crf_training_scenarios: int = 30
    crf_max_iterations: int = 60
    storage_path: str | None = None
    partitions: int = 1
    checker_min_chars: int = 120
    clock: str = "real"
    health: bool = False
    health_rules: dict | None = None
    feed_keys: dict[str, str] | None = None
    feed_history: int = 64

    def __post_init__(self) -> None:
        check_fields(self, LIMITS)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        if not isinstance(data, dict):
            raise ValueError(
                f"a configuration is a JSON object, got {type(data).__name__}"
            )
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, payload: str) -> "SystemConfig":
        return cls.from_dict(json.loads(payload))

    @classmethod
    def from_file(cls, path: str | Path) -> "SystemConfig":
        return cls.from_json(Path(path).read_text())

    def save(self, path: str | Path) -> None:
        atomic_write_text(Path(path), self.to_json())


#: What a field's annotation cannot say: the bounds of its numbers, the
#: names it may hold, or the parser its section goes through.
LIMITS = {
    **dict.fromkeys(
        (
            "scenario_count", "reports_per_site", "crawl_threads",
            "parse_workers", "extract_workers", "crf_training_scenarios",
            "crf_max_iterations", "partitions", "feed_history",
        ),
        Bound(1),
    ),
    "failure_rate": Bound(0, 1),
    "recognizer_min_confidence": Bound(0, 1),
    "time_scale": Bound(0),
    "checker_min_chars": Bound(0),
    "sources": CRAWLER_REGISTRY,
    "connectors": CONNECTORS,
    "recognizer": RECOGNIZERS,
    "clock": CLOCKS,
    "feed_keys": TIERS,
    "health_rules": rules_from_config,
}

__all__ = ["CONNECTORS", "LIMITS", "RECOGNIZERS", "SystemConfig"]
