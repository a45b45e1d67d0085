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

from repro.storage.atomic import atomic_write_text


@dataclass
class SystemConfig:
    """Everything a SecurityKG deployment needs to know.

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
        Threads of the pipeline's parse stage, at least 1.  CPU-bound
        Python beside the DOM memo: under the GIL more is a loss (E3).
    extract_workers:
        ``1`` extracts in a pipeline thread; ``N > 1`` means N extractor
        processes forked at construction (``ValueError`` on a platform
        without ``fork``), records pickled in and out -- the serialized
        stage crossing of section 2.1 -- never threads (E3).
    connectors:
        Storage connectors to drive (names from the connector registry).
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
        Number of storage partitions.  The deployment is always a
        ``ShardSet`` of N >= 1 independent engines, each with its own
        journal and checkpoint cycle, one store worker per partition
        and fusion/Cypher/search served over all of them.  ``1`` (the
        default) is a ``ShardSet`` of one whose engine files sit
        directly under ``storage_path`` -- the same bytes on disk as
        every earlier single-engine release; N > 1 hash-partitions
        entities across ``storage_path/partition-<i>``.  A directory
        written with one count cannot be opened with another.
    checker_min_chars:
        Minimum rendered-text length accepted by the checker.
    clock:
        ``"real"`` (wall time; the deployment default) or ``"virtual"``
        (discrete-event time: crawls replay simulated latency instantly
        and deterministically -- the benchmark/test mode).
    health:
        Enable the online health engine (``repro.obs.health``): SLO
        rules evaluated over the span/metric stream, with per-source
        quarantine feedback into the crawl.  Implies a live
        observability bundle.
    health_rules:
        Optional rule overrides, mapping rule name to field overrides
        (plus an ``"engine"`` entry for engine parameters) -- see
        ``repro.obs.health.rules_from_config``.
    health_interval:
        Seconds between health evaluations.
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
    max_articles: int | None = None
    clock: str = "real"
    health: bool = False
    health_rules: dict | None = None
    health_interval: float = 5.0
    feed_keys: dict | None = None
    feed_history: int = 64

    def __post_init__(self) -> None:
        for key in ("parse_workers", "extract_workers"):
            count = getattr(self, key)
            if count < 1:
                raise ValueError(f"{key} must be at least 1, got {count}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(data) - known
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


__all__ = ["SystemConfig"]
