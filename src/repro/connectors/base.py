"""Connector interface.

Connectors terminate the pipeline (paper Figure 1): they take the
extractor-refined intermediate CTI representations, refactor them to
the ontology and merge them into a backend store.  All connectors share
one interface so the configuration layer can swap them (Neo4j-like
graph by default, SQL when multi-hop queries are not needed, search
index for the keyword path).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.obs import NO_OBS
from repro.ontology.intermediate import CTIRecord


@dataclass
class IngestStats:
    """What one ingest batch did to the store."""

    records: int = 0
    entities_created: int = 0
    entities_merged: int = 0
    relations_created: int = 0
    relations_merged: int = 0

    def __iadd__(self, other: "IngestStats") -> "IngestStats":
        self.records += other.records
        self.entities_created += other.entities_created
        self.entities_merged += other.entities_merged
        self.relations_created += other.relations_created
        self.relations_merged += other.relations_merged
        return self


class Connector(abc.ABC):
    """Base class for storage connectors."""

    #: registry name used in configuration files
    name: str = "base"

    def __init__(self):
        self.total = IngestStats()
        #: observability bundle; the owning system replaces this with
        #: its own so per-record ingests are traced and counted
        self.obs = NO_OBS

    @abc.abstractmethod
    def ingest(self, records: list[CTIRecord]) -> IngestStats:
        """Merge a batch of records into the backend store."""

    def ingest_one(self, record: CTIRecord) -> IngestStats:
        with self.obs.tracer.span(
            "store.ingest", connector=self.name, report=record.report_id
        ):
            stats = self.ingest([record])
        metrics = self.obs.metrics
        metrics.inc(
            "store.entities", stats.entities_created,
            connector=self.name, op="created",
        )
        metrics.inc(
            "store.entities", stats.entities_merged,
            connector=self.name, op="merged",
        )
        metrics.inc(
            "store.relations", stats.relations_created,
            connector=self.name, op="created",
        )
        metrics.inc(
            "store.relations", stats.relations_merged,
            connector=self.name, op="merged",
        )
        return stats


@dataclass
class ConnectorRegistry:
    """Named connector factories for the configuration layer."""

    factories: dict[str, type] = field(default_factory=dict)

    def register(self, connector_class: type) -> type:
        self.factories[connector_class.name] = connector_class
        return connector_class

    def create(self, name: str, **kwargs) -> Connector:
        try:
            return self.factories[name](**kwargs)
        except KeyError:
            raise KeyError(
                f"unknown connector {name!r}; known: {sorted(self.factories)}"
            ) from None


registry = ConnectorRegistry()

__all__ = ["Connector", "ConnectorRegistry", "IngestStats", "registry"]
