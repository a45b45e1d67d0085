"""Search connector: feeds the keyword-search path.

The UI's keyword search runs through the full-text index (the
Elasticsearch role in paper section 2.6).  This connector indexes each
report's title, body, source and extracted entity names, so a query
like "wannacry" surfaces the relevant reports and, through their
entity fields, the graph nodes to focus.

Every document it indexes is an incremental ``add`` journal op in its
:class:`~repro.storage.StorageEngine`'s shared commit, so the index is
durable per batch.  ``SearchConnector()`` without an engine owns a
private in-memory one.
"""

from __future__ import annotations

from repro.connectors.base import Connector, IngestStats, registry
from repro.ontology.intermediate import CTIRecord
from repro.search.index import SearchIndexParticipant
from repro.storage.engine import StorageEngine

_DEFAULT_BOOSTS = {"title": 3.0, "entities": 2.0, "body": 1.0}


@registry.register
class SearchConnector(Connector):
    """Index intermediate CTI representations for keyword search."""

    name = "search"

    def __init__(self, engine: StorageEngine | None = None):
        super().__init__()
        if engine is None:
            engine = StorageEngine(None, [SearchIndexParticipant()])
        self.engine = engine
        self.index = engine.participant(SearchIndexParticipant.name).index
        self.index.field_boosts = dict(_DEFAULT_BOOSTS)

    def ingest(self, records: list[CTIRecord]) -> IngestStats:
        stats = IngestStats(records=len(records))
        ops: list[dict] = []
        for record in records:
            entity_names = " ".join(
                sorted({mention.text for mention in record.mentions})
            )
            ioc_values = " ".join(
                value for values in record.iocs.values() for value in values
            )
            fields = {
                "title": record.title,
                "body": record.text,
                "entities": f"{entity_names} {ioc_values}".strip(),
                "source": record.source,
                "url": record.url,
                "category": record.report_category,
            }
            ops.append(
                {"op": "add", "doc_id": record.report_id, "fields": fields}
            )
            stats.entities_created += 1
        if ops:
            self.engine.log(SearchIndexParticipant.name, ops)
        self.total += stats
        return stats


__all__ = ["SearchConnector"]
