"""Search connector: feeds the keyword-search path.

The UI's keyword search runs through the full-text index (the
Elasticsearch role in paper section 2.6).  This connector indexes each
report's title, body, source and extracted entity names, so a query
like "wannacry" surfaces the relevant reports and, through their
entity fields, the graph nodes to focus.

Every document it indexes is an incremental ``add`` journal op in its
partition's :class:`~repro.storage.StorageEngine`, inside the report's
shared commit, so the index is durable per report.
"""

from __future__ import annotations

from repro.connectors.base import Connector, IngestStats
from repro.ontology.intermediate import CTIRecord
from repro.search.index import SearchIndexParticipant
from repro.storage.engine import StorageEngine


class SearchConnector(Connector):
    """Index intermediate CTI representations for keyword search."""

    name = "search"

    def __init__(self, engine: StorageEngine):
        self.engine = engine
        self.index = engine.participant(SearchIndexParticipant.name).index

    def ingest(self, record: CTIRecord) -> IngestStats:
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
        self.engine.log(
            SearchIndexParticipant.name,
            [{"op": "add", "doc_id": record.report_id, "fields": fields}],
        )
        return IngestStats(records=1, entities_created=1)


__all__ = ["SearchConnector"]
