"""Graph connector (the default, Neo4j-like path).

Implements the storage-stage merge semantics of paper section 2.5:
nodes are merged only when their *description text matches exactly*
(after whitespace/case folding -- the ``merge_key``); anything subtler
(same malware under different vendor naming conventions) is left for
the separate knowledge-fusion stage so that no information is deleted
early.  Parallel edges of the same type between the same endpoints are
collapsed into one edge whose ``weight`` counts observations and whose
``reports`` accumulates provenance.
"""

from __future__ import annotations

from repro.connectors.base import Connector, IngestStats, registry
from repro.graphdb.wal import GraphDatabase
from repro.ontology.entities import Entity, merge_key_for
from repro.ontology.intermediate import CTIRecord
from repro.ontology.refactor import refactor_record


@registry.register
class GraphConnector(Connector):
    """Merge intermediate CTI representations into the property graph.

    All mutations go through the :class:`GraphDatabase` (not the raw
    store) so the journal records them and the graph survives restarts.
    """

    name = "graph"

    def __init__(self, database: GraphDatabase | None = None):
        super().__init__()
        self.database = database or GraphDatabase()

    @property
    def graph(self):
        return self.database.graph

    def _merge_entity(self, entity: Entity, stats: IngestStats) -> int:
        """Find-or-create a node by (label, merge_key)."""
        merge_key = merge_key_for(entity)
        existing = self.graph.find_node(entity.type.value, merge_key=merge_key)
        if existing is not None:
            new_attributes = {
                key: value
                for key, value in entity.attributes.items()
                if key not in existing.properties
            }
            if new_attributes:
                self.database.set_node_properties(existing.node_id, new_attributes)
            stats.entities_merged += 1
            return existing.node_id
        properties = dict(entity.attributes)
        properties["name"] = entity.name
        properties["merge_key"] = merge_key
        node = self.database.create_node(entity.type.value, properties)
        stats.entities_created += 1
        return node.node_id

    def ingest(self, records: list[CTIRecord]) -> IngestStats:
        stats = IngestStats(records=len(records))
        for record in records:
            delta = refactor_record(record)
            node_ids: dict[tuple[str, str], int] = {}
            for entity in delta.entities:
                node_ids[entity.key] = self._merge_entity(entity, stats)
            for relation in delta.relations:
                src = node_ids[relation.head.key]
                dst = node_ids[relation.tail.key]
                edge = self.graph.parallel_edge(src, relation.type.value, dst)
                report_id = str(relation.provenance.get("report_id", ""))
                if edge is not None:
                    reports = list(edge.properties.get("reports", []))
                    if report_id and report_id not in reports:
                        reports.append(report_id)
                    self.database.set_edge_properties(
                        edge.edge_id,
                        {
                            "weight": int(edge.properties.get("weight", 1)) + 1,
                            "reports": reports,
                        },
                    )
                    stats.relations_merged += 1
                else:
                    properties = dict(relation.attributes)
                    properties["weight"] = 1
                    properties["reports"] = [report_id] if report_id else []
                    if relation.provenance.get("sentence"):
                        properties["sentence"] = relation.provenance["sentence"]
                    self.database.create_edge(
                        src, relation.type.value, dst, properties
                    )
                    stats.relations_created += 1
        self.total += stats
        return stats


__all__ = ["GraphConnector"]
