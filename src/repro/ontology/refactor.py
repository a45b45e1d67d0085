"""Refactor intermediate CTI representations into ontology triplets.

Intermediate CTI representations are verbose and storage-inefficient
(paper section 2.1); before hitting the storage connectors they are
refactored to the security knowledge ontology: a report entity plus the
entities/relations the report evidences, all schema-validated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ontology.entities import (
    REPORT_TYPE_BY_CATEGORY,
    Entity,
    EntityType,
)
from repro.ontology.intermediate import CTIRecord
from repro.ontology.relations import Relation, RelationType, normalize_verb
from repro.ontology.schema import validate_relation


@dataclass
class GraphDelta:
    """The set of nodes and edges one report contributes to the graph."""

    entities: list[Entity] = field(default_factory=list)
    relations: list[Relation] = field(default_factory=list)


def _report_entity(record: CTIRecord) -> Entity:
    report_type = REPORT_TYPE_BY_CATEGORY.get(
        record.report_category, EntityType.ATTACK_REPORT
    )
    return Entity(
        type=report_type,
        name=record.title or record.report_id,
        attributes={
            "report_id": record.report_id,
            "source": record.source,
            "url": record.url,
            "published": record.published,
            "summary": record.summary,
        },
    )


def refactor_record(record: CTIRecord) -> GraphDelta:
    """Turn one intermediate CTI representation into graph triplets.

    The refactoring emits:

    * the report entity (typed by the report category) and, when known,
      a ``CREATED_BY`` edge to the vendor entity;
    * one entity per IOC value, with ``MENTIONS`` edges from the report;
    * one entity per recognised concept mention (deduplicated on the
      merge key), with ``MENTIONS`` edges;
    * one schema-validated relation per extracted relation mention,
      with the raw verb and evidence sentence kept as attributes.
    """
    delta = GraphDelta()
    report = _report_entity(record)
    delta.entities.append(report)

    if record.vendor:
        vendor = Entity(type=EntityType.VENDOR, name=record.vendor)
        delta.entities.append(vendor)
        delta.relations.append(
            Relation(
                head=report,
                type=RelationType.CREATED_BY,
                tail=vendor,
                provenance={"report_id": record.report_id},
            )
        )

    seen: dict[tuple[str, str], Entity] = {report.key: report}

    def intern(entity: Entity) -> Entity:
        """Deduplicate entities within this report on the merge key."""
        existing = seen.get(entity.key)
        if existing is None:
            seen[entity.key] = entity
            delta.entities.append(entity)
            return entity
        if entity.attributes:
            merged = existing.merged_with(entity)
            existing.attributes = merged.attributes
        return existing

    def mention_edge(target: Entity, **extra: object) -> None:
        delta.relations.append(
            Relation(
                head=report,
                type=RelationType.MENTIONS,
                tail=target,
                attributes=dict(extra),
                provenance={"report_id": record.report_id},
            )
        )

    for kind_name, values in record.iocs.items():
        kind = EntityType(kind_name)
        for value in values:
            ioc = intern(Entity(type=kind, name=value))
            mention_edge(ioc, ioc=True)

    for mention in record.mentions:
        entity = intern(
            Entity(
                type=mention.type,
                name=mention.text,
                attributes={"method": mention.method},
            )
        )
        mention_edge(entity, confidence=mention.confidence)
        if mention.type in (
            EntityType.MALWARE,
            EntityType.VULNERABILITY,
            EntityType.CAMPAIGN,
        ):
            delta.relations.append(
                validate_relation(
                    Relation(
                        head=report,
                        type=RelationType.DESCRIBES,
                        tail=entity,
                        provenance={"report_id": record.report_id},
                    )
                )
            )

    for rel in record.relations:
        head = intern(Entity(type=rel.head_type, name=rel.head_text))
        tail = intern(Entity(type=rel.tail_type, name=rel.tail_text))
        delta.relations.append(
            validate_relation(
                Relation(
                    head=head,
                    type=normalize_verb(rel.verb),
                    tail=tail,
                    attributes={"verb": rel.verb, "confidence": rel.confidence},
                    provenance={
                        "report_id": record.report_id,
                        "sentence": rel.sentence,
                    },
                )
            )
        )

    return delta


__all__ = ["GraphDelta", "refactor_record"]
