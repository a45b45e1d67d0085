"""Ontology schema: which (head type, relation, tail type) triples are legal.

The schema mirrors paper Figure 2.  Connectors call
:func:`validate_relation` before inserting a triplet; extraction noise
that violates the ontology is downgraded to ``MENTIONS``/``RELATED_TO``
rather than silently stored with a bogus type.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ontology.entities import IOC_TYPES, EntityType
from repro.ontology.relations import Relation, RelationType

_REPORTS = frozenset(
    {
        EntityType.MALWARE_REPORT,
        EntityType.VULNERABILITY_REPORT,
        EntityType.ATTACK_REPORT,
    }
)
_ACTORS = frozenset({EntityType.THREAT_ACTOR, EntityType.CAMPAIGN})
_ACTIVE = frozenset(
    {EntityType.MALWARE, EntityType.THREAT_ACTOR, EntityType.CAMPAIGN, EntityType.TOOL}
)
_FILES = frozenset({EntityType.FILE_NAME, EntityType.FILE_PATH})
_NET = frozenset({EntityType.IP, EntityType.DOMAIN, EntityType.URL})
_ALL = frozenset(EntityType)

#: relation -> (allowed head types, allowed tail types)
SCHEMA: dict[RelationType, tuple[frozenset[EntityType], frozenset[EntityType]]] = {
    RelationType.CREATED_BY: (_REPORTS, frozenset({EntityType.VENDOR})),
    RelationType.DESCRIBES: (
        _REPORTS,
        frozenset(
            {
                EntityType.MALWARE,
                EntityType.VULNERABILITY,
                EntityType.CAMPAIGN,
                EntityType.THREAT_ACTOR,
            }
        ),
    ),
    RelationType.MENTIONS: (_REPORTS, _ALL - _REPORTS),
    RelationType.USES: (
        _ACTIVE,
        frozenset(
            {
                EntityType.TECHNIQUE,
                EntityType.TOOL,
                EntityType.SOFTWARE,
                EntityType.MALWARE,
            }
        ),
    ),
    RelationType.DROPS: (_ACTIVE, _FILES | frozenset({EntityType.MALWARE})),
    RelationType.EXECUTES: (
        _ACTIVE,
        _FILES | frozenset({EntityType.TOOL, EntityType.MALWARE}),
    ),
    RelationType.CONNECTS_TO: (_ACTIVE, _NET),
    RelationType.COMMUNICATES_WITH: (_ACTIVE, _NET | frozenset({EntityType.EMAIL})),
    RelationType.DOWNLOADS: (_ACTIVE, _NET | _FILES | frozenset({EntityType.MALWARE})),
    RelationType.EXPLOITS: (
        _ACTIVE,
        frozenset({EntityType.VULNERABILITY, EntityType.SOFTWARE}),
    ),
    RelationType.TARGETS: (
        _ACTIVE,
        frozenset({EntityType.SOFTWARE, EntityType.VENDOR})
        | _NET
        | frozenset({EntityType.EMAIL}),
    ),
    RelationType.MODIFIES: (
        _ACTIVE,
        _FILES | frozenset({EntityType.REGISTRY, EntityType.SOFTWARE}),
    ),
    RelationType.CREATES: (_ACTIVE, _FILES | frozenset({EntityType.REGISTRY})),
    RelationType.DELETES: (_ACTIVE, _FILES | frozenset({EntityType.REGISTRY})),
    RelationType.ENCRYPTS: (_ACTIVE, _FILES),
    RelationType.SENDS: (_ACTIVE, frozenset({EntityType.EMAIL}) | _NET),
    RelationType.SPREADS_VIA: (
        _ACTIVE,
        frozenset(
            {
                EntityType.TECHNIQUE,
                EntityType.EMAIL,
                EntityType.SOFTWARE,
                EntityType.MALWARE,
            }
        ),
    ),
    RelationType.ATTRIBUTED_TO: (
        frozenset({EntityType.MALWARE, EntityType.CAMPAIGN, EntityType.TOOL}),
        _ACTORS,
    ),
    RelationType.INDICATES: (
        IOC_TYPES,
        frozenset({EntityType.MALWARE, EntityType.CAMPAIGN, EntityType.THREAT_ACTOR}),
    ),
    RelationType.VARIANT_OF: (
        frozenset({EntityType.MALWARE}),
        frozenset({EntityType.MALWARE}),
    ),
    RelationType.AFFECTS: (
        frozenset({EntityType.VULNERABILITY}),
        frozenset({EntityType.SOFTWARE, EntityType.TOOL}),
    ),
    RelationType.RELATED_TO: (_ALL, _ALL),
}


@dataclass(frozen=True)
class SchemaViolation:
    """Details of an ontology-schema violation for one relation."""

    relation: RelationType
    head_type: EntityType
    tail_type: EntityType
    reason: str

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"{self.head_type.value} -[{self.relation.value}]-> "
            f"{self.tail_type.value}: {self.reason}"
        )


def check_relation(relation: Relation) -> SchemaViolation | None:
    """Return a violation description, or ``None`` when legal."""
    heads, tails = SCHEMA[relation.type]
    if relation.head.type not in heads:
        return SchemaViolation(
            relation.type,
            relation.head.type,
            relation.tail.type,
            f"head type not in {sorted(t.value for t in heads)}",
        )
    if relation.tail.type not in tails:
        return SchemaViolation(
            relation.type,
            relation.head.type,
            relation.tail.type,
            f"tail type not in {sorted(t.value for t in tails)}",
        )
    return None


def validate_relation(relation: Relation) -> Relation:
    """Coerce an extracted relation onto the schema.

    Legal relations pass through unchanged.  Illegal ones are rewritten
    to ``RELATED_TO`` (which accepts any endpoint pair) with the
    original type stashed in ``attributes['raw_type']`` so no extracted
    signal is destroyed -- the same "never delete early" stance the
    paper takes for node merging.
    """
    if check_relation(relation) is None:
        return relation
    attributes = dict(relation.attributes)
    attributes.setdefault("raw_type", relation.type.value)
    return Relation(
        head=relation.head,
        type=RelationType.RELATED_TO,
        tail=relation.tail,
        attributes=attributes,
        provenance=dict(relation.provenance),
    )


__all__ = [
    "SCHEMA",
    "SchemaViolation",
    "check_relation",
    "validate_relation",
]
