"""Security knowledge ontology and intermediate representations.

Implements paper Figure 2 (entity/relation vocabulary and schema) and
the two serialisable pipeline representations of sections 2.1/2.4: the
intermediate report representation (:class:`ReportRecord`) and the
intermediate CTI representation (:class:`CTIRecord`).
"""

from repro.ontology.entities import (
    CRF_ENTITY_TYPES,
    merge_key_for,
    IOC_TYPES,
    REPORT_TYPE_BY_CATEGORY,
    Entity,
    EntityType,
    canonical_name,
)
from repro.ontology.intermediate import CTIRecord, Mention, RelationMention, ReportRecord
from repro.ontology.refactor import GraphDelta, refactor_record
from repro.ontology.relations import (
    VERB_TO_RELATION,
    Relation,
    RelationType,
    normalize_verb,
)
from repro.ontology.schema import (
    SCHEMA,
    SchemaViolation,
    check_relation,
    validate_relation,
)

__all__ = [
    "CRF_ENTITY_TYPES",
    "CTIRecord",
    "Entity",
    "EntityType",
    "GraphDelta",
    "IOC_TYPES",
    "Mention",
    "REPORT_TYPE_BY_CATEGORY",
    "Relation",
    "RelationMention",
    "RelationType",
    "ReportRecord",
    "SCHEMA",
    "SchemaViolation",
    "VERB_TO_RELATION",
    "canonical_name",
    "merge_key_for",
    "check_relation",
    "normalize_verb",
    "refactor_record",
    "validate_relation",
]
