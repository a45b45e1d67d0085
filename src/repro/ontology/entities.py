"""Security entity vocabulary.

The ontology (paper Figure 2) categorises OSCTI reports into malware,
vulnerability and attack reports, and models the concepts those reports
mention: CTI vendors, threat actors, techniques, tools, software,
malware, vulnerabilities, and the low-level Indicators of Compromise
(file name, file path, IP, URL, email, domain, registry key, hashes).

Every node in the knowledge graph carries one :class:`EntityType`, a
canonical ``name`` (the description text the storage stage merges on),
and free-form key/value ``attributes``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class EntityType(str, enum.Enum):
    """Node types of the security knowledge ontology (Figure 2)."""

    # Report entities -- one per collected OSCTI report.
    MALWARE_REPORT = "MalwareReport"
    VULNERABILITY_REPORT = "VulnerabilityReport"
    ATTACK_REPORT = "AttackReport"

    # High-level concepts.
    VENDOR = "Vendor"
    THREAT_ACTOR = "ThreatActor"
    TECHNIQUE = "Technique"
    TOOL = "Tool"
    SOFTWARE = "Software"
    MALWARE = "Malware"
    VULNERABILITY = "Vulnerability"
    CAMPAIGN = "Campaign"

    # Indicators of Compromise.
    FILE_NAME = "FileName"
    FILE_PATH = "FilePath"
    IP = "IP"
    URL = "URL"
    EMAIL = "Email"
    DOMAIN = "Domain"
    REGISTRY = "Registry"
    HASH = "Hash"

    @property
    def is_report(self) -> bool:
        """True for the three per-report entity types."""
        return self in _REPORT_TYPES

    @property
    def is_ioc(self) -> bool:
        """True for low-level Indicator-of-Compromise types."""
        return self in IOC_TYPES


_REPORT_TYPES = frozenset(
    {
        EntityType.MALWARE_REPORT,
        EntityType.VULNERABILITY_REPORT,
        EntityType.ATTACK_REPORT,
    }
)

#: The IOC entity types, in the order the paper lists them.
IOC_TYPES: frozenset[EntityType] = frozenset(
    {
        EntityType.FILE_NAME,
        EntityType.FILE_PATH,
        EntityType.IP,
        EntityType.URL,
        EntityType.EMAIL,
        EntityType.DOMAIN,
        EntityType.REGISTRY,
        EntityType.HASH,
    }
)

#: Concept types extracted by the CRF entity recogniser (as opposed to
#: the regex-recognised IOC types and the report/vendor bookkeeping
#: types created by parsers).
CRF_ENTITY_TYPES: tuple[EntityType, ...] = (
    EntityType.MALWARE,
    EntityType.THREAT_ACTOR,
    EntityType.TECHNIQUE,
    EntityType.TOOL,
    EntityType.SOFTWARE,
    EntityType.VULNERABILITY,
)

#: Report category -> report entity type.
REPORT_TYPE_BY_CATEGORY: dict[str, EntityType] = {
    "malware": EntityType.MALWARE_REPORT,
    "vulnerability": EntityType.VULNERABILITY_REPORT,
    "attack": EntityType.ATTACK_REPORT,
}


def canonical_name(text: str) -> str:
    """Normalise an entity description for exact-match merging.

    The storage stage merges nodes "with exactly the same description
    text" (paper section 2.5).  Exact match is taken after trimming
    surrounding whitespace and lower-casing, so that the same name
    rendered with different capitalisation by one source still counts
    as the same description.  Anything stronger (alias resolution) is
    deferred to the fusion stage.
    """
    return " ".join(text.strip().split()).lower()


def merge_key_for(entity: "Entity") -> str:
    """The storage-merge key of an entity.

    Concept and IOC nodes merge on their canonical description text.
    Report nodes never merge with each other: two reports may share a
    title, so their key is the (globally unique) report id.
    """
    if entity.type.is_report:
        report_id = entity.attributes.get("report_id")
        if report_id:
            return f"report:{report_id}"
    return canonical_name(entity.name)


@dataclass
class Entity:
    """A typed node of the security knowledge graph.

    Parameters
    ----------
    type:
        The ontology type of the node.
    name:
        Human-readable description text.  Two entities of the same type
        whose :func:`canonical_name` match are merged at storage time.
    attributes:
        Free-form key/value pairs (e.g. a report's source and URL, a
        hash's algorithm).
    """

    type: EntityType
    name: str
    attributes: dict[str, object] = field(default_factory=dict)

    @property
    def key(self) -> tuple[str, str]:
        """Merge key used by the storage connectors."""
        return (self.type.value, canonical_name(self.name))

    def to_dict(self) -> dict[str, object]:
        """Serialise to a JSON-compatible dict."""
        return {
            "type": self.type.value,
            "name": self.name,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "Entity":
        """Inverse of :meth:`to_dict`."""
        return cls(
            type=EntityType(str(data["type"])),
            name=str(data["name"]),
            attributes=dict(data.get("attributes", {})),  # type: ignore[arg-type]
        )

    def merged_with(self, other: "Entity") -> "Entity":
        """Return a copy whose attributes are the union of both nodes.

        ``other`` wins ties; used when the connector re-encounters an
        existing node and augments it with new attributes.
        """
        if self.key != other.key:
            raise ValueError(
                f"cannot merge entities with different keys: {self.key} != {other.key}"
            )
        merged = dict(self.attributes)
        merged.update(other.attributes)
        return Entity(type=self.type, name=self.name, attributes=merged)


__all__ = [
    "Entity",
    "merge_key_for",
    "EntityType",
    "IOC_TYPES",
    "CRF_ENTITY_TYPES",
    "REPORT_TYPE_BY_CATEGORY",
    "canonical_name",
]
