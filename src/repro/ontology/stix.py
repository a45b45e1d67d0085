"""STIX-style interchange for the knowledge graph.

The paper situates its ontology against STIX [15]; real CTI platforms
interoperate by exchanging STIX bundles.  This module maps the
SecurityKG ontology onto STIX 2.1-shaped objects (SDO types for
concepts, indicators with STIX patterns for IOCs, ``relationship``
objects for edges, a ``report`` SDO per report node) and back, so a
populated graph can be exported to any STIX consumer and re-imported
losslessly at the granularity the mapping covers.

Object ids are deterministic (UUIDv5 over the merge key), so repeated
exports of the same graph produce identical bundles.

Dissemination support (``repro.feeds``) layers on top: exports can
carry TLP (Traffic Light Protocol) ``object_marking_refs`` using the
canonical STIX 2.1 marking-definition ids, and :func:`filter_bundle`
derives the tier-appropriate view of a bundle -- objects above a TLP
ceiling are dropped, relationships to dropped objects go with them,
report ``object_refs`` are pruned to survivors, and the ``public``
sanitization strips sourcing fields.
"""

from __future__ import annotations

import json
import uuid
from dataclasses import dataclass, field

from repro.graphdb.store import PropertyGraph
from repro.ontology.entities import EntityType

#: UUID namespace for deterministic STIX ids.
_NAMESPACE = uuid.UUID("8c4f4e42-97b1-4d37-9e68-1a1f9c6b2a11")

#: TLP levels in increasing sensitivity order.
TLP_LEVELS: tuple[str, ...] = ("white", "green", "amber", "red")

#: Canonical STIX 2.1 TLP marking-definition ids (spec-defined UUIDs,
#: so exported bundles interoperate with real STIX consumers).
TLP_MARKING_IDS: dict[str, str] = {
    "white": "marking-definition--613f2e26-407d-48c7-9eca-b8e91df99dc9",
    "green": "marking-definition--34098fce-860f-48ae-8e50-ebd3cc5e41da",
    "amber": "marking-definition--f88d31f6-486f-44da-b317-01333bde0b82",
    "red": "marking-definition--5e57c739-391a-4eb3-b6be-7d15ca92d5ed",
}

#: Reverse lookup: marking-definition id -> TLP level.
TLP_BY_MARKING_ID: dict[str, str] = {v: k for k, v in TLP_MARKING_IDS.items()}

_TLP_ORDER = {level: index for index, level in enumerate(TLP_LEVELS)}

#: Default classification per STIX object type when a node carries no
#: explicit ``tlp`` property: reports expose sourcing context
#: (need-to-know), indicators are community-shareable detection
#: content, and bare concept/identity objects are public vocabulary.
_DEFAULT_TLP_BY_TYPE: dict[str, str] = {
    "report": "amber",
    "indicator": "green",
}

#: Report fields stripped by ``public``-grade sanitization (they reveal
#: where and how the intelligence was collected).
_SANITIZED_FIELDS: tuple[str, ...] = ("x_source", "x_url")

#: Ontology node label -> STIX object type.
STIX_TYPE_BY_LABEL: dict[str, str] = {
    EntityType.MALWARE.value: "malware",
    EntityType.THREAT_ACTOR.value: "intrusion-set",
    EntityType.CAMPAIGN.value: "campaign",
    EntityType.TECHNIQUE.value: "attack-pattern",
    EntityType.TOOL.value: "tool",
    EntityType.SOFTWARE.value: "software",
    EntityType.VULNERABILITY.value: "vulnerability",
    EntityType.VENDOR.value: "identity",
    EntityType.MALWARE_REPORT.value: "report",
    EntityType.VULNERABILITY_REPORT.value: "report",
    EntityType.ATTACK_REPORT.value: "report",
}

#: IOC label -> (STIX pattern object path).
_PATTERN_BY_LABEL: dict[str, str] = {
    EntityType.IP.value: "ipv4-addr:value",
    EntityType.DOMAIN.value: "domain-name:value",
    EntityType.URL.value: "url:value",
    EntityType.EMAIL.value: "email-addr:value",
    EntityType.FILE_NAME.value: "file:name",
    EntityType.FILE_PATH.value: "file:parent_directory_ref.path",
    EntityType.REGISTRY.value: "windows-registry-key:key",
    EntityType.HASH.value: "file:hashes.'SHA-256'",
}

#: Edge type -> STIX relationship_type.
STIX_RELATIONSHIP_BY_EDGE: dict[str, str] = {
    "USES": "uses",
    "DROPS": "drops",
    "EXECUTES": "uses",
    "CONNECTS_TO": "communicates-with",
    "COMMUNICATES_WITH": "communicates-with",
    "DOWNLOADS": "downloads",
    "EXPLOITS": "exploits",
    "TARGETS": "targets",
    "MODIFIES": "targets",
    "CREATES": "creates",
    "DELETES": "targets",
    "ENCRYPTS": "targets",
    "SENDS": "exfiltrates-to",
    "SPREADS_VIA": "uses",
    "ATTRIBUTED_TO": "attributed-to",
    "INDICATES": "indicates",
    "VARIANT_OF": "variant-of",
    "AFFECTS": "targets",
    "RELATED_TO": "related-to",
    "MENTIONS": "object-ref",  # folded into report object_refs instead
    "CREATED_BY": "created-by",  # becomes created_by_ref on the report
    "DESCRIBES": "related-to",
}


class StixMappingError(ValueError):
    """A graph object cannot be represented in the mapping."""


def stix_id(stix_type: str, key: str) -> str:
    """Deterministic ``type--uuid5`` identifier."""
    return f"{stix_type}--{uuid.uuid5(_NAMESPACE, f'{stix_type}|{key}')}"


def tlp_order(level: str) -> int:
    """Position of a TLP level in the sensitivity order."""
    try:
        return _TLP_ORDER[level]
    except KeyError:
        raise ValueError(
            f"unknown TLP level {level!r}; known: {list(TLP_LEVELS)}"
        ) from None


def max_tlp(levels: list[str] | tuple[str, ...]) -> str:
    """The most sensitive of several TLP levels (``white`` when empty)."""
    best = "white"
    for level in levels:
        if tlp_order(level) > tlp_order(best):
            best = level
    return best


def tlp_of_object(stix_object: dict) -> str:
    """TLP level of a STIX object: its TLP marking ref when present,
    otherwise the default for its object type (``white`` for concepts)."""
    for ref in stix_object.get("object_marking_refs", []):
        level = TLP_BY_MARKING_ID.get(ref)
        if level is not None:
            return level
    return _DEFAULT_TLP_BY_TYPE.get(stix_object.get("type", ""), "white")


def tlp_marking_object(level: str) -> dict:
    """The STIX marking-definition object for a TLP level."""
    return {
        "type": "marking-definition",
        "id": TLP_MARKING_IDS[level],
        "definition_type": "tlp",
        "definition": {"tlp": level},
        "name": f"TLP:{level.upper()}",
    }


@dataclass
class StixBundle:
    """A STIX-shaped bundle: ``{type, id, objects}``."""

    objects: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "type": "bundle",
            "id": stix_id("bundle", str(len(self.objects))),
            "objects": list(self.objects),
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def by_type(self, stix_type: str) -> list[dict]:
        return [o for o in self.objects if o.get("type") == stix_type]


#: Edge types folded into their source object -- a report's
#: ``object_refs`` / ``created_by_ref`` -- instead of becoming
#: ``relationship`` objects.
REFERENCE_EDGE_TYPES: frozenset[str] = frozenset({"MENTIONS", "CREATED_BY"})


def _node_key(node) -> str:
    return str(node.properties.get("merge_key") or node.properties.get("name", ""))


def node_object(node, markings: bool = False) -> dict:
    """The STIX object one graph node exports to, before any edge is
    folded into it (see :func:`add_reference`); raises
    :class:`StixMappingError` for a label the mapping does not cover."""
    label = node.label
    key = _node_key(node)
    if label in _PATTERN_BY_LABEL:
        object_id = stix_id("indicator", f"{label}|{key}")
        value = str(node.properties.get("name", "")).replace("'", "\\'")
        stix_object = {
            "type": "indicator",
            "id": object_id,
            "name": node.properties.get("name", ""),
            "pattern_type": "stix",
            "pattern": f"[{_PATTERN_BY_LABEL[label]} = '{value}']",
            "x_securitykg_kind": label,
        }
    elif label in STIX_TYPE_BY_LABEL:
        stix_type = STIX_TYPE_BY_LABEL[label]
        object_id = stix_id(stix_type, f"{label}|{key}")
        stix_object = {
            "type": stix_type,
            "id": object_id,
            "name": node.properties.get("name", ""),
            "x_securitykg_kind": label,
        }
        aliases = node.properties.get("aliases")
        if aliases:
            stix_object["aliases"] = list(aliases)
        if stix_type == "report":
            stix_object["published"] = node.properties.get("published", "")
            stix_object["x_source"] = node.properties.get("source", "")
            stix_object["x_url"] = node.properties.get("url", "")
            stix_object["object_refs"] = []
        if stix_type == "identity":
            stix_object["identity_class"] = "organization"
    else:
        raise StixMappingError(f"no STIX mapping for label {label!r}")
    # the identity key the object id was derived from: carrying it
    # lets import_bundle restore merge_key exactly, so an
    # export/import/export cycle converges to identical object ids
    stix_object["x_securitykg_key"] = key
    if markings:
        explicit = node.properties.get("tlp")
        if explicit is not None:
            level = str(explicit).lower()
            tlp_order(level)  # validate
        else:
            level = _DEFAULT_TLP_BY_TYPE.get(stix_object["type"], "white")
        stix_object["object_marking_refs"] = [TLP_MARKING_IDS[level]]
    return stix_object


def add_reference(stix_object: dict, edge_type: str, target_id: str) -> None:
    """Fold one :data:`REFERENCE_EDGE_TYPES` edge into the object its
    source node exports to.  Applied in edge order: ``object_refs``
    keeps first mentions, the last ``CREATED_BY`` wins."""
    if edge_type == "MENTIONS":
        refs = stix_object.setdefault("object_refs", [])
        if target_id not in refs:
            refs.append(target_id)
    else:
        stix_object["created_by_ref"] = target_id


def relationship_id(source_ref: str, edge_type: str, target_ref: str) -> str:
    """Id of the ``relationship`` object an edge of this type between
    these two objects exports to (parallel edges share it)."""
    return stix_id("relationship", f"{source_ref}|{edge_type}|{target_ref}")


def relationship_object(
    edge, source_ref: str, target_ref: str, level: str | None = None
) -> dict:
    """The ``relationship`` object one edge exports to, between the
    objects its endpoints export to; ``level`` marks it (the most
    sensitive of its endpoints, by the export rule)."""
    relationship = {
        "type": "relationship",
        "id": relationship_id(source_ref, edge.type, target_ref),
        "relationship_type": STIX_RELATIONSHIP_BY_EDGE.get(edge.type, "related-to"),
        "source_ref": source_ref,
        "target_ref": target_ref,
        "x_securitykg_type": edge.type,
        "x_weight": edge.properties.get("weight", 1),
    }
    if level is not None:
        relationship["object_marking_refs"] = [TLP_MARKING_IDS[level]]
    return relationship


def export_graph(graph: PropertyGraph, markings: bool = False) -> StixBundle:
    """Export a knowledge graph to a STIX-shaped bundle.

    * concept nodes become their SDO type with ``name`` (+ ``aliases``);
    * IOC nodes become ``indicator`` objects carrying a STIX pattern;
    * report nodes become ``report`` objects whose ``object_refs`` are
      the entities the report MENTIONS and whose ``created_by_ref`` is
      the vendor identity (DESCRIBES stays a relationship so the edge
      round-trips);
    * every other edge becomes a ``relationship`` object.

    With ``markings=True`` every object additionally carries a TLP
    ``object_marking_refs`` entry -- an explicit node ``tlp`` property
    wins, otherwise the object type's default classification applies,
    and a relationship inherits the most sensitive of its endpoints --
    and the referenced TLP marking-definition objects are appended to
    the bundle (the dissemination path, see ``repro.feeds``).

    The whole-graph loop over the per-object mapping
    (:func:`node_object`, :func:`add_reference`,
    :func:`relationship_object`); two nodes, or two edges, exporting to
    one object id both land in the bundle, the later one last.
    """
    bundle = StixBundle()
    id_by_node: dict[int, str] = {}
    tlp_by_id: dict[str, str] = {}

    for node in graph.nodes():
        stix_object = node_object(node, markings)
        if markings:
            tlp_by_id[stix_object["id"]] = tlp_of_object(stix_object)
        id_by_node[node.node_id] = stix_object["id"]
        bundle.objects.append(stix_object)

    objects_by_id = {o["id"]: o for o in bundle.objects}
    for edge in graph.edges():
        src_id = id_by_node[edge.src]
        dst_id = id_by_node[edge.dst]
        if edge.type in REFERENCE_EDGE_TYPES:
            add_reference(objects_by_id[src_id], edge.type, dst_id)
            continue
        level = max_tlp([tlp_by_id[src_id], tlp_by_id[dst_id]]) if markings else None
        bundle.objects.append(relationship_object(edge, src_id, dst_id, level))
    if markings:
        # one marking-definition per level some node is classified at
        # (a relationship's level is always one of its endpoints')
        present = {tlp_of_object(o) for o in bundle.objects}
        bundle.objects.extend(
            tlp_marking_object(level) for level in TLP_LEVELS if level in present
        )
    return bundle


def within_ceiling(stix_object: dict, ceiling: int) -> bool:
    """Whether a consumer cleared up to TLP order ``ceiling`` may see the
    object at all: its own classification decides, and a TLP
    marking-definition is visible up to the level it defines."""
    if stix_object.get("type") == "marking-definition":
        level = TLP_BY_MARKING_ID.get(stix_object.get("id", ""))
        return level is None or tlp_order(level) <= ceiling
    return tlp_order(tlp_of_object(stix_object)) <= ceiling


def tier_view(stix_object: dict, visible, sanitize: bool = False) -> dict:
    """An object :func:`within_ceiling` as its tier sees it, made in
    place on the caller's copy: ``object_refs`` sorted and pruned to the
    ids ``visible`` accepts, a ``created_by_ref`` to an invisible object
    removed, and with ``sanitize`` the sourcing fields stripped from a
    report."""
    if "object_refs" in stix_object:
        stix_object["object_refs"] = sorted(
            ref for ref in stix_object["object_refs"] if visible(ref)
        )
    if "created_by_ref" in stix_object:
        if not visible(stix_object["created_by_ref"]):
            del stix_object["created_by_ref"]
    if sanitize and stix_object.get("type") == "report":
        for field_name in _SANITIZED_FIELDS:
            stix_object.pop(field_name, None)
    return stix_object


def filter_bundle(
    bundle: StixBundle, max_level: str, sanitize: bool = False
) -> StixBundle:
    """The view of a bundle a consumer cleared up to ``max_level`` may
    see.

    * objects classified above the ceiling are dropped;
    * relationships whose source or target was dropped go with them;
    * surviving report ``object_refs`` are pruned to surviving ids;
    * marking-definitions above the ceiling are dropped;
    * ``sanitize=True`` additionally strips sourcing fields
      (``x_source``, ``x_url``) from reports -- the public-feed grade.

    Objects are deep-copied, so the input bundle is never mutated, and
    the output ordering is canonical (sorted by object id) so identical
    graph states always serialise to identical bytes.  The whole-bundle
    loop over :func:`within_ceiling` and :func:`tier_view`.
    """
    ceiling = tlp_order(max_level)
    kept: dict[str, dict] = {}
    relationships: list[dict] = []
    for stix_object in bundle.objects:
        if not within_ceiling(stix_object, ceiling):
            continue
        copy = json.loads(json.dumps(stix_object))
        if stix_object.get("type") == "relationship":
            relationships.append(copy)
        else:
            kept[copy["id"]] = copy
    for relationship in relationships:
        if (
            relationship["source_ref"] in kept
            and relationship["target_ref"] in kept
        ):
            kept[relationship["id"]] = relationship
    for stix_object in kept.values():
        tier_view(stix_object, kept.__contains__, sanitize)
    return StixBundle(objects=[kept[key] for key in sorted(kept)])


def canonical_bundle(bundle: StixBundle) -> StixBundle:
    """A canonically ordered copy: objects sorted by id, report
    ``object_refs`` sorted -- identical graph states serialise to
    identical bytes regardless of iteration or partition order."""
    objects = {
        o["id"]: json.loads(json.dumps(o)) for o in bundle.objects
    }
    for stix_object in objects.values():
        if "object_refs" in stix_object:
            stix_object["object_refs"] = sorted(stix_object["object_refs"])
    return StixBundle(objects=[objects[key] for key in sorted(objects)])


def import_bundle(bundle: StixBundle | dict) -> PropertyGraph:
    """Rebuild a property graph from an exported bundle.

    Inverse of :func:`export_graph` for everything the mapping covers:
    node labels come back from ``x_securitykg_kind``, report
    ``object_refs`` become MENTIONS edges, ``created_by_ref`` becomes
    CREATED_BY, and relationship objects restore their original edge
    type from ``x_securitykg_type``.
    """
    data = bundle.to_dict() if isinstance(bundle, StixBundle) else bundle
    graph = PropertyGraph()
    node_by_stix_id: dict[str, int] = {}

    for stix_object in data["objects"]:
        if stix_object["type"] == "relationship":
            continue
        label = stix_object.get("x_securitykg_kind")
        if label is None:
            continue
        properties: dict[str, object] = {
            "name": stix_object.get("name", ""),
            "merge_key": str(
                stix_object.get("x_securitykg_key")
                or str(stix_object.get("name", "")).lower()
            ),
            "stix_id": stix_object["id"],
        }
        if stix_object.get("aliases"):
            properties["aliases"] = list(stix_object["aliases"])
        marked = tlp_of_object(stix_object)
        if stix_object.get("object_marking_refs") and marked != (
            _DEFAULT_TLP_BY_TYPE.get(stix_object["type"], "white")
        ):
            # a marking stricter/looser than the type default was an
            # explicit node property; restore it so re-export agrees
            properties["tlp"] = marked
        if stix_object["type"] == "report":
            properties["published"] = stix_object.get("published", "")
            properties["source"] = stix_object.get("x_source", "")
            properties["url"] = stix_object.get("x_url", "")
        node = graph.create_node(label, properties)
        node_by_stix_id[stix_object["id"]] = node.node_id

    for stix_object in data["objects"]:
        if stix_object["type"] == "relationship":
            src = node_by_stix_id.get(stix_object["source_ref"])
            dst = node_by_stix_id.get(stix_object["target_ref"])
            if src is None or dst is None:
                continue
            graph.create_edge(
                src,
                stix_object.get("x_securitykg_type", "RELATED_TO"),
                dst,
                {"weight": stix_object.get("x_weight", 1)},
            )
            continue
        node_id = node_by_stix_id.get(stix_object.get("id"))
        if node_id is None:
            continue
        for ref in stix_object.get("object_refs", []):
            target = node_by_stix_id.get(ref)
            if target is not None:
                graph.create_edge(node_id, "MENTIONS", target)
        created_by = stix_object.get("created_by_ref")
        if created_by and created_by in node_by_stix_id:
            graph.create_edge(node_id, "CREATED_BY", node_by_stix_id[created_by])

    return graph


__all__ = [
    "REFERENCE_EDGE_TYPES",
    "STIX_RELATIONSHIP_BY_EDGE",
    "STIX_TYPE_BY_LABEL",
    "TLP_BY_MARKING_ID",
    "TLP_LEVELS",
    "TLP_MARKING_IDS",
    "StixBundle",
    "StixMappingError",
    "add_reference",
    "canonical_bundle",
    "export_graph",
    "filter_bundle",
    "import_bundle",
    "max_tlp",
    "node_object",
    "relationship_id",
    "relationship_object",
    "stix_id",
    "tier_view",
    "tlp_marking_object",
    "tlp_of_object",
    "tlp_order",
    "within_ceiling",
]
