"""Threat search application (paper section 3 demo scenarios).

Implements the investigations the demonstration walks through:
keyword search for a threat ("wannacry") that focuses the relevant
subgraph, actor technique profiling ("cozyduke") including other
actors sharing the same techniques, and Cypher search returning the
same node the keyword path finds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.system import SecurityKG
from repro.graphdb.store import Node
from repro.graphdb.traversal import k_hop_subgraph
from repro.ontology.entities import EntityType
from repro.search.index import SearchHit


@dataclass
class Investigation:
    """Everything a keyword investigation surfaces for one threat."""

    query: str
    focus: Node | None
    reports: list[SearchHit] = field(default_factory=list)
    related: dict[str, list[str]] = field(default_factory=dict)

    def summary(self) -> str:
        lines = [f"Investigation: {self.query!r}"]
        if self.focus is not None:
            lines.append(
                f"  focus node: {self.focus.label} "
                f"'{self.focus.properties.get('name', '')}'"
            )
        lines.append(f"  supporting reports: {len(self.reports)}")
        for kind, names in sorted(self.related.items()):
            shown = ", ".join(names[:5])
            more = f" (+{len(names) - 5})" if len(names) > 5 else ""
            lines.append(f"  {kind}: {shown}{more}")
        return "\n".join(lines)


class ThreatSearchApp:
    """Application layer over the knowledge graph + search index."""

    def __init__(self, system: SecurityKG):
        self.system = system

    # -- node lookup ------------------------------------------------------

    def find_node(self, name: str, label: str | None = None) -> Node | None:
        """The graph node whose name (or alias) matches ``name``."""
        needle = name.strip().lower()
        best: Node | None = None
        for node in self.system.graph.nodes(label):
            node_name = str(node.properties.get("name", "")).lower()
            aliases = [
                str(alias).lower()
                for alias in node.properties.get("aliases", [])
            ]
            if node_name == needle or needle in aliases:
                return node
            if best is None and needle in node_name:
                best = node
        return best

    # -- demo scenario 1: keyword search ------------------------------------

    def investigate(self, query: str) -> Investigation:
        """Keyword search a threat and collect its one-hop neighbourhood."""
        reports = self.system.keyword_search(query, limit=10)
        focus = self.find_node(query)
        related: dict[str, list[str]] = {}
        if focus is not None:
            subgraph = k_hop_subgraph(self.system.graph, focus.node_id, hops=1)
            for node in subgraph.nodes:
                if node.node_id == focus.node_id:
                    continue
                related.setdefault(node.label, []).append(
                    str(node.properties.get("name", ""))
                )
            for names in related.values():
                names.sort()
        return Investigation(query=query, focus=focus, reports=reports, related=related)

    # -- demo scenario 2: actor technique profiling -----------------------------

    def techniques_of(self, actor_name: str) -> list[str]:
        """Techniques an actor uses (via USES edges)."""
        actor = self.find_node(actor_name, EntityType.THREAT_ACTOR.value)
        if actor is None:
            return []
        names = {
            str(node.properties.get("name", ""))
            for node in self.system.graph.neighbors(
                actor.node_id, edge_type="USES", direction="out"
            )
            if node.label == EntityType.TECHNIQUE.value
        }
        return sorted(names)

    def actors_sharing_techniques(self, actor_name: str) -> list[tuple[str, int]]:
        """Other actors using the same techniques, with overlap counts."""
        actor = self.find_node(actor_name, EntityType.THREAT_ACTOR.value)
        if actor is None:
            return []
        overlap: dict[str, int] = {}
        for technique in self.system.graph.neighbors(
            actor.node_id, edge_type="USES", direction="out"
        ):
            if technique.label != EntityType.TECHNIQUE.value:
                continue
            for other in self.system.graph.neighbors(
                technique.node_id, edge_type="USES", direction="in"
            ):
                if other.node_id == actor.node_id:
                    continue
                if other.label != EntityType.THREAT_ACTOR.value:
                    continue
                name = str(other.properties.get("name", ""))
                overlap[name] = overlap.get(name, 0) + 1
        return sorted(overlap.items(), key=lambda kv: (-kv[1], kv[0]))

    # -- demo scenario 3: Cypher equivalence ---------------------------------------

    def cypher_lookup(self, name: str) -> Node | None:
        """The paper's Cypher query; must return the same node as
        keyword search."""
        escaped = name.replace('"', '\\"')
        rows = self.system.cypher(
            f'match (n) where n.merge_key = "{escaped.lower()}" return n'
        )
        if rows:
            return rows[0]["n"]
        rows = self.system.cypher(
            f'match (n) where n.name = "{escaped}" return n'
        )
        return rows[0]["n"] if rows else None


__all__ = ["Investigation", "ThreatSearchApp"]
