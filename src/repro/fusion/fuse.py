"""Knowledge fusion: merging alias nodes (paper section 2.5).

The storage stage only merges nodes whose description text matches
exactly; nodes that are "the same malware represented in different
naming conventions by different CTI vendors" survive as distinct
nodes.  This separate stage finds those alias groups (same label,
similar names), creates one unified node per group, migrates every
relation edge onto it, and records the aliases -- without ever running
inside the main pipeline, so nothing is deleted early.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fusion.similarity import name_similarity, squash
from repro.graphdb.store import PropertyGraph
from repro.graphdb.wal import GraphDatabase


@dataclass
class FusionReport:
    """What one fusion pass did."""

    nodes_before: int = 0
    nodes_after: int = 0
    groups_merged: int = 0
    aliases_resolved: int = 0
    merged_groups: list[list[str]] = field(default_factory=list)


class _UnionFind:
    def __init__(self, items: list[int]):
        self.parent = {item: item for item in items}

    def find(self, item: int) -> int:
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: int, b: int) -> None:
        self.parent[self.find(a)] = self.find(b)


class KnowledgeFusion:
    """Alias clustering + node merging over a graph database."""

    #: Minimum :func:`~repro.fusion.similarity.name_similarity` for two
    #: same-label nodes to be aliases (squash-equal names always are).
    THRESHOLD = 0.93
    #: Node labels eligible for fusion.  IOCs are excluded: two
    #: similar-looking hashes are *different* hashes.
    FUSABLE_LABELS = frozenset(
        {"Malware", "ThreatActor", "Technique", "Tool", "Software", "Campaign",
         "Vendor"}
    )

    # -- clustering ------------------------------------------------------

    def find_alias_groups(self, graph: PropertyGraph) -> list[list[int]]:
        """Groups (size >= 2) of node ids judged to be the same entity."""
        groups: list[list[int]] = []
        for label in sorted(self.FUSABLE_LABELS):
            nodes = list(graph.nodes(label))
            if len(nodes) < 2:
                continue
            uf = _UnionFind([n.node_id for n in nodes])
            # Exact squash equality via bucketing (cheap), then pairwise
            # similarity within plausible buckets (first-two-chars block).
            by_squash: dict[str, list[int]] = {}
            by_block: dict[str, list[tuple[int, str]]] = {}
            for node in nodes:
                name = str(node.properties.get("name", ""))
                squashed = squash(name)
                by_squash.setdefault(squashed, []).append(node.node_id)
                by_block.setdefault(squashed[:2], []).append((node.node_id, name))
            for members in by_squash.values():
                for other in members[1:]:
                    uf.union(members[0], other)
            for block in by_block.values():
                for i, (id_a, name_a) in enumerate(block):
                    for id_b, name_b in block[i + 1 :]:
                        if uf.find(id_a) == uf.find(id_b):
                            continue
                        if name_similarity(name_a, name_b) >= self.THRESHOLD:
                            uf.union(id_a, id_b)
            clusters: dict[int, list[int]] = {}
            for node in nodes:
                clusters.setdefault(uf.find(node.node_id), []).append(node.node_id)
            groups.extend(
                sorted(members) for members in clusters.values() if len(members) > 1
            )
        return groups

    # -- entry point ----------------------------------------------------------------

    def run(self, database: GraphDatabase) -> FusionReport:
        """One full fusion pass over a database's graph.

        Alias groups are found read-only; every merge is a journaled
        ``merge_nodes`` op, and the whole pass is one engine transaction
        -- one journal record, serialised with the store's commits.  Each
        group's canonical node is its highest-degree member (the richest
        one) at the time of its merge.
        """
        graph = database.graph
        with database.engine.transaction():
            report = FusionReport(nodes_before=graph.node_count)
            for group in self.find_alias_groups(graph):
                names = [
                    str(graph.node(i).properties.get("name", "")) for i in group
                ]
                canonical = max(group, key=lambda i: (graph.degree(i), -i))
                database.merge_nodes(
                    canonical, [i for i in group if i != canonical]
                )
                report.groups_merged += 1
                report.aliases_resolved += len(group) - 1
                report.merged_groups.append(sorted(names))
            report.nodes_after = graph.node_count
        return report


__all__ = ["FusionReport", "KnowledgeFusion"]
