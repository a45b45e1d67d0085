"""Knowledge-graph statistics application.

Applications are "built by accessing the security knowledge graph
stored in the databases" (paper section 2).  This one answers the
operational questions the demo narrates while the database fills up:
how the graph grows as reports are ingested, which entities are most
connected, and how ontology coverage looks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graphdb.store import PropertyGraph


@dataclass
class GrowthPoint:
    """Graph size after some number of ingested reports."""

    reports: int
    nodes: int
    edges: int


@dataclass
class GraphStats:
    """One-shot statistics snapshot."""

    nodes: int
    edges: int
    labels: dict[str, int]
    edge_types: dict[str, int]
    top_entities: list[tuple[str, str, int]]  # (label, name, degree)
    degree_histogram: dict[int, int]

    def to_dict(self) -> dict:
        """JSON-safe form for ``stats --json`` and machine consumers."""
        return {
            "degree_histogram": {
                str(degree): count
                for degree, count in self.degree_histogram.items()
            },
            "edge_types": dict(sorted(self.edge_types.items())),
            "edges": self.edges,
            "labels": dict(sorted(self.labels.items())),
            "nodes": self.nodes,
            "top_entities": [
                {"degree": degree, "label": label, "name": name}
                for label, name, degree in self.top_entities
            ],
        }

    def describe(self) -> str:
        lines = [
            f"knowledge graph: {self.nodes} nodes, {self.edges} edges",
            "nodes by type: "
            + ", ".join(f"{label}={count}" for label, count in self.labels.items()),
            "top entities by degree:",
        ]
        for label, name, degree in self.top_entities:
            lines.append(f"  {degree:>4}  {label:<18} {name}")
        return "\n".join(lines)


def compute_stats(graph: PropertyGraph) -> GraphStats:
    """Compute the statistics snapshot for a graph: sizes, tallies, the
    degree histogram and the ten highest-degree entities."""
    degrees = [
        (node.label, str(node.properties.get("name", "")), graph.degree(node.node_id))
        for node in graph.nodes()
    ]
    degrees.sort(key=lambda item: (-item[2], item[0], item[1]))
    histogram: dict[int, int] = {}
    for _label, _name, degree in degrees:
        histogram[degree] = histogram.get(degree, 0) + 1
    return GraphStats(
        nodes=graph.node_count,
        edges=graph.edge_count,
        labels=graph.label_counts(),
        edge_types=graph.edge_type_counts(),
        top_entities=degrees[:10],
        degree_histogram=dict(sorted(histogram.items())),
    )


@dataclass
class GrowthTracker:
    """Record graph size as ingestion proceeds (benchmark E15)."""

    graph: PropertyGraph
    points: list[GrowthPoint] = field(default_factory=list)
    _reports: int = 0

    def record(self, new_reports: int) -> GrowthPoint:
        self._reports += new_reports
        point = GrowthPoint(
            reports=self._reports,
            nodes=self.graph.node_count,
            edges=self.graph.edge_count,
        )
        self.points.append(point)
        return point

    def series(self) -> list[tuple[int, int, int]]:
        return [(p.reports, p.nodes, p.edges) for p in self.points]


__all__ = ["GraphStats", "GrowthPoint", "GrowthTracker", "compute_stats"]
