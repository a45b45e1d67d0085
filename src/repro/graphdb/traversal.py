"""Graph traversal helpers used by the UI and applications.

The web UI's node expansion, random-subgraph fetch and neighbourhood
views (paper section 2.6) all reduce to these primitives: bounded BFS,
k-hop neighbourhoods and induced subgraphs.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from repro.graphdb.store import Edge, Node, PropertyGraph


@dataclass
class Subgraph:
    """An induced subgraph: nodes plus the edges among them."""

    nodes: list[Node] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)

    @property
    def node_ids(self) -> set[int]:
        return {node.node_id for node in self.nodes}


def bfs_nodes(
    graph: PropertyGraph,
    start: int,
    max_depth: int = 2,
    max_nodes: int | None = None,
    edge_type: str | None = None,
) -> list[tuple[Node, int]]:
    """Breadth-first nodes with their depth, up to the given bounds."""
    if not graph.has_node(start):
        raise KeyError(f"no node {start}")
    visited = {start}
    order: list[tuple[Node, int]] = [(graph.node(start), 0)]
    queue: deque[tuple[int, int]] = deque([(start, 0)])
    while queue:
        node_id, depth = queue.popleft()
        if depth >= max_depth:
            continue
        for neighbor in graph.neighbors(node_id, edge_type):
            if neighbor.node_id in visited:
                continue
            visited.add(neighbor.node_id)
            order.append((neighbor, depth + 1))
            if max_nodes is not None and len(order) >= max_nodes:
                return order
            queue.append((neighbor.node_id, depth + 1))
    return order


def k_hop_subgraph(
    graph: PropertyGraph,
    start: int,
    hops: int = 1,
    max_nodes: int | None = None,
) -> Subgraph:
    """The induced subgraph of the k-hop neighbourhood of ``start``."""
    reached = bfs_nodes(graph, start, max_depth=hops, max_nodes=max_nodes)
    return induced_subgraph(graph, [node.node_id for node, _depth in reached])


def induced_subgraph(graph: PropertyGraph, node_ids: list[int]) -> Subgraph:
    """Nodes plus every stored edge whose both endpoints are included."""
    wanted = set(node_ids)
    nodes = [graph.node(i) for i in node_ids if graph.has_node(i)]
    edges = [
        edge
        for edge in graph.edges()
        if edge.src in wanted and edge.dst in wanted
    ]
    return Subgraph(nodes=nodes, edges=edges)


def random_subgraph(
    graph: PropertyGraph,
    size: int,
    seed: int | None = None,
) -> Subgraph:
    """A connected-ish random subgraph for exploratory browsing.

    Starts at a random node and grows by BFS; if the component is
    exhausted early, restarts from another random unvisited node.
    """
    all_nodes = list(graph.nodes())
    if not all_nodes:
        return Subgraph()
    rng = random.Random(seed)
    rng.shuffle(all_nodes)
    chosen: list[int] = []
    visited: set[int] = set()
    pool = iter(all_nodes)
    frontier: deque[int] = deque()
    while len(chosen) < min(size, len(all_nodes)):
        if not frontier:
            try:
                candidate = next(node for node in pool if node.node_id not in visited)
            except StopIteration:
                break
            frontier.append(candidate.node_id)
            visited.add(candidate.node_id)
        node_id = frontier.popleft()
        chosen.append(node_id)
        neighbors = graph.neighbors(node_id)
        rng.shuffle(neighbors)
        for neighbor in neighbors:
            if neighbor.node_id not in visited:
                visited.add(neighbor.node_id)
                frontier.append(neighbor.node_id)
    return induced_subgraph(graph, chosen)


__all__ = [
    "Subgraph",
    "bfs_nodes",
    "induced_subgraph",
    "k_hop_subgraph",
    "random_subgraph",
]
