"""The N partition graphs as one read-only graph.

:class:`GraphUnion` answers :class:`~repro.graphdb.store.PropertyGraph`'s
read API over several partition graphs *live*: nothing is copied and
nothing renumbered, so a commit on any partition is visible to the next
read.  That works because ids are global -- partition ``i`` hands out
node and edge ids from ``i * ID_STRIDE + 1`` -- so an id names its
partition, per-partition sorted id lists concatenate sorted (the order a
``ScanOp`` continuation's ``> last`` resume relies on), and an edge never
leaves the partition of its endpoints.  The one thing it does besides
reading is drain the partitions' change capture (``take_changes``).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

from repro.graphdb.store import Edge, Node, PropertyGraph

#: Id-range stride between partitions (2**40 ids each -- effectively
#: inexhaustible per shard).
ID_STRIDE = 1 << 40


class GraphUnion:
    """Read view over partition graphs, ``graphs[i]`` owning the ids in
    ``(i * ID_STRIDE, (i + 1) * ID_STRIDE]``."""

    def __init__(self, graphs: list[PropertyGraph]):
        if not graphs:
            raise ValueError("at least one partition graph is required")
        self._graphs = list(graphs)

    def _owner(self, item_id: int) -> PropertyGraph | None:
        index = (item_id - 1) // ID_STRIDE
        return self._graphs[index] if 0 <= index < len(self._graphs) else None

    # -- by id: the id names the partition ------------------------------

    def node(self, node_id: int) -> Node:
        owner = self._owner(node_id)
        if owner is None:
            raise KeyError(f"no node {node_id}")
        return owner.node(node_id)

    def has_node(self, node_id: int) -> bool:
        owner = self._owner(node_id)
        return owner is not None and owner.has_node(node_id)

    def edge(self, edge_id: int) -> Edge:
        owner = self._owner(edge_id)
        if owner is None:
            raise KeyError(f"no edge {edge_id}")
        return owner.edge(edge_id)

    def has_edge(self, edge_id: int) -> bool:
        owner = self._owner(edge_id)
        return owner is not None and owner.has_edge(edge_id)

    def out_edges(self, node_id: int, edge_type: str | None = None) -> list[Edge]:
        owner = self._owner(node_id)
        return [] if owner is None else owner.out_edges(node_id, edge_type)

    def in_edges(self, node_id: int, edge_type: str | None = None) -> list[Edge]:
        owner = self._owner(node_id)
        return [] if owner is None else owner.in_edges(node_id, edge_type)

    def neighbors(
        self, node_id: int, edge_type: str | None = None, direction: str = "both"
    ) -> list[Node]:
        owner = self._owner(node_id)
        return [] if owner is None else owner.neighbors(node_id, edge_type, direction)

    def degree(
        self, node_id: int, edge_type: str | None = None, direction: str = "both"
    ) -> int:
        owner = self._owner(node_id)
        return 0 if owner is None else owner.degree(node_id, edge_type, direction)

    # -- scans: partition order is ascending id order -------------------

    def nodes(self, label: str | None = None) -> Iterator[Node]:
        return chain.from_iterable(g.nodes(label) for g in self._graphs)

    def edges(self) -> Iterator[Edge]:
        return chain.from_iterable(g.edges() for g in self._graphs)

    def node_ids(self, label: str | None = None) -> list[int]:
        return list(chain.from_iterable(g.node_ids(label) for g in self._graphs))

    def index_lookup_ids(self, label: str, key: str, value: object) -> list[int]:
        return list(
            chain.from_iterable(
                g.index_lookup_ids(label, key, value) for g in self._graphs
            )
        )

    def find_nodes(self, label: str | None = None, **properties: object) -> list[Node]:
        return list(
            chain.from_iterable(
                g.find_nodes(label, **properties) for g in self._graphs
            )
        )

    def find_node(self, label: str | None = None, **properties: object) -> Node | None:
        matches = self.find_nodes(label, **properties)
        return matches[0] if matches else None

    def take_changes(self) -> tuple[list[int], list[int]]:
        """Every partition's change capture drained (see
        :meth:`PropertyGraph.take_changes`); partition order keeps the
        id lists ascending."""
        nodes: list[int] = []
        edges: list[int] = []
        for graph in self._graphs:
            touched_nodes, touched_edges = graph.take_changes()
            nodes += touched_nodes
            edges += touched_edges
        return nodes, edges

    # -- statistics: sums and unions ------------------------------------

    def index_size(self, label: str, key: str, value: object) -> int:
        return sum(g.index_size(label, key, value) for g in self._graphs)

    def label_count(self, label: str) -> int:
        return sum(g.label_count(label) for g in self._graphs)

    @property
    def version(self) -> int:
        """Moves whenever any partition's does (each only ever grows)."""
        return sum(g.version for g in self._graphs)

    @property
    def node_count(self) -> int:
        return sum(g.node_count for g in self._graphs)

    @property
    def edge_count(self) -> int:
        return sum(g.edge_count for g in self._graphs)

    def label_counts(self) -> dict[str, int]:
        return _summed(g.label_counts() for g in self._graphs)

    def edge_type_counts(self) -> dict[str, int]:
        return _summed(g.edge_type_counts() for g in self._graphs)

    def property_schema(self) -> dict[str, frozenset[str]]:
        schema: dict[str, frozenset[str]] = {}
        for graph in self._graphs:
            for key, types in graph.property_schema().items():
                schema[key] = schema.get(key, frozenset()) | types
        return schema


def _summed(counts) -> dict[str, int]:
    """Per-partition ``name -> count`` dicts added up, sorted by name."""
    total: dict[str, int] = {}
    for partial in counts:
        for name, count in partial.items():
            total[name] = total.get(name, 0) + count
    return dict(sorted(total.items()))


__all__ = ["GraphUnion", "ID_STRIDE"]
