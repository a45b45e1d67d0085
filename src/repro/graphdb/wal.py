"""Durable property graph on the storage engine.

:class:`GraphDatabase` is the graph's mutation API (single mutations,
each its own commit unless an ``engine.transaction()`` is open);
persistence lives in :class:`repro.storage.StorageEngine`: the graph
registers a :class:`GraphParticipant` whose op batches are journalled
alongside the search index's and crawl state's, so one pipeline batch
commits across all stores atomically.  A database is always built on
the engine it commits through; compaction and shutdown are that
engine's ``checkpoint()`` and ``close()``.
"""

from __future__ import annotations

import json

from repro.graphdb.store import Edge, Node, PropertyGraph
from repro.storage.engine import StorageEngine


class GraphApplyOutcome:
    """What applying one graph op batch produced."""

    __slots__ = ("id_map", "edges")

    def __init__(self, id_map: dict[int, int], edges: list[Edge]):
        self.id_map = id_map
        self.edges = edges


class GraphParticipant:
    """The property graph's storage-engine adapter.

    Ops (a placeholder is scoped to its batch; :class:`GraphDatabase`
    writes one-op batches naming real ids, and a journal whose batches
    build a subgraph out of placeholders replays the same way):

    - ``create_node``: ``ref`` (placeholder < 0), ``label``, ``props``
    - ``create_edge``: ``src``/``dst`` (real or placeholder), ``type``, ``props``
    - ``set_node_props`` / ``set_edge_props``: ``id``, ``props``
    - ``merge_nodes``: ``canonical``, ``losers`` (knowledge fusion)
    """

    name = "graph"

    def __init__(self, id_base: int = 0) -> None:
        # ``id_base`` gives a sharded partition its disjoint id range;
        # it must survive snapshot reloads and resets so replayed ids
        # keep the same offset.
        self.id_base = int(id_base)
        self.graph = PropertyGraph(id_base=self.id_base)

    def apply(self, ops: list[dict]) -> GraphApplyOutcome:
        id_map: dict[int, int] = {}
        edges: list[Edge] = []

        def real(node_id: int) -> int:
            return id_map.get(node_id, node_id) if node_id < 0 else node_id

        for op in ops:
            kind = op["op"]
            if kind == "create_node":
                node = self.graph.create_node(op["label"], op["props"])
                id_map[int(op["ref"])] = node.node_id
            elif kind == "create_edge":
                edges.append(
                    self.graph.create_edge(
                        real(int(op["src"])),
                        op["type"],
                        real(int(op["dst"])),
                        op["props"],
                    )
                )
            elif kind == "set_node_props":
                self.graph.set_node_properties(real(int(op["id"])), op["props"])
            elif kind == "set_edge_props":
                self.graph.set_edge_properties(int(op["id"]), op["props"])
            elif kind == "merge_nodes":
                self.graph.merge_nodes(int(op["canonical"]), op["losers"])
            else:  # pragma: no cover - corrupted journal
                raise ValueError(f"unknown graph operation {kind!r}")
        return GraphApplyOutcome(id_map, edges)

    def snapshot_data(self) -> dict:
        return {
            "nodes": [n.snapshot_data() for n in self.graph.nodes()],
            "edges": [e.snapshot_data() for e in self.graph.edges()],
            "last_node_id": self.graph.last_node_id,
            "last_edge_id": self.graph.last_edge_id,
        }

    def snapshot_text(self) -> str:
        nodes, edges = self.graph.encoded_items()
        return (
            f'{{"nodes": [{", ".join(nodes)}], "edges": [{", ".join(edges)}], '
            f'"last_node_id": {json.dumps(self.graph.last_node_id)}, '
            f'"last_edge_id": {json.dumps(self.graph.last_edge_id)}}}'
        )

    def load_snapshot(self, data: dict) -> None:
        # Ids and their high-water marks must survive restarts verbatim:
        # journal records written after the snapshot name nodes and edges
        # by id, and replayed inserts must draw the ids the live process
        # drew.  Snapshots that predate edge ids number edges in file order.
        graph = PropertyGraph(id_base=self.id_base)
        for node_data in data.get("nodes", []):
            graph.restore_node(
                int(node_data["id"]), node_data["label"], node_data["props"]
            )
        for edge_data in data.get("edges", []):
            graph.restore_edge(
                int(edge_data.get("id", graph.last_edge_id + 1)),
                int(edge_data["src"]),
                edge_data["type"],
                int(edge_data["dst"]),
                edge_data["props"],
            )
        graph.last_node_id = max(graph.last_node_id, data.get("last_node_id", 0))
        graph.last_edge_id = max(graph.last_edge_id, data.get("last_edge_id", 0))
        self.graph = graph

    def reset(self) -> None:
        self.graph = PropertyGraph(id_base=self.id_base)


class GraphDatabase:
    """Persistent property graph: the graph's face on the engine's
    journal and snapshots.  Several mutations become one journal record
    inside ``with database.engine.transaction():``.

    ``engine`` is an open :class:`~repro.storage.StorageEngine` with a
    ``graph`` participant registered.
    """

    def __init__(self, engine: StorageEngine):
        self.engine = engine
        self._participant = engine.participant(GraphParticipant.name)

    @property
    def graph(self) -> PropertyGraph:
        return self._participant.graph

    # -- mutation path ----------------------------------------------------

    def _log(self, op: dict[str, object]) -> GraphApplyOutcome:
        return self.engine.log(GraphParticipant.name, [op])

    def create_node(self, label: str, properties: dict[str, object] | None = None) -> Node:
        """Auto-committed single-node insert."""
        outcome = self._log(
            {"op": "create_node", "ref": -1, "label": label,
             "props": dict(properties or {})}
        )
        return self.graph.node(outcome.id_map[-1])

    def create_edge(
        self,
        src: int,
        edge_type: str,
        dst: int,
        properties: dict[str, object] | None = None,
    ) -> Edge:
        """Auto-committed single-edge insert."""
        outcome = self._log(
            {"op": "create_edge", "src": src, "type": edge_type, "dst": dst,
             "props": dict(properties or {})}
        )
        return outcome.edges[-1]

    def set_node_properties(self, node_id: int, properties: dict[str, object]) -> None:
        """Auto-committed property merge on a node."""
        self._log({"op": "set_node_props", "id": node_id, "props": dict(properties)})

    def set_edge_properties(self, edge_id: int, properties: dict[str, object]) -> None:
        """Auto-committed property merge on an edge."""
        self._log({"op": "set_edge_props", "id": edge_id, "props": dict(properties)})

    def merge_nodes(self, canonical_id: int, losers: list[int]) -> None:
        """Auto-committed fold of alias nodes into ``canonical_id``."""
        self._log({"op": "merge_nodes", "canonical": canonical_id, "losers": losers})


__all__ = [
    "GraphDatabase",
    "GraphParticipant",
]
