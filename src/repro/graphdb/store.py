"""In-process property graph store.

The Neo4j substitute at the heart of the storage stage: labelled
nodes and typed, directed edges, both carrying free-form properties.
The store maintains the indexes the workload needs -- label index,
(label, property, value) index, per-type adjacency lists in both
directions and a per-type edge total -- and is safe for concurrent
readers with single-writer semantics.

Persistence (snapshot + write-ahead log) lives in
:mod:`repro.graphdb.wal`; query processing in
:mod:`repro.graphdb.cypher`.
"""

from __future__ import annotations

import json
import sys
import threading
from bisect import insort
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator

from repro.runtime.locks import named_lock
from repro.runtime.memo import memoised


@dataclass
class Node:
    """A graph node: integer id, one label, property map."""

    node_id: int
    label: str
    properties: dict[str, object] = field(default_factory=dict)

    def get(self, key: str, default: object = None) -> object:
        return self.properties.get(key, default)

    def snapshot_data(self) -> dict:
        return {"id": self.node_id, "label": self.label, "props": self.properties}


@dataclass
class Edge:
    """A directed, typed edge with properties."""

    edge_id: int
    type: str
    src: int
    dst: int
    properties: dict[str, object] = field(default_factory=dict)

    def get(self, key: str, default: object = None) -> object:
        return self.properties.get(key, default)

    def snapshot_data(self) -> dict:
        return {"id": self.edge_id, "src": self.src, "type": self.type,
                "dst": self.dst, "props": self.properties}


#: Property names that participate in the (label, key, value) index.
INDEXED_PROPERTIES: frozenset[str] = frozenset(
    {"name", "merge_key", "report_id", "source"}
)


def _interned_props(properties: dict[str, object] | None) -> dict[str, object]:
    """Copy a property map, interning its keys.

    The same handful of keys ("name", "merge_key", "reports", ...)
    recurs across every node and edge in the graph; interning collapses
    each to a single string object so the hot index/property dicts
    compare keys by pointer before falling back to character
    comparison, and the per-node key storage is shared.
    """
    if not properties:
        return {}
    return {sys.intern(key): value for key, value in properties.items()}


def _encode_item(_: int, item: Node | Edge) -> str:
    return json.dumps(item.snapshot_data())


def _edge_ids(
    adjacency: dict[int, dict[str, list[int]]], node_id: int, edge_type: str | None
) -> list[int] | tuple[()]:
    """One direction's edge ids of ``node_id``, ascending: those of
    ``edge_type``, or all of them -- the node's one list, or the sorted
    union of its lists."""
    by_type = adjacency.get(node_id, {})
    if edge_type is not None:
        return by_type.get(edge_type, ())
    if len(by_type) > 1:
        return sorted(chain.from_iterable(by_type.values()))
    return next(iter(by_type.values()), ())


def _degree(
    adjacency: dict[int, dict[str, list[int]]], node_id: int, edge_type: str | None
) -> int:
    """The length of :func:`_edge_ids`, without building it."""
    by_type = adjacency.get(node_id, {})
    if edge_type is None:
        return sum(map(len, by_type.values()))
    return len(by_type.get(edge_type, ()))


def _drain(
    touched: set[int], items: dict[int, object], mark: int, last: int
) -> list[int]:
    """Empty ``touched`` into an ascending list together with every live
    id in ``(mark, last]`` (and possibly dead ones): the range itself
    where ids are dense -- a store hands them out consecutively -- a
    scan where restores left them sparse (a detached union copy spans
    every partition's id range)."""
    if last - mark <= len(items):
        created: Iterable[int] = range(mark + 1, last + 1)
    else:
        created = [item_id for item_id in items if item_id > mark]
    drained = sorted(touched.union(created))
    touched.clear()
    return drained


class PropertyGraph:
    """Mutable property graph with label/property/adjacency indexes.

    ``id_base`` offsets the node/edge id counters (first id is
    ``id_base + 1``); a sharded deployment gives each partition a
    disjoint id range so ids stay globally unique across partitions and
    the partition graphs read as one without renumbering.
    """

    def __init__(self, id_base: int = 0):
        self._nodes: dict[int, Node] = {}
        self._edges: dict[int, Edge] = {}
        # adjacency: node -> edge type -> ascending edge ids, so a typed
        # hop reads only its own edges and an untyped one merges the lists
        self._out: dict[int, dict[str, list[int]]] = {}
        self._in: dict[int, dict[str, list[int]]] = {}
        # edge type -> live edge count; a type goes with its last edge
        self._type_counts: dict[str, int] = {}
        self._label_index: dict[str, set[int]] = {}
        self._property_index: dict[tuple[str, str, object], set[int]] = {}
        # key -> python type names ever observed for it (node or edge
        # properties alike); grows monotonically, feeding the Cypher
        # semantic analyzer without a per-query graph scan.
        self._property_types: dict[str, set[str]] = {}
        self.id_base = int(id_base)
        #: id high-water marks: the last ids handed out, which merges
        #: (they delete nodes and edges) leave above the largest live id
        self.last_node_id = self.id_base
        self.last_edge_id = self.id_base
        # change capture (see take_changes): everything above these
        # marks was created since the last drain, so only touches of
        # older ids are recorded and an undrained graph accumulates
        # nothing
        self._drained_node_id = self.id_base
        self._drained_edge_id = self.id_base
        self._touched_nodes: set[int] = set()
        self._touched_edges: set[int] = set()
        # id -> snapshot encoding (encoded_items), dropped by a touch
        self._node_texts: dict[int, str] = {}
        self._edge_texts: dict[int, str] = {}
        #: bumped by every mutation primitive and never reset: what a
        #: reader derived from the graph (a query plan, the analyzer's
        #: schema) is still true while this has not moved
        self.version = 0
        self._lock = named_lock("graphdb.store", reentrant=True)

    # -- node operations ------------------------------------------------

    def create_node(
        self, label: str, properties: dict[str, object] | None = None
    ) -> Node:
        """Insert a node and index it; returns the stored node."""
        with self._lock:
            return self.restore_node(self.last_node_id + 1, label, properties)

    def restore_node(
        self, node_id: int, label: str, properties: dict[str, object] | None
    ) -> Node:
        """Insert a node under a given id (snapshot recovery keeps the
        original one); the id high-water mark advances past ``node_id``
        so later inserts never collide."""
        with self._lock:
            if node_id in self._nodes:
                raise KeyError(f"node {node_id} already exists")
            label = sys.intern(label)
            node = Node(node_id, label, _interned_props(properties))
            self._nodes[node_id] = node
            self._out[node_id] = {}
            self._in[node_id] = {}
            self._label_index.setdefault(label, set()).add(node_id)
            self._index_node_properties(node)
            self.last_node_id = max(self.last_node_id, node_id)
            self._touch_node(node_id)
            return node

    def _index_node_properties(self, node: Node) -> None:
        self._observe_properties(node.properties)
        for key, value in node.properties.items():
            if key in INDEXED_PROPERTIES and isinstance(value, (str, int, float, bool)):
                self._property_index.setdefault(
                    (node.label, key, value), set()
                ).add(node.node_id)

    def _observe_properties(self, properties: dict[str, object]) -> None:
        for key, value in properties.items():
            self._property_types.setdefault(key, set()).add(type(value).__name__)

    def _deindex_node_properties(self, node: Node) -> None:
        for key, value in node.properties.items():
            if key in INDEXED_PROPERTIES and isinstance(value, (str, int, float, bool)):
                bucket = self._property_index.get((node.label, key, value))
                if bucket:
                    bucket.discard(node.node_id)

    def node(self, node_id: int) -> Node:
        """Fetch a node by id; raises ``KeyError`` when absent."""
        node = self._nodes.get(node_id)
        if node is None:
            raise KeyError(f"no node {node_id}")
        return node

    def has_node(self, node_id: int) -> bool:
        return node_id in self._nodes

    def set_node_properties(self, node_id: int, properties: dict[str, object]) -> Node:
        """Merge properties into a node (re-indexing as needed)."""
        with self._lock:
            node = self.node(node_id)
            self._deindex_node_properties(node)
            node.properties.update(_interned_props(properties))
            self._index_node_properties(node)
            self._touch_node(node_id)
            return node

    def delete_node(self, node_id: int) -> None:
        """Remove a node and every edge touching it."""
        with self._lock:
            node = self.node(node_id)
            lists = (*self._out[node_id].values(), *self._in[node_id].values())
            for edge_id in list(chain.from_iterable(lists)):
                if edge_id in self._edges:  # a self-loop is listed twice
                    self.delete_edge(edge_id)
            self._deindex_node_properties(node)
            self._label_index.get(node.label, set()).discard(node_id)
            del self._out[node_id]
            del self._in[node_id]
            del self._nodes[node_id]
            self._touch_node(node_id)

    # -- edge operations ---------------------------------------------------

    def create_edge(
        self,
        src: int,
        edge_type: str,
        dst: int,
        properties: dict[str, object] | None = None,
    ) -> Edge:
        """Insert a directed edge; endpoints must exist."""
        with self._lock:
            return self.restore_edge(
                self.last_edge_id + 1, src, edge_type, dst, properties
            )

    def restore_edge(
        self,
        edge_id: int,
        src: int,
        edge_type: str,
        dst: int,
        properties: dict[str, object] | None,
    ) -> Edge:
        """Insert an edge under a given id (snapshot recovery keeps the
        original one: journal records written after the snapshot name
        edges by id, and merges leave gaps a renumbering would close)."""
        with self._lock:
            if src not in self._nodes:
                raise KeyError(f"no source node {src}")
            if dst not in self._nodes:
                raise KeyError(f"no target node {dst}")
            if edge_id in self._edges:
                raise KeyError(f"edge {edge_id} already exists")
            edge = Edge(
                edge_id, sys.intern(edge_type), src, dst,
                _interned_props(properties),
            )
            self._observe_properties(edge.properties)
            self._edges[edge_id] = edge
            edge_type = edge.type
            # an append for every id the store hands out
            insort(self._out[src].setdefault(edge_type, []), edge_id)
            insort(self._in[dst].setdefault(edge_type, []), edge_id)
            self._type_counts[edge_type] = self._type_counts.get(edge_type, 0) + 1
            self.last_edge_id = max(self.last_edge_id, edge_id)
            self._touch_edge(edge_id)
            return edge

    def has_edge(self, edge_id: int) -> bool:
        return edge_id in self._edges

    def edge(self, edge_id: int) -> Edge:
        edge = self._edges.get(edge_id)
        if edge is None:
            raise KeyError(f"no edge {edge_id}")
        return edge

    def delete_edge(self, edge_id: int) -> None:
        with self._lock:
            edge = self.edge(edge_id)
            edge_type = edge.type
            for by_type in (self._out[edge.src], self._in[edge.dst]):
                ids = by_type[edge_type]
                ids.remove(edge_id)
                if not ids:
                    del by_type[edge_type]
            remaining = self._type_counts[edge_type] - 1
            if remaining:
                self._type_counts[edge_type] = remaining
            else:
                del self._type_counts[edge_type]
            del self._edges[edge_id]
            self._touch_edge(edge_id)

    def set_edge_properties(self, edge_id: int, properties: dict[str, object]) -> Edge:
        with self._lock:
            edge = self.edge(edge_id)
            edge.properties.update(_interned_props(properties))
            self._observe_properties(edge.properties)
            self._touch_edge(edge_id)
            return edge

    # -- change capture ------------------------------------------------------

    def _touch_node(self, node_id: int) -> None:
        self.version += 1
        self._node_texts.pop(node_id, None)
        if node_id <= self._drained_node_id:
            self._touched_nodes.add(node_id)

    def _touch_edge(self, edge_id: int) -> None:
        self.version += 1
        self._edge_texts.pop(edge_id, None)
        if edge_id <= self._drained_edge_id:
            self._touched_edges.add(edge_id)

    def encoded_items(self) -> tuple[list[str], list[str]]:
        """``json.dumps`` of each node's and edge's ``snapshot_data()`` in
        :meth:`nodes` / :meth:`edges` order, memoised until a mutation
        primitive touches the item."""
        with self._lock:
            return (
                memoised(self._node_texts, self._nodes.items(), _encode_item),
                memoised(self._edge_texts, self._edges.items(), _encode_item),
            )

    def take_changes(self) -> tuple[list[int], list[int]]:
        """Drain the change capture: the ascending ids of the nodes, and
        of the edges, created, modified or deleted since the previous
        call -- every id on the first one.  An id may name an item that
        is gone (again); the caller asks ``has_node`` / ``has_edge``.

        The six mutation primitives (``restore_*``, ``set_*_properties``,
        ``delete_*``) feed it, and everything else that writes -- the
        connectors, Cypher ``CREATE``, ``merge_nodes``, journal replay,
        snapshot load -- goes through them.  One consumer per graph: a
        drain hands each change out once.
        """
        with self._lock:
            nodes = _drain(
                self._touched_nodes, self._nodes,
                self._drained_node_id, self.last_node_id,
            )
            edges = _drain(
                self._touched_edges, self._edges,
                self._drained_edge_id, self.last_edge_id,
            )
            self._drained_node_id = self.last_node_id
            self._drained_edge_id = self.last_edge_id
            return nodes, edges

    # -- merging -------------------------------------------------------------

    def merge_nodes(self, canonical_id: int, losers: list[int]) -> None:
        """Fold alias nodes into ``canonical_id`` (knowledge fusion).

        The canonical name wins, the other names become ``aliases``,
        properties the canonical node lacks are adopted, edges are
        migrated with de-duplication, and the losers are deleted.  A
        pure function of the graph and its arguments, so replaying the
        journaled op reproduces the merge exactly, ids included.
        """
        with self._lock:
            canonical = self.node(canonical_id)
            aliases = set(canonical.properties.get("aliases", []))
            merged_properties: dict[str, object] = {}
            for node_id in losers:
                node = self.node(node_id)
                name = str(node.properties.get("name", ""))
                if name and name != canonical.properties.get("name"):
                    aliases.add(name)
                for key, value in node.properties.items():
                    if key in ("name", "merge_key", "aliases"):
                        continue
                    if key not in canonical.properties:
                        merged_properties[key] = value
                for edge in self.out_edges(node_id):
                    self._migrate_edge(edge.edge_id, src=canonical_id)
                for edge in self.in_edges(node_id):
                    # a self-loop was already consumed by the out-edge pass
                    if self.has_edge(edge.edge_id):
                        self._migrate_edge(edge.edge_id, dst=canonical_id)
                self.delete_node(node_id)
            merged_properties["aliases"] = sorted(aliases)
            self.set_node_properties(canonical_id, merged_properties)

    def _migrate_edge(
        self, edge_id: int, src: int | None = None, dst: int | None = None
    ) -> None:
        """Recreate an edge with one endpoint moved, merging duplicates."""
        edge = self.edge(edge_id)
        new_src = src if src is not None else edge.src
        new_dst = dst if dst is not None else edge.dst
        if new_src == new_dst:
            self.delete_edge(edge_id)
            return
        existing = self.parallel_edge(new_src, edge.type, new_dst)
        if existing is not None:
            weight = int(existing.properties.get("weight", 1)) + int(
                edge.properties.get("weight", 1)
            )
            reports = list(existing.properties.get("reports", []))
            for report in edge.properties.get("reports", []):
                if report not in reports:
                    reports.append(report)
            self.set_edge_properties(
                existing.edge_id, {"weight": weight, "reports": reports}
            )
        else:
            self.create_edge(new_src, edge.type, new_dst, dict(edge.properties))
        self.delete_edge(edge_id)

    # -- lookups -----------------------------------------------------------

    def nodes(self, label: str | None = None) -> Iterator[Node]:
        """All nodes, optionally restricted to one label."""
        if label is None:
            yield from list(self._nodes.values())
            return
        for node_id in sorted(self._label_index.get(label, ())):
            node = self._nodes.get(node_id)
            if node is not None:
                yield node

    def node_ids(self, label: str | None = None) -> list[int]:
        """Sorted node ids, optionally restricted to one label.

        A stable, ascending id list is what the resumable query
        iterators scan over: a continuation records the last id
        consumed, and resuming filters ``> last`` -- robust even when
        nodes were inserted between two slices of a paginated query.
        """
        if label is None:
            return sorted(self._nodes)
        return sorted(self._label_index.get(label, ()))

    def index_lookup_ids(self, label: str, key: str, value: object) -> list[int]:
        """Sorted node ids in the (label, key, value) property index.

        Empty when the key is not indexed (see
        :data:`INDEXED_PROPERTIES`) or no node matches; callers decide
        between this and a label scan via :meth:`index_size`.
        """
        return sorted(self._property_index.get((label, key, value), ()))

    def index_size(self, label: str, key: str, value: object) -> int:
        """Cardinality of one (label, key, value) index bucket."""
        return len(self._property_index.get((label, key, value), ()))

    def label_count(self, label: str) -> int:
        """Number of nodes carrying ``label`` (0 for unknown labels)."""
        return len(self._label_index.get(label, ()))

    def edges(self, edge_type: str | None = None) -> Iterator[Edge]:
        for edge in list(self._edges.values()):
            if edge_type is None or edge.type == edge_type:
                yield edge

    def find_nodes(
        self, label: str | None = None, **properties: object
    ) -> list[Node]:
        """Nodes matching a label and exact property values.

        Uses the (label, key, value) index when possible, scanning
        otherwise.
        """
        candidates: Iterable[Node]
        indexed = [
            (key, value)
            for key, value in properties.items()
            if key in INDEXED_PROPERTIES and label is not None
        ]
        if indexed:
            key, value = indexed[0]
            ids = self._property_index.get((label, key, value), set())
            candidates = [self._nodes[i] for i in sorted(ids) if i in self._nodes]
        else:
            candidates = self.nodes(label)
        return [
            node
            for node in candidates
            if all(node.properties.get(k) == v for k, v in properties.items())
        ]

    def find_node(self, label: str | None = None, **properties: object) -> Node | None:
        """First match of :meth:`find_nodes`, or ``None``."""
        matches = self.find_nodes(label, **properties)
        return matches[0] if matches else None

    # -- adjacency ------------------------------------------------------------

    def out_edges(self, node_id: int, edge_type: str | None = None) -> list[Edge]:
        edges = self._edges
        return [edges[e] for e in _edge_ids(self._out, node_id, edge_type)]

    def in_edges(self, node_id: int, edge_type: str | None = None) -> list[Edge]:
        edges = self._edges
        return [edges[e] for e in _edge_ids(self._in, node_id, edge_type)]

    def parallel_edge(self, src: int, edge_type: str, dst: int) -> Edge | None:
        """The first edge of ``edge_type`` from ``src`` to ``dst`` -- the
        one a writer folds a parallel edge into -- or ``None``."""
        edges = self._edges
        candidates = (edges[e] for e in _edge_ids(self._out, src, edge_type))
        return next((edge for edge in candidates if edge.dst == dst), None)

    def neighbors(
        self,
        node_id: int,
        edge_type: str | None = None,
        direction: str = "both",
    ) -> list[Node]:
        """Adjacent nodes (deduplicated, stable order)."""
        seen: set[int] = set()
        result: list[Node] = []
        if direction in ("out", "both"):
            for edge in self.out_edges(node_id, edge_type):
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    result.append(self._nodes[edge.dst])
        if direction in ("in", "both"):
            for edge in self.in_edges(node_id, edge_type):
                if edge.src not in seen:
                    seen.add(edge.src)
                    result.append(self._nodes[edge.src])
        return result

    def degree(
        self, node_id: int, edge_type: str | None = None, direction: str = "both"
    ) -> int:
        """How many edges of ``edge_type`` (any type when ``None``) leave
        (``"out"``), enter (``"in"``) or touch (``"both"``) the node: the
        length of :meth:`out_edges`, of :meth:`in_edges` or their sum, so
        a self-loop counts once per direction and twice under ``"both"``."""
        count = 0
        if direction in ("out", "both"):
            count += _degree(self._out, node_id, edge_type)
        if direction in ("in", "both"):
            count += _degree(self._in, node_id, edge_type)
        return count

    # -- stats -------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def label_counts(self) -> dict[str, int]:
        """Node count per label (empty labels omitted)."""
        return {
            label: len(ids)
            for label, ids in sorted(self._label_index.items())
            if ids
        }

    def edge_type_counts(self) -> dict[str, int]:
        """Edge count per type (types with no edge omitted)."""
        return dict(sorted(self._type_counts.items()))

    def property_schema(self) -> dict[str, frozenset[str]]:
        """Property key -> python type names ever stored under it.

        Maintained incrementally on every write (deletions are *not*
        rescanned -- the schema is a monotone over-approximation, which
        is the right shape for advisory query analysis).
        """
        return {key: frozenset(types) for key, types in self._property_types.items()}


__all__ = ["Edge", "INDEXED_PROPERTIES", "Node", "PropertyGraph"]
