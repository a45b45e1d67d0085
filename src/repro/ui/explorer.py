"""Headless graph explorer: the UI's interaction model.

Every behaviour the demo shows (paper sections 2.6 and 3) is
implemented here against the knowledge graph, independent of pixels:

* focus on search results, with a configurable node budget;
* node expansion -- double-click spawns missing neighbours (bounded by
  the max-neighbours setting);
* node collapse -- double-click again hides the neighbours *and their
  downstream expansions* (tracked through an expansion-provenance
  tree, so nodes the user found by other routes stay);
* node dragging with lock-in-place semantics (delegated to the layout);
* a history stack behind the back button;
* random-subgraph fetch for open-ended exploration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graphdb.store import Edge, Node, PropertyGraph
from repro.graphdb.traversal import random_subgraph
from repro.ui.layout import ForceLayout


@dataclass
class ViewConfig:
    """User-tunable display limits (paper: 'the user can configure the
    number of nodes displayed and the maximum number of neighboring
    nodes displayed for a node')."""

    max_nodes: int = 60
    max_neighbors: int = 12
    layout_iterations: int = 40


@dataclass
class ViewState:
    """One snapshot of what is on the canvas."""

    node_ids: set[int] = field(default_factory=set)
    expanded_from: dict[int, int] = field(default_factory=dict)  # child -> parent
    expanded_nodes: set[int] = field(default_factory=set)
    positions: dict[int, tuple[float, float]] = field(default_factory=dict)
    pinned: set[int] = field(default_factory=set)

    def copy(self) -> "ViewState":
        return ViewState(
            node_ids=set(self.node_ids),
            expanded_from=dict(self.expanded_from),
            expanded_nodes=set(self.expanded_nodes),
            positions=dict(self.positions),
            pinned=set(self.pinned),
        )


class GraphExplorer:
    """Interactive view over a property graph."""

    def __init__(self, graph: PropertyGraph, config: ViewConfig | None = None):
        self.graph = graph
        self.config = config or ViewConfig()
        self.state = ViewState()
        self.layout = ForceLayout()
        self._history: list[ViewState] = []

    # -- view content ---------------------------------------------------

    def visible_nodes(self) -> list[Node]:
        return [
            self.graph.node(i)
            for i in sorted(self.state.node_ids)
            if self.graph.has_node(i)
        ]

    def visible_edges(self) -> list[Edge]:
        ids = self.state.node_ids
        return [
            edge
            for edge in self.graph.edges()
            if edge.src in ids and edge.dst in ids
        ]

    def _sync_layout(self, anchor: int | None = None) -> None:
        for node_id in self.state.node_ids:
            if node_id not in self.layout.positions:
                self.layout.add_node(node_id, near=anchor)
        for node_id in list(self.layout.positions):
            if node_id not in self.state.node_ids:
                self.layout.remove_node(node_id)
        self.layout.set_edges(
            [(e.src, e.dst) for e in self.visible_edges()]
        )
        self.layout.run(self.config.layout_iterations)
        self.state.positions = dict(self.layout.positions)

    def _push_history(self) -> None:
        self._history.append(self.state.copy())

    # -- entry points -----------------------------------------------------

    def show(self, node_ids: list[int]) -> None:
        """Replace the view with the given nodes (search results)."""
        self._push_history()
        budget = node_ids[: self.config.max_nodes]
        self.state = ViewState(node_ids={i for i in budget if self.graph.has_node(i)})
        self.layout = ForceLayout()
        self._sync_layout()

    def show_random(self, size: int | None = None, seed: int | None = None) -> None:
        """Fetch a random subgraph for exploration."""
        subgraph = random_subgraph(
            self.graph, size or self.config.max_nodes, seed=seed
        )
        self.show([node.node_id for node in subgraph.nodes])

    # -- interactions --------------------------------------------------------

    def toggle(self, node_id: int) -> str:
        """Double-click semantics: expand, or collapse if expanded.

        Returns ``"expanded"`` or ``"collapsed"``.
        """
        if node_id in self.state.expanded_nodes and self._has_visible_children(
            node_id
        ):
            self.collapse(node_id)
            return "collapsed"
        self.expand(node_id)
        return "expanded"

    def _has_visible_children(self, node_id: int) -> bool:
        return any(
            parent == node_id for parent in self.state.expanded_from.values()
        )

    def expand(self, node_id: int) -> list[int]:
        """Spawn neighbours that are not in the view yet."""
        if node_id not in self.state.node_ids:
            raise KeyError(f"node {node_id} is not visible")
        self._push_history()
        spawned: list[int] = []
        for neighbor in self.graph.neighbors(node_id):
            if len(spawned) >= self.config.max_neighbors:
                break
            if len(self.state.node_ids) + len(spawned) >= self.config.max_nodes:
                break
            if neighbor.node_id in self.state.node_ids:
                continue
            spawned.append(neighbor.node_id)
        for new_id in spawned:
            self.state.node_ids.add(new_id)
            self.state.expanded_from[new_id] = node_id
        self.state.expanded_nodes.add(node_id)
        self._sync_layout(anchor=node_id)
        return spawned

    def collapse(self, node_id: int) -> list[int]:
        """Hide this node's expansion subtree (neighbours + downstream)."""
        self._push_history()
        to_hide: list[int] = []
        frontier = [
            child
            for child, parent in self.state.expanded_from.items()
            if parent == node_id
        ]
        while frontier:
            current = frontier.pop()
            if current in to_hide:
                continue
            to_hide.append(current)
            frontier.extend(
                child
                for child, parent in self.state.expanded_from.items()
                if parent == current
            )
        for hidden in to_hide:
            self.state.node_ids.discard(hidden)
            self.state.expanded_from.pop(hidden, None)
            self.state.expanded_nodes.discard(hidden)
            self.state.pinned.discard(hidden)
        self.state.expanded_nodes.discard(node_id)
        self._sync_layout()
        return to_hide

    def drag(self, node_id: int, x: float, y: float) -> None:
        """Move a node; it locks in place but stays draggable."""
        if node_id not in self.state.node_ids:
            raise KeyError(f"node {node_id} is not visible")
        self._push_history()
        self.layout.pin(node_id, x, y)
        self.state.pinned.add(node_id)
        self._sync_layout()

    def release(self, node_id: int) -> None:
        """Unlock a previously dragged node."""
        self.layout.unpin(node_id)
        self.state.pinned.discard(node_id)

    def back(self) -> bool:
        """Return to the previous view; False when no history remains."""
        if not self._history:
            return False
        self.state = self._history.pop()
        self.layout = ForceLayout()
        self.layout.positions = dict(self.state.positions)
        self.layout.pinned = set(self.state.pinned)
        self.layout.set_edges([(e.src, e.dst) for e in self.visible_edges()])
        return True

    # -- export -----------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready view description (what a canvas client renders).

        Node names and edge types are included because the UI displays
        them by default; node labels drive colouring.
        """
        nodes = []
        for node in self.visible_nodes():
            x, y = self.state.positions.get(node.node_id, (0.0, 0.0))
            nodes.append(
                {
                    "id": node.node_id,
                    "label": node.label,
                    "name": node.properties.get("name", ""),
                    "x": round(x, 2),
                    "y": round(y, 2),
                    "pinned": node.node_id in self.state.pinned,
                    "expanded": node.node_id in self.state.expanded_nodes,
                    "properties": dict(node.properties),
                }
            )
        edges = [
            {
                "id": edge.edge_id,
                "src": edge.src,
                "dst": edge.dst,
                "type": edge.type,
                "weight": edge.properties.get("weight", 1),
            }
            for edge in self.visible_edges()
        ]
        return {"nodes": nodes, "edges": edges}


__all__ = ["GraphExplorer", "ViewConfig", "ViewState"]
