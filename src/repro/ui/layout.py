"""Force-directed graph layout with Barnes-Hut repulsion.

"The UI actively responds to node movements to prevent overlap through
an automatic graph layout using the Barnes-Hut algorithm" (paper
section 2.6).  The layout combines:

* Barnes-Hut approximated repulsion between all node pairs,
* spring attraction along edges toward an ideal edge length,
* weak gravity toward the canvas centre (keeps components together),
* simulated-annealing style cooling of the maximum displacement,
* pinned nodes ("the dragged nodes will lock in place").
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.ui.quadtree import Body, QuadTree, exact_repulsion


@dataclass
class LayoutConfig:
    """Force model parameters."""

    width: float = 1000.0
    height: float = 1000.0
    # With F_rep = repulsion/d and F_spring = spring*(d-ideal), edges
    # settle near d = (ideal + sqrt(ideal^2 + 4*repulsion/spring))/2,
    # ~100 for these defaults -- close to the ideal length.
    ideal_edge_length: float = 80.0
    repulsion: float = 1000.0
    spring: float = 0.5
    gravity: float = 0.01
    theta: float = 0.7
    initial_temperature: float = 60.0
    cooling: float = 0.95
    node_radius: float = 12.0


@dataclass
class ForceLayout:
    """Incremental force-directed layout over an explicit node/edge set.

    ``use_barnes_hut=False`` switches to exact O(n^2) repulsion --
    identical forces, different cost -- for benchmark E11.
    """

    config: LayoutConfig = field(default_factory=LayoutConfig)
    use_barnes_hut: bool = True
    seed: int = 42
    positions: dict[object, tuple[float, float]] = field(default_factory=dict)
    pinned: set = field(default_factory=set)
    _edges: list[tuple[object, object]] = field(default_factory=list)
    _temperature: float = field(default=0.0)

    def __post_init__(self) -> None:
        self._temperature = self.config.initial_temperature
        self._rng = random.Random(self.seed)

    # -- graph management ------------------------------------------------

    def add_node(self, key: object, near: object | None = None) -> None:
        """Place a new node (near an existing one when given)."""
        if key in self.positions:
            return
        if near is not None and near in self.positions:
            nx, ny = self.positions[near]
            angle = self._rng.uniform(0, 2 * math.pi)
            radius = self.config.ideal_edge_length
            self.positions[key] = (
                nx + radius * math.cos(angle),
                ny + radius * math.sin(angle),
            )
        else:
            self.positions[key] = (
                self._rng.uniform(0, self.config.width),
                self._rng.uniform(0, self.config.height),
            )
        self._temperature = max(self._temperature, self.config.initial_temperature / 2)

    def remove_node(self, key: object) -> None:
        self.positions.pop(key, None)
        self.pinned.discard(key)
        self._edges = [e for e in self._edges if key not in e]

    def set_edges(self, edges: list[tuple[object, object]]) -> None:
        self._edges = [
            (a, b) for a, b in edges if a in self.positions and b in self.positions
        ]

    def pin(self, key: object, x: float, y: float) -> None:
        """Drag a node: move it and lock it in place."""
        self.positions[key] = (x, y)
        self.pinned.add(key)

    # -- simulation --------------------------------------------------------

    def step(self) -> float:
        """One force iteration; returns the max displacement."""
        if not self.positions:
            return 0.0
        keys = list(self.positions)
        bodies = {
            key: Body(x=pos[0], y=pos[1], mass=1.0, key=key)
            for key, pos in self.positions.items()
        }
        body_list = list(bodies.values())
        tree = (
            QuadTree.build(body_list, theta=self.config.theta)
            if self.use_barnes_hut
            else None
        )
        forces: dict[object, list[float]] = {key: [0.0, 0.0] for key in keys}

        for key in keys:
            body = bodies[key]
            if tree is not None:
                fx, fy = tree.force_on(body, self.config.repulsion)
            else:
                fx, fy = exact_repulsion(body_list, body, self.config.repulsion)
            forces[key][0] += fx
            forces[key][1] += fy

        for a, b in self._edges:
            ax, ay = self.positions[a]
            bx, by = self.positions[b]
            dx, dy = bx - ax, by - ay
            distance = max(math.hypot(dx, dy), 1e-6)
            pull = self.config.spring * (distance - self.config.ideal_edge_length)
            fx, fy = pull * dx / distance, pull * dy / distance
            forces[a][0] += fx
            forces[a][1] += fy
            forces[b][0] -= fx
            forces[b][1] -= fy

        cx, cy = self.config.width / 2, self.config.height / 2
        max_move = 0.0
        for key in keys:
            if key in self.pinned:
                continue
            x, y = self.positions[key]
            fx, fy = forces[key]
            fx += (cx - x) * self.config.gravity
            fy += (cy - y) * self.config.gravity
            magnitude = math.hypot(fx, fy)
            if magnitude > 0:
                limit = min(magnitude, self._temperature)
                x += fx / magnitude * limit
                y += fy / magnitude * limit
                max_move = max(max_move, limit)
            self.positions[key] = (x, y)
        self._temperature = max(self._temperature * self.config.cooling, 0.5)
        return max_move

    def run(self, iterations: int = 50, tolerance: float = 1.0) -> int:
        """Iterate until quiescent or the budget runs out; returns steps."""
        for iteration in range(iterations):
            if self.step() < tolerance:
                return iteration + 1
        return iterations

    # -- quality metrics ----------------------------------------------------------

    def overlap_count(self) -> int:
        """Pairs of nodes closer than two radii (what layout prevents)."""
        keys = list(self.positions)
        threshold = 2 * self.config.node_radius
        count = 0
        for i, a in enumerate(keys):
            ax, ay = self.positions[a]
            for b in keys[i + 1 :]:
                bx, by = self.positions[b]
                if math.hypot(ax - bx, ay - by) < threshold:
                    count += 1
        return count


__all__ = ["ForceLayout", "LayoutConfig"]
