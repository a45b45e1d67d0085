"""Quadtree for Barnes-Hut force approximation.

The UI "calculates the nodes' approximated repulsive force based on
their distribution" (paper section 2.6) -- the Barnes-Hut scheme:
bodies are indexed in a quadtree, each internal cell stores its total
mass and centre of mass, and a far-away cell acts on a body as a
single pseudo-body, cutting the n-body repulsion from O(n^2) to
O(n log n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Distances below this are clamped, so coincident bodies push apart
#: with a large but finite force.
MIN_DISTANCE = 0.01


@dataclass
class Body:
    """One point mass (a graph node in layout space)."""

    x: float
    y: float
    mass: float = 1.0
    key: object = None


@dataclass
class _Cell:
    """One quadtree cell: square region + aggregate mass."""

    cx: float  # centre of the region
    cy: float
    half: float  # half side length
    body: Body | None = None
    children: "list[_Cell] | None" = None
    mass: float = 0.0
    mass_x: float = 0.0  # mass-weighted coordinate sums
    mass_y: float = 0.0

    @property
    def center_of_mass(self) -> tuple[float, float]:
        if self.mass == 0:
            return (self.cx, self.cy)
        return (self.mass_x / self.mass, self.mass_y / self.mass)

    def _quadrant(self, body: Body) -> int:
        index = 0
        if body.x >= self.cx:
            index += 1
        if body.y >= self.cy:
            index += 2
        return index

    def _subdivide(self) -> None:
        quarter = self.half / 2
        self.children = [
            _Cell(self.cx - quarter, self.cy - quarter, quarter),
            _Cell(self.cx + quarter, self.cy - quarter, quarter),
            _Cell(self.cx - quarter, self.cy + quarter, quarter),
            _Cell(self.cx + quarter, self.cy + quarter, quarter),
        ]

    def insert(self, body: Body, depth: int = 0) -> None:
        self.mass += body.mass
        self.mass_x += body.mass * body.x
        self.mass_y += body.mass * body.y
        if self.children is None and self.body is None:
            self.body = body
            return
        if self.children is None:
            # occupied leaf: split and reinsert the resident
            resident = self.body
            self.body = None
            self._subdivide()
            if depth < 32:
                self.children[self._quadrant(resident)].insert(resident, depth + 1)
                self.children[self._quadrant(body)].insert(body, depth + 1)
            else:
                # coincident points: keep both in this cell's first child
                self.children[0].body = resident
                self.children[0].mass += resident.mass + body.mass
            return
        self.children[self._quadrant(body)].insert(body, depth + 1)


@dataclass
class QuadTree:
    """Barnes-Hut quadtree over a set of bodies."""

    root: _Cell
    theta: float = 0.7
    body_count: int = 0

    @classmethod
    def build(cls, bodies: list[Body], theta: float = 0.7) -> "QuadTree":
        """Build a tree covering all bodies."""
        if not bodies:
            return cls(root=_Cell(0.0, 0.0, 1.0), theta=theta, body_count=0)
        min_x = min(b.x for b in bodies)
        max_x = max(b.x for b in bodies)
        min_y = min(b.y for b in bodies)
        max_y = max(b.y for b in bodies)
        half = max(max_x - min_x, max_y - min_y, 1e-6) / 2 * 1.01
        root = _Cell((min_x + max_x) / 2, (min_y + max_y) / 2, half)
        for body in bodies:
            root.insert(body)
        return cls(root=root, theta=theta, body_count=len(bodies))

    def force_on(self, body: Body, strength: float) -> tuple[float, float]:
        """Approximate repulsive force on ``body`` from all others.

        Repulsion follows the Fruchterman-Reingold style
        ``strength * m1 * m2 / d`` profile, evaluated exactly for
        nearby bodies and via cell centres of mass when the cell is
        small relative to its distance (``half*2 / d < theta``).
        """
        min_distance = MIN_DISTANCE
        force_x = force_y = 0.0
        stack = [self.root]
        while stack:
            cell = stack.pop()
            if cell.mass == 0:
                continue
            if cell.body is body and cell.children is None:
                continue
            com_x, com_y = cell.center_of_mass
            dx = body.x - com_x
            dy = body.y - com_y
            distance_sq = dx * dx + dy * dy
            distance = max(distance_sq**0.5, min_distance)
            size = cell.half * 2
            if cell.children is None or (size / distance) < self.theta:
                mass = cell.mass
                if cell.children is None and cell.body is body:
                    continue
                # subtract self-contribution when the aggregated cell
                # contains the probe body itself
                if cell.children is not None and _contains(cell, body):
                    mass -= body.mass
                    if mass <= 0:
                        if cell.children is not None:
                            stack.extend(cell.children)
                        continue
                    # recompute a centre of mass without the body
                    com_x = (cell.mass_x - body.mass * body.x) / mass
                    com_y = (cell.mass_y - body.mass * body.y) / mass
                    dx = body.x - com_x
                    dy = body.y - com_y
                    distance = max((dx * dx + dy * dy) ** 0.5, min_distance)
                magnitude = strength * body.mass * mass / distance
                force_x += magnitude * dx / distance
                force_y += magnitude * dy / distance
            else:
                stack.extend(cell.children)
        return force_x, force_y


def _contains(cell: _Cell, body: Body) -> bool:
    return (
        cell.cx - cell.half <= body.x <= cell.cx + cell.half
        and cell.cy - cell.half <= body.y <= cell.cy + cell.half
    )


def exact_repulsion(
    bodies: list[Body], body: Body, strength: float
) -> tuple[float, float]:
    """O(n) exact repulsion on one body (O(n^2) overall); the baseline
    Barnes-Hut is benchmarked against (E11)."""
    min_distance = MIN_DISTANCE
    force_x = force_y = 0.0
    for other in bodies:
        if other is body:
            continue
        dx = body.x - other.x
        dy = body.y - other.y
        distance = max((dx * dx + dy * dy) ** 0.5, min_distance)
        magnitude = strength * body.mass * other.mass / distance
        force_x += magnitude * dx / distance
        force_y += magnitude * dy / distance
    return force_x, force_y


__all__ = ["Body", "QuadTree", "exact_repulsion"]
