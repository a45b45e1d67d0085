"""Unit tests for the quadtree and force layout."""

import math
import random

import pytest

from repro.ui.layout import ForceLayout, LayoutConfig
from repro.ui.quadtree import Body, QuadTree, exact_repulsion


def random_bodies(n, seed=0, spread=500.0):
    rng = random.Random(seed)
    return [
        Body(x=rng.uniform(0, spread), y=rng.uniform(0, spread), key=i)
        for i in range(n)
    ]


class TestQuadTree:
    def test_mass_conserved(self):
        bodies = random_bodies(50)
        tree = QuadTree.build(bodies)
        assert tree.root.mass == pytest.approx(50.0)

    def test_center_of_mass(self):
        bodies = [Body(0, 0), Body(10, 0)]
        tree = QuadTree.build(bodies)
        assert tree.root.center_of_mass == pytest.approx((5.0, 0.0))

    def test_empty_tree(self):
        tree = QuadTree.build([])
        assert tree.force_on(Body(0, 0), strength=1.0) == (0.0, 0.0)

    def test_single_body_no_self_force(self):
        body = Body(3, 4)
        tree = QuadTree.build([body])
        fx, fy = tree.force_on(body, strength=100.0)
        assert (fx, fy) == (0.0, 0.0)

    def test_two_bodies_repel_symmetrically(self):
        a, b = Body(0, 0), Body(10, 0)
        tree = QuadTree.build([a, b])
        fa = tree.force_on(a, strength=1.0)
        fb = tree.force_on(b, strength=1.0)
        assert fa[0] == pytest.approx(-fb[0])
        assert fa[0] < 0 < fb[0]  # pushed apart along x

    def test_approximation_close_to_exact(self):
        bodies = random_bodies(120, seed=3)
        tree = QuadTree.build(bodies, theta=0.5)
        for body in bodies[:10]:
            approx = tree.force_on(body, strength=100.0)
            exact = exact_repulsion(bodies, body, strength=100.0)
            magnitude = math.hypot(*exact) or 1.0
            error = math.hypot(approx[0] - exact[0], approx[1] - exact[1])
            assert error / magnitude < 0.15, (approx, exact)

    def test_theta_zero_equals_exact(self):
        bodies = random_bodies(40, seed=4)
        tree = QuadTree.build(bodies, theta=0.0)
        for body in bodies[:5]:
            approx = tree.force_on(body, strength=10.0)
            exact = exact_repulsion(bodies, body, strength=10.0)
            assert approx[0] == pytest.approx(exact[0], rel=1e-6, abs=1e-6)
            assert approx[1] == pytest.approx(exact[1], rel=1e-6, abs=1e-6)

    def test_coincident_points_do_not_recurse_forever(self):
        bodies = [Body(5.0, 5.0) for _ in range(4)]
        tree = QuadTree.build(bodies)
        assert tree.root.mass == pytest.approx(4.0)


class TestForceLayout:
    def _star_layout(self, use_bh=True, n=8):
        layout = ForceLayout(
            config=LayoutConfig(width=400, height=400), use_barnes_hut=use_bh
        )
        layout.add_node("hub")
        for i in range(n):
            layout.add_node(f"leaf{i}", near="hub")
        layout.set_edges([("hub", f"leaf{i}") for i in range(n)])
        return layout

    def test_layout_converges(self):
        layout = self._star_layout()
        steps = layout.run(iterations=200, tolerance=1.0)
        assert steps <= 200

    def test_layout_separates_nodes(self):
        layout = self._star_layout()
        layout.run(iterations=150)
        assert layout.overlap_count() == 0

    def test_edge_lengths_near_ideal(self):
        layout = self._star_layout(n=4)
        layout.run(iterations=200)
        ideal = layout.config.ideal_edge_length
        hub = layout.positions["hub"]
        errors = [
            abs(math.dist(hub, layout.positions[f"leaf{i}"]) - ideal) for i in range(4)
        ]
        assert sum(errors) / 4 < ideal

    def test_pinned_node_stays(self):
        layout = self._star_layout()
        layout.pin("hub", 123.0, 77.0)
        layout.run(iterations=30)
        assert layout.positions["hub"] == (123.0, 77.0)

    def test_unpin_releases(self):
        layout = self._star_layout()
        layout.pin("hub", 123.0, 77.0)
        layout.unpin("hub")
        layout.run(iterations=10)
        assert layout.positions["hub"] != (123.0, 77.0)

    def test_add_near_places_close(self):
        layout = ForceLayout()
        layout.add_node("a")
        layout.add_node("b", near="a")
        ax, ay = layout.positions["a"]
        bx, by = layout.positions["b"]
        assert math.hypot(ax - bx, ay - by) <= layout.config.ideal_edge_length * 1.5

    def test_remove_node_drops_edges(self):
        layout = self._star_layout(n=2)
        layout.remove_node("leaf0")
        assert "leaf0" not in layout.positions
        layout.step()  # must not crash on stale edges

    def test_exact_and_bh_agree_qualitatively(self):
        bh = self._star_layout(use_bh=True)
        exact = self._star_layout(use_bh=False)
        bh.run(iterations=100)
        exact.run(iterations=100)
        assert bh.overlap_count() == exact.overlap_count() == 0

    def test_empty_layout_step(self):
        assert ForceLayout().step() == 0.0
