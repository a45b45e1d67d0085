"""Unit tests for traversal helpers."""

import pytest

from repro.graphdb import (
    PropertyGraph,
    bfs_nodes,
    induced_subgraph,
    k_hop_subgraph,
    random_subgraph,
)


@pytest.fixture
def chain_graph():
    """a -> b -> c -> d plus an isolated node e."""
    graph = PropertyGraph()
    ids = {}
    for name in "abcde":
        ids[name] = graph.create_node("N", {"name": name}).node_id
    graph.create_edge(ids["a"], "R", ids["b"])
    graph.create_edge(ids["b"], "R", ids["c"])
    graph.create_edge(ids["c"], "R", ids["d"])
    return graph, ids


class TestBfs:
    def test_depth_limit(self, chain_graph):
        graph, ids = chain_graph
        reached = bfs_nodes(graph, ids["a"], max_depth=2)
        names = {node.properties["name"] for node, _d in reached}
        assert names == {"a", "b", "c"}

    def test_depths_reported(self, chain_graph):
        graph, ids = chain_graph
        depths = {
            node.properties["name"]: depth
            for node, depth in bfs_nodes(graph, ids["a"], max_depth=3)
        }
        assert depths == {"a": 0, "b": 1, "c": 2, "d": 3}

    def test_max_nodes_cap(self, chain_graph):
        graph, ids = chain_graph
        reached = bfs_nodes(graph, ids["a"], max_depth=5, max_nodes=2)
        assert len(reached) == 2

    def test_unknown_start_raises(self, chain_graph):
        graph, _ids = chain_graph
        with pytest.raises(KeyError):
            bfs_nodes(graph, 12345)


class TestSubgraphs:
    def test_k_hop_includes_internal_edges(self, chain_graph):
        graph, ids = chain_graph
        sub = k_hop_subgraph(graph, ids["b"], hops=1)
        names = {n.properties["name"] for n in sub.nodes}
        assert names == {"a", "b", "c"}
        assert len(sub.edges) == 2  # a->b and b->c

    def test_induced_subgraph_drops_external_edges(self, chain_graph):
        graph, ids = chain_graph
        sub = induced_subgraph(graph, [ids["a"], ids["c"]])
        assert len(sub.nodes) == 2
        assert sub.edges == []

    def test_random_subgraph_size_and_determinism(self, chain_graph):
        graph, _ids = chain_graph
        sub1 = random_subgraph(graph, 3, seed=5)
        sub2 = random_subgraph(graph, 3, seed=5)
        assert len(sub1.nodes) == 3
        assert sub1.node_ids == sub2.node_ids

    def test_random_subgraph_covers_all_when_big(self, chain_graph):
        graph, _ids = chain_graph
        sub = random_subgraph(graph, 100, seed=1)
        assert len(sub.nodes) == 5

    def test_random_subgraph_empty_graph(self):
        assert random_subgraph(PropertyGraph(), 3).nodes == []
