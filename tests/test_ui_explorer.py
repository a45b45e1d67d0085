"""Tests for the graph explorer and the JSON API."""

import http.client
import json
import urllib.request

import pytest

from repro import SecurityKG, SystemConfig
from repro.graphdb import PropertyGraph
from repro.ui import ExplorerAPI, ExplorerServer, GraphExplorer, ViewConfig


@pytest.fixture
def star_graph():
    graph = PropertyGraph()
    hub = graph.create_node("Malware", {"name": "hub"})
    ring = []
    for i in range(6):
        node = graph.create_node("IP", {"name": f"ip{i}"})
        graph.create_edge(hub.node_id, "CONNECTS_TO", node.node_id)
        ring.append(node)
    far = graph.create_node("Tool", {"name": "far"})
    graph.create_edge(ring[0].node_id, "RELATED_TO", far.node_id)
    return graph, hub, ring, far


class TestExplorer:
    def test_show_and_snapshot(self, star_graph):
        graph, hub, _ring, _far = star_graph
        explorer = GraphExplorer(graph)
        explorer.show([hub.node_id])
        snapshot = explorer.snapshot()
        assert len(snapshot["nodes"]) == 1
        assert snapshot["nodes"][0]["name"] == "hub"
        assert {"x", "y", "label"} <= set(snapshot["nodes"][0])

    def test_expand_spawns_missing_neighbors(self, star_graph):
        graph, hub, _ring, _far = star_graph
        explorer = GraphExplorer(graph)
        explorer.show([hub.node_id])
        spawned = explorer.expand(hub.node_id)
        assert len(spawned) == 6
        assert len(explorer.snapshot()["nodes"]) == 7
        assert len(explorer.snapshot()["edges"]) == 6

    def test_expand_respects_max_neighbors(self, star_graph):
        graph, hub, _ring, _far = star_graph
        explorer = GraphExplorer(graph, ViewConfig(max_neighbors=3))
        explorer.show([hub.node_id])
        assert len(explorer.expand(hub.node_id)) == 3

    def test_expand_respects_max_nodes(self, star_graph):
        graph, hub, _ring, _far = star_graph
        explorer = GraphExplorer(graph, ViewConfig(max_nodes=4))
        explorer.show([hub.node_id])
        assert len(explorer.expand(hub.node_id)) == 3  # 1 + 3 = budget

    def test_collapse_hides_downstream(self, star_graph):
        graph, hub, ring, far = star_graph
        explorer = GraphExplorer(graph)
        explorer.show([hub.node_id])
        explorer.expand(hub.node_id)
        explorer.expand(ring[0].node_id)  # spawns 'far'
        assert far.node_id in explorer.state.node_ids
        hidden = explorer.collapse(hub.node_id)
        assert far.node_id in hidden  # downstream of the expansion tree
        assert explorer.state.node_ids == {hub.node_id}

    def test_collapse_keeps_nodes_from_other_routes(self, star_graph):
        graph, hub, ring, _far = star_graph
        explorer = GraphExplorer(graph)
        explorer.show([hub.node_id, ring[1].node_id])  # ring[1] found by search
        explorer.expand(hub.node_id)
        explorer.collapse(hub.node_id)
        assert ring[1].node_id in explorer.state.node_ids

    def test_toggle_expands_then_collapses(self, star_graph):
        graph, hub, _ring, _far = star_graph
        explorer = GraphExplorer(graph)
        explorer.show([hub.node_id])
        assert explorer.toggle(hub.node_id) == "expanded"
        assert explorer.toggle(hub.node_id) == "collapsed"

    def test_drag_locks_node(self, star_graph):
        graph, hub, _ring, _far = star_graph
        explorer = GraphExplorer(graph)
        explorer.show([hub.node_id])
        explorer.expand(hub.node_id)
        explorer.drag(hub.node_id, 10.0, 20.0)
        assert explorer.state.positions[hub.node_id] == (10.0, 20.0)
        snapshot = explorer.snapshot()
        (hub_view,) = [n for n in snapshot["nodes"] if n["id"] == hub.node_id]
        assert hub_view["pinned"]

    def test_back_restores_previous_view(self, star_graph):
        graph, hub, _ring, _far = star_graph
        explorer = GraphExplorer(graph)
        explorer.show([hub.node_id])
        explorer.expand(hub.node_id)
        assert explorer.back()
        assert explorer.state.node_ids == {hub.node_id}

    def test_back_on_empty_history(self, star_graph):
        graph, _hub, _ring, _far = star_graph
        assert GraphExplorer(graph).back() is False

    def test_random_subgraph_view(self, star_graph):
        graph, _hub, _ring, _far = star_graph
        explorer = GraphExplorer(graph, ViewConfig(max_nodes=5))
        explorer.show_random(seed=1)
        assert 0 < len(explorer.snapshot()["nodes"]) <= 5

    def test_expand_invisible_node_raises(self, star_graph):
        graph, hub, _ring, _far = star_graph
        explorer = GraphExplorer(graph)
        with pytest.raises(KeyError):
            explorer.expand(hub.node_id)


class TestSvgRendering:
    def _view(self, star_graph):
        graph, hub, _ring, _far = star_graph
        explorer = GraphExplorer(graph)
        explorer.show([hub.node_id])
        explorer.expand(hub.node_id)
        return explorer

    def test_svg_structure(self, star_graph):
        from repro.ui import render_svg

        explorer = self._view(star_graph)
        svg = render_svg(explorer.snapshot())
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert svg.count("<circle") >= len(explorer.snapshot()["nodes"])
        assert svg.count("<line") == len(explorer.snapshot()["edges"])

    def test_colors_by_label_and_legend(self, star_graph):
        from repro.ui import LABEL_COLORS, render_svg

        explorer = self._view(star_graph)
        svg = render_svg(explorer.snapshot())
        assert LABEL_COLORS["Malware"] in svg
        assert LABEL_COLORS["IP"] in svg
        assert ">Malware</text>" in svg  # legend entry

    def test_pinned_ring(self, star_graph):
        from repro.ui import render_svg

        graph, hub, _ring, _far = star_graph
        explorer = GraphExplorer(graph)
        explorer.show([hub.node_id])
        explorer.drag(hub.node_id, 5.0, 5.0)
        svg = render_svg(explorer.snapshot())
        assert "stroke-dasharray" in svg

    def test_names_escaped(self, star_graph):
        from repro.graphdb import PropertyGraph
        from repro.ui import render_svg

        graph = PropertyGraph()
        node = graph.create_node("Malware", {"name": 'evil<&>"name'})
        explorer = GraphExplorer(graph)
        explorer.show([node.node_id])
        svg = render_svg(explorer.snapshot())
        assert "evil<&>" not in svg
        assert "evil&lt;&amp;&gt;" in svg

    def test_save_svg(self, star_graph, tmp_path):
        from repro.ui import save_svg

        explorer = self._view(star_graph)
        path = save_svg(explorer.snapshot(), tmp_path / "view.svg")
        assert path.read_text().startswith("<svg")

    def test_empty_view(self):
        from repro.ui import render_svg

        svg = render_svg({"nodes": [], "edges": []})
        assert svg.startswith("<svg")


@pytest.fixture(scope="module")
def api_system():
    kg = SecurityKG(
        SystemConfig(
            scenario_count=6,
            reports_per_site=3,
            sources=["ThreatPedia", "SecureListing"],
        )
    )
    kg.run_once()
    return kg


class TestExplorerAPI:
    def test_search_focuses_view(self, api_system):
        api = ExplorerAPI(api_system)
        malware = next(iter(api_system.graph.nodes("Malware")))
        status, payload = api.handle(
            "POST", "/api/search", {"query": malware.properties["name"]}
        )
        assert status == 200
        assert payload["view"]["nodes"]
        assert payload["reports"]

    def test_cypher_endpoint(self, api_system):
        api = ExplorerAPI(api_system)
        status, payload = api.handle(
            "POST", "/api/cypher", {"query": "MATCH (n) RETURN count(*) AS c"}
        )
        assert status == 200
        assert payload["rows"][0]["c"] == api_system.graph.node_count

    def test_cypher_pagination_round_trip(self, api_system):
        api = ExplorerAPI(api_system)
        query = "MATCH (n) RETURN n.name"
        full_status, full = api.handle("POST", "/api/cypher", {"query": query})
        assert full_status == 200

        rows = []
        cursor = None
        pages = 0
        while True:
            body = {"query": query, "page_size": 5}
            if cursor is not None:
                body["cursor"] = cursor
            status, payload = api.handle("POST", "/api/cypher", body)
            assert status == 200
            assert len(payload["rows"]) <= 5
            rows.extend(payload["rows"])
            pages += 1
            cursor = payload["cursor"]
            if cursor is None:
                break
            # the token is an opaque URL-safe string, not raw JSON
            assert isinstance(cursor, str)
            assert "{" not in cursor
        assert pages > 1
        assert sorted(map(repr, rows)) == sorted(map(repr, full["rows"]))

    def test_cypher_cursor_rejected_for_other_query(self, api_system):
        api = ExplorerAPI(api_system)
        query = "MATCH (n) RETURN n.name"
        status, payload = api.handle(
            "POST", "/api/cypher", {"query": query, "page_size": 2}
        )
        assert status == 200 and payload["cursor"]
        status, payload = api.handle(
            "POST",
            "/api/cypher",
            {
                "query": "MATCH (m:Malware) RETURN m.name",
                "page_size": 2,
                "cursor": payload["cursor"],
            },
        )
        assert status == 400 and "cursor" in payload["error"]

    def test_cypher_malformed_cursor_400(self, api_system):
        api = ExplorerAPI(api_system)
        status, payload = api.handle(
            "POST",
            "/api/cypher",
            {
                "query": "MATCH (n) RETURN n.name",
                "page_size": 2,
                "cursor": "not-a-token",
            },
        )
        assert status == 400 and "cursor" in payload["error"]

    def test_cypher_explain_over_api(self, api_system):
        api = ExplorerAPI(api_system)
        status, payload = api.handle(
            "POST",
            "/api/cypher",
            {"query": "EXPLAIN MATCH (m:Malware) RETURN m.name"},
        )
        assert status == 200
        assert payload["rows"] and all("plan" in row for row in payload["rows"])

    def test_expand_collapse_back_flow(self, api_system):
        api = ExplorerAPI(api_system)
        malware = next(iter(api_system.graph.nodes("Malware")))
        api.handle("POST", "/api/search", {"query": malware.properties["name"]})
        node_id = api.explorer.snapshot()["nodes"][0]["id"]
        status, payload = api.handle("POST", "/api/expand", {"id": node_id})
        assert status == 200 and payload["spawned"]
        status, payload = api.handle("POST", "/api/collapse", {"id": node_id})
        assert status == 200
        status, payload = api.handle("POST", "/api/back", {})
        assert status == 200 and payload["moved"]

    def test_stats_and_graph_endpoints(self, api_system):
        api = ExplorerAPI(api_system)
        status, stats = api.handle("GET", "/api/stats")
        assert status == 200 and stats["nodes"] > 0
        status, view = api.handle("GET", "/api/graph")
        assert status == 200 and "nodes" in view

    def test_unknown_route_404(self, api_system):
        api = ExplorerAPI(api_system)
        status, _payload = api.handle("GET", "/api/nope")
        assert status == 404

    def test_bad_request_400(self, api_system):
        api = ExplorerAPI(api_system)
        status, payload = api.handle("POST", "/api/expand", {"id": 999999})
        assert status == 400 and "error" in payload

    def test_http_server_round_trip(self, api_system):
        server = ExplorerServer(ExplorerAPI(api_system)).start()
        try:
            host, port = server.address
            with urllib.request.urlopen(
                f"http://{host}:{port}/api/stats", timeout=5
            ) as response:
                stats = json.loads(response.read())
            assert stats["nodes"] == api_system.graph.node_count

            request = urllib.request.Request(
                f"http://{host}:{port}/api/cypher",
                data=json.dumps(
                    {"query": "MATCH (n) RETURN count(*) AS c"}
                ).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=5) as response:
                payload = json.loads(response.read())
            assert payload["rows"][0]["c"] == api_system.graph.node_count
        finally:
            server.stop()

    def test_http_malformed_post_is_400(self, api_system):
        """A Content-Length that is no length, a body that is not JSON
        text, or JSON that is not an object: a 400, not a dropped
        connection."""
        server = ExplorerServer(ExplorerAPI(api_system)).start()
        try:
            for length, data in (
                ("abc", b""), ("-1", b""), ("2", b"\xff\xfe"), ("6", b"[1, 2]")
            ):
                connection = http.client.HTTPConnection(*server.address, timeout=5)
                connection.putrequest("POST", "/api/search")
                connection.putheader("Content-Length", length)
                connection.endheaders(data)
                response = connection.getresponse()
                assert response.status == 400, (length, data)
                assert isinstance(json.loads(response.read())["error"], str)
                connection.close()
        finally:
            server.stop()
