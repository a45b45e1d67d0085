"""JSON HTTP API for the explorer.

A React (or any) frontend drives the explorer through this API; the
endpoints correspond one-to-one to the interactions the demo shows:

=======================  =====================================================
``GET  /api/graph``       current view (nodes with positions, edges)
``GET  /api/stats``       knowledge-graph size summary
``GET  /metrics``         metrics snapshot (also ``/api/metrics``)
``GET  /trace``           ring-buffer span trace (also ``/api/trace``)
``GET  /profile``         self-time hotspot profile of the ring buffer
                          (also ``/api/profile``): per-name aggregates,
                          unit costs and a top-K table -- see
                          OBSERVABILITY.md "Profiling a run"
``GET  /health``          health-engine report (also ``/api/health``)
``POST /api/search``      body ``{"query": ...}``; keyword search + focus
``POST /api/cypher``      body ``{"query", "strict"?, "page_size"?,
                          "cursor"?}``; Cypher search (analysis
                          errors return 400 + diagnostics); with
                          ``page_size`` the query runs preemptably
                          and the response carries an opaque
                          ``cursor`` for the next page; a
                          ``PROFILE``-prefixed query (no page_size)
                          adds a ``profile`` object with per-operator
                          counters
``POST /api/expand``      body ``{"id": ...}``; double-click expansion
``POST /api/collapse``    body ``{"id": ...}``; double-click collapse
``POST /api/drag``        body ``{"id", "x", "y"}``; drag with lock
``POST /api/back``        back button
``POST /api/random``      body ``{"size"?}``; random subgraph
``GET  /feeds``           dissemination index: tiers, object counts, ETags
``GET  /feeds/<tier>``    TLP-tiered STIX bundle (tier ``public``,
                          ``partner`` or ``internal``); protected tiers
                          take an ``X-API-Key`` header or ``?key=``;
                          ``?cursor=`` returns an incremental delta
                          since that cursor; ``If-None-Match`` with the
                          last ``ETag`` returns 304 -- see
                          DISSEMINATION.md for the wire contract
=======================  =====================================================

The table above is the serving contract: ``tests/test_docs.py`` checks
it against the :data:`ROUTES` registry in both directions.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.core.system import SecurityKG
from repro.graphdb.cypher import CypherAnalysisError
from repro.graphdb.store import Edge, Node
from repro.runtime import named_lock
from repro.ui.explorer import GraphExplorer

#: Every route the API serves, as ``(method, path)``.  ``<tier>`` is a
#: placeholder segment.  The module docstring's table and this registry
#: are kept in lockstep by ``tests/test_docs.py``.
ROUTES: tuple[tuple[str, str], ...] = (
    ("GET", "/api/graph"),
    ("GET", "/api/stats"),
    ("GET", "/metrics"),
    ("GET", "/api/metrics"),
    ("GET", "/trace"),
    ("GET", "/api/trace"),
    ("GET", "/profile"),
    ("GET", "/api/profile"),
    ("GET", "/health"),
    ("GET", "/api/health"),
    ("GET", "/feeds"),
    ("GET", "/feeds/<tier>"),
    ("POST", "/api/search"),
    ("POST", "/api/cypher"),
    ("POST", "/api/expand"),
    ("POST", "/api/collapse"),
    ("POST", "/api/drag"),
    ("POST", "/api/back"),
    ("POST", "/api/random"),
)


def _header(headers: dict, name: str) -> str | None:
    """Case-insensitive header lookup over a plain dict."""
    lowered = name.lower()
    for key, value in headers.items():
        if key.lower() == lowered:
            return value
    return None


def _query_fingerprint(query: str) -> str:
    return hashlib.sha1(query.encode("utf-8")).hexdigest()[:12]


def encode_cursor(query: str, continuation: dict | None) -> str | None:
    """Continuation dict -> opaque wire token.

    The token is base64url JSON binding the continuation to a
    fingerprint of the query text, so a cursor replayed with a
    different query is rejected instead of resuming the wrong scan.
    """
    if continuation is None:
        return None
    payload = json.dumps(
        {"q": _query_fingerprint(query), "c": continuation},
        separators=(",", ":"),
        sort_keys=True,
    )
    return base64.urlsafe_b64encode(payload.encode("utf-8")).decode("ascii")


def decode_cursor(query: str, token: str) -> dict:
    try:
        payload = json.loads(base64.urlsafe_b64decode(token.encode("ascii")))
        fingerprint = payload["q"]
        continuation = payload["c"]
    except Exception:
        raise ValueError("malformed pagination cursor") from None
    if fingerprint != _query_fingerprint(query):
        raise ValueError("pagination cursor does not match this query")
    if not isinstance(continuation, dict):
        raise ValueError("malformed pagination cursor")
    return continuation


def _number(body: dict, key: str, kind=int, required: bool = True):
    """``body[key]`` as a finite ``kind``, or ``None`` for an optional key
    that is absent or null.  Any other value raises ValueError, and a
    missing required key KeyError: both answer 400."""
    value = body[key] if required else body.get(key)
    if value is None and not required:
        return None
    try:
        number = kind(value)
    except (TypeError, OverflowError):
        number = None
    if number is None or kind is float and not math.isfinite(number):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return number


def _jsonable(value):
    if isinstance(value, Node):
        return {
            "id": value.node_id,
            "label": value.label,
            "properties": dict(value.properties),
        }
    if isinstance(value, Edge):
        return {
            "id": value.edge_id,
            "src": value.src,
            "dst": value.dst,
            "type": value.type,
            "properties": dict(value.properties),
        }
    return value


class ExplorerAPI:
    """Transport-independent request handling (used by tests directly)."""

    def __init__(self, system: SecurityKG):
        self.system = system
        self.explorer = GraphExplorer(system.graph)
        # Serialises request handling: ThreadingHTTPServer dispatches
        # each request on its own thread, and GraphExplorer's view
        # state (history, layout) is not internally synchronised.
        self._lock = named_lock("ui.explorer")

    def handle(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
        """Dispatch one request; returns (status, payload)."""
        status, payload, _headers = self.handle_full(method, path, body)
        return status, payload

    def handle_full(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        headers: dict | None = None,
    ) -> tuple[int, dict | None, dict]:
        """Dispatch one request with headers; returns
        ``(status, payload, response_headers)``.  The payload is
        ``None`` for bodyless responses (304)."""
        parsed = urlsplit(path)
        params = {
            key: values[-1]
            for key, values in parse_qs(parsed.query).items()
        }
        with self._lock:
            if parsed.path == "/feeds" or parsed.path.startswith("/feeds/"):
                return self._handle_feeds_locked(
                    method, parsed.path, params, headers or {}
                )
            status, payload = self._handle_locked(method, parsed.path, body)
            return status, payload, {}

    def _handle_feeds_locked(
        self, method: str, path: str, params: dict, headers: dict
    ) -> tuple[int, dict | None, dict]:
        feeds = self.system.feeds
        if method != "GET":
            return 404, {"error": f"no route {method} {path}"}, {}
        if path == "/feeds":
            return 200, feeds.describe(), {}
        tier = path[len("/feeds/"):]
        try:
            denied = feeds.authorize(
                tier, _header(headers, "X-API-Key") or params.get("key")
            )
            if denied is not None:
                status, message = denied
                return status, {"error": message}, {}
            response = feeds.pull(
                tier,
                cursor=params.get("cursor"),
                etag=_header(headers, "If-None-Match"),
            )
        except ValueError as error:
            return 400, {"error": str(error)}, {}
        response_headers = {"ETag": response.etag}
        if response.cursor is not None:
            response_headers["X-Feed-Cursor"] = response.cursor
        return response.status, response.payload, response_headers

    def _handle_locked(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, dict]:
        if body is None:
            body = {}
        if not isinstance(body, dict):
            return 400, {"error": "request body must be a JSON object"}
        try:
            if method == "GET" and path == "/api/graph":
                return 200, self.explorer.snapshot()
            if method == "GET" and path == "/api/stats":
                return 200, self.system.stats()
            if method == "GET" and path in ("/metrics", "/api/metrics"):
                return 200, self.system.obs.metrics.snapshot()
            if method == "GET" and path in ("/trace", "/api/trace"):
                return 200, {"spans": self.system.obs.tracer.export()}
            if method == "GET" and path in ("/profile", "/api/profile"):
                from repro.obs.profile import export_profile

                return 200, export_profile(
                    self.system.obs.tracer.export(), obs=self.system.obs
                )
            if method == "GET" and path in ("/health", "/api/health"):
                return 200, self.system.health_report()
            if method == "POST" and path == "/api/search":
                hits = self.system.keyword_search(str(body.get("query", "")))
                node_ids = self._nodes_for_query(str(body.get("query", "")))
                if node_ids:
                    self.explorer.show(node_ids)
                return 200, {
                    "reports": [
                        {"id": h.doc_id, "score": h.score, "title": h.fields.get("title", "")}
                        for h in hits
                    ],
                    "view": self.explorer.snapshot(),
                }
            if method == "POST" and path == "/api/cypher":
                query = str(body.get("query", ""))
                strict = bool(body.get("strict", True))
                page_size = _number(body, "page_size", required=False)
                if page_size is not None:
                    if page_size <= 0:
                        return 400, {"error": "page_size must be positive"}
                    continuation = None
                    if body.get("cursor"):
                        continuation = decode_cursor(query, str(body["cursor"]))
                    page = self.system.cypher_paginated(
                        query, page_size, continuation=continuation, strict=strict
                    )
                    return 200, {
                        "rows": [
                            {k: _jsonable(v) for k, v in row.values.items()}
                            for row in page.rows
                        ],
                        "cursor": encode_cursor(query, page.continuation),
                    }
                if re.match(r"\s*PROFILE\b", query, re.IGNORECASE):
                    prof = self.system.cypher_profile(query, strict=strict)
                    return 200, {
                        "rows": [
                            {k: _jsonable(v) for k, v in row.values.items()}
                            for row in prof.rows
                        ],
                        "profile": prof.to_dict(),
                    }
                rows = self.system.cypher(query, strict=strict)
                return 200, {
                    "rows": [
                        {k: _jsonable(v) for k, v in row.values.items()}
                        for row in rows
                    ]
                }
            if method == "POST" and path == "/api/expand":
                spawned = self.explorer.expand(_number(body, "id"))
                return 200, {"spawned": spawned, "view": self.explorer.snapshot()}
            if method == "POST" and path == "/api/collapse":
                hidden = self.explorer.collapse(_number(body, "id"))
                return 200, {"hidden": hidden, "view": self.explorer.snapshot()}
            if method == "POST" and path == "/api/drag":
                self.explorer.drag(
                    _number(body, "id"),
                    _number(body, "x", float),
                    _number(body, "y", float),
                )
                return 200, {"view": self.explorer.snapshot()}
            if method == "POST" and path == "/api/back":
                moved = self.explorer.back()
                return 200, {"moved": moved, "view": self.explorer.snapshot()}
            if method == "POST" and path == "/api/random":
                self.explorer.show_random(
                    size=_number(body, "size", required=False),
                    seed=_number(body, "seed", required=False),
                )
                return 200, {"view": self.explorer.snapshot()}
            return 404, {"error": f"no route {method} {path}"}
        except CypherAnalysisError as error:
            # Rejected before execution: structured, positioned
            # diagnostics so the frontend can underline the query.
            return 400, {
                "error": str(error),
                "diagnostics": [d.to_dict() for d in error.diagnostics],
            }
        except (KeyError, ValueError) as error:
            return 400, {"error": str(error)}

    def _nodes_for_query(self, query: str) -> list[int]:
        """Graph nodes whose name matches the keyword query."""
        matches = []
        needle = query.strip().lower()
        if not needle:
            return []
        for node in self.system.graph.nodes():
            name = str(node.properties.get("name", "")).lower()
            if needle in name:
                matches.append((0 if name == needle else 1, node.node_id))
        return [node_id for _rank, node_id in sorted(matches)]


class ExplorerServer:
    """Threaded HTTP server wrapping :class:`ExplorerAPI`."""

    def __init__(self, api: ExplorerAPI, host: str = "127.0.0.1", port: int = 0):
        self.api = api
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):  # noqa: A003 - silence request log
                pass

            def _respond(
                self,
                status: int,
                payload: dict | None,
                extra_headers: dict | None = None,
            ) -> None:
                data = b"" if payload is None else json.dumps(payload).encode()
                self.send_response(status)
                for name, value in (extra_headers or {}).items():
                    self.send_header(name, value)
                if payload is not None:
                    self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                if data:
                    self.wfile.write(data)

            def do_GET(self):  # noqa: N802 - stdlib naming
                status, payload, extra = outer.api.handle_full(
                    "GET", self.path, headers=dict(self.headers.items())
                )
                self._respond(status, payload, extra)

            def do_POST(self):  # noqa: N802 - stdlib naming
                try:
                    length = int(self.headers.get("Content-Length", "0"))
                except ValueError:
                    length = -1
                if length < 0:
                    self._respond(400, {"error": "invalid Content-Length"})
                    return
                body = None
                if length:
                    try:
                        body = json.loads(self.rfile.read(length))
                    except (ValueError, RecursionError):
                        self._respond(400, {"error": "invalid JSON body"})
                        return
                status, payload, extra = outer.api.handle_full(
                    "POST", self.path, body, headers=dict(self.headers.items())
                )
                self._respond(status, payload, extra)

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def start(self) -> "ExplorerServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="ui-server", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)


__all__ = [
    "ExplorerAPI",
    "ExplorerServer",
    "ROUTES",
    "decode_cursor",
    "encode_cursor",
]
