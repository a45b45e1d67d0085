"""TLP-tiered STIX feed publishing with journal-cursor incremental pulls.

A :class:`FeedPublisher` maintains one materialised view per feed tier
(``public`` / ``partner`` / ``internal``): every graph item exported to
its STIX object with TLP markings, projected to the tier's ceiling,
sanitized, and held as canonical JSON text keyed by object id, so
identical graph states always serialise to identical bytes.

The views follow the graph by **dirty set**, never by rebuild.  When
the journal stamp has moved, a refresh drains the graph's change
capture (:meth:`~repro.graphdb.store.PropertyGraph.take_changes`: the
node and edge ids the commits since the last drain created, modified
or deleted) and re-exports only the objects those ids can have
changed.  The publisher keeps the maps that take a graph id to the
object it contributes to and back -- one object id can be owned by
several graph items (one ``(label, merge_key)`` on two partitions,
parallel edges), the highest id wins and ``object_refs`` are unioned,
as in :func:`~repro.ontology.stix.export_graph` -- and dirtiness
travels exactly as far as the bytes can change:

* a touched edge dirties its relationship object or, for a reference
  edge (``MENTIONS`` / ``CREATED_BY``), the object of its source;
* a touched node dirties its own object, and only when the object id
  or TLP level it exports to changed (or it appeared / vanished) also
  the objects of its incident edges -- a new attribute on a hub costs
  one object, not its degree.

A cold start -- fresh process, restored snapshot, first pull -- is the
same code with every id dirty, which is what a just-replayed graph
reports; object ids restored from a snapshot seed the dirty set, so
the ones the graph no longer produces fall out as deletions.  A node
whose label has no STIX mapping is left out of every tier, with every
relationship and reference that would point at it (gauge
``feeds.unmapped_nodes``).

Incremental pulls ride the storage journal.  Every refresh stamps the
view with the engines' commit sequence numbers, and the ids it found
changed or gone become that tier's next change-log entry.  A pull
presents an opaque cursor -- or a bare journal seq -- and receives only
the objects touched since, plus a new cursor; an ``If-None-Match`` ETag
that still matches costs a 304 and zero objects.  Unknown or expired
cursors degrade to a full resync, so replaying any pull sequence is
idempotent: full-at-S equals full-at-S0 + deltas(S0 -> S),
byte-identical per tier.

A tier's ETag is a set hash: the sum, mod 2**256, of
``sha256(id TAB canonical-text)`` over its objects, finalised through
sha256.  It is maintained by subtracting and adding the terms of the
objects a refresh changed, and depends on the object set alone -- not
on the path that built it, the process, or the partition count.

Snapshots are written at checkpoint time (the publisher registers as a
post-checkpoint step on the storage engine, covered by the
``checkpoint.feeds-snapshot`` crash point) and persisted atomically
under ``<storage_path>/feeds/``, so cursors survive restarts; a tier
memoises each object's encoded entry until the object changes.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.feeds.tlp import TIER_MAX_TLP, TIERS, check_tier
from repro.obs import NO_OBS, Obs
from repro.ontology.stix import (
    REFERENCE_EDGE_TYPES,
    TLP_BY_MARKING_ID,
    TLP_MARKING_IDS,
    StixMappingError,
    add_reference,
    max_tlp,
    node_object,
    tier_view,
    relationship_id,
    relationship_object,
    stix_id,
    tlp_marking_object,
    tlp_of_object,
    tlp_order,
    within_ceiling,
)
from repro.runtime import memoised, named_lock
from repro.storage.atomic import atomic_write_text

_canonical = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode

#: TLP order each tier is cleared up to.
_CEILINGS = {tier: tlp_order(TIER_MAX_TLP[tier]) for tier in TIERS}

_BARE_SEQ = re.compile(r"-?[0-9]+", re.ASCII)

_DIGEST_MODULUS = 1 << 256


def _object_term(object_id: str, text: str) -> int:
    """One object's term of a tier's set hash."""
    data = f"{object_id}\t{text}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(data).digest(), "big")


def _finalise(digest: int) -> str:
    return hashlib.sha256(digest.to_bytes(32, "big")).hexdigest()[:32]


@dataclass
class _TierDelta:
    """What one refresh did to one tier."""

    #: objects whose view in the tier was recomputed (held before or after)
    reexported: int = 0
    changed: list[str] = field(default_factory=list)
    deleted: list[str] = field(default_factory=list)


@dataclass
class _TierState:
    """One tier's materialised view plus its bounded change history."""

    #: object id -> canonical JSON text of the object
    objects: dict[str, str] = field(default_factory=dict)
    #: sum of the objects' hash terms mod 2**256
    digest: int = 0
    #: ``digest`` finalised as of the last refresh (doubles as the HTTP
    #: ETag)
    etag: str = ""
    #: summed journal seq across partitions at the last refresh
    seq: int = 0
    #: change-log entries ``{"etag", "seq", "changed", "deleted"}``,
    #: oldest first; each entry's etag is the view hash *after* it
    history: list[dict] = field(default_factory=list)
    #: object id -> its snapshot-file entry, dropped when it changes
    pairs: dict[str, str] = field(default_factory=dict)

    def put(self, object_id: str, text: str | None, delta: _TierDelta) -> None:
        """Set one object's text (``None``: not in this tier), keeping
        the set hash and the refresh's delta in step."""
        old = self.objects.get(object_id)
        if text is None and old is None:
            return
        delta.reexported += 1
        if text == old:
            return
        self.pairs.pop(object_id, None)
        digest = self.digest
        if old is not None:
            digest -= _object_term(object_id, old)
        if text is None:
            del self.objects[object_id]
            delta.deleted.append(object_id)
        else:
            digest += _object_term(object_id, text)
            self.objects[object_id] = text
            delta.changed.append(object_id)
        self.digest = digest % _DIGEST_MODULUS

    def snapshot_text(self) -> str:
        """``json.dumps`` of the persisted view with ``sort_keys``, its
        objects joined from the memoised pairs."""
        pairs = memoised(
            self.pairs,
            sorted(self.objects.items()),
            lambda object_id, text: f"{json.dumps(object_id)}: {json.dumps(text)}",
        )
        return (
            f'{{"etag": {json.dumps(self.etag)}, '
            f'"history": {json.dumps(self.history, sort_keys=True)}, '
            f'"objects": {{{", ".join(pairs)}}}, "seq": {json.dumps(self.seq)}}}'
        )


def _incident_edge_ids(graph, node_id: int) -> list[int]:
    return [
        edge.edge_id
        for edge in graph.out_edges(node_id) + graph.in_edges(node_id)
    ]


def _disown(owners: dict[str, set[int]], object_id: str, item_id: int) -> None:
    items = owners[object_id]
    items.discard(item_id)
    if not items:
        del owners[object_id]


@dataclass
class FeedResponse:
    """One answered pull: an HTTP-shaped (status, payload, headers) row."""

    status: int
    payload: dict | None
    etag: str
    cursor: str | None


class FeedPublisher:
    """Serves TLP-tiered STIX bundles with cursors, ETags and snapshots.

    Parameters
    ----------
    graph_source:
        Zero-argument callable returning the current knowledge graph
        (the live union view in sharded deployments).  The publisher is
        the one consumer of that graph's change capture.
    stamp_source:
        Zero-argument callable returning a cheap change stamp: the
        journal ``last_seq`` of each partition.  The publisher refreshes
        its views only when the stamp moves.
    keys:
        Tier -> API key for the protected tiers (``partner`` /
        ``internal``).  A tier with no key configured (directly or via
        a higher tier) is not served; ``public`` is always open.
    path:
        Directory for persisted per-tier snapshots (``None`` keeps the
        views in memory only).
    history:
        Change-log entries retained per tier (at least 1); cursors older
        than the window degrade to a full resync.
    """

    def __init__(
        self,
        graph_source: Callable,
        stamp_source: Callable,
        keys: dict[str, str] | None = None,
        path: str | Path | None = None,
        history: int = 64,
        obs: Obs | None = None,
    ):
        self._graph_source = graph_source
        self._stamp_source = stamp_source
        self._keys = dict(keys or {})
        self._path = Path(path) if path is not None else None
        self._history_limit = history
        self._obs = obs if obs is not None else NO_OBS
        self._lock = named_lock("feeds.publisher")
        self._stamp: tuple | None = None
        self._states: dict[str, _TierState] = {tier: _TierState() for tier in TIERS}
        # graph item -> object: node id -> (id, TLP level) of the object
        # it exports to; edge id -> id of the object it contributes to
        # (its relationship, or its source's object for a reference edge)
        self._node_entries: dict[int, tuple[str, str]] = {}
        self._edge_targets: dict[int, str] = {}
        # ... and back: object id -> the nodes / relationship edges
        # exporting to it (the highest id is the one exported)
        self._object_nodes: dict[str, set[int]] = {}
        self._object_edges: dict[str, set[int]] = {}
        #: node-object id -> (TLP level of its highest-id node, lowest
        #: level among its nodes)
        self._levels: dict[str, tuple[str, str]] = {}
        #: TLP level -> mapped nodes classified at it (a level's
        #: marking-definition is served while the count is positive)
        self._level_nodes: dict[str, int] = {}
        self._unmapped: set[int] = set()
        # what the next refresh has to look at; ids leave these sets
        # only once fully processed, so a refresh that raised resumes
        self._dirty_nodes: set[int] = set()
        self._dirty_edges: set[int] = set()
        self._dirty_objects: set[str] = set()
        if self._path is not None:
            self._load_snapshots()

    # -- auth ------------------------------------------------------------

    def authorize(self, tier: str, key: str | None) -> tuple[int, str] | None:
        """``None`` when the pull may proceed, else ``(status, error)``.

        ``public`` is open.  A protected tier is served when the
        presented key matches its own configured key or a higher
        tier's (an ``internal`` key also grants ``partner``); key
        comparison is constant-time (``hmac.compare_digest``).
        """
        check_tier(tier)
        if tier == "public":
            return None
        rank = TIERS.index(tier)
        granting = [
            self._keys[name]
            for name in TIERS
            if name in self._keys and TIERS.index(name) >= rank
        ]
        if not granting:
            return 403, f"feed tier {tier!r} is not enabled on this deployment"
        if not key:
            return 401, f"feed tier {tier!r} requires an API key"
        for candidate in granting:
            if hmac.compare_digest(candidate, str(key)):
                return None
        return 403, f"API key does not grant feed tier {tier!r}"

    # -- change tracking -------------------------------------------------

    def _refresh(self) -> None:
        """Bring the per-tier views up to date when the stamp moved.

        The stamp is read before the graph's change capture is drained
        and a commit bumps it after touching the graph, so a view never
        carries a stamp newer than its content -- at worst the next
        pull refreshes once more and finds nothing.  The drain takes
        the graph store's lock and therefore happens outside the
        publisher's; the drained ids join the pending dirty sets under
        it, so racing refreshes each apply what they drained."""
        stamp = tuple(self._stamp_source())
        with self._lock:
            if stamp == self._stamp:
                return
        with self._obs.tracer.span("feeds.refresh") as span:
            graph = self._graph_source()
            nodes, edges = graph.take_changes()
            deltas = {tier: _TierDelta() for tier in TIERS}
            with self._lock:
                self._dirty_nodes.update(nodes)
                self._dirty_edges.update(edges)
                span.set("dirty", len(self._dirty_nodes) + len(self._dirty_edges))
                if self._stamp is not None:
                    # a racing refresh that read its stamp later landed first
                    stamp = max(stamp, self._stamp)
                try:
                    self._absorb_nodes(graph)
                    self._relevel(graph)
                    self._absorb_edges(graph)
                    span.set("reexported", len(self._dirty_objects))
                    self._reexport(graph, deltas)
                finally:
                    # what was applied before an exception is published
                    # like any other change; the stamp stays put, so
                    # the next pull resumes with the rest
                    self._record_locked(deltas, sum(stamp))
                self._stamp = stamp
                unmapped = len(self._unmapped)
            span.set("changed", sum(len(d.changed) for d in deltas.values()))
            span.set("deleted", sum(len(d.deleted) for d in deltas.values()))
        for tier in TIERS:
            self._obs.metrics.inc(
                "feeds.objects_reexported", deltas[tier].reexported, tier=tier
            )
        self._obs.metrics.set_gauge("feeds.unmapped_nodes", unmapped)

    def _absorb_nodes(self, graph) -> None:
        """Re-derive the object each dirty node exports to.  The node's
        object is dirty either way; its incident edges only when the
        object id it exports to changed (caller holds the lock)."""
        for node_id in self._dirty_nodes:
            old = self._node_entries.get(node_id)
            new = self._node_entry(graph, node_id)
            self._dirty_objects.update(entry[0] for entry in (old, new) if entry)
            if new == old:
                continue
            if old is None or new is None or old[0] != new[0]:
                self._dirty_edges.update(_incident_edge_ids(graph, node_id))
            if old is not None:
                _disown(self._object_nodes, old[0], node_id)
                self._count_level(old[1], -1)
                del self._node_entries[node_id]
            if new is not None:
                self._object_nodes.setdefault(new[0], set()).add(node_id)
                self._count_level(new[1], +1)
                self._node_entries[node_id] = new
        self._dirty_nodes.clear()

    def _node_entry(self, graph, node_id: int) -> tuple[str, str] | None:
        """``(object id, TLP level)`` a node exports to; ``None`` when it
        is gone or its label has no STIX mapping."""
        self._unmapped.discard(node_id)
        try:
            stix_object = node_object(graph.node(node_id), markings=True)
        except KeyError:
            return None
        except StixMappingError:
            self._unmapped.add(node_id)
            return None
        return stix_object["id"], tlp_of_object(stix_object)

    def _count_level(self, level: str, step: int) -> None:
        count = self._level_nodes.get(level, 0)
        self._level_nodes[level] = count + step
        if not count or not count + step:
            # the level's marking-definition appears or goes
            self._dirty_objects.add(TLP_MARKING_IDS[level])

    def _relevel(self, graph) -> None:
        """Settle the TLP levels of every dirty node object: the level
        of the highest-id node exporting to it (what its relationships
        are marked with) and the lowest level among all of them (the
        tiers that see the id at all).  Either moving -- or the object
        appearing or vanishing -- dirties the incident edges of the
        object's nodes (caller holds the lock)."""
        for object_id in self._dirty_objects:
            nodes = self._object_nodes.get(object_id, ())
            levels = None
            if nodes:
                owned = [self._node_entries[node_id][1] for node_id in nodes]
                levels = (self._node_entries[max(nodes)][1], min(owned, key=tlp_order))
            if levels == self._levels.get(object_id):
                continue
            if levels is None:
                del self._levels[object_id]
            else:
                self._levels[object_id] = levels
            for node_id in nodes:
                self._dirty_edges.update(_incident_edge_ids(graph, node_id))

    def _absorb_edges(self, graph) -> None:
        """Re-derive the object each dirty edge contributes to -- its
        relationship, or for a reference edge the object of its source
        -- and dirty it, old and new (caller holds the lock).  An edge
        with an endpoint that exports to nothing contributes nothing."""
        for edge_id in self._dirty_edges:
            old = self._edge_targets.get(edge_id)
            new = relationship = None
            try:
                edge = graph.edge(edge_id)
            except KeyError:
                edge = None
            if edge is not None:
                source = self._node_entries.get(edge.src)
                target = self._node_entries.get(edge.dst)
                if source is not None and target is not None:
                    relationship = edge.type not in REFERENCE_EDGE_TYPES
                    new = (
                        relationship_id(source[0], edge.type, target[0])
                        if relationship
                        else source[0]
                    )
            self._dirty_objects.update(oid for oid in (old, new) if oid)
            if new == old:
                continue
            if old is not None:
                del self._edge_targets[edge_id]
                if old in self._object_edges:
                    _disown(self._object_edges, old, edge_id)
            if new is not None:
                self._edge_targets[edge_id] = new
                if relationship:
                    self._object_edges.setdefault(new, set()).add(edge_id)
        self._dirty_edges.clear()

    def _reexport(self, graph, deltas: dict[str, _TierDelta]) -> None:
        """Rebuild every dirty object, project it to each tier, and fold
        what changed into the tier's view and set hash -- in id order,
        so the deltas come out sorted (caller holds the lock)."""
        visible = {
            tier: self._visibility(ceiling) for tier, ceiling in _CEILINGS.items()
        }
        for object_id in sorted(self._dirty_objects):
            exports = self._exports(graph, object_id)
            encoded: tuple[dict, str] | None = None
            for tier in TIERS:
                text = None
                for stix_object in exports:
                    if within_ceiling(stix_object, _CEILINGS[tier]):
                        view = tier_view(
                            dict(stix_object),
                            visible[tier],
                            sanitize=(tier == "public"),
                        )
                        # tiers mostly agree on an object: encode it once
                        if encoded is None or encoded[0] != view:
                            encoded = (view, _canonical(view))
                        text = encoded[1]
                        break
                self._states[tier].put(object_id, text, deltas[tier])
        self._dirty_objects.clear()

    def _visibility(self, ceiling: int) -> Callable[[str], bool]:
        """Whether a reference survives at a ceiling: some node exports
        to the referenced id at a level within it."""
        levels = self._levels
        return lambda ref: ref in levels and tlp_order(levels[ref][1]) <= ceiling

    def _exports(self, graph, object_id: str) -> list[dict]:
        """The STIX objects the graph exports under this id now, TLP
        marked, in the order a tier picks from: it serves the first one
        it is cleared for.  Several only when several nodes export to
        the id -- highest node id first, and as in the whole-graph
        export it is that first one the references fold into."""
        level = TLP_BY_MARKING_ID.get(object_id)
        if level is not None:
            return [tlp_marking_object(level)] if self._level_nodes.get(level) else []
        edges = self._object_edges.get(object_id)
        if edges:
            # parallel edges share endpoints, hence their marking
            edge = graph.edge(max(edges))
            source_ref = self._node_entries[edge.src][0]
            target_ref = self._node_entries[edge.dst][0]
            level = max_tlp([self._levels[source_ref][0], self._levels[target_ref][0]])
            return [relationship_object(edge, source_ref, target_ref, level)]
        nodes = sorted(self._object_nodes.get(object_id, ()), reverse=True)
        exports = [
            node_object(graph.node(node_id), markings=True) for node_id in nodes
        ]
        references = [
            edge
            for node_id in nodes
            for edge in graph.out_edges(node_id)
            if edge.type in REFERENCE_EDGE_TYPES
        ]
        references.sort(key=lambda edge: edge.edge_id)
        for edge in references:
            target = self._node_entries.get(edge.dst)
            if target is not None:
                add_reference(exports[0], edge.type, target[0])
        return exports

    def _record_locked(self, deltas: dict[str, _TierDelta], seq_total: int) -> None:
        """Close a refresh: a tier whose hash moved gets a change-log
        entry made of what the refresh changed (caller holds the lock)."""
        for tier in TIERS:
            state = self._states[tier]
            etag = _finalise(state.digest)
            if etag != state.etag:
                state.history.append(
                    {
                        "etag": etag,
                        "seq": seq_total,
                        "changed": deltas[tier].changed,
                        "deleted": deltas[tier].deleted,
                    }
                )
                del state.history[: -self._history_limit]
                state.etag = etag
            state.seq = seq_total

    # -- cursors ---------------------------------------------------------

    @staticmethod
    def _encode_cursor(tier: str, etag: str, seq: int) -> str:
        payload = json.dumps(
            {"t": tier, "h": etag, "s": seq},
            separators=(",", ":"),
            sort_keys=True,
        )
        return base64.urlsafe_b64encode(payload.encode("utf-8")).decode("ascii")

    @staticmethod
    def _decode_cursor(tier: str, token: str) -> dict:
        """Opaque token -> ``{"h", "s"}``; bare integers are accepted as
        raw journal seq numbers (the documented journal-seq contract).
        Whatever else a client sends is one ``ValueError``, worded for
        the client."""
        if _BARE_SEQ.fullmatch(token):
            return {"h": None, "s": int(token)}
        try:
            payload = json.loads(base64.urlsafe_b64decode(token.encode("ascii")))
        except (ValueError, RecursionError):
            payload = None
        if not (
            isinstance(payload, dict)
            and isinstance(payload.get("t"), str)
            and isinstance(payload.get("h"), str)
            and isinstance(payload.get("s"), int)
        ):
            raise ValueError("malformed feed cursor")
        if payload["t"] != tier:
            raise ValueError("cursor belongs to a different feed tier")
        return {"h": payload["h"], "s": payload["s"]}

    def _pending_entries(self, state: _TierState, cursor: dict) -> list[dict] | None:
        """History entries the cursor has not seen; ``None`` means the
        cursor is unknown/expired and the client needs a full resync."""
        if cursor["h"] is not None:
            if cursor["h"] == state.etag:
                return []
            for index, entry in enumerate(state.history):
                if entry["etag"] == cursor["h"]:
                    return state.history[index + 1:]
            return None
        # bare-seq cursor: replay everything after the last entry the
        # client's seq covers
        anchor = None
        for index, entry in enumerate(state.history):
            if entry["seq"] <= cursor["s"]:
                anchor = index
        if anchor is None:
            return None
        return state.history[anchor + 1:]

    # -- serving ---------------------------------------------------------

    def pull(
        self, tier: str, cursor: str | None = None, etag: str | None = None
    ) -> FeedResponse:
        """Answer one feed pull.

        * a matching ``etag`` (If-None-Match) short-circuits to 304;
        * a resolvable ``cursor`` yields a delta (changed objects +
          deleted ids) since that cursor;
        * no cursor, or an expired one, yields the full bundle.

        Every response carries the view's ETag and a fresh cursor.
        """
        check_tier(tier)
        with self._obs.tracer.span("feeds.pull", tier=tier):
            self._refresh()
            with self._lock:
                state = self._states[tier]
                token = self._encode_cursor(tier, state.etag, state.seq)
                if etag is not None and etag == state.etag:
                    payload = None
                else:
                    pending: list[dict] | None = None
                    if cursor is not None:
                        pending = self._pending_entries(
                            state, self._decode_cursor(tier, cursor)
                        )
                    payload = self._payload_locked(tier, state, pending, token)
                response = FeedResponse(
                    304 if payload is None else 200, payload, state.etag, token
                )
            # counted after the lock is released: serialising a full
            # bundle would otherwise be the longest hold of it
            if payload is None:
                self._obs.metrics.inc("feeds.cache_hits", tier=tier)
            else:
                self._obs.metrics.inc("feeds.pulls", tier=tier)
                self._obs.metrics.inc(
                    "feeds.bytes_served",
                    len(json.dumps(payload, separators=(",", ":"))),
                    tier=tier,
                )
            return response

    def _payload_locked(
        self, tier: str, state: _TierState, pending: list[dict] | None, token: str
    ) -> dict:
        """A pull's body: the delta over the ``pending`` history
        entries, or the full bundle when there is no usable cursor."""
        if pending is None:
            return {
                "tier": tier,
                "mode": "full",
                "bundle": self._bundle_dict_locked(state),
                "cursor": token,
            }
        changed: set[str] = set()
        deleted: set[str] = set()
        for entry in pending:
            changed.update(entry["changed"])
            deleted.update(entry["deleted"])
        return {
            "tier": tier,
            "mode": "delta",
            "objects": [
                json.loads(state.objects[object_id])
                for object_id in sorted(changed)
                if object_id in state.objects
            ],
            "deleted": sorted(
                object_id
                for object_id in deleted
                if object_id not in state.objects
            ),
            "cursor": token,
        }

    def full_bundle(self, tier: str) -> tuple[dict, str]:
        """The tier's complete bundle dict plus its ETag (CLI export)."""
        check_tier(tier)
        self._refresh()
        with self._lock:
            state = self._states[tier]
            return self._bundle_dict_locked(state), state.etag

    @staticmethod
    def _bundle_dict_locked(state: _TierState) -> dict:
        objects = [
            json.loads(state.objects[object_id])
            for object_id in sorted(state.objects)
        ]
        return {
            "type": "bundle",
            "id": stix_id("bundle", str(len(objects))),
            "objects": objects,
        }

    def describe(self) -> dict:
        """Per-tier summary for the feed index endpoint."""
        self._refresh()
        with self._lock:
            tiers = {}
            for tier in TIERS:
                state = self._states[tier]
                tiers[tier] = {
                    "max_tlp": TIER_MAX_TLP[tier],
                    "objects": len(state.objects),
                    "etag": state.etag,
                    "auth": "open" if self.authorize(tier, None) is None
                    else "api-key",
                }
            return {"tiers": tiers}

    # -- persistence -----------------------------------------------------

    def snapshot(self) -> None:
        """Refresh and persist every tier's view (registered as a
        post-checkpoint step; see ``checkpoint.feeds-snapshot``).

        Writes go through the storage layer's atomic helpers and happen
        outside the publisher lock, so a slow disk never blocks pulls.
        """
        with self._obs.tracer.span("feeds.snapshot"):
            self._refresh()
            payloads: dict[str, str] | None = None
            with self._lock:
                if self._path is not None:
                    payloads = {
                        tier: state.snapshot_text()
                        for tier, state in sorted(self._states.items())
                    }
            if payloads is not None:
                self._path.mkdir(parents=True, exist_ok=True)
                for tier, payload in payloads.items():
                    atomic_write_text(self._path / f"feed-{tier}.json", payload)
            self._obs.metrics.inc("feeds.snapshots")

    def _load_snapshots(self) -> None:
        """Restore persisted views so cursors survive a restart.  The
        restored object ids seed the dirty set: the first refresh
        re-derives each from the graph, so one the graph no longer
        produces falls out as a deletion.  A missing or damaged snapshot
        simply starts from empty views."""
        states: dict[str, _TierState] = {}
        for tier in TIERS:
            snapshot_path = self._path / f"feed-{tier}.json"
            try:
                data = json.loads(snapshot_path.read_text(encoding="utf-8"))
                objects = {str(k): str(v) for k, v in data["objects"].items()}
                states[tier] = _TierState(
                    objects=objects,
                    digest=sum(_object_term(k, v) for k, v in objects.items())
                    % _DIGEST_MODULUS,
                    etag=str(data["etag"]),
                    seq=int(data["seq"]),
                    history=list(data["history"]),
                )
            except (OSError, ValueError, KeyError, TypeError, AttributeError):
                # partial restore would desynchronise tier histories
                return
        self._states = states
        for state in states.values():
            self._dirty_objects.update(state.objects)


__all__ = ["FeedPublisher", "FeedResponse"]
