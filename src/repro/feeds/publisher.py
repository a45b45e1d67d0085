"""TLP-tiered STIX feed publishing with journal-cursor incremental pulls.

A :class:`FeedPublisher` maintains one materialised view per feed tier
(``public`` / ``partner`` / ``internal``): the graph exported as a STIX
bundle with TLP markings, filtered to the tier's ceiling, sanitized,
and canonically ordered so identical graph states always serialise to
identical bytes.

Incremental pulls ride the storage journal.  Every refresh stamps the
view with the engines' commit sequence numbers and records which object
ids changed or vanished since the previous view.  A pull presents an opaque cursor -- or a bare journal
seq -- and receives only the objects touched since, plus a new cursor;
an ``If-None-Match`` ETag that still matches costs a 304 and zero
objects.  Unknown or expired cursors degrade to a full resync, so
replaying any pull sequence is idempotent: full-at-S equals
full-at-S0 + deltas(S0 -> S), byte-identical per tier.

Snapshots are precomputed at checkpoint time (the publisher registers
as a post-checkpoint step on the storage engine, covered by the
``checkpoint.feeds-snapshot`` crash point) and persisted atomically
under ``<storage_path>/feeds/``, so cursors survive restarts.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.feeds.tlp import TIER_MAX_TLP, TIERS, check_tier
from repro.obs import NO_OBS, Obs
from repro.ontology.stix import export_graph, filter_bundle, stix_id
from repro.runtime import named_lock
from repro.storage.atomic import atomic_write_text


def _canonical(stix_object: dict) -> str:
    return json.dumps(stix_object, separators=(",", ":"), sort_keys=True)


def _state_hash(objects: dict[str, str]) -> str:
    digest = hashlib.sha256()
    for object_id in sorted(objects):
        digest.update(object_id.encode("utf-8"))
        digest.update(b"\t")
        digest.update(objects[object_id].encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:32]


@dataclass
class _TierState:
    """One tier's materialised view plus its bounded change history."""

    #: object id -> canonical JSON text of the object
    objects: dict[str, str] = field(default_factory=dict)
    #: content hash of the view (doubles as the HTTP ETag)
    etag: str = ""
    #: summed journal seq across partitions at the last refresh
    seq: int = 0
    #: change-log entries ``{"etag", "seq", "changed", "deleted"}``,
    #: oldest first; each entry's etag is the view hash *after* it
    history: list[dict] = field(default_factory=list)


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
        (the merged union in sharded deployments).
    stamp_source:
        Zero-argument callable returning a cheap change stamp: the
        journal ``last_seq`` of each partition.  The publisher rebuilds
        its views only when the stamp moves.
    keys:
        Tier -> API key for the protected tiers (``partner`` /
        ``internal``).  A tier with no key configured (directly or via
        a higher tier) is not served; ``public`` is always open.
    path:
        Directory for persisted per-tier snapshots (``None`` keeps the
        views in memory only).
    history:
        Change-log entries retained per tier; cursors older than the
        window degrade to a full resync.
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
        self._keys = {k: str(v) for k, v in (keys or {}).items()}
        self._path = Path(path) if path is not None else None
        self._history_limit = max(1, int(history))
        self._obs = obs if obs is not None else NO_OBS
        self._lock = named_lock("feeds.publisher")
        self._stamp: tuple | None = None
        self._states: dict[str, _TierState] = {}
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

        The graph export and tier filtering -- the expensive part, and
        the part that takes the graph store's own lock -- run *outside*
        the publisher lock; the lock only guards the short stamp check
        and the view swap.  Two racing refreshes of the same stamp are
        idempotent (the second sees the stamp already applied and
        returns)."""
        with self._lock:
            current = self._stamp
        stamp = tuple(self._stamp_source())
        if stamp == current:
            return
        bundle = export_graph(self._graph_source(), markings=True)
        views: dict[str, tuple[dict[str, str], str]] = {}
        for tier in TIERS:
            filtered = filter_bundle(
                bundle, TIER_MAX_TLP[tier], sanitize=(tier == "public")
            )
            objects = {o["id"]: _canonical(o) for o in filtered.objects}
            views[tier] = (objects, _state_hash(objects))
        with self._lock:
            if stamp == self._stamp:
                return  # a racing pull applied this stamp already
            self._apply_views_locked(views, sum(stamp))
            self._stamp = stamp

    def _apply_views_locked(
        self, views: dict[str, tuple[dict[str, str], str]], seq_total: int
    ) -> None:
        """Swap in freshly built views, recording per-tier change-log
        entries (caller holds the lock)."""
        for tier in TIERS:
            objects, etag = views[tier]
            state = self._states.get(tier)
            if state is None:
                state = _TierState()
                self._states[tier] = state
                state.history.append(
                    {
                        "etag": etag,
                        "seq": seq_total,
                        "changed": sorted(objects),
                        "deleted": [],
                    }
                )
            elif etag != state.etag:
                state.history.append(
                    {
                        "etag": etag,
                        "seq": seq_total,
                        "changed": sorted(
                            object_id
                            for object_id, text in objects.items()
                            if state.objects.get(object_id) != text
                        ),
                        "deleted": sorted(
                            object_id
                            for object_id in state.objects
                            if object_id not in objects
                        ),
                    }
                )
                del state.history[: -self._history_limit]
            state.objects = objects
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
        raw journal seq numbers (the documented journal-seq contract)."""
        if token.lstrip("-").isdigit():
            return {"h": None, "s": int(token)}
        try:
            payload = json.loads(base64.urlsafe_b64decode(token.encode("ascii")))
            if payload["t"] != tier:
                raise ValueError("cursor belongs to a different feed tier")
            return {"h": str(payload["h"]), "s": int(payload["s"])}
        except ValueError:
            raise
        except Exception:
            raise ValueError("malformed feed cursor") from None

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
                    self._obs.metrics.inc("feeds.cache_hits", tier=tier)
                    return FeedResponse(304, None, state.etag, token)
                pending: list[dict] | None = None
                if cursor is not None:
                    pending = self._pending_entries(
                        state, self._decode_cursor(tier, cursor)
                    )
                if pending is None:
                    payload = {
                        "tier": tier,
                        "mode": "full",
                        "bundle": self._bundle_dict_locked(state),
                        "cursor": token,
                    }
                else:
                    changed: set[str] = set()
                    deleted: set[str] = set()
                    for entry in pending:
                        changed.update(entry["changed"])
                        deleted.update(entry["deleted"])
                    payload = {
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
                self._obs.metrics.inc("feeds.pulls", tier=tier)
                self._obs.metrics.inc(
                    "feeds.bytes_served",
                    len(json.dumps(payload, separators=(",", ":"))),
                    tier=tier,
                )
                return FeedResponse(200, payload, state.etag, token)

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
                        tier: json.dumps(
                            {
                                "etag": state.etag,
                                "seq": state.seq,
                                "objects": state.objects,
                                "history": state.history,
                            },
                            sort_keys=True,
                        )
                        for tier, state in sorted(self._states.items())
                    }
            if payloads is not None:
                self._path.mkdir(parents=True, exist_ok=True)
                for tier, payload in payloads.items():
                    atomic_write_text(self._path / f"feed-{tier}.json", payload)
            self._obs.metrics.inc("feeds.snapshots")

    def _load_snapshots(self) -> None:
        """Restore persisted views so cursors survive a restart.  A
        missing or damaged snapshot simply rebuilds from the graph."""
        for tier in TIERS:
            snapshot_path = self._path / f"feed-{tier}.json"
            try:
                data = json.loads(snapshot_path.read_text(encoding="utf-8"))
                self._states[tier] = _TierState(
                    objects=dict(data["objects"]),
                    etag=str(data["etag"]),
                    seq=int(data["seq"]),
                    history=list(data["history"]),
                )
            except (OSError, ValueError, KeyError, TypeError):
                self._states.pop(tier, None)
        if len(self._states) != len(TIERS):
            # partial restore would desynchronise tier histories
            self._states = {}


__all__ = ["FeedPublisher", "FeedResponse"]
