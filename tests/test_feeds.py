"""Tests for the dissemination subsystem (``repro.feeds``).

Covers the ISSUE 9 acceptance criteria: TLP tier filtering, API-key
auth, ETag conditional GETs, cursor-based incremental pulls whose
replayed composition is byte-identical to a fresh full pull (at 1 and
4 partitions), crash/recovery byte-identity, and checkpoint-time
snapshot persistence.
"""

import json

import pytest

from alias_corpus import alias_batch
from repro.core.config import SystemConfig
from repro.core.system import SecurityKG
from repro.feeds import TIER_MAX_TLP, TIERS, FeedPublisher
from repro.feeds.tlp import check_tier
from repro.obs import make_obs
from repro.ontology.entities import EntityType
from repro.ontology.intermediate import CTIRecord, Mention
from repro.ontology.stix import (
    STIX_TYPE_BY_LABEL,
    export_graph,
    filter_bundle,
    stix_id,
)
from repro.runtime import clock_from_name
from repro.storage import CrashInjector, InjectedCrash
from repro.ui.server import ExplorerAPI

WORKLOAD = dict(
    scenario_count=6,
    reports_per_site=2,
    sources=["ThreatPedia", "MalwareBulletin"],
    connectors=["graph", "search"],
    clock="virtual",
    seed=7,
)

KEYS = {"partner": "partner-key", "internal": "internal-key"}


def make_kg(path=None, partitions=1, faults=None, **overrides):
    config = SystemConfig(
        storage_path=None if path is None else str(path),
        partitions=partitions,
        feed_keys=dict(KEYS),
        **{**WORKLOAD, **overrides},
    )
    return SecurityKG(config, faults=faults)


def bundle_bytes(payload_bundle: dict) -> str:
    return json.dumps(payload_bundle, sort_keys=True, separators=(",", ":"))


def compose(state: dict, response) -> dict:
    """Apply one pull's payload to a client-side object map."""
    payload = response.payload
    if payload["mode"] == "full":
        return {o["id"]: o for o in payload["bundle"]["objects"]}
    for stix_object in payload["objects"]:
        state[stix_object["id"]] = stix_object
    for deleted_id in payload["deleted"]:
        state.pop(deleted_id, None)
    return state


def as_bundle(state: dict) -> dict:
    objects = [state[key] for key in sorted(state)]
    return {
        "type": "bundle",
        "id": stix_id("bundle", str(len(objects))),
        "objects": objects,
    }


class TestTierSemantics:
    def test_tier_vocabulary(self):
        assert TIERS == ("public", "partner", "internal")
        assert TIER_MAX_TLP["public"] == "white"
        assert TIER_MAX_TLP["partner"] == "amber"
        with pytest.raises(ValueError):
            check_tier("vip")

    def test_public_feed_has_no_reports_or_sourcing(self):
        kg = make_kg()
        kg.run_once()
        bundle, _etag = kg.feeds.full_bundle("public")
        for stix_object in bundle["objects"]:
            assert stix_object["type"] != "report"
            assert "x_source" not in stix_object
            assert "x_url" not in stix_object

    def test_tiers_nest(self):
        kg = make_kg()
        kg.run_once()
        counts = {
            tier: len(kg.feeds.full_bundle(tier)[0]["objects"])
            for tier in TIERS
        }
        assert counts["public"] < counts["partner"] <= counts["internal"]

    def test_red_objects_confined_to_internal(self):
        kg = make_kg()
        kg.run_once()
        node = next(n for n in kg.graph.nodes() if n.label == "Malware")
        kg.database.set_node_properties(node.node_id, {"tlp": "red"})
        partner_ids = {
            o["id"] for o in kg.feeds.full_bundle("partner")[0]["objects"]
        }
        internal_ids = {
            o["id"] for o in kg.feeds.full_bundle("internal")[0]["objects"]
        }
        red_ids = internal_ids - partner_ids
        assert red_ids  # the red malware (+ its relationships) vanished


class TestAuth:
    def test_public_is_open(self):
        kg = make_kg()
        assert kg.feeds.authorize("public", None) is None

    def test_missing_key_401(self):
        kg = make_kg()
        status, _message = kg.feeds.authorize("partner", None)
        assert status == 401

    def test_wrong_key_403(self):
        kg = make_kg()
        status, _message = kg.feeds.authorize("partner", "nope")
        assert status == 403

    def test_higher_tier_key_grants_lower(self):
        kg = make_kg()
        assert kg.feeds.authorize("partner", KEYS["internal"]) is None
        status, _message = kg.feeds.authorize("internal", KEYS["partner"])
        assert status == 403

    def test_unconfigured_tier_is_disabled(self):
        publisher = FeedPublisher(
            graph_source=lambda: None, stamp_source=tuple, keys=None
        )
        status, message = publisher.authorize("internal", "anything")
        assert status == 403 and "not enabled" in message


class TestHttpApi:
    @pytest.fixture(scope="class")
    def api(self):
        kg = make_kg()
        kg.run_once()
        return ExplorerAPI(kg)

    def test_feed_index(self, api):
        status, payload, _headers = api.handle_full("GET", "/feeds")
        assert status == 200
        assert set(payload["tiers"]) == set(TIERS)
        assert payload["tiers"]["public"]["auth"] == "open"
        assert payload["tiers"]["internal"]["auth"] == "api-key"

    def test_public_pull(self, api):
        status, payload, headers = api.handle_full("GET", "/feeds/public")
        assert status == 200 and payload["mode"] == "full"
        assert headers["ETag"] and headers["X-Feed-Cursor"]

    def test_protected_tier_requires_key(self, api):
        status, payload, _headers = api.handle_full("GET", "/feeds/internal")
        assert status == 401 and "error" in payload

    def test_wrong_key_rejected(self, api):
        status, _payload, _headers = api.handle_full(
            "GET", "/feeds/internal", headers={"X-API-Key": "nope"}
        )
        assert status == 403

    def test_key_header_and_query_param(self, api):
        status, _payload, _headers = api.handle_full(
            "GET", "/feeds/internal",
            headers={"x-api-key": KEYS["internal"]},  # case-insensitive
        )
        assert status == 200
        status, _payload, _headers = api.handle_full(
            "GET", f"/feeds/internal?key={KEYS['internal']}"
        )
        assert status == 200

    def test_etag_conditional_get(self, api):
        _status, _payload, headers = api.handle_full("GET", "/feeds/public")
        status, payload, headers2 = api.handle_full(
            "GET", "/feeds/public", headers={"If-None-Match": headers["ETag"]}
        )
        assert status == 304 and payload is None
        assert headers2["ETag"] == headers["ETag"]

    def test_cursor_roundtrip_over_http(self, api):
        _status, _payload, headers = api.handle_full("GET", "/feeds/public")
        status, payload, _headers = api.handle_full(
            "GET", f"/feeds/public?cursor={headers['X-Feed-Cursor']}"
        )
        assert status == 200 and payload["mode"] == "delta"
        assert payload["objects"] == [] and payload["deleted"] == []

    def test_unknown_tier_400(self, api):
        status, payload, _headers = api.handle_full("GET", "/feeds/vip")
        assert status == 400 and "unknown feed tier" in payload["error"]

    def test_post_feeds_404(self, api):
        status, _payload, _headers = api.handle_full("POST", "/feeds/public")
        assert status == 404


class TestCursors:
    def test_bare_seq_cursor(self):
        kg = make_kg()
        first = kg.feeds.pull("internal")
        kg.run_once()
        # "0" is the documented journal-seq form of the cursor contract
        delta = kg.feeds.pull("internal", cursor="0")
        assert delta.payload["mode"] == "delta"
        state = compose({}, first)
        state = compose(state, delta)
        full = kg.feeds.pull("internal")
        assert bundle_bytes(as_bundle(state)) == bundle_bytes(
            full.payload["bundle"]
        )

    def test_cursor_of_other_tier_rejected(self):
        kg = make_kg()
        response = kg.feeds.pull("public")
        with pytest.raises(ValueError):
            kg.feeds.pull("internal", cursor=response.cursor)

    def test_malformed_cursor_rejected(self):
        kg = make_kg()
        with pytest.raises(ValueError):
            kg.feeds.pull("public", cursor="!!not-base64!!")

    def test_expired_cursor_falls_back_to_full(self):
        kg = make_kg(feed_history=1)
        stale = kg.feeds.pull("internal")
        for index in range(3):  # three distinct refreshes age the history
            kg.database.create_node("Malware", {"name": f"gen-{index}"})
            kg.feeds.pull("internal")
        resync = kg.feeds.pull("internal", cursor=stale.cursor)
        assert resync.payload["mode"] == "full"

    def test_metrics_counters(self):
        obs = make_obs(clock_from_name("virtual"))
        config = SystemConfig(feed_keys=dict(KEYS), **WORKLOAD)
        kg = SecurityKG(config, obs=obs)
        kg.run_once()
        response = kg.feeds.pull("public")
        kg.feeds.pull("public", etag=response.etag)
        snapshot = obs.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["feeds.pulls"]["tier=public"] == 1
        assert counters["feeds.cache_hits"]["tier=public"] == 1
        assert counters["feeds.bytes_served"]["tier=public"] > 0


class TestIncrementalComposition:
    """The acceptance criterion: full-at-S == full-at-S0 + replayed
    deltas, byte-identical per tier, at 1 and 4 partitions."""

    @pytest.mark.parametrize("partitions", [1, 4])
    def test_replay_composition_matches_full(self, tmp_path, partitions):
        kg = make_kg(tmp_path / "state", partitions=partitions)
        states = {tier: {} for tier in TIERS}
        cursors = {}
        for tier in TIERS:
            response = kg.feeds.pull(tier)
            states[tier] = compose(states[tier], response)
            cursors[tier] = response.cursor
        for step in range(3):
            if step == 0:
                kg.run_once(max_articles=3)
            elif step == 1:
                kg.run_once()
            else:
                kg.run_fusion()
            for tier in TIERS:
                response = kg.feeds.pull(tier, cursor=cursors[tier])
                assert response.payload["mode"] == "delta"
                states[tier] = compose(states[tier], response)
                cursors[tier] = response.cursor
        for tier in TIERS:
            full = kg.feeds.pull(tier)
            assert bundle_bytes(as_bundle(states[tier])) == bundle_bytes(
                full.payload["bundle"]
            ), f"tier {tier} diverged at {partitions} partition(s)"
        kg.close()

    def test_fusion_deletes_propagate(self, tmp_path):
        # this source mix is known to produce a merge group at seed 7
        kg = make_kg(
            tmp_path / "state",
            sources=["ThreatPedia", "MalwareVault", "OTX Mirror"],
        )
        kg.run_once()
        before = kg.feeds.pull("internal")
        report = kg.run_fusion()
        if report.groups_merged == 0:
            pytest.skip("seeded workload produced no merge groups")
        delta = kg.feeds.pull("internal", cursor=before.cursor)
        assert delta.payload["mode"] == "delta"
        assert delta.payload["deleted"]  # merged-away nodes disappear
        state = compose(
            {o["id"]: o for o in before.payload["bundle"]["objects"]}, delta
        )
        full = kg.feeds.pull("internal")
        assert bundle_bytes(as_bundle(state)) == bundle_bytes(
            full.payload["bundle"]
        )
        kg.close()


    @pytest.mark.parametrize("partitions", [1, 2])
    def test_cursor_before_fusion_learns_the_merged_away_ids(self, partitions):
        kg = make_kg(partitions=partitions)
        kg.store(alias_batch(0))
        before = kg.feeds.pull("internal")
        def fusable_object_ids():
            # several partitions may each hold a node of one name; its
            # object is gone once the last of them is merged away
            return {
                stix_id(
                    STIX_TYPE_BY_LABEL[node.label],
                    f"{node.label}|{node.properties['merge_key']}",
                )
                for node in kg.graph.nodes()
                if node.label in kg.fusion.FUSABLE_LABELS
            }

        object_ids = fusable_object_ids()
        assert kg.run_fusion().groups_merged > 0
        merged_away = object_ids - fusable_object_ids()
        delta = kg.feeds.pull("internal", cursor=before.cursor)
        assert delta.payload["mode"] == "delta"
        assert merged_away and merged_away <= set(delta.payload["deleted"])
        kg.close()

    @pytest.mark.parametrize("partitions", [1, 2])
    def test_ingest_fuse_ingest_composes_and_survives_reopen(
        self, tmp_path, partitions
    ):
        kg = make_kg(tmp_path / "state", partitions=partitions)
        states, cursors = {}, {}
        for tier in TIERS:
            response = kg.feeds.pull(tier)
            states[tier] = compose({}, response)
            cursors[tier] = response.cursor
        for step in range(3):
            if step == 1:
                assert kg.run_fusion().groups_merged > 0
            else:
                kg.store(alias_batch(step))
            for tier in TIERS:
                response = kg.feeds.pull(tier, cursor=cursors[tier])
                assert response.payload["mode"] == "delta"
                states[tier] = compose(states[tier], response)
                cursors[tier] = response.cursor
        composed = {tier: bundle_bytes(as_bundle(states[tier])) for tier in TIERS}
        for tier in TIERS:
            assert composed[tier] == bundle_bytes(
                kg.feeds.pull(tier).payload["bundle"]
            ), f"tier {tier} diverged at {partitions} partition(s)"
        kg.close()  # no checkpoint: the reopen replays the fusion commit
        reopened = make_kg(tmp_path / "state", partitions=partitions)
        for tier in TIERS:
            assert composed[tier] == bundle_bytes(
                reopened.feeds.pull(tier).payload["bundle"]
            ), f"tier {tier} reopened to another graph"
        reopened.close()


class TestCrashRecovery:
    def test_recovered_partition_serves_identical_bytes(self, tmp_path):
        baseline = make_kg(tmp_path / "clean", partitions=4)
        baseline.run_once()
        baseline.checkpoint()
        expected = {
            tier: bundle_bytes(baseline.feeds.full_bundle(tier)[0])
            for tier in TIERS
        }
        baseline.close()

        crashed = make_kg(
            tmp_path / "crashed",
            partitions=4,
            faults=CrashInjector("commit.after-fsync", at_hit=1),
        )
        with pytest.raises(InjectedCrash):
            crashed.run_once()
        crashed.close()

        recovered = make_kg(tmp_path / "crashed", partitions=4)
        recovered.run_once()
        recovered.checkpoint()
        for tier in TIERS:
            assert (
                bundle_bytes(recovered.feeds.full_bundle(tier)[0])
                == expected[tier]
            ), f"tier {tier} diverged after crash recovery"
        recovered.close()

    def test_feeds_snapshot_crash_point_skips_steps(self, tmp_path):
        kg = make_kg(
            tmp_path / "state",
            faults=CrashInjector("checkpoint.feeds-snapshot"),
        )
        kg.run_once()
        with pytest.raises(InjectedCrash):
            kg.checkpoint()
        # the crash fired before the post-checkpoint steps ran
        assert not (tmp_path / "state" / "feeds").exists()
        kg.close()
        # ... and recovery simply re-runs them at the next checkpoint
        reopened = make_kg(tmp_path / "state")
        reopened.run_once()
        reopened.checkpoint()
        assert sorted(
            path.name for path in (tmp_path / "state" / "feeds").iterdir()
        ) == [f"feed-{tier}.json" for tier in sorted(TIERS)]
        reopened.close()


class TestSnapshotPersistence:
    def test_cursors_survive_restart(self, tmp_path):
        kg = make_kg(tmp_path / "state")
        kg.run_once()
        response = kg.feeds.pull("internal")
        kg.checkpoint()  # persists the per-tier snapshots
        kg.close()

        reopened = make_kg(tmp_path / "state")
        cached = reopened.feeds.pull("internal", etag=response.etag)
        assert cached.status == 304  # same state hash across restarts
        delta = reopened.feeds.pull("internal", cursor=response.cursor)
        assert delta.payload["mode"] == "delta"
        assert delta.payload["objects"] == [] and delta.payload["deleted"] == []
        reopened.close()

    def test_snapshot_files_are_valid_json(self, tmp_path):
        kg = make_kg(tmp_path / "state")
        kg.run_once()
        kg.checkpoint()
        etag = kg.feeds.pull("public").etag
        data = json.loads(
            (tmp_path / "state" / "feeds" / "feed-public.json").read_text()
        )
        assert data["etag"] == etag
        assert data["history"] and data["objects"]
        kg.close()


class TestLiveReadsAtTwoPartitions:
    """Every reader of ``kg.graph`` sees a commit made after it was
    built: the explorer holds the live union view, not a copy taken at
    construction, and feeds export the same view."""

    @staticmethod
    def _record(index, name):
        return CTIRecord(
            report_id=f"rpt-{index:04d}",
            source="UnitSource",
            url=f"https://unit.test/report/{index}",
            title=f"report {index} on {name}",
            mentions=[Mention(name, EntityType.MALWARE)],
        )

    def test_explorer_and_feeds_follow_later_commits(self):
        kg = make_kg(partitions=2)
        api = ExplorerAPI(kg)
        kg.store([self._record(i, f"early-{i}") for i in range(4)])
        for tier in TIERS:
            kg.feeds.pull(tier)
        kg.store([self._record(10 + i, f"late-{i}") for i in range(4)])

        status, payload = api.handle("POST", "/api/search", {"query": "late-2"})
        assert status == 200
        shown = {node["name"]: node["id"] for node in payload["view"]["nodes"]}
        assert "late-2" in shown
        status, payload = api.handle("POST", "/api/expand", {"id": shown["late-2"]})
        assert status == 200
        assert "report 12 on late-2" in {
            node["name"] for node in payload["view"]["nodes"]
        }

        reference = export_graph(kg.shards.merged_graph(), markings=True)
        for tier in TIERS:
            expected = filter_bundle(
                reference, TIER_MAX_TLP[tier], sanitize=(tier == "public")
            )
            bundle, _etag = kg.feeds.full_bundle(tier)
            assert bundle["objects"] == sorted(
                expected.objects, key=lambda stix_object: stix_object["id"]
            ), f"tier {tier} is not the export of the current graph"
        kg.close()
