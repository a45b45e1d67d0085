"""E23 -- dissemination feeds: incremental pulls + conditional GETs.

The claim to quantify: serving TLP-tiered STIX feeds with
journal-cursor deltas and ETag conditional GETs cuts the bytes a
polling client population downloads by **>= 10x** versus the naive
strategy of shipping the full bundle on every poll.

Setup: a seeded 50-client poll storm against the HTTP feed API
(:class:`repro.ui.server.ExplorerAPI`) on the virtual clock.  Clients
are spread across the three tiers (partner/internal authenticate with
API keys), remember their ETag + cursor between polls, and poll for 20
rounds; the graph mutates on three of those rounds (two incremental
crawls and one fusion pass), so most polls see an unchanged feed and
the rest see a small delta.  The naive baseline is the compact-encoded
full bundle for the same tier at the same instant, once per poll.

Also reported: the conditional-GET hit ratio straight from the
``feeds.cache_hits`` / ``feeds.pulls`` counters, an end-of-storm
correctness check that every client's replayed object map matches a
fresh full pull byte-for-byte, and what keeping the views current cost
the server: objects re-exported (``feeds.objects_reexported``, summed
over tiers) against what rebuilding every tier on each of the same
refreshes would have exported.
"""

import json
import random

from conftest import record_result

from repro.core.config import SystemConfig
from repro.core.system import SecurityKG
from repro.feeds import TIERS
from repro.obs import make_obs
from repro.runtime import clock_from_name
from repro.ui.server import ExplorerAPI

CLIENTS = 50
ROUNDS = 20
#: rounds immediately preceded by a graph mutation; the crawls widen
#: the article budget so each one actually ingests new reports
MUTATE_BEFORE = {3: "crawl-6", 7: "crawl-all", 9: "fuse"}

KEYS = {"partner": "partner-key", "internal": "internal-key"}

WORKLOAD = dict(
    scenario_count=8,
    reports_per_site=2,
    sources=["ThreatPedia", "MalwareBulletin", "MalwareVault"],
    connectors=["graph", "search"],
    clock="virtual",
    seed=7,
)


def compact_bytes(payload) -> int:
    return len(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    )


def apply_pull(state: dict, payload: dict) -> dict:
    if payload["mode"] == "full":
        return {o["id"]: o for o in payload["bundle"]["objects"]}
    for stix_object in payload["objects"]:
        state[stix_object["id"]] = stix_object
    for deleted_id in payload["deleted"]:
        state.pop(deleted_id, None)
    return state


def test_bench_feed_poll_storm():
    obs = make_obs(clock_from_name("virtual"))
    kg = SecurityKG(
        SystemConfig(feed_keys=dict(KEYS), **WORKLOAD), obs=obs
    )
    kg.run_once(max_articles=3)
    api = ExplorerAPI(kg)

    rng = random.Random(4242)
    clients = [
        {"tier": TIERS[index % len(TIERS)], "etag": None, "cursor": None,
         "state": {}}
        for index in range(CLIENTS)
    ]

    naive_bytes = 0
    incremental_bytes = 0
    rows = []
    for round_index in range(ROUNDS):
        mutation = MUTATE_BEFORE.get(round_index)
        if mutation == "crawl-6":
            kg.run_once(max_articles=6)
        elif mutation == "crawl-all":
            kg.run_once()
        elif mutation == "fuse":
            kg.run_fusion()

        # the naive baseline re-downloads this, once per poll
        full_cost = {
            tier: compact_bytes(kg.feeds.full_bundle(tier)[0])
            for tier in TIERS
        }

        round_naive = round_incremental = 0
        for client in clients:
            if round_index and rng.random() < 0.2:
                continue  # this client sits the round out
            tier = client["tier"]
            path = f"/feeds/{tier}"
            if client["cursor"]:
                path += f"?cursor={client['cursor']}"
            headers = {}
            if client["etag"]:
                headers["If-None-Match"] = client["etag"]
            if tier in KEYS:
                headers["X-API-Key"] = KEYS[tier]
            status, payload, headers_out = api.handle_full(
                "GET", path, headers=headers
            )
            assert status in (200, 304)
            round_naive += full_cost[tier]
            if status == 200:
                round_incremental += compact_bytes(payload)
                client["state"] = apply_pull(client["state"], payload)
                client["etag"] = headers_out["ETag"]
                client["cursor"] = headers_out["X-Feed-Cursor"]
        naive_bytes += round_naive
        incremental_bytes += round_incremental
        rows.append(
            {
                "round": round_index,
                "mutation": mutation or "-",
                "naive_bytes": round_naive,
                "incremental_bytes": round_incremental,
            }
        )

    # every client's replayed map must equal a fresh full pull
    fresh = {
        tier: {
            o["id"]: o
            for o in kg.feeds.pull(tier).payload["bundle"]["objects"]
        }
        for tier in TIERS
    }
    for client in clients:
        assert client["state"] == fresh[client["tier"]]

    counters = obs.metrics.snapshot()["counters"]
    refreshes = sum(
        record["name"] == "feeds.refresh" for record in obs.tracer.export()
    )
    reexported = sum(counters["feeds.objects_reexported"].values())
    rebuild_equivalent = refreshes * sum(len(objects) for objects in fresh.values())
    pulls = sum(counters["feeds.pulls"].values())
    cache_hits = sum(counters["feeds.cache_hits"].values())
    hit_ratio = cache_hits / (pulls + cache_hits)
    reduction = naive_bytes / incremental_bytes

    print(f"\nE23: feed poll storm ({CLIENTS} clients, {ROUNDS} rounds, "
          f"{len(MUTATE_BEFORE)} mutations)")
    print(f"  {'round':>5} {'mutation':>8} {'naive B':>10} "
          f"{'incremental B':>14}")
    for row in rows:
        print(f"  {row['round']:>5} {row['mutation']:>8} "
              f"{row['naive_bytes']:>10} {row['incremental_bytes']:>14}")
    print(f"  total naive        : {naive_bytes:>12} B")
    print(f"  total incremental  : {incremental_bytes:>12} B")
    print(f"  bytes reduction    : {reduction:>12.1f}x")
    print(f"  conditional-GET hit: {hit_ratio:>12.2%} "
          f"({cache_hits} of {pulls + cache_hits} polls)")
    print(f"  objects re-exported: {reexported:>12} over {refreshes} refreshes "
          f"(rebuilding every tier each time: {rebuild_equivalent})")

    assert reduction >= 10.0
    assert hit_ratio >= 0.5
    # one cold build, then what the three mutations touched
    assert reexported < rebuild_equivalent / 2

    record_result(
        "E23",
        {
            "claim": "cursor deltas + ETag conditional GETs cut polled "
            "feed bytes >= 10x versus full-bundle downloads",
            "clients": CLIENTS,
            "rounds": ROUNDS,
            "naive_bytes": naive_bytes,
            "incremental_bytes": incremental_bytes,
            "reduction_x": round(reduction, 1),
            "conditional_get_hit_ratio": round(hit_ratio, 3),
            "polls": pulls + cache_hits,
            "cache_hits": cache_hits,
            "refreshes": refreshes,
            "objects_reexported": reexported,
            "rebuild_equivalent_objects": rebuild_equivalent,
            "per_round": rows,
        },
    )
