"""E18 -- crash recovery of the unified storage engine.

The paper's storage stage inherits durability from Neo4j and
Elasticsearch; this reproduction owns it in :mod:`repro.storage`.  Two
claims to quantify:

1. **Crash matrix.**  Killing a deployment at *every* registered crash
   point and reopening converges the graph, search index and crawl
   state to the contents of an uninterrupted run -- zero lost reports,
   zero duplicated ingests (the exactly-once marker discipline).  The
   ``fuse/commit.*`` rows kill it inside knowledge fusion instead: a
   fusion pass is one ordinary commit, so the reopened graph is the
   pre- or the post-fusion one and re-running the pass converges.
2. **Recovery time vs journal length.**  Reopening replays the journal,
   so recovery cost grows with commits since the last checkpoint and
   collapses after one.  Beside it, per store size, the cost of the
   first checkpoint after a reopen, of one after a few more commits,
   and the snapshot's size.

Runs entirely on the virtual clock; wall time is a few seconds.
"""

import json
import time

from alias_corpus import alias_batch, graph_identity
from conftest import RESULTS_PATH, record_result

from repro.core.config import SystemConfig
from repro.core.system import SecurityKG
from repro.graphdb.wal import GraphDatabase
from repro.storage import CRASH_POINTS, CrashInjector, InjectedCrash

WORKLOAD = dict(
    scenario_count=6,
    reports_per_site=2,
    sources=["ThreatPedia", "MalwareBulletin"],
    connectors=["graph", "search"],
    clock="virtual",
    seed=7,
)


def make_kg(path, faults=None):
    return SecurityKG(SystemConfig(storage_path=str(path), **WORKLOAD), faults=faults)


def _node_key(graph, node_id):
    node = graph.node(node_id)
    return (
        node.label,
        str(node.properties.get("merge_key", node.properties.get("name", ""))),
    )


def _props(properties):
    out = dict(properties)
    if isinstance(out.get("reports"), list):
        out["reports"] = sorted(out["reports"])
    return json.dumps(out, sort_keys=True)


def fingerprint(kg):
    """Node-id-free contents of every store (crawl timestamps excluded,
    because a resumed run's virtual clock legitimately restarts)."""
    graph = kg.graph
    return {
        "nodes": sorted((n.label, _props(n.properties)) for n in graph.nodes()),
        "edges": sorted(
            (_node_key(graph, e.src), e.type, _node_key(graph, e.dst),
             _props(e.properties))
            for e in graph.edges()
        ),
        "search": kg.connectors["search"].index.to_state()["documents"],
        "seen": sorted(kg.engine.participant("crawl").seen),
        "ingested": kg.engine.ingested_ids(),
    }


def _fusion_rows(tmp_path):
    """Kill at every commit boundary of a fusion pass; resume = reopen
    and fuse again.  Alias-named reports go on top of the crawl so the
    pass has groups to merge (this source mix alone yields none).  Ids
    depend on the order the crawl threads delivered reports in, so the
    id-inclusive comparison is against the same directory's own
    pre-fusion graph and the cross-run one is the id-free fingerprint."""

    def stored(path, faults=None):
        kg = make_kg(path)
        kg.run_once()
        kg.store(alias_batch(0))
        unfused = graph_identity(kg.graph)
        kg.close()
        return unfused, make_kg(path, faults=faults)

    _unfused, reference = stored(tmp_path / "fuse-reference")
    assert reference.run_fusion().groups_merged > 0
    expected = fingerprint(reference)
    reference.close()

    rows = []
    for point in CRASH_POINTS:
        if not point.startswith("commit."):
            continue
        path = tmp_path / f"fuse-{point}"
        unfused, crashed = stored(path, faults=CrashInjector(point))
        try:
            crashed.run_fusion()
            raise AssertionError(f"fusion never reached {point!r}")
        except InjectedCrash:
            pass

        resumed = make_kg(path)
        durable_before = resumed.engine.ingested_count
        survived = graph_identity(resumed.graph) != unfused
        if survived:  # all or nothing: not un-fused means fully fused
            assert fingerprint(resumed) == expected
        resumed.run_fusion()
        got = fingerprint(resumed)
        rows.append(
            {
                "point": f"fuse/{point}",
                "durable_before_resume": durable_before,
                "resumed_stored": 0,
                "lost": len(set(expected["ingested"]) - set(got["ingested"])),
                "duplicated": durable_before - len(got["ingested"]),
                "fusion_survived": survived,
                "converged": got == expected,
            }
        )
        resumed.close()
    return rows


def test_bench_crash_matrix(tmp_path):
    """Kill at every crash point; measure loss/duplication after resume."""
    reference = make_kg(tmp_path / "reference")
    reference.run_once()
    reference.checkpoint()
    expected = fingerprint(reference)
    expected_ids = set(expected["ingested"])
    reference.close()
    assert expected_ids

    rows = []
    for index, point in enumerate(CRASH_POINTS):
        path = tmp_path / f"crash-{index}"
        kg = make_kg(path, faults=CrashInjector(point))
        try:
            kg.run_once()
            kg.checkpoint()
            raise AssertionError(f"crash point {point!r} never reached")
        except InjectedCrash:
            pass

        resumed = make_kg(path)
        durable_before = resumed.engine.ingested_count
        report = resumed.run_once()
        resumed.checkpoint()
        got = fingerprint(resumed)
        got_ids = set(got["ingested"])
        lost = len(expected_ids - got_ids)
        duplicated = (
            durable_before + report.reports_stored + report.reports_skipped
        ) - len(got_ids)
        rows.append(
            {
                "point": point,
                "durable_before_resume": durable_before,
                "resumed_stored": report.reports_stored,
                "lost": lost,
                "duplicated": duplicated,
                "converged": got == expected,
            }
        )
        resumed.close()

    rows.extend(_fusion_rows(tmp_path))

    print("\nE18: crash matrix (kill -> reopen -> resume, virtual clock)")
    print(f"  {'crash point':<28} {'durable':>8} {'resumed':>8} "
          f"{'lost':>5} {'dup':>4}  converged")
    for row in rows:
        print(
            f"  {row['point']:<28} {row['durable_before_resume']:>8} "
            f"{row['resumed_stored']:>8} {row['lost']:>5} "
            f"{row['duplicated']:>4}  {row['converged']}"
        )

    assert all(row["lost"] == 0 for row in rows)
    assert all(row["duplicated"] == 0 for row in rows)
    assert all(row["converged"] for row in rows)

    record_result(
        "E18",
        {
            "claim": "recovery converges with zero lost or duplicated "
            "reports at every crash point",
            "workload_reports": len(expected_ids),
            "matrix": rows,
        },
    )


WARM_COMMITS = 8


def _timed_ms(action) -> float:
    started = time.perf_counter()
    action()
    return round((time.perf_counter() - started) * 1000.0, 2)


def test_bench_recovery_time_vs_journal_length(tmp_path):
    """Reopen cost grows with the journal; a checkpoint collapses it.
    A checkpoint's encoding cost follows what changed since the last
    one: the first after a reopen encodes every item (cold memo), the
    next only the ``WARM_COMMITS`` items written since (warm memo),
    while the snapshot it writes stays the whole store."""
    series = []
    for commits in (64, 256, 1024):
        path = tmp_path / f"journal-{commits}"
        db = GraphDatabase(path, fsync=False)
        for i in range(commits):
            db.create_node("N", {"name": f"n{i}", "i": i})
        db.close()

        started = time.perf_counter()
        reopened = GraphDatabase(path, fsync=False)
        replay_ms = (time.perf_counter() - started) * 1000.0
        assert reopened.graph.node_count == commits
        reopened.snapshot()
        reopened.close()

        started = time.perf_counter()
        compacted = GraphDatabase(path, fsync=False)
        snapshot_ms = (time.perf_counter() - started) * 1000.0
        assert compacted.graph.node_count == commits
        # the checkpoint rows, after the reopen is timed: a store loaded
        # from its snapshot holds no encodings yet
        cold_ms = _timed_ms(compacted.snapshot)
        for i in range(commits, commits + WARM_COMMITS):
            compacted.create_node("N", {"name": f"n{i}", "i": i})
        warm_ms = _timed_ms(compacted.snapshot)
        snapshot_bytes = next(path.glob("snapshot-*.json")).stat().st_size
        compacted.close()
        series.append(
            {
                "commits": commits,
                "replay_reopen_ms": round(replay_ms, 2),
                "checkpointed_reopen_ms": round(snapshot_ms, 2),
                "cold_checkpoint_ms": cold_ms,
                "warm_checkpoint_ms": warm_ms,
                "snapshot_bytes": snapshot_bytes,
            }
        )

    print("\nE18: recovery time vs journal length")
    print(f"  {'commits':>8} {'replay (ms)':>12} {'after ckpt (ms)':>16}")
    for row in series:
        print(
            f"  {row['commits']:>8} {row['replay_reopen_ms']:>12} "
            f"{row['checkpointed_reopen_ms']:>16}"
        )
    print(f"\nE18: checkpoint cost vs store size (+{WARM_COMMITS} commits warm)")
    print(f"  {'commits':>8} {'cold (ms)':>10} {'warm (ms)':>10} {'snapshot B':>11}")
    for row in series:
        print(
            f"  {row['commits']:>8} {row['cold_checkpoint_ms']:>10} "
            f"{row['warm_checkpoint_ms']:>10} {row['snapshot_bytes']:>11}"
        )

    existing = {}
    if RESULTS_PATH.exists():
        existing = json.loads(RESULTS_PATH.read_text()).get("E18", {})
    existing["recovery_time"] = series
    record_result("E18", existing)
