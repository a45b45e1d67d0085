"""E21 -- multi-partition sharding: crashed-shard isolation.

Killing one partition at a seeded storage crash point loses only that
partition's in-flight work: every *other* partition's durable graph /
search / ingest-marker state is byte-identical to an uncrashed run the
moment the deployment reopens, and a single converging re-run restores
the killed partition too -- zero lost reports, zero duplicated ingests.

Partitions commit one after another on the caller's thread, so they
add no ingest throughput; EXPERIMENTS.md records the host-clock
measurement behind that.  Runs entirely on the virtual clock; wall time
is a few seconds.
"""

import json

from conftest import RESULTS_PATH, record_result

from repro.core.config import SystemConfig
from repro.core.system import SecurityKG
from repro.storage import CrashInjector, InjectedCrash

WORKLOAD = dict(
    scenario_count=8,
    reports_per_site=2,
    sources=["ThreatPedia", "MalwareBulletin", "AdvisoryHub"],
    connectors=["graph", "search"],
    clock="virtual",
    seed=7,
)


def make_kg(path, partitions, faults=None):
    return SecurityKG(
        SystemConfig(storage_path=str(path), partitions=partitions, **WORKLOAD),
        faults=faults,
    )


def _props(properties):
    out = dict(properties)
    if isinstance(out.get("reports"), list):
        out["reports"] = sorted(out["reports"])
    return json.dumps(out, sort_keys=True)


def _node_key(graph, node_id):
    node = graph.node(node_id)
    return (
        node.label,
        str(node.properties.get("merge_key", node.properties.get("name", ""))),
    )


def partition_fingerprint(partition, with_seen=True):
    """Node-id-free durable contents of one partition's stores.

    ``with_seen=False`` drops the crawl-seen set: staged seen-URL deltas
    become durable at the *batch* flush, which a crash legitimately
    skips on every partition, so the reopen-time isolation claim covers
    the per-commit stores (graph, search, ingest markers) only.
    """
    graph = partition.graph
    print_state = {
        "nodes": sorted(
            (n.label, _props(n.properties)) for n in graph.nodes()
        ),
        "edges": sorted(
            (_node_key(graph, e.src), e.type, _node_key(graph, e.dst),
             _props(e.properties))
            for e in graph.edges()
        ),
        "search": partition.search_index.to_state()["documents"],
        "ingested": partition.engine.ingested_ids(),
    }
    if with_seen:
        print_state["seen"] = sorted(
            partition.engine.participant("crawl").seen
        )
    return print_state


def test_bench_crashed_shard_isolation(tmp_path):
    """Kill partition 0 mid-commit; the other shards must not notice."""
    partitions = 4

    reference = make_kg(tmp_path / "reference", partitions)
    reference.run_once()
    reference.checkpoint()
    expected = [
        partition_fingerprint(p) for p in reference.shards.partitions
    ]
    expected_ids = set(reference.shards.ingested_ids())
    per_partition = [p.engine.ingested_count for p in reference.shards.partitions]
    reference.close()
    assert expected_ids
    assert all(per_partition), (
        "isolation run needs every partition to own reports: "
        f"{per_partition}"
    )

    # -- crashed run: partition 0 dies on its first commit ----------------
    path = tmp_path / "crashed"
    crashed = make_kg(path, partitions,
                      faults=CrashInjector("commit.before-append"))
    try:
        crashed.run_once()
        raise AssertionError("crash point never reached")
    except InjectedCrash:
        pass  # abandoned without close(), like a killed process

    # -- reopen: surviving shards are already byte-identical --------------
    resumed = make_kg(path, partitions)
    isolated = []
    for index in range(1, partitions):
        got = partition_fingerprint(
            resumed.shards.partitions[index], with_seen=False
        )
        want = {
            key: value
            for key, value in expected[index].items()
            if key != "seen"
        }
        isolated.append(got == want)
    durable_before = resumed.shards.partitions[0].engine.ingested_count
    lost_on_crash = per_partition[0] - durable_before

    # -- one converging re-run restores the killed shard ------------------
    report = resumed.run_once()
    resumed.checkpoint()
    recovered = [
        partition_fingerprint(p) for p in resumed.shards.partitions
    ]
    got_ids = set(resumed.shards.ingested_ids())
    lost = len(expected_ids - got_ids)
    duplicated = (
        sum(p.engine.ingested_count for p in resumed.shards.partitions)
        - len(expected_ids)
    )
    converged = [got == want for got, want in zip(recovered, expected)]
    resumed.close()

    print("\nE21: crashed-shard isolation (partition 0 killed mid-commit)")
    print(f"  reports: {len(expected_ids)} across {per_partition}")
    print(f"  partition 0 lost in-flight: {lost_on_crash}")
    print(f"  surviving shards identical at reopen: {isolated}")
    print(f"  resumed run stored {report.reports_stored}, "
          f"skipped {report.reports_skipped}")
    print(f"  converged after resume: {converged}  "
          f"lost={lost} duplicated={duplicated}")

    assert all(isolated), "a surviving shard diverged from the reference"
    assert lost_on_crash > 0, "the crash lost nothing: not a real kill"
    assert all(converged)
    assert lost == 0
    assert duplicated == 0

    existing = {}
    if RESULTS_PATH.exists():
        existing = json.loads(RESULTS_PATH.read_text()).get("E21", {})
    existing["isolation"] = {
        "partitions": partitions,
        "reports": len(expected_ids),
        "partition_loads": per_partition,
        "lost_in_flight_on_crash": lost_on_crash,
        "surviving_shards_identical_at_reopen": all(isolated),
        "lost_after_resume": lost,
        "duplicated_after_resume": duplicated,
    }
    record_result("E21", existing)
