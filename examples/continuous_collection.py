"""Continuous gathering: periodic crawls, incremental growth, fusion.

The paper's system "updates the knowledge graph by continuously
ingesting new data" with a crawler framework that handles "periodic
execution and reboot after failure".  This example runs several
scheduled collection cycles against a web whose sites keep publishing,
with transport failures injected, and tracks how the knowledge graph
grows.  The crawls simulate realistic page latency on the system's
virtual clock (``clock="virtual"``): the printed crawl seconds are
what a real deployment would spend, but the example runs instantly.
The scheduler reports into the system's observability bundle, so its
``scheduler.*`` spans and counters sit beside the crawl's.

Run:  python examples/continuous_collection.py
"""

from repro import SecurityKG, SystemConfig
from repro.apps import GrowthTracker
from repro.crawlers import JobSpec, PeriodicScheduler
from repro.obs import make_obs
from repro.runtime import clock_from_name


def main() -> None:
    # Start with a small archive; between cycles every site publishes
    # three new reports (URLs of existing reports stay stable, so the
    # incremental crawl state skips them).
    cycles = 4
    config = SystemConfig(
        scenario_count=12,
        reports_per_site=3,
        failure_rate=0.15,  # transient 5xx / resets; the fetcher retries
        time_scale=1.0,  # realistic 20-220ms page latency ...
        clock="virtual",  # ... simulated instantly on the virtual clock
        connectors=["graph", "search"],
    )
    clock = clock_from_name(config.clock)
    kg = SecurityKG(config, clock=clock, obs=make_obs(clock))
    tracker = GrowthTracker(kg.graph)
    state = {"first": True}

    def collect_cycle():
        if state["first"]:
            state["first"] = False
        else:
            kg.web.publish_everywhere(3)
        report = kg.run_once()
        point = tracker.record(report.reports_stored)
        print(
            f"  cycle: +{report.reports_stored} new reports "
            f"(crawl {report.crawl.elapsed:.2f}s, "
            f"{len(report.crawl.errors)} fetch failures) "
            f"-> graph {point.nodes} nodes / {point.edges} edges"
        )
        return report

    print("== periodic collection (4 cycles, 15% transport failures) ==")
    scheduler = PeriodicScheduler(
        [JobSpec(name="collect", run=collect_cycle, max_restarts=2)],
        interval=0.0,
        clock=kg.clock,
        obs=kg.obs,
    )
    scheduler.run_cycles(cycles=cycles)
    print(f"scheduler: {scheduler.stats.runs} runs, "
          f"{scheduler.stats.reboots} reboots, "
          f"{scheduler.stats.failures} permanent failures")
    jobs = [s for s in kg.obs.tracer.export() if s["name"] == "scheduler.job"]
    print(f"  {len(jobs)} scheduler.job spans, statuses "
          f"{sorted({s['attrs']['status'] for s in jobs})}")

    print("\n== knowledge-graph growth ==")
    print(f"  {'reports':>8} {'nodes':>7} {'edges':>7}")
    for reports, nodes, edges in tracker.series():
        print(f"  {reports:>8} {nodes:>7} {edges:>7}")

    print("\n== periodic knowledge fusion ==")
    fusion = kg.run_fusion()
    print(f"  merged {fusion.groups_merged} alias groups; "
          f"{fusion.nodes_before} -> {fusion.nodes_after} nodes")

    print("\nthe graph keeps growing as sources publish; re-crawls skip "
          "everything already collected (incremental state).")


if __name__ == "__main__":
    main()
