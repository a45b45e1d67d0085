"""Command-line interface.

Drives the whole system from a shell::

    python -m repro run --scenarios 12 --reports-per-site 4 --state ./kgdata
    python -m repro run --clock virtual --trace trace.jsonl --metrics
    python -m repro run --health --health-out health.json
    python -m repro health --from-trace trace.jsonl [--json]
    python -m repro search  --state ./kgdata "agent tesla"
    python -m repro cypher  --state ./kgdata 'MATCH (m:Malware) RETURN m.name'
    python -m repro cypher  --state ./kgdata --page-size 25 \
        'MATCH (m:Malware) RETURN m.name'
    python -m repro cypher  --state ./kgdata \
        'EXPLAIN MATCH (m:Malware {name: "agent tesla"}) RETURN m'
    python -m repro cypher  --state ./kgdata \
        'PROFILE MATCH (m:Malware) RETURN m.name ORDER BY m.name'
    python -m repro profile --from-trace trace.jsonl --flame out.folded
    python -m repro profile --from-trace trace.jsonl --json --top 15
    python -m repro profile --from-trace trace.jsonl --report rpt-...
    python -m repro profile --from-trace trace.jsonl --by-partition [--json]
    python -m repro stats   --state ./kgdata
    python -m repro fuse    --state ./kgdata
    python -m repro export  --state ./kgdata --out bundle.json
    python -m repro hunt    --state ./kgdata --attacks 3
    python -m repro serve   --state ./kgdata --port 8750
    python -m repro feed export --state ./kgdata --out-dir ./bundles
    python -m repro config
    python -m repro lint

``--state DIR`` opens the deployment's storage partitions under DIR
(``--partitions N``, default 1): within a partition the graph, the
search index and the incremental-crawl state share a single journal,
every stored report is one atomic cross-store commit, and a run killed
mid-batch resumes exactly where it stopped (already-committed reports
are skipped, the rest re-ingest).  DIR must be reopened with the
partition count it was written with; a mismatch exits 2 with the count
found on disk.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
from dataclasses import replace
from pathlib import Path

from repro.core.config import RECOGNIZERS, SystemConfig
from repro.core.system import SecurityKG
from repro.obs.health import load_rules_file
from repro.runtime.clock import CLOCKS
from repro.storage.atomic import atomic_write_text
from repro.storage.engine import StorageError
from repro.storage.faults import CRASH_POINTS, CrashInjector, InjectedCrash

#: exit code of a ``run`` killed by an injected crash (recovery tests)
EXIT_CRASHED = 3


def _wants_obs(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "trace", None)
        or getattr(args, "metrics", False)
        or getattr(args, "metrics_out", None)
        or getattr(args, "health", False)
        or getattr(args, "health_out", None)
    )


class ConfigError(Exception):
    """A configuration the command cannot run with (exit 2)."""


def _build_config(args: argparse.Namespace) -> SystemConfig:
    """The ``--config`` file, or the CLI's smaller default world, with
    every flag the user passed on top; ``--state`` only fills a file's
    missing ``storage_path``."""
    if args.config:
        config = SystemConfig.from_file(args.config)
    else:
        config = SystemConfig(scenario_count=12, reports_per_site=4)
    flags = {
        "scenario_count": args.scenarios,
        "reports_per_site": args.reports_per_site,
        "seed": args.seed,
        "recognizer": getattr(args, "recognizer", None),
        "clock": args.clock,
        "partitions": args.partitions,
        "storage_path": config.storage_path or args.state,
    }
    if getattr(args, "health", False) or getattr(args, "health_out", None):
        flags["health"] = True
        rules = args.health_rules
        flags["health_rules"] = load_rules_file(rules) if rules else None
    return replace(
        config, **{key: value for key, value in flags.items() if value is not None}
    )


def build_system(args: argparse.Namespace) -> SecurityKG:
    try:
        config = _build_config(args)
    except (OSError, ValueError) as error:
        raise ConfigError(str(error)) from error
    faults = None
    crash_at = getattr(args, "crash_at", None)
    if crash_at:
        faults = CrashInjector(crash_at, at_hit=getattr(args, "crash_at_hit", 1))
    clock = None
    obs = None
    if _wants_obs(args):
        # Build the clock here so tracer timestamps share the system's
        # (possibly virtual) timeline.
        from repro.obs import make_obs
        from repro.runtime import clock_from_name

        clock = clock_from_name(config.clock)
        obs = make_obs(clock)
    return SecurityKG(config, clock=clock, faults=faults, obs=obs)


def _emit_observability(system: SecurityKG, args: argparse.Namespace, out) -> None:
    """Honour ``--trace`` / ``--metrics`` / ``--metrics-out``."""
    trace_path = getattr(args, "trace", None)
    if trace_path:
        system.obs.tracer.write_jsonl(Path(trace_path))
        spans = len(system.obs.tracer.export())
        print(f"wrote {spans} spans to {trace_path}", file=out)
    snapshot = None
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        snapshot = system.obs.metrics.snapshot()
        atomic_write_text(
            Path(metrics_out),
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
        )
        print(f"wrote metrics snapshot to {metrics_out}", file=out)
    if getattr(args, "metrics", False):
        snapshot = snapshot or system.obs.metrics.snapshot()
        print(json.dumps(snapshot, indent=2, sort_keys=True), file=out)
    health_out = getattr(args, "health_out", None)
    if health_out and system.health is not None:
        system.health.write_report(Path(health_out))
        print(f"wrote health report to {health_out}", file=out)
    if getattr(args, "health", False) and system.health is not None:
        from repro.obs.health import render_health

        print(render_health(system.health.report()), file=out)


def cmd_run(args: argparse.Namespace, out) -> int:
    system = build_system(args)
    try:
        report = system.run_once(max_articles=args.max_articles)
        print(report.describe(), file=out)
        if args.state:
            system.checkpoint()
            print(f"state saved under {args.state}", file=out)
    except InjectedCrash as crash:
        # left unclosed on purpose: a killed process flushes nothing,
        # while close() would flush what the partitions the crash did
        # not hit still have staged
        print(
            f"simulated crash at {crash.point!r}; "
            "rerun with the same --state to resume",
            file=out,
        )
        # the trace of a crashed run is exactly what an operator wants
        _emit_observability(system, args, out)
        return EXIT_CRASHED
    _emit_observability(system, args, out)
    system.close()
    return 0


def cmd_search(args: argparse.Namespace, out) -> int:
    with build_system(args) as system:
        hits = system.keyword_search(args.query, limit=args.limit)
    if not hits:
        print("no results", file=out)
        return 1
    for hit in hits:
        print(
            f"{hit.score:8.2f}  {hit.fields.get('title', '')}  "
            f"[{hit.fields.get('source', '')}]",
            file=out,
        )
    return 0


def cmd_cypher(args: argparse.Namespace, out) -> int:
    from repro.graphdb.cypher import CypherAnalysisError
    from repro.graphdb.store import Edge, Node

    strict = not getattr(args, "no_strict", False)
    page_size = getattr(args, "page_size", None)

    def render(value):
        if isinstance(value, Node):
            return f"({value.label} {value.properties.get('name', '')!r})"
        if isinstance(value, Edge):
            return f"-[{value.type}]->"
        return value

    def emit(rows) -> int:
        count = 0
        for row in rows:
            if set(row.values) == {"plan"}:
                # EXPLAIN output: one indented plan line per row.
                print(row.values["plan"], file=out)
            else:
                print(
                    "  ".join(f"{k}={render(v)}" for k, v in row.values.items()),
                    file=out,
                )
            count += 1
        return count

    with build_system(args) as system:
        try:
            if re.match(r"\s*PROFILE\b", args.query, re.IGNORECASE):
                # Instrumented execution: annotated operator tree first
                # (with per-partition sub-profiles when sharded), then the
                # data rows, which are identical to the unprofiled query's.
                prof = system.cypher_profile(args.query, strict=strict)
                for line in prof.lines():
                    print(line, file=out)
                print(f"({emit(prof.rows)} row(s))", file=out)
                return 0
            if page_size is not None:
                # Preemptable path: fetch page by page, resuming each page
                # from the previous continuation, and mark page boundaries.
                total = 0
                pages = 0
                continuation = None
                while True:
                    page = system.cypher_paginated(
                        args.query, page_size,
                        continuation=continuation, strict=strict,
                    )
                    total += emit(page.rows)
                    pages += 1
                    continuation = page.continuation
                    if continuation is None:
                        break
                    print(f"-- page {pages} --", file=out)
                print(f"({total} row(s) in {pages} page(s))", file=out)
                return 0
            rows = system.cypher(args.query, strict=strict)
        except CypherAnalysisError as error:
            # Positioned diagnostics: rule id plus a caret under the span.
            for diagnostic in error.diagnostics:
                print(diagnostic.format(error.source), file=out)
            return 2
        except ValueError as error:
            print(f"query error: {error}", file=out)
            return 2
        print(f"({emit(rows)} row(s))", file=out)
    return 0


def cmd_stats(args: argparse.Namespace, out) -> int:
    from repro.apps.stats import compute_stats

    with build_system(args) as system:
        stats = compute_stats(system.graph)
    if args.json:
        print(json.dumps(stats.to_dict(), indent=2, sort_keys=True), file=out)
    else:
        print(stats.describe(), file=out)
    return 0


def cmd_profile(args: argparse.Namespace, out) -> int:
    """Offline views of a trace written by ``run --trace``: the self-time
    profile, one report's span trees (``--report``) or the per-partition
    drill-down (``--by-partition``).

    All output is a pure function of the canonical trace, so a seeded
    virtual-clock run produces byte-identical folded/JSON artifacts.
    """
    from repro.obs.profile import (
        load_trace,
        partition_breakdown,
        profile_dict,
        render_partitions,
        render_profile,
        render_report_trees,
        write_folded,
    )

    spans = load_trace(Path(args.from_trace))
    if args.flame:
        write_folded(Path(args.flame), spans)
        print(f"wrote collapsed stacks to {args.flame}", file=out)
    if args.by_partition:
        if args.json:
            print(
                json.dumps(partition_breakdown(spans), indent=2, sort_keys=True),
                file=out,
            )
        else:
            print(render_partitions(spans), file=out)
    elif args.report:
        print(render_report_trees(spans, args.report), file=out)
    elif args.json:
        print(
            json.dumps(
                profile_dict(spans, top=args.top), indent=2, sort_keys=True
            ),
            file=out,
        )
    elif not args.flame:
        print(render_profile(spans, top=args.top), file=out)
    return 0


def cmd_health(args: argparse.Namespace, out) -> int:
    """Offline health evaluation over a trace written by ``run --trace``."""
    from repro.obs.health import render_health, replay_trace
    from repro.obs.profile import load_trace

    spans = load_trace(Path(args.from_trace))
    try:
        rules = load_rules_file(args.rules) if args.rules else None
        engine = replay_trace(spans, rules)
    except ValueError as error:
        print(f"health rules error: {error}", file=out)
        return 2
    report = engine.report()
    if getattr(args, "out", None):
        engine.write_report(Path(args.out))
        print(f"wrote health report to {args.out}", file=out)
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
    elif not getattr(args, "out", None):
        print(render_health(report), file=out)
    return 0


def cmd_fuse(args: argparse.Namespace, out) -> int:
    with build_system(args) as system:
        report = system.run_fusion()
    print(
        f"fused {report.groups_merged} alias groups "
        f"({report.nodes_before} -> {report.nodes_after} nodes)",
        file=out,
    )
    for group in report.merged_groups:
        print("  " + " == ".join(group), file=out)
    return 0


def cmd_export(args: argparse.Namespace, out) -> int:
    from repro.ontology.stix import export_graph

    with build_system(args) as system:
        bundle = export_graph(system.graph)
    payload = bundle.to_json(indent=2)
    if args.out:
        atomic_write_text(Path(args.out), payload)
        print(f"wrote {len(bundle.objects)} STIX objects to {args.out}", file=out)
    else:
        print(payload, file=out)
    return 0


def cmd_hunt(args: argparse.Namespace, out) -> int:
    from repro.apps.threat_hunting import ThreatHunter
    from repro.audit import simulate

    with build_system(args) as system:
        if system.graph.node_count == 0:
            print("knowledge graph is empty; run `repro run` first", file=out)
            return 1
        log = simulate(
            system.web.scenarios,
            attacks=args.attacks,
            benign_events=args.benign_events,
        )
        incidents = ThreatHunter(system.graph).hunt(log.events)
    confirmed = [i for i in incidents if i.confirmed]
    for incident in confirmed:
        print(incident.summary(), file=out)
        print(file=out)
    print(
        f"{len(confirmed)} confirmed incident(s), "
        f"{len(incidents) - len(confirmed)} unconfirmed suspicion(s) over "
        f"{len(log.entries)} audit events",
        file=out,
    )
    return 0


def cmd_serve(args: argparse.Namespace, out) -> int:
    """Serve the explorer API -- the ``/feeds/*`` dissemination routes
    among it -- until interrupted (``--once``: start, print the banner,
    stop)."""
    from repro.feeds import TIERS
    from repro.ui.server import ExplorerAPI, ExplorerServer

    with build_system(args) as system:
        server = ExplorerServer(ExplorerAPI(system), port=args.port).start()
        host, port = server.address
        print(
            f"explorer API listening on http://{host}:{port}; feeds at "
            f"/feeds (tiers: {', '.join(TIERS)}; see DISSEMINATION.md)",
            file=out,
        )
        if args.once:  # test hook: start, report, stop
            server.stop()
            return 0
        try:  # pragma: no cover - interactive loop
            # Park on the injected clock (never-set event) instead of a
            # raw time.sleep, so the serve loop is virtual-clock clean.
            shutdown = threading.Event()
            while not shutdown.is_set():
                system.clock.wait_for(shutdown, 3600.0)
        except KeyboardInterrupt:  # pragma: no cover
            server.stop()
    return 0


def cmd_feed(args: argparse.Namespace, out) -> int:
    """``feed export``: write one sanitized bundle file per tier."""
    from repro.feeds import TIERS

    with build_system(args) as system:
        tiers = [args.tier] if args.tier else TIERS
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for tier in tiers:
            bundle, etag = system.feeds.full_bundle(tier)
            path = out_dir / f"feed-{tier}.json"
            atomic_write_text(
                path, json.dumps(bundle, indent=2, sort_keys=True) + "\n"
            )
            print(
                f"{tier}: {len(bundle['objects'])} objects -> {path} "
                f"(etag {etag})",
                file=out,
            )
    return 0


def cmd_config(args: argparse.Namespace, out) -> int:
    print(SystemConfig().to_json(), file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SecurityKG: automated OSCTI gathering and management",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--state", help="directory for persistent graph + index")
        p.add_argument(
            "--config",
            help="JSON configuration file; a flag given beside it "
            "overrides the file's value",
        )
        # these flags default to None, so _build_config can tell a flag
        # the user passed from one left to the file
        p.add_argument("--scenarios", type=int,
                       help="simulated-world scenario count (default 12)")
        p.add_argument("--reports-per-site", type=int, help="(default 4)")
        p.add_argument("--seed", type=int, help="(default 7)")
        p.add_argument(
            "--clock",
            choices=CLOCKS,
            help="runtime clock: wall time (default) or discrete-event "
            "virtual time (instant, deterministic crawls)",
        )
        p.add_argument(
            "--partitions",
            type=int,
            help="storage partition count (default 1); N > 1 "
            "hash-partitions the stores across N engines behind "
            "one graph and query surface.  A --state directory reopens "
            "only with the count it was written with",
        )

    def obs_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace",
            help="write a span trace (JSONL) of the run; with --clock "
            "virtual the file is byte-identical across identical runs",
        )
        p.add_argument(
            "--metrics",
            action="store_true",
            help="print the metrics snapshot as JSON after the run",
        )
        p.add_argument(
            "--metrics-out",
            help="write the metrics snapshot to a JSON file",
        )
        p.add_argument(
            "--health",
            action="store_true",
            help="run the online health engine (SLO rules, per-source "
            "quarantine feedback) and print its verdicts after the run",
        )
        p.add_argument(
            "--health-out",
            help="write the canonical health report JSON to a file "
            "(implies the health engine)",
        )
        p.add_argument(
            "--health-rules",
            help="JSON file of health rule overrides; see OBSERVABILITY.md",
        )

    p = sub.add_parser("run", help="one collect-process-store cycle")
    common(p)
    obs_flags(p)
    p.add_argument("--max-articles", type=int, default=None)
    p.add_argument("--recognizer", choices=RECOGNIZERS,
                   help="entity recognizer (default gazetteer)")
    # fault-injection hooks for recovery tests: die at a storage-engine
    # crash point (optionally its n-th occurrence), exit code 3
    p.add_argument("--crash-at", choices=CRASH_POINTS, default=None,
                   help=argparse.SUPPRESS)
    p.add_argument("--crash-at-hit", type=int, default=1,
                   help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("search", help="keyword search over collected reports")
    common(p)
    p.add_argument("query")
    p.add_argument("--limit", type=int, default=10)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("cypher", help="Cypher query over the knowledge graph")
    common(p)
    p.add_argument("query")
    p.add_argument(
        "--no-strict",
        action="store_true",
        help="skip semantic analysis (exploratory queries)",
    )
    p.add_argument(
        "--page-size",
        dest="page_size",
        type=int,
        default=None,
        help="run preemptably, fetching this many rows per page and "
        "resuming from a continuation between pages; prefix the query "
        "with EXPLAIN to print the physical plan instead",
    )
    p.set_defaults(func=cmd_cypher)

    p = sub.add_parser("stats", help="knowledge-graph statistics")
    common(p)
    p.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the text table",
    )
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "health",
        help="offline health evaluation over a trace from `run --trace`",
    )
    p.add_argument(
        "--from-trace",
        dest="from_trace",
        required=True,
        help="trace JSONL written by `run --trace`",
    )
    p.add_argument(
        "--rules",
        help="JSON file of rule overrides",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the canonical report JSON instead of the text view",
    )
    p.add_argument("--out", help="also write the report JSON to a file")
    p.set_defaults(func=cmd_health)

    p = sub.add_parser(
        "profile",
        help="self-time hotspot profile over a trace from `run --trace`",
    )
    p.add_argument(
        "--from-trace",
        dest="from_trace",
        required=True,
        help="trace JSONL written by `run --trace`",
    )
    p.add_argument(
        "--flame",
        help="write canonical collapsed-stack flamegraph lines "
        "(self time in integer microseconds) to this file",
    )
    p.add_argument(
        "--top",
        type=int,
        default=10,
        help="hotspot table size (default 10)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the full profile (per-name aggregates, unit costs, "
        "hotspots) as JSON instead of the text table; with "
        "--by-partition, the drill-down as JSON",
    )
    p.add_argument(
        "--report",
        help="instead of the profile, show the span trees of spans whose "
        "attributes match this substring (report id, URL, source)",
    )
    p.add_argument(
        "--by-partition",
        dest="by_partition",
        action="store_true",
        help="instead of the profile, the per-partition drill-down of "
        "the run (span counts, durations, stored/skipped)",
    )
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("fuse", help="run the knowledge-fusion stage")
    common(p)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("export", help="export the graph as a STIX bundle")
    common(p)
    p.add_argument("--out", help="output file (stdout when omitted)")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("hunt", help="knowledge-enhanced hunt over a simulated audit log")
    common(p)
    p.add_argument("--attacks", type=int, default=3)
    p.add_argument("--benign-events", type=int, default=400)
    p.set_defaults(func=cmd_hunt)

    p = sub.add_parser(
        "serve", help="serve the explorer JSON API and the /feeds endpoints"
    )
    common(p)
    p.add_argument("--port", type=int, default=8750)
    p.add_argument("--once", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "feed", help="TLP-tiered STIX dissemination feeds (see DISSEMINATION.md)"
    )
    feed_sub = p.add_subparsers(dest="feed_command", required=True)
    fp = feed_sub.add_parser(
        "export", help="write one sanitized STIX bundle file per tier"
    )
    common(fp)
    fp.add_argument(
        "--out-dir",
        dest="out_dir",
        required=True,
        help="directory receiving feed-<tier>.json bundle files",
    )
    fp.add_argument(
        "--tier",
        choices=("public", "partner", "internal"),
        default=None,
        help="export a single tier (default: all three)",
    )
    fp.set_defaults(func=cmd_feed)

    p = sub.add_parser("config", help="print the default configuration")
    p.set_defaults(func=cmd_config)

    # listed for --help only: main() hands `lint` to the lint CLI
    # before argparse runs
    p = sub.add_parser(
        "lint",
        help="static lint of the repro determinism/concurrency invariants",
        add_help=False,
    )
    p.add_argument("lint_args", nargs=argparse.REMAINDER)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "lint":
        # Delegate before argparse: the lint CLI owns its own flags,
        # which REMAINDER would otherwise swallow inconsistently.
        from repro.analysis.lint import main as lint_main

        return lint_main(argv[1:], out)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except ConfigError as error:
        print(f"config error: {error}", file=out)
        return 2
    except StorageError as error:
        print(f"storage error: {error}", file=out)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
