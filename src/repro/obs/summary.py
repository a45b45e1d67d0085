"""Trace summarisation: ``python -m repro stats --from-trace``.

Reads the canonical JSONL written by ``run --trace``, aggregates spans
by name into a latency table, and renders per-report span trees so an
operator can follow one report end-to-end (fetch -> check -> parse ->
extract -> commit) without re-running anything.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.profile import annotate


def load_trace(path: str | Path) -> list[dict]:
    """Parse a trace JSONL file into span records (export order kept)."""
    spans = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            spans.append(json.loads(line))
    return spans


def summarize_dict(spans: list[dict]) -> dict:
    """The aggregate summary as a JSON-safe dict (``--json`` output).

    ``self_s`` is exclusive time (duration minus direct children, see
    :mod:`repro.obs.profile`) -- the column to rank hotspots by, since
    ``total_s`` double-counts children into every ancestor.
    """
    totals: dict[str, list[float]] = {}
    selfs: dict[str, float] = {}
    for span in annotate(spans):
        totals.setdefault(span["name"], []).append(span["total_s"])
        selfs[span["name"]] = selfs.get(span["name"], 0.0) + span["self_s"]
    return {
        "spans": len(spans),
        "names": {
            name: {
                "count": len(durations),
                "total_s": sum(durations),
                "self_s": selfs[name],
                "mean_s": sum(durations) / len(durations),
                "max_s": max(durations),
            }
            for name, durations in sorted(totals.items())
        },
    }


def summarize(spans: list[dict]) -> str:
    """Aggregate table: span name, count, total/self/mean/max duration."""
    if not spans:
        return "trace is empty"
    summary = summarize_dict(spans)["names"]
    width = max(len(name) for name in summary)
    lines = [
        f"{len(spans)} spans, {len(summary)} distinct names",
        f"{'span':<{width}}  {'count':>6}  {'total_s':>9}  {'self_s':>9}  "
        f"{'mean_s':>9}  {'max_s':>9}",
    ]
    for name, entry in summary.items():
        lines.append(
            f"{name:<{width}}  {entry['count']:>6}  {entry['total_s']:>9.4f}  "
            f"{entry['self_s']:>9.4f}  {entry['mean_s']:>9.4f}  "
            f"{entry['max_s']:>9.4f}"
        )
    return "\n".join(lines)


def partition_breakdown(spans: list[dict]) -> dict:
    """Per-partition aggregation of a run's trace.

    Groups every span carrying a ``partition`` attribute (the
    ``store.shard`` worker spans -- one per partition, also with a
    single partition) and aggregates span counts, durations and the
    ``stored`` / ``skipped`` totals the workers stamp on their spans.
    Returns an empty dict for a trace in which nothing was stored.
    """
    partitions: dict[str, dict] = {}
    for span in spans:
        attrs = span.get("attrs", {})
        if "partition" not in attrs:
            continue
        entry = partitions.setdefault(
            str(attrs["partition"]),
            {
                "spans": 0,
                "total_s": 0.0,
                "stored": 0,
                "skipped": 0,
                "names": {},
            },
        )
        entry["spans"] += 1
        entry["total_s"] += max(0.0, span["end"] - span["start"])
        entry["stored"] += int(attrs.get("stored", 0) or 0)
        entry["skipped"] += int(attrs.get("skipped", 0) or 0)
        entry["names"][span["name"]] = entry["names"].get(span["name"], 0) + 1
    return {
        key: partitions[key]
        for key in sorted(partitions, key=lambda k: (len(k), k))
    }


def render_partitions(spans: list[dict]) -> str:
    """Text table for ``stats --from-trace --by-partition``."""
    breakdown = partition_breakdown(spans)
    if not breakdown:
        return "no partition-labelled spans (the trace stored nothing)"
    lines = [
        f"{'partition':>9}  {'spans':>6}  {'total_s':>9}  "
        f"{'stored':>6}  {'skipped':>7}"
    ]
    for key, entry in breakdown.items():
        lines.append(
            f"{key:>9}  {entry['spans']:>6}  {entry['total_s']:>9.4f}  "
            f"{entry['stored']:>6}  {entry['skipped']:>7}"
        )
    return "\n".join(lines)


def _matches(span: dict, needle: str) -> bool:
    return any(
        needle in str(value) for value in span.get("attrs", {}).values()
    )


def render_tree(spans: list[dict], root_id: int) -> str:
    """Render one span subtree with indentation and durations."""
    by_parent: dict[int | None, list[dict]] = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        by_parent.setdefault(span["parent"], []).append(span)
    lines: list[str] = []

    def visit(span: dict, depth: int) -> None:
        duration = max(0.0, span["end"] - span["start"])
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted(span["attrs"].items())
        )
        indent = "  " * depth
        lines.append(
            f"{indent}{span['name']}  [{duration:.4f}s]"
            + (f"  {attrs}" if attrs else "")
        )
        for child in by_parent.get(span["id"], []):
            visit(child, depth + 1)

    visit(by_id[root_id], 0)
    return "\n".join(lines)


def render_report_trees(spans: list[dict], needle: str) -> str:
    """Subtrees of every span matching ``needle``, with ancestor paths.

    A span matches when any attribute value contains the needle (report
    ids, URLs and source names are all attributes), so
    ``--report report-0007`` shows that report's full journey: its
    fetch under the crawl, its pipeline stages, its storage commit --
    each prefixed by the path from the trace root.
    """
    by_id = {span["id"]: span for span in spans}
    blocks: list[str] = []
    for span in spans:
        if not _matches(span, needle):
            continue
        path: list[str] = []
        walker = span
        while walker["parent"] is not None:
            walker = by_id[walker["parent"]]
            path.append(walker["name"])
        breadcrumb = " > ".join(reversed(path)) or "(root)"
        blocks.append(f"under {breadcrumb}:\n{render_tree(spans, span['id'])}")
    if not blocks:
        return f"no spans matching {needle!r}"
    return "\n\n".join(blocks)


__all__ = [
    "load_trace",
    "partition_breakdown",
    "render_partitions",
    "render_report_trees",
    "render_tree",
    "summarize",
    "summarize_dict",
]
