"""Deterministic profiling over canonical span traces.

The tracer's export answers "what happened"; this module answers
"where did the time go".  A parent span's duration *includes* its
children, so ranking raw durations makes every ancestor look like a
hotspot.  Profiling starts from **self time** -- a span's duration
minus the durations of its direct children (clamped at zero: children
running concurrently on other threads can overlap their parent) -- and
aggregates it three ways:

* per span name (:func:`aggregate` / :func:`hotspots`): the table an
  operator ranks by to find the hot layer;
* per stack path (:func:`collapsed_stacks` / :func:`render_folded`):
  canonical Brendan-Gregg collapsed-stack lines, one
  ``root;child;leaf <microseconds>`` per path, ready for any
  flamegraph renderer;
* per unit of work (:func:`unit_costs`): seconds/report from the
  ``report`` correlation attribute and seconds per produced unit
  (mentions, relations, records...) from the work-count attributes the
  spans already carry -- the numbers E24 reports.

Two drill-downs read the same trace without timing it:
:func:`render_report_trees` follows one report end to end (fetch ->
check -> parse -> extract -> commit) by any attribute value, and
:func:`partition_breakdown` totals the ``store.shard`` spans per
storage partition.

Everything is a pure function of the canonical export
(:meth:`repro.obs.trace.Tracer.export`, or :func:`load_trace` over the
JSONL ``run --trace`` writes), so a seeded virtual-clock run yields
byte-identical profile artefacts -- folded file included -- across
runs.  Consumers: ``repro profile`` (offline) and ``GET /profile``
(live ring buffer).
"""

from __future__ import annotations

import json
from pathlib import Path

#: Span attributes counting units of work, each tracked separately in
#: :func:`unit_costs` (seconds/token for NER, seconds/mention, ...).
UNIT_ATTRS = (
    "tokens", "mentions", "relations", "records", "items", "stored",
)


def load_trace(path: str | Path) -> list[dict]:
    """Parse a trace JSONL file into span records (export order kept)."""
    spans = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            spans.append(json.loads(line))
    return spans


def annotate(spans: list[dict]) -> list[dict]:
    """Span records augmented with ``total_s``, ``self_s`` and ``path``.

    ``path`` is the semicolon-joined name chain from the span's root
    (the collapsed-stack identity).  Self time clamps at zero: children
    that ran concurrently on other threads may overlap their parent, in
    which case the parent's exclusive time is unknowable and zero is
    the conservative answer (the children still carry their own time).
    """
    by_id = {span["id"]: span for span in spans}
    child_total: dict[object, float] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None and parent in by_id:
            child_total[parent] = child_total.get(parent, 0.0) + max(
                0.0, span["end"] - span["start"]
            )
    out: list[dict] = []
    paths: dict[object, str] = {}
    for span in spans:
        parts = [span["name"]]
        walker = span
        while (
            walker.get("parent") is not None and walker["parent"] in by_id
        ):
            walker = by_id[walker["parent"]]
            parts.append(walker["name"])
        path = ";".join(reversed(parts))
        paths[span["id"]] = path
        total = max(0.0, span["end"] - span["start"])
        record = dict(span)
        record["total_s"] = total
        record["self_s"] = max(0.0, total - child_total.get(span["id"], 0.0))
        record["path"] = path
        out.append(record)
    return out


def _fold(spans: list[dict]) -> tuple[dict[str, dict], dict[str, tuple]]:
    """One :func:`annotate` pass folded per name: the :func:`aggregate`
    table, and per name the report ids and unit sums
    :func:`unit_costs` divides by."""
    table: dict[str, dict] = {}
    work: dict[str, tuple[set, dict]] = {}
    for span in annotate(spans):
        name = span["name"]
        entry = table.setdefault(
            name,
            {
                "count": 0, "total_s": 0.0, "self_s": 0.0,
                "max_s": 0.0, "max_self_s": 0.0,
            },
        )
        entry["count"] += 1
        entry["total_s"] += span["total_s"]
        entry["self_s"] += span["self_s"]
        entry["max_s"] = max(entry["max_s"], span["total_s"])
        entry["max_self_s"] = max(entry["max_self_s"], span["self_s"])
        reports, units = work.setdefault(name, (set(), {}))
        attrs = span.get("attrs", {})
        report = attrs.get("report")
        if report is not None:
            reports.add(str(report))
        for key in UNIT_ATTRS:
            value = attrs.get(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                units[key] = units.get(key, 0) + int(value)
    return {name: table[name] for name in sorted(table)}, work


def aggregate(spans: list[dict]) -> dict[str, dict]:
    """Per-name aggregation, sorted by name: count, total, self, max
    duration, max self.  The mean is ``total_s / count``."""
    return _fold(spans)[0]


def _rank(table: dict[str, dict], top: int) -> list[dict]:
    total_self = sum(entry["self_s"] for entry in table.values())
    ranked = sorted(
        table.items(), key=lambda item: (-item[1]["self_s"], item[0])
    )
    out = []
    for name, entry in ranked[: max(0, top)]:
        out.append(
            {
                "name": name,
                "count": entry["count"],
                "self_s": entry["self_s"],
                "total_s": entry["total_s"],
                "self_pct": (
                    100.0 * entry["self_s"] / total_self if total_self else 0.0
                ),
            }
        )
    return out


def hotspots(spans: list[dict], top: int = 10) -> list[dict]:
    """Top-``top`` span names ranked by aggregate self time.

    Ties (everything, under a virtual clock) break by name, so the
    ranking is deterministic.  ``self_pct`` is the share of the whole
    trace's self time (which always sums to the root totals).
    """
    return _rank(aggregate(spans), top)


def _costs(table: dict[str, dict], work: dict[str, tuple]) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for name, entry in table.items():
        report_ids, sums = work[name]
        reports = len(report_ids)
        units = {key: sums[key] for key in sorted(sums)}
        out[name] = {
            "count": entry["count"],
            "total_s": entry["total_s"],
            "self_s": entry["self_s"],
            "reports": reports,
            "self_per_report_s": (
                entry["self_s"] / reports if reports else None
            ),
            "units": units,
            "self_per_unit_s": {
                key: (entry["self_s"] / total if total else None)
                for key, total in units.items()
            },
        }
    return out


def unit_costs(spans: list[dict]) -> dict[str, dict]:
    """Per-name unit costs: seconds/report and seconds/unit.

    ``reports`` counts distinct ``report`` correlation attributes and
    ``self_per_report_s`` divides aggregate self time by it.  ``units``
    sums each work-count attribute (:data:`UNIT_ATTRS`) separately --
    tokens are not mentions -- and ``self_per_unit_s`` carries one cost
    per attribute seen (so ``extract.ner`` reports seconds/token *and*
    seconds/mention).
    """
    return _costs(*_fold(spans))


def collapsed_stacks(spans: list[dict]) -> dict[str, int]:
    """Self time per stack path, in integer microseconds.

    Values are integers because the collapsed-stack format's consumers
    (``flamegraph.pl`` and friends) expect sample counts; microsecond
    resolution keeps sub-millisecond operator work visible while
    rounding identically across platforms.
    """
    folded: dict[str, int] = {}
    for span in annotate(spans):
        folded[span["path"]] = folded.get(span["path"], 0) + int(
            round(span["self_s"] * 1e6)
        )
    return folded


def render_folded(spans: list[dict]) -> str:
    """Canonical collapsed-stack text: sorted, one path per line."""
    folded = collapsed_stacks(spans)
    return "".join(
        f"{path} {folded[path]}\n" for path in sorted(folded)
    )


def profile_dict(spans: list[dict], top: int = 10) -> dict:
    """The full profile as one JSON-safe dict (CLI ``--json``,
    ``GET /profile``)."""
    table, work = _fold(spans)
    return {
        "spans": len(spans),
        "names": table,
        "unit_costs": _costs(table, work),
        "hotspots": _rank(table, top),
    }


def render_profile(spans: list[dict], top: int = 10) -> str:
    """Text hotspot table ranked by self time (the CLI default view)."""
    if not spans:
        return "trace is empty"
    table = aggregate(spans)
    ranked = _rank(table, top)
    width = max(len(entry["name"]) for entry in ranked)
    total_self = sum(entry["self_s"] for entry in table.values())
    lines = [
        f"{len(spans)} spans, {len(table)} distinct names, "
        f"{total_self:.4f}s total self time",
        f"{'span':<{width}}  {'count':>6}  {'self_s':>9}  {'total_s':>9}  "
        f"{'self%':>6}",
    ]
    for entry in ranked:
        lines.append(
            f"{entry['name']:<{width}}  {entry['count']:>6}  "
            f"{entry['self_s']:>9.4f}  {entry['total_s']:>9.4f}  "
            f"{entry['self_pct']:>6.1f}"
        )
    return "\n".join(lines)


def partition_breakdown(spans: list[dict]) -> dict:
    """Per-partition aggregation of a run's trace.

    Groups every span carrying a ``partition`` attribute (the
    ``store.shard`` spans -- one per partition and batch, also with a
    single partition) and aggregates span counts, durations and the
    ``stored`` / ``skipped`` totals stamped on them.
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
    """Text table for ``profile --from-trace --by-partition``."""
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


def export_profile(spans: list[dict], obs=None) -> dict:
    """The profile dict, under a ``profile.export`` span (the live
    ``GET /profile`` endpoint routes through here)."""
    if obs is None:
        from repro.obs import NO_OBS

        obs = NO_OBS
    with obs.tracer.span("profile.export", format="json") as span:
        payload = profile_dict(spans)
        span.set("names", len(payload["names"]))
    obs.metrics.inc("profile.exports", format="json")
    return payload


def write_folded(path, spans: list[dict]) -> None:
    """Persist the folded flamegraph text via the atomic-write helper."""
    # imported lazily: repro.storage imports repro.obs (see
    # Tracer.write_jsonl for the same cycle note)
    from repro.storage.atomic import atomic_write_text

    atomic_write_text(path, render_folded(spans))


__all__ = [
    "UNIT_ATTRS",
    "aggregate",
    "annotate",
    "collapsed_stacks",
    "export_profile",
    "hotspots",
    "load_trace",
    "partition_breakdown",
    "profile_dict",
    "render_folded",
    "render_partitions",
    "render_profile",
    "render_report_trees",
    "render_tree",
    "unit_costs",
    "write_folded",
]
