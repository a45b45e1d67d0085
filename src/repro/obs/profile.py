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

Everything is a pure function of the canonical export
(:meth:`repro.obs.trace.Tracer.export`), so a seeded virtual-clock run
yields byte-identical profile artefacts -- folded file included --
across runs.  Consumers: ``repro profile`` (offline), ``GET /profile``
(live ring buffer) and ``stats --from-trace`` (the ``self_s`` column).
"""

from __future__ import annotations

#: Span attributes counting units of work, each tracked separately in
#: :func:`unit_costs` (seconds/token for NER, seconds/mention, ...).
UNIT_ATTRS = (
    "tokens", "mentions", "relations", "records", "items", "stored",
)


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


def aggregate(spans: list[dict]) -> dict[str, dict]:
    """Per-name aggregation: count, total, self, max self (sorted)."""
    table: dict[str, dict] = {}
    for span in annotate(spans):
        entry = table.setdefault(
            span["name"],
            {"count": 0, "total_s": 0.0, "self_s": 0.0, "max_self_s": 0.0},
        )
        entry["count"] += 1
        entry["total_s"] += span["total_s"]
        entry["self_s"] += span["self_s"]
        entry["max_self_s"] = max(entry["max_self_s"], span["self_s"])
    return {name: table[name] for name in sorted(table)}


def hotspots(spans: list[dict], top: int = 10) -> list[dict]:
    """Top-``top`` span names ranked by aggregate self time.

    Ties (everything, under a virtual clock) break by name, so the
    ranking is deterministic.  ``self_pct`` is the share of the whole
    trace's self time (which always sums to the root totals).
    """
    table = aggregate(spans)
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


def unit_costs(spans: list[dict]) -> dict[str, dict]:
    """Per-name unit costs: seconds/report and seconds/unit.

    ``reports`` counts distinct ``report`` correlation attributes and
    ``self_per_report_s`` divides aggregate self time by it.  ``units``
    sums each work-count attribute (:data:`UNIT_ATTRS`) separately --
    tokens are not mentions -- and ``self_per_unit_s`` carries one cost
    per attribute seen (so ``extract.ner`` reports seconds/token *and*
    seconds/mention).
    """
    table: dict[str, dict] = {}
    report_sets: dict[str, set] = {}
    for span in annotate(spans):
        name = span["name"]
        entry = table.setdefault(
            name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "units": {}}
        )
        entry["count"] += 1
        entry["total_s"] += span["total_s"]
        entry["self_s"] += span["self_s"]
        attrs = span.get("attrs", {})
        report = attrs.get("report")
        if report is not None:
            report_sets.setdefault(name, set()).add(str(report))
        for key in UNIT_ATTRS:
            value = attrs.get(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                entry["units"][key] = entry["units"].get(key, 0) + int(value)
    out: dict[str, dict] = {}
    for name in sorted(table):
        entry = table[name]
        reports = len(report_sets.get(name, ()))
        units = {key: entry["units"][key] for key in sorted(entry["units"])}
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
    return {
        "spans": len(spans),
        "names": aggregate(spans),
        "unit_costs": unit_costs(spans),
        "hotspots": hotspots(spans, top=top),
    }


def render_profile(spans: list[dict], top: int = 10) -> str:
    """Text hotspot table ranked by self time (the CLI default view)."""
    if not spans:
        return "trace is empty"
    table = aggregate(spans)
    ranked = hotspots(spans, top=top)
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
    "profile_dict",
    "render_folded",
    "render_profile",
    "unit_costs",
    "write_folded",
]
