"""Tests for the deterministic observability layer (repro.obs)."""

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SecurityKG, SystemConfig
from repro.apps.stats import compute_stats
from repro.cli import main as cli_main
from repro.obs import (
    NO_OBS,
    NULL_METRICS,
    NULL_SPAN,
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    make_obs,
)
from repro.obs.profile import load_trace, render_report_trees
from repro.runtime import clock_from_name
from repro.storage import CrashInjector, InjectedCrash
from repro.ui.server import ExplorerAPI

REPO_ROOT = Path(__file__).resolve().parents[1]


def virtual_tracer() -> Tracer:
    return Tracer(clock_from_name("virtual"))


class TestTracer:
    def test_thread_local_nesting(self):
        tracer = virtual_tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        records = tracer.export()
        assert [r["name"] for r in records] == ["outer", "inner"]
        assert records[0]["parent"] is None
        assert records[1]["parent"] == records[0]["id"]

    def test_explicit_parent_beats_current(self):
        tracer = virtual_tracer()
        with tracer.span("root") as root:
            pass
        with tracer.span("elsewhere"):
            with tracer.span("child", parent=root):
                pass
        records = {r["name"]: r for r in tracer.export()}
        assert records["child"]["parent"] == records["root"]["id"]

    def test_null_parent_coerced(self):
        tracer = virtual_tracer()
        with tracer.span("child", parent=NULL_SPAN):
            pass
        assert tracer.export()[0]["parent"] is None

    def test_canonical_preorder_ids(self):
        tracer = virtual_tracer()
        with tracer.span("root"):
            with tracer.span("b"):
                pass
            with tracer.span("a"):
                pass
        records = tracer.export()
        assert [r["id"] for r in records] == [1, 2, 3]
        # siblings with identical virtual timestamps sort by name
        assert [r["name"] for r in records] == ["root", "a", "b"]
        assert tracer.export() == records  # stable across exports

    def test_ring_eviction_orphans_become_roots(self):
        tracer = virtual_tracer()
        with tracer.span("parent") as parent:
            pass
        with tracer.span("child", parent=parent):
            pass
        for _ in range(Tracer.RING - 1):
            with tracer.span("filler"):
                pass  # the last one pushes "parent" out of the ring
        records = tracer.export()
        assert len(records) == Tracer.RING
        assert {r["name"] for r in records} == {"child", "filler"}
        assert all(r["parent"] is None for r in records)

    def test_exception_sets_error_attr_and_closes(self):
        tracer = virtual_tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        assert tracer.open_span_count == 0
        record = tracer.export()[0]
        assert record["attrs"]["error"] == "ValueError"

    def test_open_span_introspection(self):
        tracer = virtual_tracer()
        with tracer.span("work") as span:
            assert tracer.open_span_count == 1
            assert tracer.current() is span
        assert tracer.open_span_count == 0
        assert tracer.current() is None

    def test_set_returns_self_for_chaining(self):
        tracer = virtual_tracer()
        with tracer.span("s") as span:
            assert span.set("k", "v") is span
        assert tracer.export()[0]["attrs"] == {"k": "v"}

    def test_jsonl_round_trip(self, tmp_path):
        tracer = virtual_tracer()
        with tracer.span("a", report="rpt-1"):
            pass
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        assert load_trace(path) == tracer.export()

    def test_clear(self):
        """A fresh tracer starts clear: spans finished on another tracer
        do not leak into it."""
        with virtual_tracer().span("a"):
            pass
        tracer = virtual_tracer()
        assert tracer.export() == []


class TestNullObjects:
    def test_null_tracer_shares_one_span(self):
        assert NULL_TRACER.span("anything", x=1) is NULL_SPAN
        with NULL_TRACER.span("a") as span:
            assert span.set("k", "v") is span
            assert span.duration == 0.0
        assert NULL_TRACER.export() == []
        assert NULL_TRACER.export_jsonl() == ""
        assert NULL_TRACER.open_span_count == 0

    def test_null_metrics_noops(self):
        NULL_METRICS.inc("c")
        NULL_METRICS.observe("h", 1.0)
        NULL_METRICS.set_gauge("g", 2.0)
        assert NULL_METRICS.counter("c") == 0
        assert NULL_METRICS.names() == []
        assert NULL_METRICS.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_no_obs_disabled(self):
        assert not NO_OBS.enabled
        assert make_obs(clock_from_name("virtual")).enabled


class TestMetricsRegistry:
    def test_labelled_counters(self):
        metrics = MetricsRegistry()
        metrics.inc("crawl.pages", source="A")
        metrics.inc("crawl.pages", 2, source="A")
        metrics.inc("crawl.pages", source="B")
        assert metrics.counter("crawl.pages", source="A") == 3
        assert metrics.counter_total("crawl.pages") == 4

    def test_zero_increment_dropped(self):
        metrics = MetricsRegistry()
        metrics.inc("skips", 0)
        assert metrics.names() == []

    def test_label_key_order_independent(self):
        metrics = MetricsRegistry()
        metrics.inc("c", b="2", a="1")
        metrics.inc("c", a="1", b="2")
        assert metrics.snapshot()["counters"]["c"] == {"a=1,b=2": 2}

    def test_max_gauge_never_lowers(self):
        metrics = MetricsRegistry()
        metrics.max_gauge("depth", 5)
        metrics.max_gauge("depth", 3)
        assert metrics.snapshot()["gauges"]["depth"][""] == 5

    def test_histogram_buckets(self):
        metrics = MetricsRegistry()
        metrics.observe("lat", 0.0005)
        metrics.observe("lat", 100.0)
        series = metrics.snapshot()["histograms"]["lat"][""]
        assert series["buckets"]["0.001"] == 1
        assert series["buckets"]["+Inf"] == 1
        assert series["count"] == 2
        assert series["sum"] == pytest.approx(100.0005)

    def test_snapshot_is_json_safe_and_sorted(self):
        metrics = MetricsRegistry()
        metrics.inc("b")
        metrics.inc("a")
        snapshot = metrics.snapshot()
        assert list(snapshot["counters"]) == ["a", "b"]
        json.dumps(snapshot)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=0.0,
                max_value=1000.0,
                allow_nan=False,
                allow_infinity=False,
            ),
            max_size=30,
        )
    )
    def test_bucket_boundary_semantics(self, values):
        """Pin the slotting rule: first bucket with ``value <= bound``.

        Boundaries are *inclusive upper bounds* (a value exactly equal
        to a bound lands in that bound's slot, Prometheus-style) and
        anything above the last bound lands in ``+Inf``.
        """
        from repro.obs.metrics import DEFAULT_BUCKETS

        metrics = MetricsRegistry()
        for value in values:
            metrics.observe("lat", value)
        if not values:
            assert "lat" not in metrics.snapshot()["histograms"]
            return
        series = metrics.snapshot()["histograms"]["lat"][""]

        expected = {str(bound): 0 for bound in DEFAULT_BUCKETS}
        expected["+Inf"] = 0
        for value in values:
            for bound in DEFAULT_BUCKETS:
                if value <= bound:
                    expected[str(bound)] += 1
                    break
            else:
                expected["+Inf"] += 1
        assert series["buckets"] == expected
        assert series["count"] == len(values)
        assert sum(series["buckets"].values()) == series["count"]
        assert series["sum"] == pytest.approx(sum(values))

    def test_bucket_exact_boundary_is_inclusive(self):
        from repro.obs.metrics import DEFAULT_BUCKETS

        metrics = MetricsRegistry()
        for bound in DEFAULT_BUCKETS:
            metrics.observe("lat", bound)
        buckets = metrics.snapshot()["histograms"]["lat"][""]["buckets"]
        assert all(buckets[str(bound)] == 1 for bound in DEFAULT_BUCKETS)
        assert buckets["+Inf"] == 0


SMALL_SYSTEM = dict(scenario_count=6, reports_per_site=2, seed=7, clock="virtual")


def run_traced_system():
    clock = clock_from_name("virtual")
    obs = make_obs(clock)
    kg = SecurityKG(SystemConfig(**SMALL_SYSTEM), clock=clock, obs=obs)
    report = kg.run_once()
    fusion = kg.run_fusion()
    return kg, report, fusion, obs


@pytest.fixture(scope="module")
def traced_run():
    return run_traced_system()


class TestSystemTracing:
    def test_golden_trace_byte_identical(self, traced_run):
        _, _, _, obs = traced_run
        _, _, _, obs2 = run_traced_system()
        first = obs.tracer.export_jsonl()
        second = obs2.tracer.export_jsonl()
        assert first  # a real trace, not two empty strings
        assert first == second

    def test_counters_deterministic(self, traced_run):
        _, _, _, obs = traced_run
        _, _, _, obs2 = run_traced_system()
        assert obs.metrics.snapshot()["counters"] == (
            obs2.metrics.snapshot()["counters"]
        )

    def test_no_orphan_spans(self, traced_run):
        _, _, _, obs = traced_run
        assert obs.tracer.open_span_count == 0

    def test_span_tree_well_formed(self, traced_run):
        _, _, _, obs = traced_run
        records = obs.tracer.export()
        for index, record in enumerate(records, start=1):
            assert record["id"] == index
            assert record["parent"] is None or record["parent"] < record["id"]
            assert record["end"] >= record["start"]

    def test_expected_span_taxonomy(self, traced_run):
        _, _, _, obs = traced_run
        names = {record["name"] for record in obs.tracer.export()}
        assert {
            "run",
            "crawl",
            "crawl.fetch",
            "pipeline",
            "extract.ner",
            "extract.relation",
            "store",
            "store.ingest",
            "storage.commit",
            "fuse",
        } <= names

    def test_report_correlation_ids(self, traced_run):
        _, report, _, obs = traced_run
        reports = {
            record["attrs"]["report"]
            for record in obs.tracer.export()
            if "report" in record["attrs"]
        }
        assert len(reports) >= report.reports_stored > 0

    def test_system_report_carries_metrics(self, traced_run):
        _, report, _, _ = traced_run
        counters = report.metrics["counters"]
        assert counters["storage.commits"][""] > 0
        assert sum(counters["extract.entities"].values()) > 0

    def test_fusion_metrics(self, traced_run):
        _, _, fusion, obs = traced_run
        counters = obs.metrics.snapshot()["counters"]
        if fusion.groups_merged:
            assert counters["fusion.groups_merged"][""] == fusion.groups_merged

    def test_graph_gauges_match_graph(self, traced_run):
        kg, _, _, obs = traced_run
        gauges = obs.metrics.snapshot()["gauges"]
        assert gauges["graph.nodes"][""] == kg.graph.node_count
        assert gauges["graph.edges"][""] == kg.graph.edge_count

    def test_stats_agree_with_and_without_metrics(self, traced_run):
        """The ``graph.*`` gauges a cycle leaves behind tally what
        ``compute_stats`` counts on the graph itself."""
        kg, _, _, obs = traced_run
        stats = compute_stats(kg.graph)
        gauges = obs.metrics.snapshot()["gauges"]

        def tallies(series):
            return {
                key.split("=", 1)[1]: int(value) for key, value in series.items()
            }

        assert gauges["graph.nodes"][""] == stats.nodes
        assert gauges["graph.edges"][""] == stats.edges
        assert tallies(gauges["graph.nodes_by_label"]) == stats.labels
        assert tallies(gauges["graph.edges_by_type"]) == stats.edge_types

    def test_ui_endpoints(self, traced_run):
        kg, _, _, obs = traced_run
        api = ExplorerAPI(kg)
        status, payload = api.handle("GET", "/metrics")
        assert status == 200
        assert payload == obs.metrics.snapshot()
        status, payload = api.handle("GET", "/api/trace")
        assert status == 200
        assert payload["spans"] == obs.tracer.export()

    def test_untraced_system_stays_dark(self):
        kg = SecurityKG(SystemConfig(**SMALL_SYSTEM))
        report = kg.run_once()
        assert kg.obs is NO_OBS
        assert report.metrics == NULL_METRICS.snapshot()
        assert kg.obs.tracer.export() == []


class TestCrashSafety:
    @given(seed=st.integers(0, 9999))
    @settings(max_examples=10, deadline=None)
    def test_every_span_closes_under_injected_crashes(self, seed):
        with tempfile.TemporaryDirectory() as tmp:
            clock = clock_from_name("virtual")
            obs = make_obs(clock)
            kg = SecurityKG(
                SystemConfig(
                    scenario_count=4,
                    reports_per_site=1,
                    sources=["ThreatPedia"],
                    clock="virtual",
                    storage_path=f"{tmp}/state",
                ),
                clock=clock,
                obs=obs,
                faults=CrashInjector.seeded(seed),
            )
            try:
                kg.run_once()
                kg.checkpoint()
                kg.close()
            except InjectedCrash:
                pass
            assert obs.tracer.open_span_count == 0
            for record in obs.tracer.export():
                assert record["end"] >= record["start"]


class TestCli:
    SMALL = (
        "--scenarios", "5", "--reports-per-site", "2", "--clock", "virtual",
    )

    def run_cli(self, *argv):
        import io

        out = io.StringIO()
        code = cli_main(list(argv), out=out)
        return code, out.getvalue()

    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
        code, output = self.run_cli("run", *self.SMALL, "--trace", str(path))
        assert code == 0, output
        assert re.search(r"wrote \d+ spans to", output)
        return path

    def test_run_trace_golden(self, tmp_path, trace_file):
        second = tmp_path / "second.jsonl"
        code, _ = self.run_cli("run", *self.SMALL, "--trace", str(second))
        assert code == 0
        assert second.read_bytes() == trace_file.read_bytes()
        assert trace_file.stat().st_size > 0

    def test_stats_from_trace(self, trace_file):
        code, output = self.run_cli("profile", "--from-trace", str(trace_file))
        assert code == 0
        assert "distinct names" in output
        assert "crawl.fetch" in output

    def test_stats_from_trace_report_drilldown(self, trace_file):
        spans = load_trace(trace_file)
        report_id = next(
            span["attrs"]["report"]
            for span in spans
            if "report" in span["attrs"]
        )
        code, output = self.run_cli(
            "profile", "--from-trace", str(trace_file), "--report", report_id
        )
        assert code == 0
        assert "under " in output
        assert report_id in output
        assert output == render_report_trees(spans, report_id) + "\n"

    def test_stats_from_trace_no_match(self, trace_file):
        code, output = self.run_cli(
            "profile", "--from-trace", str(trace_file), "--report", "zzz-none"
        )
        assert code == 0
        assert "no spans matching" in output

    def test_run_metrics_flag_prints_snapshot(self):
        code, output = self.run_cli("run", *self.SMALL, "--metrics")
        assert code == 0
        assert '"counters"' in output
        assert "crawl.pages" in output

    def test_run_metrics_out_writes_json(self, tmp_path):
        path = tmp_path / "metrics.json"
        code, output = self.run_cli(
            "run", *self.SMALL, "--metrics-out", str(path)
        )
        assert code == 0
        assert "wrote metrics snapshot" in output
        snapshot = json.loads(path.read_text())
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["counters"]["storage.commits"][""] > 0

    def test_summarize_empty(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, output = self.run_cli("profile", "--from-trace", str(empty))
        assert code == 0
        assert output == "trace is empty\n"


class TestDocumentationSweep:
    """Every span/metric name the code can emit is catalogued."""

    @pytest.fixture(scope="class")
    def catalogue(self):
        return (REPO_ROOT / "OBSERVABILITY.md").read_text(encoding="utf-8")

    def test_runtime_names_documented(self, traced_run, catalogue):
        _, _, _, obs = traced_run
        names = {record["name"] for record in obs.tracer.export()}
        names |= set(obs.metrics.names())
        missing = {name for name in names if f"`{name}`" not in catalogue}
        assert not missing, f"undocumented in OBSERVABILITY.md: {sorted(missing)}"

    def test_static_names_documented(self, catalogue):
        span_re = re.compile(r"\.span\(\s*\n?\s*\"([^\"]+)\"")
        metric_re = re.compile(
            r"\.(?:inc|observe|set_gauge|max_gauge)\(\s*\n?\s*\"([^\"]+)\""
        )
        names: set[str] = set()
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            names.update(span_re.findall(source))
            names.update(metric_re.findall(source))
        assert names, "static sweep found no instrumentation literals"
        missing = {name for name in names if f"`{name}`" not in catalogue}
        assert not missing, f"undocumented in OBSERVABILITY.md: {sorted(missing)}"
