"""The profiling layer: self-time attribution, flamegraph export,
Cypher PROFILE, and the artefact-determinism goldens.

Three groups of guarantees:

* the pure functions in ``repro.obs.profile`` -- self time is total
  minus direct children (clamped for cross-thread overlap), self times
  partition the tree's total (hypothesis-checked on random
  non-overlapping trees), and the collapsed-stack export is canonical;
* the CLI/UI surfaces -- ``repro profile`` emits byte-identical folded
  files across two seeded virtual-clock runs, its per-name table carries
  ``self_s`` and ``max_s`` beside ``total_s``, and ``GET /profile``
  serves the live aggregation;
* Cypher ``PROFILE`` -- profiled queries return exactly the rows of
  their unprofiled execution (1 and 4 partitions), the annotated tree
  renders per-operator counters, and the rejection surfaces (PROFILE
  CREATE, EXPLAIN PROFILE, background tasks) hold.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core.config import SystemConfig
from repro.core.system import SecurityKG
from repro.graphdb import (
    CypherEngine,
    CypherRuntimeError,
    CypherSyntaxError,
    PropertyGraph,
)
from repro.obs import make_obs
from repro.obs.profile import (
    aggregate,
    annotate,
    collapsed_stacks,
    hotspots,
    profile_dict,
    render_folded,
    render_profile,
    unit_costs,
    write_folded,
)
from repro.ontology.entities import EntityType
from repro.ontology.intermediate import CTIRecord, Mention
from repro.runtime import clock_from_name
from repro.sharding import ShardSet
from repro.ui.server import ExplorerAPI


def span(id, parent, name, start, end, **attrs):
    return {
        "id": id, "parent": parent, "name": name,
        "start": start, "end": end, "attrs": attrs,
    }


#: run(0..10) -> crawl(1..8) -> fetch(2..4), fetch(5..7)
TREE = [
    span(1, None, "run", 0.0, 10.0),
    span(2, 1, "crawl", 1.0, 8.0),
    span(3, 2, "crawl.fetch", 2.0, 4.0),
    span(4, 2, "crawl.fetch", 5.0, 7.0),
]


class TestSelfTime:
    def test_self_is_total_minus_children(self):
        by_id = {s["id"]: s for s in annotate(TREE)}
        assert by_id[1]["total_s"] == 10.0
        assert by_id[1]["self_s"] == 3.0  # 10 - crawl's 7
        assert by_id[2]["self_s"] == 3.0  # 7 - two 2s fetches
        assert by_id[3]["self_s"] == 2.0
        assert by_id[4]["path"] == "run;crawl;crawl.fetch"

    def test_overlapping_children_clamp_to_zero(self):
        # children on worker threads can overlap their parent's window
        spans = [
            span(1, None, "crawl", 0.0, 2.0),
            span(2, 1, "crawl.fetch", 0.0, 2.0),
            span(3, 1, "crawl.fetch", 0.0, 2.0),
        ]
        by_id = {s["id"]: s for s in annotate(spans)}
        assert by_id[1]["self_s"] == 0.0
        assert by_id[2]["self_s"] == 2.0

    def test_orphan_parent_treated_as_root(self):
        spans = [span(7, 99, "late", 0.0, 1.0)]
        record = annotate(spans)[0]
        assert record["path"] == "late"
        assert record["self_s"] == 1.0

    def test_aggregate_and_hotspots(self):
        table = aggregate(TREE)
        assert table["crawl.fetch"] == {
            "count": 2, "total_s": 4.0, "self_s": 4.0,
            "max_s": 2.0, "max_self_s": 2.0,
        }
        ranked = hotspots(TREE, top=2)
        assert [entry["name"] for entry in ranked] == ["crawl.fetch", "crawl"]
        assert ranked[0]["self_pct"] == pytest.approx(40.0)

    def test_hotspot_ties_break_by_name(self):
        spans = [
            span(1, None, "beta", 0.0, 1.0),
            span(2, None, "alpha", 2.0, 3.0),
        ]
        assert [e["name"] for e in hotspots(spans)] == ["alpha", "beta"]


class TestUnitCosts:
    def test_per_report_and_per_unit(self):
        spans = [
            span(1, None, "extract.ner", 0.0, 2.0,
                 report="rpt-1", tokens=40, mentions=4),
            span(2, None, "extract.ner", 2.0, 4.0,
                 report="rpt-2", tokens=60, mentions=6),
        ]
        costs = unit_costs(spans)["extract.ner"]
        assert costs["reports"] == 2
        assert costs["self_per_report_s"] == pytest.approx(2.0)
        assert costs["units"] == {"mentions": 10, "tokens": 100}
        assert costs["self_per_unit_s"]["tokens"] == pytest.approx(0.04)
        assert costs["self_per_unit_s"]["mentions"] == pytest.approx(0.4)

    def test_no_reports_yields_null_cost(self):
        costs = unit_costs([span(1, None, "crawl", 0.0, 1.0)])["crawl"]
        assert costs["reports"] == 0
        assert costs["self_per_report_s"] is None
        assert costs["units"] == {}


class TestCollapsedStacks:
    def test_integer_microseconds_per_path(self):
        folded = collapsed_stacks(TREE)
        assert folded == {
            "run": 3_000_000,
            "run;crawl": 3_000_000,
            "run;crawl;crawl.fetch": 4_000_000,
        }

    def test_render_is_sorted_lines(self):
        text = render_folded(TREE)
        assert text == (
            "run 3000000\n"
            "run;crawl 3000000\n"
            "run;crawl;crawl.fetch 4000000\n"
        )

    def test_write_folded_is_atomic_file(self, tmp_path):
        out = tmp_path / "flame.folded"
        write_folded(out, TREE)
        assert out.read_text() == render_folded(TREE)

    def test_render_profile_empty(self):
        assert render_profile([]) == "trace is empty"


@st.composite
def span_trees(draw):
    """Random span forests with nested, non-overlapping children."""
    spans = []
    next_id = [1]

    def build(parent, lo, hi, depth):
        sid = next_id[0]
        next_id[0] += 1
        name = draw(st.sampled_from(["a", "b", "c", "d"]))
        spans.append(span(sid, parent, name, lo, hi))
        if depth >= 3 or hi - lo <= 0.0:
            return
        count = draw(st.integers(min_value=0, max_value=3))
        if not count:
            return
        cuts = sorted(
            draw(
                st.lists(
                    st.floats(
                        min_value=lo, max_value=hi,
                        allow_nan=False, allow_infinity=False,
                    ),
                    min_size=2 * count, max_size=2 * count,
                )
            )
        )
        for k in range(count):
            build(sid, cuts[2 * k], cuts[2 * k + 1], depth + 1)

    roots = draw(st.integers(min_value=1, max_value=3))
    cursor = 0.0
    for _ in range(roots):
        width = draw(st.floats(min_value=0.0, max_value=100.0))
        build(None, cursor, cursor + width, 0)
        cursor += width + 1.0
    return spans


class TestSelfTimePartition:
    @settings(max_examples=60, deadline=None)
    @given(span_trees())
    def test_self_times_sum_to_root_totals(self, spans):
        annotated = annotate(spans)
        total_self = sum(s["self_s"] for s in annotated)
        root_total = sum(
            s["total_s"] for s in annotated if s["parent"] is None
        )
        assert total_self == pytest.approx(root_total, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(span_trees())
    def test_max_s_is_the_longest_span_of_its_name(self, spans):
        longest: dict[str, float] = {}
        for record in spans:
            duration = record["end"] - record["start"]
            longest[record["name"]] = max(
                longest.get(record["name"], 0.0), duration
            )
        table = aggregate(spans)
        assert {name: entry["max_s"] for name, entry in table.items()} == longest

    @settings(max_examples=60, deadline=None)
    @given(span_trees())
    def test_the_three_tables_agree_per_name(self, spans):
        """``aggregate``, ``unit_costs`` and ``hotspots`` fold the same
        pass: every name has one count, one total and one self time."""
        table = aggregate(spans)
        costs = unit_costs(spans)
        ranked = {entry["name"]: entry for entry in hotspots(spans, top=len(table))}
        assert set(table) == set(costs) == set(ranked)
        for name, entry in table.items():
            for key in ("count", "total_s", "self_s"):
                assert entry[key] == costs[name][key] == ranked[name][key]
        payload = profile_dict(spans, top=len(table))
        assert payload["names"] == table
        assert payload["unit_costs"] == costs
        assert payload["hotspots"] == hotspots(spans, top=len(table))

    @settings(max_examples=30, deadline=None)
    @given(span_trees())
    def test_folded_is_deterministic_and_nonnegative(self, spans):
        text = render_folded(spans)
        assert text == render_folded(list(spans))
        for line in text.strip().splitlines():
            assert int(line.rsplit(" ", 1)[1]) >= 0


# -- CLI goldens ------------------------------------------------------------


def run_cli(*argv):
    import io

    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


SMALL = ("--scenarios", "4", "--reports-per-site", "2", "--clock", "virtual")


class TestProfileCli:
    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("prof") / "trace.jsonl"
        code, output = run_cli("run", *SMALL, "--trace", str(path))
        assert code == 0, output
        return path

    def test_folded_golden_across_seeded_runs(self, tmp_path, trace_file):
        second_trace = tmp_path / "second.jsonl"
        code, _ = run_cli("run", *SMALL, "--trace", str(second_trace))
        assert code == 0
        first = tmp_path / "first.folded"
        second = tmp_path / "second.folded"
        code, output = run_cli(
            "profile", "--from-trace", str(trace_file), "--flame", str(first)
        )
        assert code == 0
        assert "wrote collapsed stacks" in output
        code, _ = run_cli(
            "profile", "--from-trace", str(second_trace),
            "--flame", str(second),
        )
        assert code == 0
        assert first.read_bytes() == second.read_bytes()
        assert first.stat().st_size > 0
        for line in first.read_text().splitlines():
            assert re.fullmatch(r"[^ ]+ \d+", line), line

    def test_table_output(self, trace_file):
        code, output = run_cli("profile", "--from-trace", str(trace_file))
        assert code == 0
        assert "total self time" in output
        assert "self_s" in output and "self%" in output

    def test_json_output(self, trace_file):
        code, output = run_cli(
            "profile", "--from-trace", str(trace_file), "--json", "--top", "3"
        )
        assert code == 0
        payload = json.loads(output)
        assert set(payload) == {"spans", "names", "unit_costs", "hotspots"}
        assert len(payload["hotspots"]) == 3
        assert payload["unit_costs"]["extract.ner"]["units"]["tokens"] > 0

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_is_a_usage_error(self, trace_file, capsys, top):
        with pytest.raises(SystemExit) as exit:
            run_cli("profile", "--from-trace", str(trace_file), "--top", top)
        assert exit.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"repro profile: error: argument --top: must be at least 1, got {top}"
        ]

    @pytest.mark.parametrize("entry", ["repro lint", "repro-lint", "repro profile"])
    def test_closed_stdout_prints_no_traceback(self, trace_file, entry):
        """The reader closes the pipe before reading anything, as
        ``| head -0`` does: exit 1, and no traceback on stderr."""
        report = re.search(r'"report":"([^"]*)"', trace_file.read_text()).group(1)
        argv = {
            "repro lint": ["-m", "repro", "lint"],
            "repro-lint": [
                "-c", "import sys; from repro.analysis.lint import main; sys.exit(main())"
            ],
            "repro profile": [
                "-m", "repro", "profile", "--from-trace", str(trace_file),
                "--report", report,
            ],
        }[entry]
        src = str(Path(__file__).resolve().parent.parent / "src")
        child = subprocess.Popen(
            [sys.executable, *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        child.stdout.close()
        stderr = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait() == 1
        assert "Traceback" not in stderr, stderr

    def test_stats_gained_self_s_column(self, trace_file):
        """The one per-name table: ``self_s`` and ``max_s`` beside
        ``total_s`` (the mean is ``total_s / count``)."""
        code, output = run_cli(
            "profile", "--from-trace", str(trace_file), "--json"
        )
        assert code == 0
        for entry in json.loads(output)["names"].values():
            assert {"count", "total_s", "self_s", "max_s"} <= set(entry)
            assert entry["self_s"] <= entry["total_s"] + 1e-9
            assert entry["max_s"] <= entry["total_s"] + 1e-9


# -- Cypher PROFILE ---------------------------------------------------------


def demo_graph() -> PropertyGraph:
    graph = PropertyGraph()
    wannacry = graph.create_node("Malware", {"name": "wannacry"})
    emotet = graph.create_node("Malware", {"name": "emotet"})
    lazarus = graph.create_node("ThreatActor", {"name": "lazarus group"})
    graph.create_edge(wannacry.node_id, "ATTRIBUTED_TO", lazarus.node_id)
    graph.create_edge(emotet.node_id, "ATTRIBUTED_TO", lazarus.node_id)
    return graph


class TestCypherProfile:
    @pytest.fixture()
    def engine(self):
        return CypherEngine(demo_graph())

    def test_profiled_rows_identical(self, engine):
        query = "MATCH (m:Malware) RETURN m.name ORDER BY m.name"
        assert engine.run(f"PROFILE {query}") == engine.run(query)

    def test_profile_returns_annotated_tree(self, engine):
        prof = engine.profile(
            "MATCH (m:Malware) RETURN m.name ORDER BY m.name"
        )
        assert [row["m.name"] for row in prof.rows] == ["emotet", "wannacry"]
        operators = [op["operator"] for op in prof.operators]
        assert operators[-1] == "Init"
        scan = next(
            op for op in prof.operators if "Scan" in op["operator"]
        )
        assert scan["rows"] == 2
        assert scan["calls"] >= scan["rows"]
        text = prof.lines()
        assert "rows=" in text[0] and "self=" in text[0]
        # child operators indent below their parent
        assert text[1].startswith("  ")

    def test_deterministic_under_virtual_clock(self):
        def build():
            clock = clock_from_name("virtual")
            engine = CypherEngine(
                demo_graph(), obs=make_obs(clock), clock=clock
            )
            return engine.profile(
                "MATCH (m:Malware) RETURN m.name", step_cost=1e-6
            )

        first, second = build(), build()
        assert first.to_dict() == second.to_dict()
        assert any(op["cumulative_s"] > 0 for op in first.operators)

    def test_profile_span_and_counter(self):
        obs = make_obs(clock_from_name("virtual"))
        engine = CypherEngine(demo_graph(), obs=obs)
        engine.run("PROFILE MATCH (m:Malware) RETURN m.name")
        names = [s["name"] for s in obs.tracer.export()]
        assert "cypher.profile" in names
        counters = obs.metrics.snapshot()["counters"]
        assert counters["cypher.profiled"][""] == 1

    def test_explain_profile_rejected(self, engine):
        with pytest.raises(CypherSyntaxError, match="cannot be combined"):
            engine.run("EXPLAIN PROFILE MATCH (m:Malware) RETURN m")

    def test_profile_create_rejected(self, engine):
        with pytest.raises(
            (CypherSyntaxError, CypherRuntimeError), match="MATCH"
        ):
            engine.run('PROFILE CREATE (m:Malware {name: "x"})')

    def test_task_rejects_profile(self, engine):
        with pytest.raises(CypherRuntimeError):
            engine.task("PROFILE MATCH (m:Malware) RETURN m.name")

    def test_paginated_profile_returns_full_page(self, engine):
        page = engine.run_paginated(
            "PROFILE MATCH (m:Malware) RETURN m.name ORDER BY m.name",
            page_size=1,
        )
        assert len(page.rows) == 2
        assert page.continuation is None


def shard_records(count: int) -> list[CTIRecord]:
    names = [
        ("agent tesla", EntityType.MALWARE),
        ("zeus panda", EntityType.MALWARE),
        ("APT29", EntityType.THREAT_ACTOR),
        ("mimikatz", EntityType.TOOL),
    ]
    out = []
    for index in range(count):
        name, etype = names[index % len(names)]
        out.append(
            CTIRecord(
                report_id=f"rpt-{index:04d}",
                source="UnitSource",
                url=f"https://unit.test/report/{index}",
                title=f"report {index} on {name}",
                mentions=[Mention(name, etype, confidence=0.9)],
            )
        )
    return out


class TestShardedProfile:
    @pytest.mark.parametrize("partitions", [1, 4])
    def test_rows_identical_across_partition_counts(self, partitions):
        shards = ShardSet(partitions)
        try:
            shards.store(shard_records(16))
            engine = shards.cypher
            query = "MATCH (m:Malware) RETURN m.name ORDER BY m.name"
            plain = engine.run(query)
            assert engine.run(f"PROFILE {query}") == plain
            assert engine.profile(query).rows == plain
        finally:
            shards.close()

    def test_gather_root_and_partition_subtrees(self):
        """What is true now: there is neither.  Three partitions profile
        as the single-partition operator chain over the union graph."""
        query = "MATCH (m:Malware) RETURN m.name"
        single, shards = ShardSet(1), ShardSet(3)
        try:
            single.store(shard_records(12))
            shards.store(shard_records(12))
            prof = shards.cypher.profile(query)
            names = [op["operator"] for op in prof.operators]
            assert names == [
                op["operator"] for op in single.cypher.profile(query).operators
            ]
            assert "Gather" not in names
            assert prof.operators[0]["rows"] == len(prof.rows)
            scan = next(op for op in prof.operators if "Scan" in op["operator"])
            assert scan["rows"] == sum(
                p.graph.label_count("Malware") for p in shards.partitions
            )
            assert not hasattr(prof, "partitions")
            assert not any(line.startswith("partition") for line in prof.lines())
        finally:
            single.close()
            shards.close()


# -- the live UI surface ----------------------------------------------------


class TestProfileEndpoint:
    @pytest.fixture(scope="class")
    def api(self):
        clock = clock_from_name("virtual")
        obs = make_obs(clock)
        kg = SecurityKG(
            SystemConfig(
                scenario_count=3, reports_per_site=1, clock="virtual"
            ),
            clock=clock,
            obs=obs,
        )
        kg.run_once()
        return ExplorerAPI(kg)

    def test_get_profile(self, api):
        status, payload, _headers = api.handle_full("GET", "/profile")
        assert status == 200
        assert set(payload) == {"spans", "names", "unit_costs", "hotspots"}
        assert payload["spans"] > 0
        counters = api.system.obs.metrics.snapshot()["counters"]
        assert counters["profile.exports"]["format=json"] >= 1

    def test_api_cypher_profile(self, api):
        status, payload, _headers = api.handle_full(
            "POST",
            "/api/cypher",
            {"query": "PROFILE MATCH (m:Malware) RETURN m.name"},
        )
        assert status == 200
        assert set(payload) == {"rows", "profile"}
        assert payload["profile"]["operators"]
