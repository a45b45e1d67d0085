"""Tests for the Cypher semantic analyzer and strict query mode."""

import io
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cypher_check import (
    BASE_PROPERTY_KEYS,
    CypherAnalyzer,
    QuerySchema,
    ontology_schema,
    schema_for,
)
from repro.analysis.diagnostics import Severity, errors
from repro.graphdb import (
    CypherAnalysisError,
    CypherEngine,
    CypherRuntimeError,
)
from repro.graphdb.cypher.parser import parse
from test_graphdb_cypher import journaled_engine


def closed_schema() -> QuerySchema:
    """The ontology taken as authoritative: unknown labels and types
    are errors even without graph evidence."""
    return replace(ontology_schema(), closed_labels=True, closed_rel_types=True)


def analyze(query: str, schema: QuerySchema | None = None):
    return CypherAnalyzer(schema or closed_schema()).analyze(query)


def rules(diagnostics) -> set[str]:
    return {d.rule for d in diagnostics}


class TestVocabularyRules:
    def test_unknown_label_is_error_with_suggestion(self):
        diags = analyze("MATCH (m:Malwear) RETURN m.name")
        (diag,) = [d for d in diags if d.rule == "cypher/unknown-label"]
        assert diag.severity is Severity.ERROR
        assert diag.suggestion == "Malware"
        assert diag.span is not None
        # span points at the label token itself
        assert "MATCH (m:Malwear) RETURN m.name"[diag.span.start :].startswith(
            "Malwear"
        )

    def test_unknown_rel_type_is_error(self):
        diags = analyze("MATCH (a)-[:USSES]->(b) RETURN a")
        (diag,) = [d for d in diags if d.rule == "cypher/unknown-rel-type"]
        assert diag.severity is Severity.ERROR
        assert diag.suggestion == "USES"

    def test_create_vocabulary_miss_is_warning(self):
        diags = analyze('CREATE (m:Malwear {name: "x"})')
        (diag,) = [d for d in diags if d.rule == "cypher/unknown-label"]
        assert diag.severity is Severity.WARNING

    def test_open_vocabulary_downgrades_to_warning(self):
        diags = analyze(
            "MATCH (m:Malwear) RETURN m.name", ontology_schema()
        )
        (diag,) = [d for d in diags if d.rule == "cypher/unknown-label"]
        assert diag.severity is Severity.WARNING

    def test_known_vocabulary_is_clean(self):
        diags = analyze(
            "MATCH (a:ThreatActor)-[:USES]->(t:Technique) "
            "RETURN a.name, count(t) AS c ORDER BY c DESC LIMIT 5"
        )
        assert not errors(diags)


class TestBindingRules:
    def test_unbound_variable_in_return(self):
        diags = analyze("MATCH (n) RETURN x")
        (diag,) = [d for d in diags if d.rule == "cypher/unbound-variable"]
        assert diag.severity is Severity.ERROR
        assert "'x'" in diag.message and "RETURN" in diag.message

    def test_unbound_variable_in_where(self):
        diags = analyze('MATCH (n) WHERE m.name = "x" RETURN n')
        assert "cypher/unbound-variable" in rules(errors(diags))

    def test_order_by_sees_return_aliases(self):
        diags = analyze(
            "MATCH (a:ThreatActor) RETURN count(a) AS c ORDER BY c DESC"
        )
        assert "cypher/unbound-variable" not in rules(diags)

    def test_order_by_unknown_name_is_error(self):
        diags = analyze("MATCH (n) RETURN n ORDER BY zz")
        assert "cypher/unbound-variable" in rules(errors(diags))

    def test_close_variable_suggested(self):
        diags = analyze("MATCH (actor:ThreatActor) RETURN actr.name")
        (diag,) = [d for d in diags if d.rule == "cypher/unbound-variable"]
        assert diag.suggestion == "actor"


class TestExpressionRules:
    def test_aggregate_in_where(self):
        diags = analyze("MATCH (n) WHERE count(n) > 1 RETURN n")
        assert "cypher/aggregate-in-where" in rules(errors(diags))

    def test_literal_ordering_type_mismatch(self):
        diags = analyze('MATCH (n) WHERE 1 < "a" RETURN n')
        (diag,) = [d for d in diags if d.rule == "cypher/type-mismatch"]
        assert diag.severity is Severity.ERROR

    def test_property_literal_mismatch_uses_observed_types(self):
        schema = closed_schema().merged_with(
            QuerySchema(property_types={"name": frozenset({"str"})})
        )
        diags = analyze("MATCH (n) WHERE n.name > 5 RETURN n", schema)
        (diag,) = [d for d in diags if d.rule == "cypher/type-mismatch"]
        assert diag.severity is Severity.WARNING

    def test_unknown_property_key_warning(self):
        diags = analyze('MATCH (n) WHERE n.naem = "x" RETURN n')
        (diag,) = [d for d in diags if d.rule == "cypher/unknown-property"]
        assert diag.severity is Severity.WARNING
        assert diag.suggestion == "name"

    def test_duplicate_alias_warning(self):
        diags = analyze("MATCH (n) RETURN n.name, n.name")
        assert "cypher/duplicate-alias" in rules(diags)


class TestPatternRules:
    def test_unbounded_path_warning(self):
        diags = analyze("MATCH (a)-[:USES*]->(b) RETURN b")
        (diag,) = [d for d in diags if d.rule == "cypher/unbounded-path"]
        assert diag.severity is Severity.WARNING

    def test_explicit_bound_is_clean(self):
        diags = analyze("MATCH (a)-[:USES*1..3]->(b) RETURN b")
        assert "cypher/unbounded-path" not in rules(diags)

    def test_cartesian_product_warning(self):
        diags = analyze("MATCH (a:Malware), (b:Technique) RETURN a, b")
        assert "cypher/cartesian-product" in rules(diags)

    def test_connected_paths_are_clean(self):
        diags = analyze(
            "MATCH (a:Malware)-[:USES]->(t), (a)-[:TARGETS]->(o) RETURN a, t, o"
        )
        assert "cypher/cartesian-product" not in rules(diags)


@pytest.fixture()
def populated_engine():
    engine = journaled_engine()
    graph = engine.graph
    malware = graph.create_node("Malware", {"name": "wannacry"})
    actor = graph.create_node("ThreatActor", {"name": "lazarus"})
    graph.create_edge(actor.node_id, "USES", malware.node_id, {"weight": 1.0})
    return engine


class TestEngineStrictMode:
    def test_unknown_label_rejected_before_execution(self, populated_engine):
        with pytest.raises(CypherAnalysisError) as exc:
            populated_engine.run("MATCH (m:Malwear) RETURN m.name")
        assert "cypher/unknown-label" in str(exc.value)
        assert "^" in str(exc.value)  # caret block present
        assert exc.value.diagnostics[0].span is not None

    def test_unbound_variable_rejected(self, populated_engine):
        with pytest.raises(CypherAnalysisError) as exc:
            populated_engine.run("MATCH (n) RETURN x")
        assert "cypher/unbound-variable" in str(exc.value)

    def test_analysis_error_is_a_runtime_error(self, populated_engine):
        # existing callers catching CypherRuntimeError keep working
        with pytest.raises(CypherRuntimeError):
            populated_engine.run("MATCH (n) RETURN x")

    def test_no_strict_bypasses_analysis(self, populated_engine):
        rows = populated_engine.run(
            "MATCH (m:Malwear) RETURN m.name", strict=False
        )
        assert rows == []

    def test_warnings_do_not_block(self, populated_engine):
        rows = populated_engine.run("MATCH (a)-[:USES*]->(b) RETURN b.name")
        assert [r["b.name"] for r in rows] == ["wannacry"]

    def test_graph_labels_extend_schema(self, populated_engine):
        graph = populated_engine.graph
        graph.create_node("CustomThing", {"name": "x"})
        rows = populated_engine.run("MATCH (c:CustomThing) RETURN c.name")
        assert [r["c.name"] for r in rows] == ["x"]

    def test_schema_cache_invalidated_by_create(self, populated_engine):
        populated_engine.run("MATCH (n) RETURN n")  # warm the cache
        populated_engine.run('CREATE (z:Zebra {name: "z"})')
        rows = populated_engine.run("MATCH (z:Zebra) RETURN z.name")
        assert [r["z.name"] for r in rows] == ["z"]

    def test_schema_for_merges_graph_and_ontology(self, populated_engine):
        schema = schema_for(populated_engine.graph)
        assert "Malware" in schema.labels and "USES" in schema.rel_types
        assert "weight" in schema.property_keys
        assert schema.closed_labels and schema.closed_rel_types


class TestUIServerEndpoint:
    @pytest.fixture()
    def api(self):
        from repro import SecurityKG, SystemConfig
        from repro.ui.server import ExplorerAPI

        system = SecurityKG(SystemConfig(connectors=["graph"]))
        system.graph.create_node("Malware", {"name": "wannacry"})
        return ExplorerAPI(system)

    def test_bad_query_returns_structured_diagnostics(self, api):
        status, payload = api.handle(
            "POST", "/api/cypher", {"query": "MATCH (m:Malwear) RETURN m.name"}
        )
        assert status == 400
        assert payload["diagnostics"]
        diag = payload["diagnostics"][0]
        assert diag["rule"] == "cypher/unknown-label"
        assert diag["severity"] == "error"
        assert isinstance(diag["start"], int)
        assert "cypher/unknown-label" in payload["error"]

    def test_unbound_variable_rejected(self, api):
        status, payload = api.handle(
            "POST", "/api/cypher", {"query": "MATCH (n) RETURN x"}
        )
        assert status == 400
        assert payload["diagnostics"][0]["rule"] == "cypher/unbound-variable"

    def test_strict_false_passes_through(self, api):
        status, payload = api.handle(
            "POST",
            "/api/cypher",
            {"query": "MATCH (m:Malwear) RETURN m.name", "strict": False},
        )
        assert status == 200
        assert payload["rows"] == []

    def test_good_query_still_works(self, api):
        status, payload = api.handle(
            "POST", "/api/cypher", {"query": "MATCH (m:Malware) RETURN m.name"}
        )
        assert status == 200
        assert payload["rows"] == [{"m.name": "wannacry"}]


class TestCLI:
    def run_cli(self, *argv):
        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_unbound_variable_rejected_with_caret(self):
        code, output = self.run_cli(
            "cypher", "--scenarios", "2", "--reports-per-site", "1",
            "MATCH (n) RETURN x",
        )
        assert code == 2
        assert "cypher/unbound-variable" in output
        assert "^" in output

    def test_no_strict_flag_bypasses(self):
        code, output = self.run_cli(
            "cypher", "--scenarios", "2", "--reports-per-site", "1",
            "--no-strict", "MATCH (n) RETURN x",
        )
        # analysis skipped: the empty match produces no rows, so the
        # unbound variable is never evaluated and the query "succeeds"
        # vacuously -- exactly the silent failure strict mode prevents
        assert code == 0
        assert "(0 row(s))" in output


# -- property tests ----------------------------------------------------------

_NAMES = st.sampled_from(["a", "b", "n", "m", "actor", "x1"])
_LABELS = st.sampled_from(
    ["Malware", "ThreatActor", "Technique", "Malwear", "Zebra", None]
)
_REL_TYPES = st.sampled_from(["USES", "DROPS", "FOO_BAR", None])
_PROPS = st.sampled_from(["name", "merge_key", "nonesuch", "weight"])
_LITERALS = st.sampled_from(['"x"', "5", "3.5", "true", "null", '["a", "b"]'])


@st.composite
def queries(draw) -> str:
    """Parseable queries, valid and invalid alike."""
    variable = draw(_NAMES)
    label = draw(_LABELS)
    node = f"({variable}{':' + label if label else ''})"
    parts = [f"MATCH {node}"]
    if draw(st.booleans()):
        rel = draw(_REL_TYPES)
        hops = draw(st.sampled_from(["", "*", "*1..3", "*2.."]))
        other = draw(_NAMES)
        parts[0] += f"-[{':' + rel if rel else ''}{hops}]->({other})"
    if draw(st.booleans()):
        where_var = draw(_NAMES)
        prop = draw(_PROPS)
        op = draw(st.sampled_from(["=", "<", ">", "<>", "CONTAINS"]))
        literal = draw(_LITERALS)
        parts.append(f"WHERE {where_var}.{prop} {op} {literal}")
    return_var = draw(_NAMES)
    parts.append(f"RETURN {return_var}")
    if draw(st.booleans()):
        parts.append(f"ORDER BY {return_var} DESC")
    if draw(st.booleans()):
        parts.append("LIMIT 3")
    return " ".join(parts)


class TestAnalyzerProperties:
    @given(query=queries())
    @settings(max_examples=120, deadline=None)
    def test_never_crashes_on_parseable_queries(self, query):
        parsed = parse(query)  # by construction these parse
        diagnostics = CypherAnalyzer(closed_schema()).analyze(parsed, query)
        for diagnostic in diagnostics:
            assert diagnostic.rule.startswith("cypher/")
            assert diagnostic.format(query)  # rendering never crashes
            if diagnostic.span is not None:
                assert 0 <= diagnostic.span.start <= len(query)

    @given(
        variable=st.sampled_from(["a", "m", "node1"]),
        label=st.sampled_from(["Malware", "ThreatActor", "Technique"]),
        rel=st.sampled_from(["USES", "DROPS", "TARGETS"]),
        prop=st.sampled_from(sorted(BASE_PROPERTY_KEYS)),
        limit=st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_schema_valid_queries_have_no_errors(
        self, variable, label, rel, prop, limit
    ):
        query = (
            f"MATCH ({variable}:{label})-[:{rel}]->(other) "
            f'WHERE {variable}.{prop} = "v" '
            f"RETURN {variable}.{prop}, other LIMIT {limit}"
        )
        assert not errors(analyze(query))
