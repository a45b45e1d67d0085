"""Unit tests for the Cypher-subset engine."""

import pytest

from repro.graphdb import (
    CypherEngine,
    CypherRuntimeError,
    CypherSyntaxError,
    GraphDatabase,
    PropertyGraph,
)
from repro.graphdb.wal import GraphParticipant
from repro.storage import StorageEngine


def journaled_engine(**kwargs) -> CypherEngine:
    """An engine whose CREATEs commit through a :class:`GraphDatabase`,
    the graph's one writer, on an in-memory storage engine."""
    database = GraphDatabase(StorageEngine(None, [GraphParticipant()]))
    return CypherEngine(
        database.graph, database_for=lambda _query: database, **kwargs
    )


@pytest.fixture(scope="module")
def engine():
    graph = PropertyGraph()
    wannacry = graph.create_node("Malware", {"name": "wannacry", "year": 2017})
    emotet = graph.create_node("Malware", {"name": "emotet", "year": 2014})
    cozy = graph.create_node("ThreatActor", {"name": "cozyduke"})
    lazarus = graph.create_node("ThreatActor", {"name": "lazarus group"})
    t1 = graph.create_node("Technique", {"name": "credential dumping"})
    t2 = graph.create_node("Technique", {"name": "process injection"})
    t3 = graph.create_node("Technique", {"name": "spearphishing attachment"})
    f = graph.create_node("FileName", {"name": "tasksche.exe"})
    graph.create_edge(wannacry.node_id, "DROPS", f.node_id)
    graph.create_edge(wannacry.node_id, "ATTRIBUTED_TO", lazarus.node_id)
    graph.create_edge(cozy.node_id, "USES", t1.node_id)
    graph.create_edge(cozy.node_id, "USES", t2.node_id)
    graph.create_edge(lazarus.node_id, "USES", t1.node_id)
    graph.create_edge(lazarus.node_id, "USES", t3.node_id)
    return CypherEngine(graph)


class TestDemoQueries:
    """The exact query forms from the paper's demonstration outline."""

    def test_paper_cypher_query(self, engine):
        rows = engine.run('match (n) where n.name = "wannacry" return n')
        assert len(rows) == 1
        assert rows[0]["n"].properties["name"] == "wannacry"

    def test_techniques_used_by_actor(self, engine):
        rows = engine.run(
            'MATCH (a:ThreatActor {name: "cozyduke"})-[:USES]->(t:Technique) '
            "RETURN t.name ORDER BY t.name"
        )
        assert [r["t.name"] for r in rows] == [
            "credential dumping",
            "process injection",
        ]

    def test_actors_sharing_techniques(self, engine):
        rows = engine.run(
            'MATCH (a:ThreatActor {name: "cozyduke"})-[:USES]->(t)'
            "<-[:USES]-(other:ThreatActor) "
            'WHERE other.name <> "cozyduke" '
            "RETURN DISTINCT other.name"
        )
        assert [r["other.name"] for r in rows] == ["lazarus group"]


class TestMatching:
    def test_label_scan(self, engine):
        rows = engine.run("MATCH (m:Malware) RETURN m.name ORDER BY m.name")
        assert [r["m.name"] for r in rows] == ["emotet", "wannacry"]

    def test_property_anchor(self, engine):
        rows = engine.run('MATCH (m:Malware {name: "emotet"}) RETURN m.year')
        assert rows[0]["m.year"] == 2014

    def test_directed_edge_both_ways(self, engine):
        out = engine.run("MATCH (m:Malware)-[:DROPS]->(f) RETURN f.name")
        inward = engine.run("MATCH (f)<-[:DROPS]-(m:Malware) RETURN f.name")
        assert out[0]["f.name"] == inward[0]["f.name"] == "tasksche.exe"

    def test_undirected_edge(self, engine):
        rows = engine.run(
            'MATCH (x)-[:DROPS]-(y {name: "tasksche.exe"}) RETURN x.name'
        )
        assert rows[0]["x.name"] == "wannacry"

    def test_two_hop_chain(self, engine):
        rows = engine.run(
            "MATCH (m:Malware)-[:ATTRIBUTED_TO]->(a)-[:USES]->(t) "
            "RETURN t.name ORDER BY t.name"
        )
        assert [r["t.name"] for r in rows] == [
            "credential dumping",
            "spearphishing attachment",
        ]

    def test_multiple_paths_join_on_shared_variable(self, engine):
        rows = engine.run(
            "MATCH (m:Malware)-[:ATTRIBUTED_TO]->(a), (a)-[:USES]->(t) "
            "RETURN count(t) AS n"
        )
        assert rows[0]["n"] == 2

    def test_rel_variable_binding(self, engine):
        rows = engine.run("MATCH (a)-[r:USES]->(t) RETURN count(r) AS n")
        assert rows[0]["n"] == 4

    def test_no_match_returns_empty(self, engine):
        assert engine.run('MATCH (n {name: "nope"}) RETURN n') == []

    def test_same_variable_must_rebind_consistently(self, engine):
        rows = engine.run("MATCH (a)-[:USES]->(t)<-[:USES]-(a) RETURN a.name")
        # a cannot be two different nodes, but can match itself via
        # the same... no: traversing out then in from t yields both
        # users; binding forces a == a.
        assert {r["a.name"] for r in rows} == {"cozyduke", "lazarus group"}


class TestWhere:
    def test_comparisons(self, engine):
        rows = engine.run("MATCH (m:Malware) WHERE m.year > 2015 RETURN m.name")
        assert [r["m.name"] for r in rows] == ["wannacry"]

    def test_and_or_not(self, engine):
        rows = engine.run(
            "MATCH (m:Malware) WHERE m.year > 2000 AND NOT m.name = 'emotet' "
            "RETURN m.name"
        )
        assert [r["m.name"] for r in rows] == ["wannacry"]

    def test_contains_starts_ends(self, engine):
        assert engine.run(
            'MATCH (n) WHERE n.name CONTAINS "duke" RETURN n.name'
        )[0]["n.name"] == "cozyduke"
        assert engine.run(
            'MATCH (n) WHERE n.name STARTS WITH "laz" RETURN n.name'
        )[0]["n.name"] == "lazarus group"
        assert engine.run(
            'MATCH (n) WHERE n.name ENDS WITH ".exe" RETURN n.name'
        )[0]["n.name"] == "tasksche.exe"

    def test_in_list(self, engine):
        rows = engine.run(
            'MATCH (m:Malware) WHERE m.name IN ["emotet", "zeus"] RETURN m.name'
        )
        assert [r["m.name"] for r in rows] == ["emotet"]

    def test_is_null(self, engine):
        rows = engine.run(
            "MATCH (n:Technique) WHERE n.year IS NULL RETURN count(n) AS c"
        )
        assert rows[0]["c"] == 3
        rows = engine.run(
            "MATCH (n) WHERE n.year IS NOT NULL RETURN count(n) AS c"
        )
        assert rows[0]["c"] == 2


class TestReturnShaping:
    def test_alias(self, engine):
        rows = engine.run('MATCH (m:Malware {name: "emotet"}) RETURN m.name AS x')
        assert rows[0]["x"] == "emotet"

    def test_count_star(self, engine):
        rows = engine.run("MATCH (n) RETURN count(*) AS total")
        assert rows[0]["total"] == 8

    def test_count_groups_by_other_items(self, engine):
        rows = engine.run(
            "MATCH (a:ThreatActor)-[:USES]->(t) "
            "RETURN a.name, count(t) AS uses ORDER BY a.name"
        )
        assert [(r["a.name"], r["uses"]) for r in rows] == [
            ("cozyduke", 2),
            ("lazarus group", 2),
        ]

    def test_collect(self, engine):
        rows = engine.run(
            'MATCH (a:ThreatActor {name: "cozyduke"})-[:USES]->(t) '
            "RETURN a.name, collect(t.name) AS techniques"
        )
        assert sorted(rows[0]["techniques"]) == [
            "credential dumping",
            "process injection",
        ]

    def test_collect_distinct(self, engine):
        rows = engine.run(
            "MATCH (a:ThreatActor)-[:USES]->(t) "
            "RETURN collect(DISTINCT t.name) AS techniques"
        )
        assert sorted(rows[0]["techniques"]) == [
            "credential dumping",
            "process injection",
            "spearphishing attachment",
        ]

    def test_collect_over_empty_match(self, engine):
        rows = engine.run(
            'MATCH (a {name: "nope"})-[:USES]->(t) RETURN collect(t.name) AS ts'
        )
        assert rows[0]["ts"] == []

    def test_count_over_empty_match_is_zero(self, engine):
        rows = engine.run(
            'MATCH (a {name: "nope"})-[:USES]->(t) RETURN count(t) AS c'
        )
        assert rows[0]["c"] == 0

    def test_collect_in_where_rejected(self, engine):
        with pytest.raises(CypherRuntimeError):
            engine.run("MATCH (n) WHERE collect(n) RETURN n")

    def test_count_distinct(self, engine):
        rows = engine.run(
            "MATCH (a:ThreatActor)-[:USES]->(t) RETURN count(DISTINCT t) AS n"
        )
        assert rows[0]["n"] == 3

    def test_order_skip_limit(self, engine):
        rows = engine.run(
            "MATCH (t:Technique) RETURN t.name ORDER BY t.name SKIP 1 LIMIT 1"
        )
        assert [r["t.name"] for r in rows] == ["process injection"]

    def test_order_desc(self, engine):
        rows = engine.run("MATCH (m:Malware) RETURN m.name ORDER BY m.year DESC")
        assert [r["m.name"] for r in rows] == ["wannacry", "emotet"]

    def test_distinct_rows(self, engine):
        rows = engine.run(
            "MATCH (a:ThreatActor)-[:USES]->(t) RETURN DISTINCT a.name ORDER BY a.name"
        )
        assert [r["a.name"] for r in rows] == ["cozyduke", "lazarus group"]


class TestVariableLengthPaths:
    @pytest.fixture(scope="class")
    def chain(self):
        graph = PropertyGraph()
        ids = {}
        for name in "abcdef":
            ids[name] = graph.create_node("N", {"name": name}).node_id
        for s, d in [("a", "b"), ("b", "c"), ("c", "d"), ("b", "e")]:
            graph.create_edge(ids[s], "R", ids[d])
        return CypherEngine(graph)

    def _names(self, engine, query):
        return sorted(r["x.name"] for r in engine.run(query))

    def test_bounded_range(self, chain):
        assert self._names(
            chain, 'MATCH (n {name: "a"})-[:R*1..2]->(x) RETURN x.name'
        ) == ["b", "c", "e"]

    def test_exact_hops(self, chain):
        assert self._names(
            chain, 'MATCH (n {name: "a"})-[:R*2]->(x) RETURN x.name'
        ) == ["c", "e"]

    def test_unbounded_star(self, chain):
        assert self._names(
            chain, 'MATCH (n {name: "a"})-[:R*]->(x) RETURN x.name'
        ) == ["b", "c", "d", "e"]

    def test_zero_min_includes_self(self, chain):
        assert self._names(
            chain, 'MATCH (n {name: "a"})-[:R*0..1]->(x) RETURN x.name'
        ) == ["a", "b"]

    def test_upper_only(self, chain):
        assert self._names(
            chain, 'MATCH (n {name: "a"})-[:R*..2]->(x) RETURN x.name'
        ) == ["b", "c", "e"]

    def test_reverse_direction(self, chain):
        assert self._names(
            chain, 'MATCH (x)-[:R*1..3]->(n {name: "d"}) RETURN x.name'
        ) == ["a", "b", "c"]

    def test_each_endpoint_once(self, chain):
        rows = chain.run('MATCH (n {name: "a"})-[:R*1..3]->(x) RETURN x.name')
        names = [r["x.name"] for r in rows]
        assert len(names) == len(set(names))

    def test_variable_binding_rejected(self, chain):
        with pytest.raises(CypherSyntaxError):
            chain.run("MATCH (n)-[r:R*1..2]->(x) RETURN x")

    def test_bad_range_rejected(self, chain):
        with pytest.raises(CypherSyntaxError):
            chain.run("MATCH (n)-[:R*3..1]->(x) RETURN x")


class TestCreate:
    def test_create_node_and_edge(self):
        engine = journaled_engine()
        graph = engine.graph
        engine.run(
            'CREATE (a:Malware {name: "x"})-[:DROPS]->(b:FileName {name: "y.exe"})'
        )
        assert graph.node_count == 2
        assert graph.edge_count == 1
        assert graph.edges().__next__().type == "DROPS"

    def test_create_reuses_variable(self):
        engine = journaled_engine()
        graph = engine.graph
        engine.run(
            'CREATE (a:X {name: "a"})-[:R]->(b:Y {name: "b"}), (a)-[:R]->(c:Y {name: "c"})'
        )
        assert graph.node_count == 3
        assert graph.edge_count == 2

    def test_create_without_a_database_raises(self):
        """An engine on a bare graph only reads: the database is the
        graph's one writer."""
        graph = PropertyGraph()
        graph.create_node("Malware", {"name": "x"})
        version = graph.version
        engine = CypherEngine(graph)
        with pytest.raises(CypherRuntimeError, match="CREATE needs a database"):
            engine.run('CREATE (a:Malware {name: "y"})')
        assert (graph.node_count, graph.version) == (1, version)
        assert [r["m.name"] for r in engine.run("MATCH (m:Malware) RETURN m.name")] == [
            "x"
        ]

    @pytest.mark.parametrize("rel", ["-[:DROPS*1..3]->", "-[:DROPS]-"])
    def test_create_writes_nothing_it_was_not_asked_to(self, rel):
        """One edge, one way, or a syntax error -- which strict=False
        cannot skip -- and an untouched graph."""
        graph = PropertyGraph()
        query = f"CREATE (a:Malware {{name: 'q'}}){rel}(b:FileName {{name: 'v'}})"
        with pytest.raises(CypherSyntaxError):
            CypherEngine(graph).run(query, strict=False)
        assert (graph.node_count, graph.edge_count) == (0, 0)


class TestReturnedValuesAreCopies:
    """A list property read into a row -- bare or inside ``collect`` --
    is the row's own: a caller mutating it changes neither the stored
    node nor the graph version, on every path a row leaves by."""

    QUERIES = {
        "property": ("MATCH (m:Malware) RETURN m.aliases AS a", lambda a: a),
        "collect": ("MATCH (m:Malware) RETURN collect(m.aliases) AS a", lambda a: a[0]),
    }
    PATHS = {
        "task": lambda engine, q: engine.task(q).run_to_completion(),
        "run-miss": lambda engine, q: engine.run(q),
        "run_paginated": lambda engine, q: engine.run_paginated(q, 1).rows,
    }

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("shape", QUERIES)
    def test_mutating_a_returned_list_changes_nothing(self, path, shape):
        graph = PropertyGraph()
        node = graph.create_node("Malware", {"name": "emotet", "aliases": ["geodo"]})
        version = graph.version
        query, aliases_of = self.QUERIES[shape]
        rows = self.PATHS[path](CypherEngine(graph), query)
        aliases_of(rows[0]["a"]).append("forged")
        assert node.properties["aliases"] == ["geodo"]
        assert graph.version == version
        assert CypherEngine(graph).run(query)[0]["a"] != rows[0]["a"]


class TestErrors:
    def test_syntax_error(self, engine):
        with pytest.raises(CypherSyntaxError):
            engine.run("MATCH (n RETURN n")
        with pytest.raises(CypherSyntaxError):
            engine.run("FROB (n) RETURN n")
        with pytest.raises(CypherSyntaxError):
            engine.run("MATCH (n) RETURN n; DROP")

    def test_unbound_variable(self, engine):
        with pytest.raises(CypherRuntimeError):
            engine.run("MATCH (n) RETURN m.name")

    def test_count_in_where_rejected(self, engine):
        with pytest.raises(CypherRuntimeError):
            engine.run("MATCH (n) WHERE count(n) > 1 RETURN n")

    #: what the lexer and parser say about junk, offsets included: the
    #: analyzer's carets and the UI's 400 bodies quote these verbatim
    SYNTAX_ERRORS = {
        "": "query must start with MATCH or CREATE",
        "MATCH": "expected '(' at offset 5, found ''",
        "MATCH (n": "expected ')' at offset 8, found ''",
        "MATCH (n) RETURN": "unexpected token '' at offset 16",
        "MATCH (n) RETURN n ORDER n": "expected 'BY' at offset 25, found 'n'",
        "MATCH (n) RETURN n LIMIT x": "expected 'number' at offset 25, found 'x'",
        "MATCH (n) WHERE RETURN n": "unexpected token 'RETURN' at offset 16",
        "MATCH (n)-[:X]>(m) RETURN n": "expected '-' at offset 14, found '>'",
        "MATCH (n {name: })  RETURN n": "expected a literal at offset 16, found '}'",
        "MATCH (n) RETURN n; DROP": "unexpected character ';' at offset 18",
        "MATCH (n) RETURN n ~": "unexpected character '~' at offset 19",
        "MATCH (n) RETURN 'open": "unexpected character \"'\" at offset 17",
        "MATCH (n) RETURN n.": "expected a name at offset 19, found ''",
        "MATCH (n:) RETURN n": "expected a name at offset 9, found ')'",
        "MATCH (n) RETURN avg": "unexpected token 'AVG' at offset 17",
        "MATCH (n) RETURN count(*": "expected ')' at offset 24, found ''",
        "MATCH (n) RETURN n extra": "expected 'eof' at offset 19, found 'extra'",
        "MATCH (n) WHERE n.x IS 5 RETURN n": "expected 'NULL' at offset 23, found '5'",
        "MATCH (n)-[:X*1.]->(m) RETURN n": "expected '.' at offset 16, found ']'",
        "CREATE (a)-[:X*1..3]->(b)":
            "CREATE cannot write a variable-length relationship at offset 14",
        "CREATE (a)-[:X]-(b)": "CREATE needs a directed relationship at offset 10",
    }

    @pytest.mark.parametrize("query", sorted(SYNTAX_ERRORS))
    def test_syntax_error_messages_and_offsets(self, engine, query):
        with pytest.raises(CypherSyntaxError) as error:
            engine.run(query)
        assert str(error.value) == self.SYNTAX_ERRORS[query]

    def test_tokens_carry_type_value_and_offset(self):
        from repro.graphdb.cypher.lexer import TokenType, tokenize

        tokens = tokenize('match (n {k: "a\\"b"}) return n.k <= 1.5')
        assert [(t.type, t.value, t.position) for t in tokens] == [
            (TokenType.KEYWORD, "MATCH", 0), (TokenType.SYMBOL, "(", 6),
            (TokenType.IDENT, "n", 7), (TokenType.SYMBOL, "{", 9),
            (TokenType.IDENT, "k", 10), (TokenType.SYMBOL, ":", 11),
            (TokenType.STRING, 'a"b', 13), (TokenType.SYMBOL, "}", 19),
            (TokenType.SYMBOL, ")", 20), (TokenType.KEYWORD, "RETURN", 22),
            (TokenType.IDENT, "n", 29), (TokenType.SYMBOL, ".", 30),
            (TokenType.IDENT, "k", 31), (TokenType.SYMBOL, "<=", 33),
            (TokenType.NUMBER, "1.5", 36), (TokenType.EOF, "", 39),
        ]
