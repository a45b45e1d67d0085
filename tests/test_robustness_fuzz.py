"""Fuzz / failure-injection tests: nothing user-facing may crash.

The collection stage feeds arbitrary web bytes into the HTML parser,
arbitrary strings into the tokenizer/IOC recognisers and the search
analyzer, and user-typed queries into the Cypher engine.  All of these
must degrade gracefully -- reject with a typed error or return empty
results -- never raise an unexpected exception.
"""

import base64
import json
from urllib.parse import urlencode

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graphdb import CypherRuntimeError, CypherEngine, PropertyGraph
from repro.graphdb.cypher.lexer import CypherSyntaxError
from repro.htmlparse import parse
from repro.nlp.ioc import find_iocs
from repro.nlp.pos import tag
from repro.nlp.tokenize import tokenize_sentences
from repro.search import SearchIndex, analyze
from repro.ui.server import ROUTES

_HTMLISH = st.text(
    alphabet=st.sampled_from(list("<>/='\"abc &;#!-\n\t")), max_size=120
)


class TestHtmlParserNeverCrashes:
    @given(_HTMLISH)
    @settings(max_examples=200, deadline=None)
    @example("<")
    @example("</>")
    @example("<a b=c")
    @example("<!-- unterminated")
    @example("<script>never closed")
    @example("<p><table><p></table>")
    @example("&unknown; &#xZZ;")
    def test_parse_any_bytes(self, markup):
        document = parse(markup)
        # text extraction and selection must also be safe
        document.text()
        document.select("a, p, [href]")

    def test_deeply_nested(self):
        markup = "<div>" * 300 + "x" + "</div>" * 300
        assert "x" in parse(markup).text()

    def test_huge_attribute(self):
        markup = f'<a href="{"y" * 10000}">x</a>'
        (anchor,) = parse(markup).select("a")
        assert len(anchor.get("href")) == 10000


class TestNlpNeverCrashes:
    @given(st.text(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_tokenize_any_text(self, text):
        for sentence in tokenize_sentences(text):
            tag(sentence.tokens)

    @given(st.text(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_find_iocs_any_text(self, text):
        for match in find_iocs(text):
            assert text[match.start : match.end] == match.text

    @given(st.text(max_size=120))
    @settings(max_examples=100, deadline=None)
    def test_analyze_any_text(self, text):
        terms = analyze(text)
        assert all(isinstance(term, str) and term for term in terms)


class TestCypherErrorsAreTyped:
    GRAPH = PropertyGraph()

    @given(
        st.text(
            alphabet=st.sampled_from(list("MATCHRETURNWHERE()[]{}<>=-*.,:\"' naz19")),
            max_size=60,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_garbage_queries_raise_typed_errors(self, query):
        engine = CypherEngine(self.GRAPH)
        try:
            engine.run(query)
        except (CypherSyntaxError, CypherRuntimeError):
            pass  # the contract: typed, catchable errors only

    def test_pathological_but_valid(self):
        graph = PropertyGraph()
        a = graph.create_node("N", {"name": "a"})
        graph.create_edge(a.node_id, "R", a.node_id)  # self-loop
        engine = CypherEngine(graph)
        rows = engine.run("MATCH (x)-[:R]->(x) RETURN x.name")
        assert [r["x.name"] for r in rows] == ["a"]
        # variable-length over a self-loop must terminate
        rows = engine.run("MATCH (x)-[:R*1..3]->(y) RETURN count(*) AS c")
        assert rows[0]["c"] == 0  # node-distinct paths exclude the start


class TestSearchIndexRobustness:
    @given(st.text(max_size=60), st.text(max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_any_document_any_query(self, body, query):
        index = SearchIndex()
        index.add("d", {"body": body})
        for hit in index.search(query):
            assert hit.doc_id == "d"
        index.phrase_search(query)

    def test_remove_unknown_doc(self):
        assert SearchIndex().remove("nope") is False


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)
#: tokens that decode as far as a JSON document: the right keys with
#: values of any type, a missing key, or no object at all
_CURSOR_SHAPED = st.one_of(
    _JSON_VALUES,
    st.fixed_dictionaries(
        {},
        optional={
            "t": st.sampled_from(["public", "partner", "vip"]) | _JSON_VALUES,
            "h": _JSON_VALUES,
            "s": _JSON_VALUES,
        },
    ),
).map(
    lambda document: base64.urlsafe_b64encode(
        json.dumps(document).encode("utf-8")
    ).decode("ascii")
)


class TestFeedCursorsAndEtagsAreHostileInput:
    """Whatever a client sends as ``?cursor=`` and ``If-None-Match``,
    the feed answers 200, 304 or a 400 worded for the client -- never
    an interpreter's own sentence -- and the next well-formed pull is
    none the wiser."""

    ERRORS = {"malformed feed cursor", "cursor belongs to a different feed tier"}

    @pytest.fixture(scope="class")
    def api(self):
        from alias_corpus import alias_batch
        from repro.core.config import SystemConfig
        from repro.core.system import SecurityKG
        from repro.ui.server import ExplorerAPI

        kg = SecurityKG(SystemConfig(connectors=["graph", "search"], clock="virtual"))
        kg.store(alias_batch(0))
        return ExplorerAPI(kg)

    @given(cursor=st.text(max_size=48) | _CURSOR_SHAPED, etag=st.text(max_size=40))
    @settings(max_examples=200, deadline=None)
    @example(cursor="--5", etag="")
    @example(cursor="\u00b2", etag="")  # superscript two: str.isdigit says yes
    @example(cursor="abc", etag="")
    @example(cursor="-", etag="")
    @example(cursor="eyJ0IjoicHVibGljIn0=", etag="")  # {"t":"public"} alone
    def test_only_typed_answers_and_no_side_effects(self, api, cursor, etag):
        expected = api.handle_full("GET", "/feeds/public")
        status, payload, _headers = api.handle_full(
            "GET",
            "/feeds/public?" + urlencode({"cursor": cursor}),
            headers={"If-None-Match": etag},
        )
        assert status in (200, 304, 400)
        if status == 400:
            assert payload["error"] in self.ERRORS
        assert api.handle_full("GET", "/feeds/public") == expected

    def test_well_formed_cursors_still_resolve(self, api):
        _status, _payload, headers = api.handle_full("GET", "/feeds/public")
        for cursor in (headers["X-Feed-Cursor"], "0", "-5"):
            status, payload, _headers = api.handle_full(
                "GET", "/feeds/public?" + urlencode({"cursor": cursor})
            )
            assert status == 200 and payload["mode"] in ("delta", "full")


def _leaves(value, path=()):
    """Paths to every scalar inside a JSON document."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, path + (index,))
    else:
        yield path


def _replaced(document, path, value):
    """A deep copy of ``document`` with the leaf at ``path`` swapped."""
    if not path:
        return value
    copy = dict(document) if isinstance(document, dict) else list(document)
    copy[path[0]] = _replaced(document[path[0]], path[1:], value)
    return copy


class TestCypherCursorsAreHostileInput:
    """A Cypher pagination cursor that signs the right plan but holds
    state no operator saved is refused with a 400, whatever leaf of it
    was changed to whatever value -- never an escaped exception."""

    #: one query per operator: scans, both expansions and the counted
    #: one, filter, projection, every aggregate state, order, distinct,
    #: skip and limit
    QUERIES = [
        "MATCH (d:Domain) RETURN d.name",
        "MATCH (r:MalwareReport)-[:MENTIONS]->(m:Malware) RETURN r.name, m.name",
        "MATCH (r)-[:MENTIONS]->(e) RETURN e.name, count(r) AS n",
        "MATCH (r:MalwareReport)-[:MENTIONS*1..2]-(x) RETURN DISTINCT x.name",
        "MATCH (r:MalwareReport) WHERE r.size > 1 "
        "RETURN r.name ORDER BY r.name SKIP 2 LIMIT 9",
        "MATCH (r)-[:MENTIONS]->(m:Malware) RETURN m.name, count(DISTINCT r) AS d, "
        "collect(r.name) AS c, sum(r.size) AS s, avg(r.size) AS a, "
        "min(r.size) AS lo, max(r.name) AS hi",
    ]

    @pytest.fixture(scope="class")
    def api(self):
        from repro.core.config import SystemConfig
        from repro.core.system import SecurityKG
        from repro.ui.server import ExplorerAPI

        kg = SecurityKG(SystemConfig(connectors=["graph"], clock="virtual"))
        graph = kg.graph
        malware = [
            graph.create_node("Malware", {"name": f"mal-{i}"}) for i in range(3)
        ]
        for i in range(12):
            report = graph.create_node(
                "MalwareReport", {"name": f"report-{i:02d}", "size": i % 4}
            )
            graph.create_edge(report.node_id, "MENTIONS", malware[i % 3].node_id)
            graph.create_node("Domain", {"name": f"d{i}.example"})
        return ExplorerAPI(kg)

    @pytest.fixture(scope="class")
    def saved(self, api):
        """``(query, continuation)`` after every slice of every query,
        at a few step budgets: mid-scan, mid-count, mid-fold, mid-emit."""
        from repro.graphdb.cypher.iterators import ExecutionContext

        engine = api.system.shards.cypher
        out = []
        for query in self.QUERIES:
            for steps in (1, 4, 9):
                task = engine.task(
                    query, context=ExecutionContext(steps_per_slice=steps)
                )
                while not task.done:
                    task.step(max_rows=2)
                    continuation = task.save()
                    if continuation is not None:
                        out.append((query, continuation))
        return out

    def test_saved_continuations_cover_a_partial_count(self, saved):
        assert any(
            '"count": 0' not in text and '"count"' in text
            for text in (json.dumps(c) for _q, c in saved)
        )

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_leaf_any_value_answers_200_or_400(self, api, saved, data):
        from repro.ui.server import encode_cursor

        query, continuation = data.draw(st.sampled_from(saved))
        path = data.draw(st.sampled_from(list(_leaves(continuation))))
        value = data.draw(
            st.none() | st.booleans() | st.integers(-10, 10**12)
            | st.floats() | st.text(max_size=4)
        )
        status, payload, _headers = api.handle_full(
            "POST", "/api/cypher",
            {"query": query, "page_size": 3,
             "cursor": encode_cursor(query, _replaced(continuation, path, value))},
        )
        assert status in (200, 400), payload
        if status == 400:
            assert isinstance(payload["error"], str)

    @pytest.mark.parametrize(
        "query,path,value",
        [
            ("MATCH (d:Domain) RETURN d.name", ("state", "child", "after"), "x"),
            (QUERIES[2], ("state", "child", "child", "input"), "x"),
            (QUERIES[2], ("state", "groups", 0, "seen", 0), -5),
        ],
    )
    def test_known_tampering_is_a_typed_400(self, api, query, path, value):
        from repro.ui.server import decode_cursor, encode_cursor

        _status, first = api.handle(
            "POST", "/api/cypher", {"query": query, "page_size": 3}
        )
        continuation = decode_cursor(query, first["cursor"])
        status, payload, _headers = api.handle_full(
            "POST", "/api/cypher",
            {"query": query, "page_size": 3,
             "cursor": encode_cursor(query, _replaced(continuation, path, value))},
        )
        assert (status, payload) == (400, {"error": "malformed continuation"})


class TestRequestBodiesAreHostileInput:
    """Whatever JSON value a client posts -- an object whose keys hold
    values of any type, or no object at all -- every route answers 200,
    400 or 404, never an escaped exception."""

    #: every body key some route reads
    KEYS = (
        "query", "strict", "page_size", "cursor", "id", "x", "y", "size", "seed",
    )
    BODIES = _JSON_VALUES | st.fixed_dictionaries(
        {}, optional={key: st.integers(0, 40) | _JSON_VALUES for key in KEYS}
    )

    @pytest.fixture(scope="class")
    def api(self):
        from alias_corpus import alias_batch
        from repro.core.config import SystemConfig
        from repro.core.system import SecurityKG
        from repro.ui.server import ExplorerAPI

        kg = SecurityKG(SystemConfig(connectors=["graph", "search"], clock="virtual"))
        kg.store(alias_batch(0))
        return ExplorerAPI(kg)

    @given(
        route=st.sampled_from(
            [(method, path.replace("<tier>", "public")) for method, path in ROUTES]
        ),
        body=BODIES,
    )
    @settings(max_examples=300, deadline=None)
    @example(route=("POST", "/api/search"), body=[1, 2])
    @example(route=("POST", "/api/collapse"), body={"id": None})
    @example(
        route=("POST", "/api/cypher"),
        body={"query": "MATCH (n) RETURN n", "page_size": [1]},
    )
    @example(route=("POST", "/api/drag"), body={"id": 1, "x": float("inf"), "y": 0})
    @example(route=("POST", "/api/random"), body={"size": [3]})
    def test_any_body_answers_200_400_or_404(self, api, route, body):
        status, payload, _headers = api.handle_full(*route, body)
        assert status in (200, 400, 404), (route, body, payload)
        if status != 200:
            assert isinstance(payload["error"], str)


class TestEndToEndMalformedSource:
    def test_parser_dispatch_survives_wrong_structure(self):
        """A source serving unexpected markup raises ParserError, which
        the pipeline isolates (stage error), never a crash."""
        from repro.core.parsers import ParserDispatch, ParserError
        from repro.ontology import ReportRecord

        record = ReportRecord(
            report_id="x",
            source="ThreatPedia",  # encyclopedia parser expects its layout
            url="https://threatpedia.example/threats/x",
            pages=["<html><body><p>totally different site design</p></body></html>"],
        )
        with pytest.raises(ParserError):
            ParserDispatch().parse(record)

    def test_pipeline_isolates_parser_error(self):
        from repro.core import Checker, Extractor, ParserDispatch
        from repro.core.pipeline import Pipeline
        from repro.ontology import ReportRecord

        good_html = (
            "<html><head><title>T | ThreatPedia</title></head><body>"
            '<div class="threatpedia-entry" data-category="malware">'
            '<h1 class="threatpedia-title">T</h1>'
            '<div class="threatpedia-meta"><span class="vendor">V</span>'
            '<time datetime="2021-01-01">2021-01-01</time></div>'
            '<p class="threatpedia-summary">A malware threat report about '
            "ransomware attacks, long enough to pass the checker filters "
            "and include exploit and phishing vocabulary.</p>"
            "</div></body></html>"
        )
        records = [
            ReportRecord("good", "ThreatPedia",
                         "https://threatpedia.example/threats/good",
                         pages=[good_html]),
            ReportRecord("bad", "ThreatPedia",
                         "https://threatpedia.example/threats/bad",
                         pages=["<html><body><p>malware exploit threat "
                                "ransomware phishing attack vulnerability "
                                "breach adversary campaign backdoor botnet "
                                "indicator advisory compromise actor"
                                "</p></body></html>"]),
        ]
        checker = Checker()
        parsers = ParserDispatch()
        result = Pipeline(checker.why_rejected, parsers.parse, Extractor()).run(records)
        assert len(result.outputs) == 1
        assert result.outputs[0].report_id == "good"
        assert [name for name, _e in result.errors] == ["parse"]
