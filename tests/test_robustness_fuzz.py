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
        from repro.core import Checker, ParserDispatch
        from repro.core.pipeline import Pipeline, Stage
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
        result = Pipeline(
            [
                Stage("check", lambda r: r if checker.why_rejected(r) is None else None),
                Stage("parse", parsers.parse),
            ]
        ).run(records)
        assert len(result.outputs) == 1
        assert result.outputs[0].report_id == "good"
        assert [name for name, _e in result.errors] == ["parse"]
