"""Unit tests for the HTML tokenizer, DOM builder and CSS selectors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htmlparse import (
    SelectorSyntaxError,
    Token,
    TokenKind,
    compile_selector,
    parse,
    select,
    select_one,
    tokenize,
)


class TestTokenizer:
    def test_simple_tags_and_text(self):
        tokens = tokenize("<p>hello</p>")
        assert [t.kind for t in tokens] == [
            TokenKind.START_TAG,
            TokenKind.TEXT,
            TokenKind.END_TAG,
        ]
        assert tokens[1].data == "hello"

    def test_attributes_quoted_unquoted_boolean(self):
        (token,) = tokenize('<a href="/x" class=big disabled data-k=\'v\'>')[:1]
        assert token.attrs == {
            "href": "/x",
            "class": "big",
            "disabled": "",
            "data-k": "v",
        }

    def test_entities_decoded_in_text_and_attrs(self):
        tokens = tokenize('<a title="a&amp;b">x &lt; y</a>')
        assert tokens[0].attrs["title"] == "a&b"
        assert tokens[1].data == "x < y"

    def test_script_content_is_raw(self):
        tokens = tokenize('<script>if (a < b) { x = "<p>"; }</script>')
        assert tokens[1].kind is TokenKind.TEXT
        assert "<p>" in tokens[1].data

    def test_comment_and_doctype(self):
        tokens = tokenize("<!DOCTYPE html><!-- hi --><p>x</p>")
        assert tokens[0].kind is TokenKind.DOCTYPE
        assert tokens[1].kind is TokenKind.COMMENT
        assert tokens[1].data.strip() == "hi"

    def test_self_closing_and_void(self):
        tokens = tokenize("<br/><img src=x>")
        assert tokens[0].self_closing
        assert tokens[1].data == "img"

    def test_gt_inside_quoted_attr(self):
        (token,) = tokenize('<a title="a > b">')[:1]
        assert token.attrs["title"] == "a > b"

    def test_stray_lt_is_text(self):
        tokens = tokenize("1 < 2")
        assert "".join(t.data for t in tokens if t.kind is TokenKind.TEXT) == "1 < 2"

    def test_text_after_raw_text_survives_characters_that_lowercase_longer(self):
        # "İ".lower() is two characters: an offset found in a lowercased
        # copy of the page overshoots the page itself
        markup = (
            "<p>" + "İ" * 12 + "</p><script>x=1;</script>"
            "<p>APT29 used Emotet</p><p>more</p>"
        )
        texts = [t.data for t in tokenize(markup) if t.kind is TokenKind.TEXT]
        assert texts == ["İ" * 12, "x=1;", "APT29 used Emotet", "more"]
        assert "APT29 used Emotet" in parse(markup).text()

    @given(
        page=st.lists(
            st.sampled_from(
                ["<script>", "</script>", "<STYLE>", "</Style >", "<p>", "</p>",
                 "x=1;", "APT29", " ", "<", "İ", "K"]
            ),
            max_size=12,
        ).map("".join),
        prefix=st.text(alphabet="İẞK", min_size=1, max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_prefix_that_lowercases_longer_leaves_the_tokens_alone(
        self, page, prefix
    ):
        wrapped = tokenize(f"<p>{prefix}</p>" + page)
        assert wrapped[:3] == tokenize(f"<p>{prefix}</p>")
        assert wrapped[3:] == tokenize(page)

    @given(st.text(alphabet=st.characters(blacklist_characters="<>"), max_size=50))
    def test_plain_text_round_trips(self, text):
        tokens = tokenize(text)
        joined = "".join(t.data for t in tokens if t.kind is TokenKind.TEXT)
        import html

        assert joined == html.unescape(text)


class TestDom:
    def test_nesting(self):
        doc = parse("<div><p>a</p><p>b</p></div>")
        div = doc.find("div")
        assert [p.inner_text() for p in div.find_all("p")] == ["a", "b"]

    def test_auto_close_li(self):
        doc = parse("<ul><li>one<li>two<li>three</ul>")
        assert [li.inner_text() for li in doc.find_all("li")] == [
            "one",
            "two",
            "three",
        ]

    def test_auto_close_table_cells(self):
        doc = parse("<table><tr><td>a<td>b<tr><td>c</table>")
        assert len(doc.find_all("tr")) == 2
        assert [td.inner_text() for td in doc.find_all("td")] == ["a", "b", "c"]

    def test_misnested_end_tag_dropped(self):
        doc = parse("<div><p>a</b></p></div>")
        assert doc.find("p").inner_text() == "a"

    def test_end_tag_closes_intervening(self):
        doc = parse("<div><span>a</div>b")
        div = doc.find("div")
        assert div.inner_text() == "a"

    def test_title_and_body(self):
        doc = parse("<html><head><title>T</title></head><body>B</body></html>")
        assert doc.title == "T"
        assert doc.body.inner_text() == "B"

    def test_text_skips_script_style(self):
        doc = parse("<body>a<script>var x;</script><style>p{}</style>b</body>")
        assert doc.text() == "ab" or "var" not in doc.text()

    def test_text_block_separation(self):
        doc = parse("<div><p>one</p><p>two</p></div>")
        assert doc.text().splitlines() == ["one", "two"]

    def test_inline_whitespace_collapsed(self):
        doc = parse("<p>a\n   b   <b> c</b></p>")
        assert doc.find("p").inner_text() == "a b c"


class TestSelectors:
    DOC = parse(
        """
        <div id="main" class="wrap">
          <ul class="ioc list">
            <li class="ioc" data-kind="ip"><code>10.0.0.1</code></li>
            <li class="ioc" data-kind="domain"><code>evil.com</code></li>
            <li class="other">not an ioc</li>
          </ul>
          <div class="nested"><span class="ioc">inner</span></div>
          <a href="/threats/wannacry.html">link</a>
        </div>
        """
    )

    def test_tag(self):
        assert len(self.DOC.select("li")) == 3

    def test_class(self):
        assert len(self.DOC.select(".ioc")) == 4

    def test_compound_tag_class(self):
        assert len(self.DOC.select("li.ioc")) == 2

    def test_id(self):
        assert self.DOC.select_one("#main").get("class") == "wrap"

    def test_attr_presence_and_equality(self):
        assert len(self.DOC.select("[data-kind]")) == 2
        (ip,) = self.DOC.select('[data-kind="ip"]')
        assert ip.inner_text() == "10.0.0.1"

    def test_attr_prefix_suffix_contains(self):
        assert self.DOC.select_one("a[href^=/threats]") is not None
        assert self.DOC.select_one("a[href$=.html]") is not None
        assert self.DOC.select_one("a[href*=wannacry]") is not None
        assert self.DOC.select_one("a[href^=/nope]") is None

    def test_descendant_combinator(self):
        assert len(self.DOC.select("ul code")) == 2

    def test_child_combinator(self):
        assert len(self.DOC.select("ul > li")) == 3
        assert len(self.DOC.select("div > span")) == 1
        # code is not a direct child of ul
        assert len(self.DOC.select("ul > code")) == 0

    def test_group(self):
        assert len(self.DOC.select("code, span.ioc")) == 3

    def test_document_order_no_duplicates(self):
        results = self.DOC.select("li, .ioc, code")
        tags = [el.tag for el in results]
        assert len(results) == len(set(id(el) for el in results))
        # the <ul class="ioc list"> precedes its <li> children
        assert tags[0] == "ul"
        assert tags.index("ul") < tags.index("li") < tags.index("code")

    def test_multi_class_element(self):
        assert self.DOC.select_one("ul.ioc.list") is not None

    def test_bad_selector_raises(self):
        with pytest.raises(SelectorSyntaxError):
            self.DOC.select("li[")
        with pytest.raises(SelectorSyntaxError):
            self.DOC.select("li,, p")
        with pytest.raises(SelectorSyntaxError):
            self.DOC.select("> p")


class TestRealWorldShapes:
    def test_definition_list_parsing(self):
        doc = parse("<dl><dt>Severity</dt><dd>high</dd><dt>CVE</dt><dd>CVE-2021-1</dd></dl>")
        keys = [dt.inner_text() for dt in doc.select("dl dt")]
        values = [dd.inner_text() for dd in doc.select("dl dd")]
        assert dict(zip(keys, values)) == {"Severity": "high", "CVE": "CVE-2021-1"}

    def test_pre_preserves_lines(self):
        doc = parse("<pre>line1\nline2</pre>")
        assert "line1" in doc.text() and "line2" in doc.text()


# -- select_one stops at the first match ------------------------------------

FAMILY_SOURCES = [
    "ThreatPedia", "SecureListing", "InfoSec Ledger", "NVD Shadow", "OTX Mirror",
]


@pytest.fixture(scope="module")
def parser_queries(small_web):
    """Every ``(root, selector)`` the five parser families ask of the
    pages of one source each, as the parsers ask them."""
    from repro.core.parsers import ParserDispatch
    from repro.core.porter import Porter
    from repro.crawlers import CrawlEngine, Fetcher, build_all_crawlers
    from repro.htmlparse import selectors
    from repro.websim import SimulatedTransport

    engine = CrawlEngine(
        build_all_crawlers(FAMILY_SOURCES),
        Fetcher(SimulatedTransport(small_web, time_scale=0.0)),
        num_threads=2,
    )
    reports = Porter().port(engine.crawl().documents)
    asked = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("select", "select_one"):
            original = getattr(selectors, name)

            def spy(root, selector, original=original):
                asked.append((root, selector))
                return original(root, selector)

            patch.setattr(selectors, name, spy)
        ParserDispatch().parse_all(reports)
    assert len({selector for _root, selector in asked}) > 25
    return asked


def _vocabulary(roots):
    tags, classes, attrs = set(), set(), set()
    for root in roots:
        for element in root.iter():
            tags.add(element.tag)
            classes.update(element.classes)
            attrs.update(
                (name, value)
                for name, value in element.attrs.items()
                if value and name != "class" and value.isalnum()
            )
    return sorted(tags), sorted(classes), sorted(attrs)


class TestSelectOne:
    @staticmethod
    def first_of_select(root, selector):
        matched = select(root, selector)
        return matched[0] if matched else None

    def test_the_parsers_own_queries(self, parser_queries):
        for root, selector in parser_queries:
            assert select_one(root, selector) is self.first_of_select(root, selector)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_generated_selector_groups(self, parser_queries, data):
        """Comma groups, both combinators and every attribute operator,
        spelled from what the pages really contain (and some they do not)."""
        roots = list({id(root): root for root, _selector in parser_queries}.values())
        tags, classes, attrs = _vocabulary(roots)

        def attribute(pair_op):
            (name, value), op = pair_op
            if not op:
                return f"[{name}]"
            cut = {"^=": value[:2], "$=": value[-2:], "*=": value[1:3]}.get(op, value)
            return f'[{name}{op}"{cut}"]'

        simple = st.builds(
            lambda tag, cls, attr: tag + cls + attr or "*",
            st.sampled_from(tags + ["*", "", "blink"]),
            st.sampled_from([""] + [f".{name}" for name in classes] + [".absent"]),
            st.one_of(
                st.just(""),
                st.tuples(
                    st.sampled_from(attrs), st.sampled_from(["", "=", "^=", "$=", "*="])
                ).map(attribute),
            ),
        )
        chain = st.lists(simple, min_size=1, max_size=3).flatmap(
            lambda parts: st.lists(
                st.sampled_from([" ", " > ", ">"]),
                min_size=len(parts) - 1, max_size=len(parts) - 1,
            ).map(lambda joins: "".join(
                part + join for part, join in zip(parts, joins + [""])
            ))
        )
        selector = data.draw(st.lists(chain, min_size=1, max_size=3).map(", ".join))
        root = data.draw(st.sampled_from(roots))
        assert select_one(root, selector) is self.first_of_select(root, selector)
        assert root.select_one(selector) is select_one(root, selector)

    def test_stops_walking_at_the_first_match(self):
        doc = parse("<div><p id=a>x</p><p>y</p><ul><li>z</li></ul></div>")
        visited = []
        real = type(doc.root).iter_children

        def counting(element):
            visited.append(element.tag)
            return real(element)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(type(doc.root), "iter_children", counting)
            assert doc.select_one("p").get("id") == "a"
        assert "ul" not in visited

    def test_compiled_chains_are_shared_and_immutable(self):
        assert compile_selector("ul > li, a[href]") is compile_selector("ul > li, a[href]")
        assert isinstance(compile_selector("p"), tuple)
