"""Unit tests for porter, checker, parsers and extractor."""

import dataclasses

import pytest

import repro.htmlparse.dom as htmlparse_dom
from repro import SecurityKG, SystemConfig
from repro.core.checker import (
    Checker,
    check_non_empty,
    check_not_ad,
    check_security_signal,
    make_min_text_check,
)
from repro.core.extractor import Extractor
from repro.core.parsers import ParserDispatch, ParserError, classify_category
from repro.core.porter import Porter, report_id_for
from repro.crawlers import CrawlEngine, Fetcher, build_all_crawlers
from repro.crawlers.base import RawDocument
from repro.ontology import CTIRecord, EntityType, ReportRecord
from repro.websim import SimulatedTransport


@pytest.fixture(scope="module")
def crawl_documents(small_web):
    """Raw documents from three sources, one per distinct family."""
    crawlers = build_all_crawlers(["ThreatPedia", "SecureListing", "NVD Shadow"])
    engine = CrawlEngine(
        crawlers, Fetcher(SimulatedTransport(small_web, time_scale=0.0)), num_threads=4
    )
    return engine.crawl().documents


@pytest.fixture(scope="module")
def ported(crawl_documents):
    return Porter().port(crawl_documents)


class TestPorter:
    def test_groups_multipage_reports(self, crawl_documents, ported):
        continuations = [d for d in crawl_documents if d.page_no == 2]
        assert continuations, "encyclopedia source should have page-2 docs"
        multi = [r for r in ported if len(r.pages) == 2]
        assert len(multi) == len(continuations)

    def test_metadata_fields(self, ported):
        record = ported[0]
        assert record.report_id.startswith("rpt-")
        assert record.source
        assert record.url.startswith("https://")
        assert record.title and "|" not in record.title
        assert record.metadata["page_count"] == len(record.pages)

    def test_report_id_deterministic(self):
        assert report_id_for("https://x/1") == report_id_for("https://x/1")
        assert report_id_for("https://x/1") != report_id_for("https://x/2")

    def test_pages_ordered(self):
        docs = [
            RawDocument("u?page=2", "s", "<html>2</html>", 1.0, "u", 2),
            RawDocument("u", "s", "<html><title>t</title>1</html>", 2.0, "u", 1),
        ]
        (record,) = Porter().port(docs)
        assert record.pages[0].endswith("1</html>")
        assert record.fetched_at == 1.0


class TestChecker:
    def _record(self, html: str) -> ReportRecord:
        return ReportRecord("id", "src", "url", pages=[html])

    def test_empty_rejected(self):
        assert check_non_empty(self._record("")) is not None
        assert check_non_empty(self._record("<p>x</p>")) is None

    def test_min_text(self):
        check = make_min_text_check(50)
        assert check(self._record("<p>short</p>")) is not None
        assert check(self._record("<p>" + "long words here " * 10 + "</p>")) is None

    def test_security_signal(self):
        assert check_security_signal(self._record("<p>cake recipes</p>")) is not None
        assert (
            check_security_signal(self._record("<p>new ransomware strain</p>")) is None
        )

    def test_ad_rejected(self):
        assert check_not_ad(self._record("<p>Buy now! 50% off malware</p>")) is not None

    def test_continuation_pages_are_checked(self):
        """Every page's text counts, not just the first ``<body>``."""
        first = "<html><body><p>Threat overview.</p></body></html>"
        ioc_page = (
            "<html><body><p>The ransomware payload beacons to its "
            "operators every hour.</p></body></html>"
        )
        ad_page = "<html><body><p>Sponsored content: buy now!</p></body></html>"
        record = ReportRecord("id", "src", "url", pages=[first, ioc_page])
        assert make_min_text_check(40)(record) is None
        assert check_security_signal(record) is None
        assert check_not_ad(record) is None
        spam = ReportRecord("id", "src", "url", pages=[first, ad_page])
        assert check_not_ad(spam) == "advertising content"

    def test_filter_report(self, ported):
        report = Checker().filter(ported)
        assert len(report.passed) > 9 * len(report.rejected)
        for _record, reason in report.rejected:
            assert reason

    def test_real_reports_mostly_pass(self, ported):
        checker = Checker()
        passed = [r for r in ported if checker.why_rejected(r) is None]
        assert len(passed) >= len(ported) * 0.9


class TestParsers:
    @pytest.fixture(scope="class")
    def records(self, ported):
        checker = Checker()
        passed = [r for r in ported if checker.why_rejected(r) is None]
        return ParserDispatch().parse_all(passed)

    def test_every_source_parses(self, records):
        sources = {record.source for record in records}
        assert sources == {"ThreatPedia", "SecureListing", "NVD Shadow"}

    def test_titles_and_vendor_extracted(self, records):
        for record in records:
            assert record.title
            assert record.vendor
            assert record.published

    def test_categories_assigned(self, records):
        assert {r.report_category for r in records} <= {
            "malware",
            "vulnerability",
            "attack",
        }
        assert all(r.report_category for r in records)

    def test_encyclopedia_iocs_from_page_two(self, records, small_web):
        ency = [r for r in records if r.source == "ThreatPedia"]
        site = small_web.site_by_name("ThreatPedia")
        for record in ency:
            truth = site.ground_truth(record.url)
            for kind, values in truth.ioc_table.items():
                assert set(record.iocs.get(kind, [])) == set(values), kind

    def test_blog_iocs_from_indicator_list(self, records, small_web):
        blogs = [r for r in records if r.source == "SecureListing"]
        site = small_web.site_by_name("SecureListing")
        for record in blogs:
            truth = site.ground_truth(record.url)
            expected = {v for values in truth.ioc_table.values() for v in values}
            got = {v for values in record.iocs.values() for v in values}
            assert expected <= got

    def test_structured_fields_extracted(self, records, small_web):
        ency = [r for r in records if r.source == "ThreatPedia"][0]
        truth = small_web.site_by_name("ThreatPedia").ground_truth(ency.url)
        for key, value in truth.structured_fields.items():
            assert ency.structured_fields.get(key) == value

    def test_parser_mentions_from_fields(self, records):
        ency = [r for r in records if r.source == "ThreatPedia"][0]
        parser_mentions = [m for m in ency.mentions if m.method == "parser"]
        assert any(m.type == EntityType.MALWARE for m in parser_mentions)

    def test_unknown_source_raises(self):
        record = ReportRecord("id", "NoSuchSite", "url", pages=["<p>x</p>"])
        with pytest.raises(ParserError):
            ParserDispatch().parse(record)

    def test_classify_category_fallback(self):
        assert classify_category("New ransomware hits", "") == "malware"
        assert classify_category("CVE-2021-1 exploited", "") == "vulnerability"
        assert classify_category("Espionage campaign", "spies did things") == "attack"


@pytest.fixture
def tokenizer_calls(monkeypatch):
    """The markup of every ``htmlparse`` tokenizer call, in order."""
    calls: list[str] = []
    tokenize = htmlparse_dom.tokenize

    def counting(markup):
        calls.append(markup)
        return tokenize(markup)

    monkeypatch.setattr(htmlparse_dom, "tokenize", counting)
    return calls


class TestOneDomPerPage:
    """A page is tokenised once, by the first stage that reads it."""

    def _process(self, documents):
        ported = Porter().port(documents)
        passed = Checker().filter(ported).passed
        return ported, ParserDispatch().parse_all(passed)

    def test_port_check_parse_tokenise_each_page_once(
        self, crawl_documents, tokenizer_calls
    ):
        bare = [dataclasses.replace(doc, document=None) for doc in crawl_documents]
        ported, records = self._process(bare)
        assert {len(r.pages) for r in ported} == {1, 2}  # single- and multi-page
        assert records
        assert sorted(tokenizer_calls) == sorted(doc.html for doc in bare)

    def test_the_crawl_engines_doms_are_the_ones_used(
        self, small_web, tokenizer_calls
    ):
        crawlers = build_all_crawlers(["ThreatPedia", "NVD Shadow"])
        transport = SimulatedTransport(small_web, time_scale=0.0)
        crawl = CrawlEngine(crawlers, Fetcher(transport), num_threads=2).crawl()
        assert len(tokenizer_calls) == crawl.pages_fetched
        _ported, records = self._process(crawl.documents)
        assert records
        assert len(tokenizer_calls) == crawl.pages_fetched
        # the porter took them over: the crawl result pins no DOM
        assert all(doc.document is None for doc in crawl.documents)

    def test_run_once_tokenises_each_fetched_page_once(self, tokenizer_calls):
        kg = SecurityKG(
            SystemConfig(
                scenario_count=6,
                reports_per_site=2,
                sources=["ThreatPedia", "SecureListing", "InfoSec Ledger"],
                recognizer="gazetteer",
                connectors=["graph"],
            )
        )
        report = kg.run_once()
        assert report.reports_stored > 0
        assert len(tokenizer_calls) == report.crawl.pages_fetched

    def test_parse_lets_the_doms_go_and_a_second_parse_rebuilds_them(
        self, crawl_documents, tokenizer_calls
    ):
        (record,) = Porter().port(
            [doc for doc in crawl_documents if doc.group_url == crawl_documents[0].group_url]
        )
        dispatch = ParserDispatch()
        first = dispatch.parse(record)
        assert not hasattr(record, "_parsed_pages")
        before = len(tokenizer_calls)
        assert dispatch.parse(record) == first
        assert len(tokenizer_calls) == before + len(record.pages)

    def test_one_record_instance_many_times_in_a_batch(self, crawl_documents):
        """Benchmarks replay a batch of the same instances, so several
        parse workers may take one record's DOMs at the same moment."""
        import sys

        ported = Porter().port(crawl_documents)[:3]
        kg = SecurityKG(
            SystemConfig(recognizer="gazetteer", connectors=["graph"], parse_workers=4)
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            records, result = kg.process(ported * 40)
        finally:
            sys.setswitchinterval(interval)
            kg.close()
        assert not result.errors
        assert len(records) == 120
        assert len({record.to_json() for record in records}) == 3

class TestExtractor:
    def test_extract_fills_mentions_and_iocs(self):
        record = CTIRecord(
            report_id="r",
            source="s",
            url="u",
            summary=(
                "The wannacry ransomware connects to 10.1.2.3 and dropped "
                "tasksche.exe on hosts."
            ),
        )
        Extractor().extract(record)
        texts = {(m.text, m.type) for m in record.mentions}
        assert ("wannacry", EntityType.MALWARE) in texts
        assert "10.1.2.3" in record.ioc_values(EntityType.IP)
        assert "tasksche.exe" in record.ioc_values(EntityType.FILE_NAME)

    def test_extract_finds_relations(self):
        record = CTIRecord(
            report_id="r",
            source="s",
            url="u",
            summary="The wannacry ransomware dropped tasksche.exe on hosts.",
        )
        Extractor().extract(record)
        triples = {(r.head_text, r.verb, r.tail_text) for r in record.relations}
        assert ("wannacry", "drop", "tasksche.exe") in triples

    def test_no_duplicate_mentions_with_parser(self):
        record = CTIRecord(
            report_id="r",
            source="s",
            url="u",
            summary="The wannacry ransomware spread.",
        )
        from repro.ontology import Mention

        record.mentions.append(
            Mention("wannacry", EntityType.MALWARE, method="parser")
        )
        Extractor().extract(record)
        malware_mentions = [
            m for m in record.mentions if m.type == EntityType.MALWARE
        ]
        assert len(malware_mentions) == 1

    def test_rejected_mention_is_no_relation_endpoint(self):
        """A mention under the confidence threshold must not re-enter the
        graph through its relation: one filter feeds both consumers."""
        from repro.nlp.baselines import GazetteerRecognizer
        from repro.ontology.refactor import refactor_record

        class ShakyRecognizer(GazetteerRecognizer):
            """The gazetteer's mentions, the malware one at 0.1 confidence."""

            def extract(self, text):
                sentences, mentions = super().extract(text)
                for mention in mentions:
                    if mention.type == EntityType.MALWARE:
                        mention.confidence = 0.1
                return sentences, mentions

        def extracted(recognizer):
            record = CTIRecord(
                report_id="r", source="s", url="u",
                summary="The wannacry ransomware dropped tasksche.exe on hosts.",
            )
            return Extractor(recognizer=recognizer).extract(record)

        kept = extracted(GazetteerRecognizer())
        assert ("wannacry", "drop", "tasksche.exe") in {
            (r.head_text, r.verb, r.tail_text) for r in kept.relations
        }
        record = extracted(ShakyRecognizer())
        assert "wannacry" not in {m.text for m in record.mentions}
        assert record.relations == []
        assert "tasksche.exe" in record.ioc_values(EntityType.FILE_NAME)
        delta = refactor_record(record)
        assert "wannacry" not in {entity.name for entity in delta.entities}
        assert all(
            "wannacry" not in (relation.head.name, relation.tail.name)
            for relation in delta.relations
        )

    def test_empty_text_is_noop(self):
        record = CTIRecord(report_id="r", source="s", url="u")
        Extractor().extract(record)
        assert record.mentions == []
