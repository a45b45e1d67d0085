"""Source-dependent parsers (paper section 2.4).

Parsers take "advantage of prior knowledge of the source website
structure", converting intermediate report representations into
intermediate CTI representations by reading the structured HTML:
title, vendor, date, category, fact-sheet fields, body sections, and
IOC appendices.  One parser class per site family; the per-site CSS
prefix is derived exactly as the crawler does it.

Structured fields that name entities ("Threat name", "CVE",
"Associated actor") become parser-method mentions -- extraction from
*structured* fields needs no NLP, which is the point of having
source-dependent parsers at all.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.porter import take_parsed_pages
from repro.htmlparse import Document, Element
from repro.nlp.ioc import classify_ioc
from repro.ontology.entities import EntityType
from repro.ontology.intermediate import CTIRecord, Mention, ReportRecord
from repro.websim.render import site_prefix
from repro.crawlers.sources import CRAWLER_REGISTRY


class ParserError(Exception):
    """The page does not have the structure this parser expects."""


def classify_category(title: str, text: str) -> str:
    """Keyword fallback for sources that do not label their reports."""
    blob = f"{title} {text[:400]}".lower()
    if "cve-" in blob or "vulnerability" in blob or "patch" in blob:
        return "vulnerability"
    if any(w in blob for w in ("ransomware", "trojan", "malware", "worm", "stealer")):
        return "malware"
    return "attack"


def _record_iocs(record: CTIRecord, kind_name: str, values: list[str]) -> None:
    try:
        kind = EntityType(kind_name)
    except ValueError:
        return
    for value in values:
        value = value.strip()
        if value:
            record.add_ioc(kind, value)


class SourceParser:
    """Base parser: shared field handling, family-specific extraction."""

    family: ClassVar[str] = ""

    def __init__(self, source: str):
        self.source = source
        self.prefix = site_prefix(source)

    # -- interface -------------------------------------------------------

    def parse(self, report: ReportRecord) -> CTIRecord:
        record = CTIRecord(
            report_id=report.report_id,
            source=report.source,
            url=report.url,
            title=report.title,
            metadata=dict(report.metadata),
        )
        self._parse_pages(record, take_parsed_pages(report).documents)
        self._mentions_from_fields(record)
        return record

    def _parse_pages(self, record: CTIRecord, documents: list[Document]) -> None:
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------

    def _mentions_from_fields(self, record: CTIRecord) -> None:
        """Entity mentions evidenced by structured fields."""
        threat = record.structured_fields.get("Threat name")
        if threat:
            record.mentions.append(
                Mention(text=threat, type=EntityType.MALWARE, method="parser")
            )
        actor = record.structured_fields.get("Associated actor")
        if actor:
            record.mentions.append(
                Mention(text=actor, type=EntityType.THREAT_ACTOR, method="parser")
            )
        cve = record.structured_fields.get("CVE")
        if cve:
            record.mentions.append(
                Mention(text=cve, type=EntityType.VULNERABILITY, method="parser")
            )
        software = record.structured_fields.get("Affected software")
        if software:
            record.mentions.append(
                Mention(text=software, type=EntityType.SOFTWARE, method="parser")
            )

    def _sections_after_headings(
        self, container: Element, heading_tag: str, para_class: str
    ) -> list[tuple[str, str]]:
        """Group (heading, paragraph-text) pairs in document order."""
        sections: list[tuple[str, str]] = []
        current_heading = ""
        current_texts: list[str] = []

        def flush() -> None:
            nonlocal current_texts
            if current_texts:
                sections.append((current_heading, " ".join(current_texts)))
            current_texts = []

        for element in container.iter():
            if element.tag == heading_tag:
                flush()
                current_heading = element.inner_text()
            elif element.tag == "p" and para_class in element.classes:
                current_texts.append(element.inner_text())
        flush()
        return sections


class EncyclopediaParser(SourceParser):
    """Fact sheet + sections on page 1; IOC tables on page 2."""

    family = "encyclopedia"

    def _parse_pages(self, record: CTIRecord, documents: list[Document]) -> None:
        first = documents[0]
        entry = first.select_one(f"div.{self.prefix}-entry")
        if entry is None:
            raise ParserError(f"{self.source}: missing entry container")
        record.report_category = entry.get("data-category") or "malware"
        title = first.select_one(f"h1.{self.prefix}-title")
        if title is not None:
            record.title = title.inner_text()
        vendor = first.select_one(f"div.{self.prefix}-meta .vendor")
        if vendor is not None:
            record.vendor = vendor.inner_text()
        time_el = first.select_one(f"div.{self.prefix}-meta time")
        if time_el is not None:
            record.published = time_el.get("datetime") or time_el.inner_text()
        summary = first.select_one(f"p.{self.prefix}-summary")
        if summary is not None:
            record.summary = summary.inner_text()

        facts = first.select(f"dl.{self.prefix}-facts dt")
        values = first.select(f"dl.{self.prefix}-facts dd")
        for key_el, value_el in zip(facts, values):
            record.structured_fields[key_el.inner_text()] = value_el.inner_text()

        record.sections = self._sections_after_headings(
            entry, "h2", f"{self.prefix}-para"
        )

        for document in documents[1:]:
            for table in document.select(f"table.{self.prefix}-ioc"):
                kind = table.get("data-kind")
                cells = [td.inner_text() for td in table.find_all("td")]
                _record_iocs(record, kind, cells)


class BlogParser(SourceParser):
    """Article body with an indicator list."""

    family = "blog"

    def _parse_pages(self, record: CTIRecord, documents: list[Document]) -> None:
        document = documents[0]
        post = document.select_one(f"article.{self.prefix}-post")
        if post is None:
            raise ParserError(f"{self.source}: missing post container")
        record.report_category = post.get("data-topic") or classify_category(
            record.title, document.text()
        )
        title = post.find("h1")
        if title is not None:
            record.title = title.inner_text()
        byline = document.select_one("div.byline")
        if byline is not None:
            text = byline.inner_text()
            record.vendor = (
                text.removeprefix("By ").split(" research team", 1)[0].strip()
            )
        date = document.select_one("div.byline span.date")
        if date is not None:
            record.published = date.inner_text()
        lede = document.select_one("p.lede")
        if lede is not None:
            record.summary = lede.inner_text()
        record.sections = self._sections_after_headings(
            post, "h3", f"{self.prefix}-body"
        )
        for item in document.select(f"ul.{self.prefix}-indicators li"):
            code = item.find("code")
            if code is not None:
                _record_iocs(record, item.get("data-kind"), [code.inner_text()])


class NewsParser(SourceParser):
    """Short-form story: headline, dateline, paragraphs; no IOC block."""

    family = "news"

    def _parse_pages(self, record: CTIRecord, documents: list[Document]) -> None:
        document = documents[0]
        story = document.select_one(f"div.{self.prefix}-story")
        if story is None:
            raise ParserError(f"{self.source}: missing story container")
        headline = document.select_one("h1.headline")
        if headline is not None:
            record.title = headline.inner_text()
        dateline = document.select_one("p.dateline")
        if dateline is not None:
            text = dateline.inner_text()
            published, _, vendor = text.partition(" - ")
            record.published = published.strip()
            record.vendor = vendor.strip()
        standfirst = document.select_one("p.standfirst")
        if standfirst is not None:
            record.summary = standfirst.inner_text()
        grafs = [
            p.inner_text() for p in document.select(f"p.{self.prefix}-graf")
        ]
        if grafs:
            record.sections = [("Story", " ".join(grafs))]
        record.report_category = classify_category(record.title, record.text)


class AdvisoryParser(SourceParser):
    """Vulnerability advisory: metadata table + <pre> observables."""

    family = "advisory"

    def _parse_pages(self, record: CTIRecord, documents: list[Document]) -> None:
        document = documents[0]
        main = document.select_one(f"main.{self.prefix}-advisory")
        if main is None:
            raise ParserError(f"{self.source}: missing advisory container")
        record.report_category = main.get("data-category") or "vulnerability"
        title = main.find("h1")
        if title is not None:
            record.title = title.inner_text()
        for row in document.select(f"table.{self.prefix}-meta tr"):
            key = row.find("th")
            value = row.find("td")
            if key is not None and value is not None:
                record.structured_fields[key.inner_text()] = value.inner_text()
        abstract = document.select_one("p.abstract")
        if abstract is not None:
            record.summary = abstract.inner_text()
        record.sections = self._sections_after_headings(
            main, "h2", f"{self.prefix}-text"
        )
        for block in document.select(f"pre.{self.prefix}-iocs"):
            _record_iocs(
                record, block.get("data-kind"), block.text().splitlines()
            )
        record.vendor = record.structured_fields.pop("Reported by", record.vendor)
        record.published = record.structured_fields.pop(
            "Published", record.published
        )


class FeedParser(SourceParser):
    """Aggregator item: key/value list + excerpt."""

    family = "feed"

    def _parse_pages(self, record: CTIRecord, documents: list[Document]) -> None:
        document = documents[0]
        item = document.select_one(f"div.{self.prefix}-item")
        if item is None:
            raise ParserError(f"{self.source}: missing item container")
        record.report_category = item.get("data-category") or classify_category(
            record.title, document.text()
        )
        title = document.select_one(f"h2.{self.prefix}-item-title")
        if title is not None:
            record.title = title.inner_text()
        for field_item in document.select(f"ul.{self.prefix}-fields li"):
            key = field_item.select_one("span.k")
            value = field_item.select_one("span.v")
            if key is not None and value is not None:
                record.structured_fields[key.inner_text()] = value.inner_text()
        lines = [
            p.inner_text() for p in document.select(f"div.{self.prefix}-excerpt p")
        ]
        if lines:
            record.summary = lines[0]
            if len(lines) > 1:
                record.sections = [("Excerpt", " ".join(lines[1:]))]
        src = document.select_one("div.src")
        if src is not None:
            text = src.inner_text().removeprefix("via ")
            vendor, _, published = text.partition(" | ")
            record.vendor = vendor.strip()
            record.published = published.strip()


_PARSER_BY_FAMILY: dict[str, type[SourceParser]] = {
    cls.family: cls
    for cls in (
        EncyclopediaParser,
        BlogParser,
        NewsParser,
        AdvisoryParser,
        FeedParser,
    )
}


class ParserDispatch:
    """Route each report to its source's parser.

    Parsing a structured field value that happens to be an IOC is also
    handled here: bare values in ``structured_fields`` are classified
    and promoted to IOC entries.
    """

    def __init__(self):
        self._parsers: dict[str, SourceParser] = {}

    def parser_for(self, source: str) -> SourceParser:
        parser = self._parsers.get(source)
        if parser is None:
            crawler_class = CRAWLER_REGISTRY.get(source)
            if crawler_class is None:
                raise ParserError(f"no parser registered for source {source!r}")
            parser = _PARSER_BY_FAMILY[crawler_class.family](source)
            self._parsers[source] = parser
        return parser

    def parse(self, report: ReportRecord) -> CTIRecord:
        record = self.parser_for(report.source).parse(report)
        for value in record.structured_fields.values():
            kind = classify_ioc(value)
            if kind is not None and kind.is_ioc:
                record.add_ioc(kind, value)
        return record

    def parse_all(self, reports: list[ReportRecord]) -> list[CTIRecord]:
        return [self.parse(report) for report in reports]


__all__ = [
    "AdvisoryParser",
    "BlogParser",
    "EncyclopediaParser",
    "FeedParser",
    "NewsParser",
    "ParserDispatch",
    "ParserError",
    "SourceParser",
    "classify_category",
]
