"""Porter: raw crawl output -> intermediate report representations.

Porters "take the input report files and convert them into
intermediate report representations; they group multi-page reports and
add metadata like ids, sources, titles, and original file locations
and timestamps" (paper section 2.4).
"""

from __future__ import annotations

import hashlib
from functools import cached_property

from repro.crawlers.base import RawDocument
from repro.htmlparse import Document, parse
from repro.ontology.intermediate import ReportRecord


def report_id_for(group_url: str) -> str:
    """Deterministic report id from the logical report URL."""
    return "rpt-" + hashlib.sha1(group_url.encode()).hexdigest()[:16]


class ParsedPages:
    """The DOMs of one report's pages, and the text they render to."""

    def __init__(self, documents: list[Document]):
        self.documents = documents

    @classmethod
    def of(cls, record: ReportRecord) -> "ParsedPages":
        return cls([parse(page) for page in record.pages])

    @cached_property
    def text(self) -> str:
        """Every page rendered to text.  Page by page: a document has
        one ``<body>``, so the concatenated pages parsed as one would
        render the first page only."""
        texts = (document.text() for document in self.documents)
        return "\n".join(text for text in texts if text)


def parsed_pages(record: ReportRecord) -> ParsedPages:
    """The pages of ``record`` parsed, once for every stage.

    The porter reads the title from the DOMs, the checker tests their
    text and the source parser selects from them, so they ride on the
    record instance from the first reader to the last
    (:func:`take_parsed_pages`).  They are keyed by the instance, not
    by the markup: a cycle ports every report, then checks every
    report, then parses them, so a bounded markup cache would have
    evicted a page before its next reader came.  The memo is no
    dataclass field; a record rebuilt from its JSON arrives without it
    and rebuilds.
    """
    pages = getattr(record, "_parsed_pages", None)
    if pages is None:
        pages = record._parsed_pages = ParsedPages.of(record)  # type: ignore[attr-defined]
    return pages


def take_parsed_pages(record: ReportRecord) -> ParsedPages:
    """:func:`parsed_pages` for the last reader: the record lets the
    DOMs go, so they are freed when the caller is done with them.

    One atomic ``pop``: benchmarks feed the same record instance
    through a pipeline several times, so two parse workers may be
    taking from one record at once.
    """
    pages = record.__dict__.pop("_parsed_pages", None)
    return pages if pages is not None else ParsedPages.of(record)


class Porter:
    """Group raw pages into per-report records with metadata."""

    def port(self, documents: list[RawDocument]) -> list[ReportRecord]:
        """Group a batch of raw pages by report and build records.

        Pages are ordered by page number within each report; the title
        comes from the first page's ``<title>``; the earliest fetch
        timestamp wins.  Each record leaves with its pages' DOMs (see
        :func:`parsed_pages`): the crawl engine's where it left them,
        fresh ones otherwise.
        """
        by_group: dict[str, list[RawDocument]] = {}
        order: list[str] = []
        for document in documents:
            if document.group_url not in by_group:
                order.append(document.group_url)
            by_group.setdefault(document.group_url, []).append(document)

        records: list[ReportRecord] = []
        for group_url in order:
            pages = sorted(by_group[group_url], key=lambda d: d.page_no)
            first = pages[0]
            documents = [page.take_document() for page in pages]
            title = documents[0].title
            # strip the site-name suffix the renderer appends
            if "|" in title:
                title = title.rsplit("|", 1)[0].strip()
            record = ReportRecord(
                report_id=report_id_for(group_url),
                source=first.source,
                url=group_url,
                title=title,
                pages=[page.html for page in pages],
                fetched_at=min(page.fetched_at for page in pages),
                metadata={
                    "page_count": len(pages),
                    "page_urls": [page.url for page in pages],
                },
            )
            record._parsed_pages = ParsedPages(documents)  # type: ignore[attr-defined]
            records.append(record)
        return records


__all__ = [
    "ParsedPages",
    "Porter",
    "parsed_pages",
    "report_id_for",
    "take_parsed_pages",
]
