"""Intermediate pipeline representations.

The processing stage passes two serialisable record types between steps
(paper sections 2.1 and 2.4):

* :class:`ReportRecord` -- the *intermediate report representation*
  produced by porters: raw page content plus bookkeeping metadata
  (id, source, title, original location, timestamps), with multi-page
  reports grouped into one record.
* :class:`CTIRecord` -- the *intermediate CTI representation*: a unified
  schema that "covers relevant and potentially useful information in
  all data sources".  Source-dependent parsers fill the structured
  fields; source-independent extractors refine the unstructured text
  into entity and relation mentions.

Both types round-trip through JSON so that pipeline steps can hand off
work across process or host boundaries (the scalability design of
section 2.1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.ontology.entities import EntityType


@dataclass
class ReportRecord:
    """Intermediate report representation (porter output).

    ``pages`` holds the raw HTML of each page of a multi-page report in
    order; porters group continuation pages under the first page's id.
    """

    report_id: str
    source: str
    url: str
    title: str = ""
    pages: list[str] = field(default_factory=list)
    content_type: str = "text/html"
    fetched_at: float = 0.0
    metadata: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        return {
            "report_id": self.report_id,
            "source": self.source,
            "url": self.url,
            "title": self.title,
            "pages": list(self.pages),
            "content_type": self.content_type,
            "fetched_at": self.fetched_at,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "ReportRecord":
        return cls(
            report_id=str(data["report_id"]),
            source=str(data["source"]),
            url=str(data["url"]),
            title=str(data.get("title", "")),
            pages=[str(p) for p in data.get("pages", [])],  # type: ignore[union-attr]
            content_type=str(data.get("content_type", "text/html")),
            fetched_at=float(data.get("fetched_at", 0.0)),  # type: ignore[arg-type]
            metadata=dict(data.get("metadata", {})),  # type: ignore[arg-type]
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "ReportRecord":
        return cls.from_dict(json.loads(payload))


@dataclass
class Mention:
    """One recognised entity mention in a report's text.

    ``method`` records which extractor produced the mention (``"crf"``,
    ``"regex"``, ``"gazetteer"``, ``"parser"``) for downstream auditing.
    """

    text: str
    type: EntityType
    sentence_index: int = 0
    start: int = 0
    end: int = 0
    confidence: float = 1.0
    method: str = "crf"

    def to_dict(self) -> dict[str, object]:
        return {
            "text": self.text,
            "type": self.type.value,
            "sentence_index": self.sentence_index,
            "start": self.start,
            "end": self.end,
            "confidence": self.confidence,
            "method": self.method,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "Mention":
        return cls(
            text=str(data["text"]),
            type=EntityType(str(data["type"])),
            sentence_index=int(data.get("sentence_index", 0)),  # type: ignore[arg-type]
            start=int(data.get("start", 0)),  # type: ignore[arg-type]
            end=int(data.get("end", 0)),  # type: ignore[arg-type]
            confidence=float(data.get("confidence", 1.0)),  # type: ignore[arg-type]
            method=str(data.get("method", "crf")),
        )


@dataclass
class RelationMention:
    """One extracted <head, verb, tail> triple with its evidence."""

    head_text: str
    head_type: EntityType
    verb: str
    tail_text: str
    tail_type: EntityType
    sentence: str = ""
    sentence_index: int = 0
    confidence: float = 1.0

    def to_dict(self) -> dict[str, object]:
        return {
            "head_text": self.head_text,
            "head_type": self.head_type.value,
            "verb": self.verb,
            "tail_text": self.tail_text,
            "tail_type": self.tail_type.value,
            "sentence": self.sentence,
            "sentence_index": self.sentence_index,
            "confidence": self.confidence,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "RelationMention":
        return cls(
            head_text=str(data["head_text"]),
            head_type=EntityType(str(data["head_type"])),
            verb=str(data["verb"]),
            tail_text=str(data["tail_text"]),
            tail_type=EntityType(str(data["tail_type"])),
            sentence=str(data.get("sentence", "")),
            sentence_index=int(data.get("sentence_index", 0)),  # type: ignore[arg-type]
            confidence=float(data.get("confidence", 1.0)),  # type: ignore[arg-type]
        )


@dataclass
class CTIRecord:
    """Intermediate CTI representation (parser output, extractor-refined).

    Attributes
    ----------
    report_category:
        ``"malware"``, ``"vulnerability"``, ``"attack"`` or ``""`` when
        the parser could not classify the report.
    structured_fields:
        Key/value pairs parsed from the source's structured HTML
        (tables, definition lists) -- e.g. ``{"Type": "Ransomware"}``.
    sections:
        ``(heading, text)`` pairs of the report body in order.
    iocs:
        IOC kind name (``EntityType.value``) -> list of raw IOC strings.
    mentions / relations:
        Filled by the source-independent extractors.
    """

    report_id: str
    source: str
    url: str
    title: str = ""
    vendor: str = ""
    published: str = ""
    report_category: str = ""
    summary: str = ""
    structured_fields: dict[str, str] = field(default_factory=dict)
    sections: list[tuple[str, str]] = field(default_factory=list)
    iocs: dict[str, list[str]] = field(default_factory=dict)
    mentions: list[Mention] = field(default_factory=list)
    relations: list[RelationMention] = field(default_factory=list)
    tags: list[str] = field(default_factory=list)
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def text(self) -> str:
        """The unstructured body text: summary plus all sections."""
        parts = [self.summary] if self.summary else []
        parts.extend(text for _heading, text in self.sections)
        return "\n".join(parts)

    def add_ioc(self, kind: EntityType, value: str) -> None:
        """Record one IOC value under its kind, deduplicating."""
        bucket = self.iocs.setdefault(kind.value, [])
        if value not in bucket:
            bucket.append(value)

    def ioc_values(self, kind: EntityType) -> list[str]:
        """All IOC values of a kind (empty list when none)."""
        return list(self.iocs.get(kind.value, []))

    def to_dict(self) -> dict[str, object]:
        return {
            "report_id": self.report_id,
            "source": self.source,
            "url": self.url,
            "title": self.title,
            "vendor": self.vendor,
            "published": self.published,
            "report_category": self.report_category,
            "summary": self.summary,
            "structured_fields": dict(self.structured_fields),
            "sections": [[heading, text] for heading, text in self.sections],
            "iocs": {kind: list(values) for kind, values in self.iocs.items()},
            "mentions": [mention.to_dict() for mention in self.mentions],
            "relations": [relation.to_dict() for relation in self.relations],
            "tags": list(self.tags),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "CTIRecord":
        return cls(
            report_id=str(data["report_id"]),
            source=str(data["source"]),
            url=str(data["url"]),
            title=str(data.get("title", "")),
            vendor=str(data.get("vendor", "")),
            published=str(data.get("published", "")),
            report_category=str(data.get("report_category", "")),
            summary=str(data.get("summary", "")),
            structured_fields={
                str(k): str(v)
                for k, v in dict(data.get("structured_fields", {})).items()  # type: ignore[arg-type]
            },
            sections=[
                (str(heading), str(text))
                for heading, text in data.get("sections", [])  # type: ignore[union-attr]
            ],
            iocs={
                str(kind): [str(v) for v in values]
                for kind, values in dict(data.get("iocs", {})).items()  # type: ignore[arg-type]
            },
            mentions=[
                Mention.from_dict(m) for m in data.get("mentions", [])  # type: ignore[union-attr]
            ],
            relations=[
                RelationMention.from_dict(r)
                for r in data.get("relations", [])  # type: ignore[union-attr]
            ],
            tags=[str(t) for t in data.get("tags", [])],  # type: ignore[union-attr]
            metadata=dict(data.get("metadata", {})),  # type: ignore[arg-type]
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "CTIRecord":
        return cls.from_dict(json.loads(payload))


__all__ = ["CTIRecord", "Mention", "RelationMention", "ReportRecord"]
