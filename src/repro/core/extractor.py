"""Extractor: source-independent knowledge extraction (paper section 2.4).

Extractors "further refine these intermediate CTI representations by
completing some of the fields using entity recognition and relation
extraction"; because the intermediate CTI representation is unified,
one extractor serves every source.

The recogniser is pluggable: the CRF pipeline (the paper's approach),
or the gazetteer/regex baselines for speed and benchmarking.
"""

from __future__ import annotations

from typing import Protocol

from repro.nlp.baselines import GazetteerRecognizer
from repro.nlp.relation import RelationExtractor
from repro.nlp.tokenize import Sentence
from repro.obs import NO_OBS, Obs
from repro.ontology.intermediate import CTIRecord, Mention


class Recognizer(Protocol):
    """Anything that extracts mentions from text (CRF or baselines)."""

    def extract(self, text: str) -> tuple[list[Sentence], list[Mention]]: ...


class Extractor:
    """Fill mentions/relations/IOCs on intermediate CTI representations."""

    def __init__(
        self,
        recognizer: Recognizer | None = None,
        min_confidence: float = 0.3,
        obs: Obs | None = None,
    ):
        self.recognizer = recognizer or GazetteerRecognizer()
        self.relations = RelationExtractor()
        self.min_confidence = min_confidence
        self.obs = obs if obs is not None else NO_OBS

    def extract(self, record: CTIRecord) -> CTIRecord:
        """Refine one record in place (and return it)."""
        text = record.text
        if text.strip():
            metrics = self.obs.metrics
            with self.obs.tracer.span(
                "extract.ner", report=record.report_id
            ) as ner_span:
                sentences, mentions = self.recognizer.extract(text)
                ner_span.set("mentions", len(mentions))
                # token volume drives the NER seconds/token unit cost
                # in the profile layer and the E24 baseline
                ner_span.set(
                    "tokens", sum(len(s.tokens) for s in sentences)
                )
            # one threshold for both consumers: a mention rejected here
            # must not re-enter the graph as a relation endpoint
            mentions = [m for m in mentions if m.confidence >= self.min_confidence]
            existing = {(m.text.lower(), m.type) for m in record.mentions}
            for mention in mentions:
                if mention.type.is_ioc:
                    record.add_ioc(mention.type, mention.text)
                    metrics.inc("extract.iocs", type=mention.type.value)
                    continue
                if (mention.text.lower(), mention.type) not in existing:
                    record.mentions.append(mention)
                    existing.add((mention.text.lower(), mention.type))
                    metrics.inc("extract.entities", type=mention.type.value)
            with self.obs.tracer.span(
                "extract.relation", report=record.report_id
            ) as rel_span:
                before = len(record.relations)
                by_sentence: dict[int, list[Mention]] = {}
                for mention in mentions:
                    by_sentence.setdefault(mention.sentence_index, []).append(mention)
                for index in sorted(by_sentence):
                    record.relations.extend(
                        self.relations.extract_with_mentions(
                            sentences[index].tokens, by_sentence[index], index
                        )
                    )
                rel_span.set("relations", len(record.relations) - before)
            for relation in record.relations[before:]:
                metrics.inc("extract.relations", verb=relation.verb)
        return record


__all__ = ["Extractor", "Recognizer"]
