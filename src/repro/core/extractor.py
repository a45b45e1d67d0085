"""Extractor: source-independent knowledge extraction (paper section 2.4).

Extractors "further refine these intermediate CTI representations by
completing some of the fields using entity recognition and relation
extraction"; because the intermediate CTI representation is unified,
one extractor serves every source.

The recogniser is pluggable: the CRF pipeline (the paper's approach),
or the gazetteer/regex baselines for speed and benchmarking.
"""

from __future__ import annotations

import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
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
        return self.emit(self.now(), *self.refine(record))

    def now(self) -> float:
        """The tracer's clock (0.0 when nothing is traced)."""
        tracer = self.obs.tracer
        return tracer.clock.now() if tracer.enabled else 0.0

    def refine(self, record: CTIRecord) -> tuple[CTIRecord, tuple | None]:
        """The extraction itself; it touches no tracer, registry or hook,
        so a forked worker runs it as it stands.  Under a live ``obs`` it
        also returns what the report's two spans and three counters
        carry, ``(spans, counts)`` for :meth:`emit`, the seconds read on
        this process's copy of the clock."""
        text = record.text
        if not text.strip():
            return record, None
        began = self.now()
        sentences, mentions = self.recognizer.extract(text)
        ner_seconds = self.now() - began
        found = len(mentions)
        known, before = len(record.mentions), len(record.relations)
        # one threshold for both consumers: a mention rejected here
        # must not re-enter the graph as a relation endpoint
        mentions = [m for m in mentions if m.confidence >= self.min_confidence]
        existing = {(m.text.lower(), m.type) for m in record.mentions}
        for mention in mentions:
            if mention.type.is_ioc:
                record.add_ioc(mention.type, mention.text)
            elif (mention.text.lower(), mention.type) not in existing:
                record.mentions.append(mention)
                existing.add((mention.text.lower(), mention.type))
        began = self.now()
        by_sentence: dict[int, list[Mention]] = {}
        for mention in mentions:
            by_sentence.setdefault(mention.sentence_index, []).append(mention)
        for index in sorted(by_sentence):
            record.relations.extend(
                self.relations.extract_with_mentions(
                    sentences[index].tokens, by_sentence[index], index
                )
            )
        relation_seconds = self.now() - began
        if not self.obs.enabled:
            return record, None
        iocs = [m for m in mentions if m.type.is_ioc]
        entities, added = record.mentions[known:], record.relations[before:]
        counts = [
            *(("extract.iocs", "type", m.type.value) for m in iocs),
            *(("extract.entities", "type", m.type.value) for m in entities),
            *(("extract.relations", "verb", relation.verb) for relation in added),
        ]
        # token volume drives the NER seconds/token unit cost in the
        # profile layer and the E24 baseline
        tokens = sum(len(s.tokens) for s in sentences)
        spans = [
            ("extract.ner", ner_seconds, {"mentions": found, "tokens": tokens}),
            ("extract.relation", relation_seconds, {"relations": len(added)}),
        ]
        return record, (spans, counts)

    def emit(self, began: float, record: CTIRecord, seen: tuple | None) -> CTIRecord:
        """Record what :meth:`refine` saw, here: its spans end to end from
        ``began`` under the calling thread's open span (the stage's
        ``extract``), then its counters -- at every worker count."""
        if seen is not None:
            spans, counts = seen
            for name, seconds, attrs in spans:
                self.obs.tracer.record(
                    name, began, seconds, report=record.report_id, **attrs
                )
                began += seconds
            for name, label, value in counts:
                self.obs.metrics.inc(name, **{label: value})
        return record


def _adopt(extractor: Extractor) -> None:
    global _forked  # bound in a worker process only: its initializer
    _forked = extractor


def _refine_forked(record: CTIRecord) -> tuple[CTIRecord, tuple | None]:
    return _forked.refine(record)


class ExtractorPool:
    """``workers`` forked processes refining records: the system's one
    process boundary (DESIGN.md says why here, and why ``fork``).

    A ``CTIRecord`` goes in and one comes out (with what
    :meth:`Extractor.emit` replays, under a live ``obs``); sentences and
    tokens stay in the child.  The children hold the built extractor and
    its trained CRF by memory, as they were at the fork: in this
    constructor, which the owner calls before it opens a file or starts
    a thread, whose descriptors and held locks a child would inherit.

    A worker that dies breaks the pool for good: the reports in flight
    and every later one fail with ``BrokenProcessPool`` -- typed, never
    a hang -- and the owner must be reopened (forking again would be
    forking beside running threads).
    """

    def __init__(self, extractor: Extractor, workers: int):
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ValueError(f"extract_workers > 1 needs fork; {sys.platform} has none")
        self.extractor = extractor
        self._pool = ProcessPoolExecutor(
            workers, multiprocessing.get_context("fork"), _adopt, (extractor,)
        )
        for warm in [self._pool.submit(int) for _ in range(workers)]:
            warm.result()

    def extract(self, record: CTIRecord) -> CTIRecord:
        """:meth:`Extractor.extract` in a worker: the calling thread waits,
        holding no lock, and re-raises what the worker raised."""
        began = self.extractor.now()
        future = self._pool.submit(_refine_forked, record)
        return self.extractor.emit(began, *future.result())

    def close(self) -> None:
        self._pool.shutdown()


__all__ = ["Extractor", "ExtractorPool", "Recognizer"]
