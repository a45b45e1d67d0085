"""Inverted index with BM25 ranking.

The Elasticsearch substitute behind the UI's keyword search (paper
section 2.6): documents with typed fields, an inverted index with
positions (for phrase queries), Okapi BM25 scoring with per-field
boosts, boolean AND/OR semantics and filters.  The index has no file
format of its own: :class:`SearchIndexParticipant` journals its deltas
through the storage engine.
"""

from __future__ import annotations

import json
import math
import threading
from collections import Counter
from dataclasses import dataclass, field

from repro.runtime import memoised, named_lock
from repro.search.analyzer import analyze, analyze_query

#: Okapi BM25 term-frequency saturation and length normalisation.
BM25_K1 = 1.5
BM25_B = 0.75


@dataclass
class SearchHit:
    """One ranked result."""

    doc_id: str
    score: float
    fields: dict[str, str] = field(default_factory=dict)


@dataclass(slots=True)
class _Posting:
    doc_id: str
    field: str
    positions: list[int]
    text: str | None = None  # [doc_id, field, positions] as JSON

    def encoded(self) -> str:
        if self.text is None:
            self.text = json.dumps([self.doc_id, self.field, self.positions])
        return self.text


class SearchIndex:
    """BM25 inverted index over documents with string fields.

    Parameters
    ----------
    field_boosts:
        Score multipliers per field (title hits matter more than body
        hits).  Unlisted fields get boost 1.0.
    """

    def __init__(self, field_boosts: dict[str, float] | None = None):
        self.field_boosts = dict(field_boosts or {"title": 2.5, "name": 3.0})
        self._postings: dict[str, list[_Posting]] = {}
        self._documents: dict[str, dict[str, str]] = {}
        self._doc_lengths: dict[tuple[str, str], int] = {}  # (doc, field) -> terms
        self._field_totals: dict[str, int] = {}
        # Counters a query reads instead of counting postings, kept in
        # step by add()/remove() and derived again by restore_state():
        # documents having each field, documents containing each term,
        # and each document's distinct terms (what remove() visits).
        self._field_docs: dict[str, int] = {}
        self._doc_freq: dict[str, int] = {}
        self._doc_terms: dict[str, list[str]] = {}
        # doc id -> snapshot encoding (to_state_text), dropped by remove()
        self._doc_texts: dict[str, tuple[str, str]] = {}
        # Re-entrant: add() re-indexes an existing document by calling
        # remove() while already holding the lock.
        self._lock = named_lock("search.index", reentrant=True)

    # -- indexing --------------------------------------------------------

    def add(self, doc_id: str, fields: dict[str, str]) -> None:
        """Index (or re-index) one document."""
        with self._lock:
            if doc_id in self._documents:
                self.remove(doc_id)
            self._documents[doc_id] = dict(fields)
            doc_terms: dict[str, object] = {}  # an ordered set: keys only
            for field_name, text in fields.items():
                terms = analyze(text)
                self._doc_lengths[(doc_id, field_name)] = len(terms)
                self._field_totals[field_name] = (
                    self._field_totals.get(field_name, 0) + len(terms)
                )
                self._field_docs[field_name] = self._field_docs.get(field_name, 0) + 1
                by_term: dict[str, list[int]] = {}
                for position, term in enumerate(terms):
                    by_term.setdefault(term, []).append(position)
                for term, positions in by_term.items():
                    self._postings.setdefault(term, []).append(
                        _Posting(doc_id, field_name, positions)
                    )
                doc_terms.update(by_term)
            for term in doc_terms:
                self._doc_freq[term] = self._doc_freq.get(term, 0) + 1
            self._doc_terms[doc_id] = list(doc_terms)

    def remove(self, doc_id: str) -> bool:
        """Drop a document from the index; returns whether it existed."""
        with self._lock:
            fields = self._documents.pop(doc_id, None)
            if fields is None:
                return False
            self._doc_texts.pop(doc_id, None)
            for term in self._doc_terms.pop(doc_id):
                remaining = [p for p in self._postings[term] if p.doc_id != doc_id]
                if remaining:
                    self._postings[term] = remaining
                    self._doc_freq[term] -= 1
                else:
                    del self._postings[term], self._doc_freq[term]
            for field_name in fields:
                length = self._doc_lengths.pop((doc_id, field_name))
                if self._field_docs[field_name] > 1:
                    self._field_docs[field_name] -= 1
                    self._field_totals[field_name] -= length
                else:  # the field's last document: leave no zero behind
                    del self._field_docs[field_name], self._field_totals[field_name]
            return True

    @property
    def doc_count(self) -> int:
        return len(self._documents)

    def document(self, doc_id: str) -> dict[str, str] | None:
        return self._documents.get(doc_id)

    # -- scoring -----------------------------------------------------------

    def search(
        self,
        query: str,
        limit: int = 10,
        mode: str = "or",
        filters: dict[str, str] | None = None,
    ) -> list[SearchHit]:
        """BM25-ranked search.

        ``mode='and'`` requires every query term; ``filters`` restrict
        results to documents whose stored field equals a value exactly.
        """
        with self._lock:
            terms = analyze_query(query)
            if not terms:
                return []
            # First-occurrence order, not set order: a document's score
            # is a float sum over terms, and set order follows the
            # process's string hash seed.
            unique_terms = dict.fromkeys(terms)
            scores: dict[str, float] = {}
            matched_terms: dict[str, set[str]] = {}
            n_docs = len(self._documents)
            averages = {
                field_name: self._field_totals[field_name] / docs
                for field_name, docs in self._field_docs.items()
            }
            for term in unique_terms:
                containing = self._doc_freq.get(term)
                if containing is None:
                    continue
                idf = math.log(1 + (n_docs - containing + 0.5) / (containing + 0.5))
                for posting in self._postings[term]:
                    frequency = len(posting.positions)
                    avg = averages[posting.field]
                    length = self._doc_lengths[(posting.doc_id, posting.field)]
                    denom = frequency + BM25_K1 * (
                        1 - BM25_B + BM25_B * length / max(avg, 1e-9)
                    )
                    boost = self.field_boosts.get(posting.field, 1.0)
                    scores[posting.doc_id] = scores.get(posting.doc_id, 0.0) + (
                        idf * frequency * (BM25_K1 + 1) / denom * boost
                    )
                    matched_terms.setdefault(posting.doc_id, set()).add(term)

            hits = []
            for doc_id, score in scores.items():
                if mode == "and" and len(matched_terms[doc_id]) != len(unique_terms):
                    continue
                fields = self._documents[doc_id]
                if filters and any(
                    fields.get(k) != v for k, v in filters.items()
                ):
                    continue
                hits.append(SearchHit(doc_id=doc_id, score=score, fields=fields))
            hits.sort(key=lambda h: (-h.score, h.doc_id))
            return hits[:limit]

    def phrase_search(self, phrase: str, limit: int = 10) -> list[SearchHit]:
        """Documents containing the exact term sequence in one field."""
        with self._lock:
            terms = analyze_query(phrase)
            if not terms:
                return []
            # each following term's positions, by the field they are in
            following = [
                {(p.doc_id, p.field): p.positions for p in self._postings.get(term, ())}
                for term in terms[1:]
            ]
            hits = []
            for first in self._postings.get(terms[0], ()):
                key = (first.doc_id, first.field)
                starts = set(first.positions)
                for offset, positions_by_field in enumerate(following, start=1):
                    positions = set(positions_by_field.get(key, ()))
                    starts = {pos for pos in starts if pos + offset in positions}
                    if not starts:
                        break
                if starts:
                    hits.append(
                        SearchHit(
                            doc_id=first.doc_id,
                            score=float(len(starts)),
                            fields=self._documents[first.doc_id],
                        )
                    )
            hits.sort(key=lambda h: (-h.score, h.doc_id))
            # one hit per doc (a phrase may occur in several fields)
            seen: set[str] = set()
            unique = [h for h in hits if not (h.doc_id in seen or seen.add(h.doc_id))]
            return unique[:limit]

    # -- snapshot state -------------------------------------------------------

    def clear(self) -> None:
        """Drop every document and posting."""
        with self._lock:
            self._postings.clear()
            self._documents.clear()
            self._doc_lengths.clear()
            self._field_totals.clear()
            self._field_docs.clear()
            self._doc_freq.clear()
            self._doc_terms.clear()
            self._doc_texts.clear()

    def to_state(self) -> dict:
        """JSON-safe serialisation of documents + postings."""
        with self._lock:
            return {
                "documents": self._documents,
                "postings": {
                    term: [[p.doc_id, p.field, p.positions] for p in postings]
                    for term, postings in self._postings.items()
                },
                "doc_lengths": [
                    [doc, field_name, length]
                    for (doc, field_name), length in self._doc_lengths.items()
                ],
                "field_totals": self._field_totals,
                "field_boosts": self.field_boosts,
            }

    def to_state_text(self) -> str:
        """``json.dumps(to_state())`` from memoised encodings (doc_lengths
        follows document order: add() and remove() keep both in step)."""
        with self._lock:
            docs = memoised(self._doc_texts, self._documents.items(), self._encode_doc)
            postings = (
                f"{json.dumps(term)}: [{', '.join(p.encoded() for p in term_postings)}]"
                for term, term_postings in self._postings.items()
            )
            return (
                f'{{"documents": {{{", ".join(doc for doc, _ in docs)}}}, '
                f'"postings": {{{", ".join(postings)}}}, "doc_lengths": '
                f'[{", ".join(items for _, items in docs if items)}], '
                f'"field_totals": {json.dumps(self._field_totals)}, '
                f'"field_boosts": {json.dumps(self.field_boosts)}}}'
            )

    def _encode_doc(self, doc_id: str, fields: dict) -> tuple[str, str]:
        lengths = (json.dumps([doc_id, f, self._doc_lengths[(doc_id, f)]]) for f in fields)
        return f"{json.dumps(doc_id)}: {json.dumps(fields)}", ", ".join(lengths)

    def restore_state(self, data: dict) -> None:
        """Replace this index's contents with a :meth:`to_state` payload."""
        with self._lock:
            self.field_boosts = dict(
                data.get("field_boosts") or self.field_boosts
            )
            self._documents = {k: dict(v) for k, v in data["documents"].items()}
            self._postings = {
                term: [_Posting(doc_id, field_name, list(positions))
                       for doc_id, field_name, positions in postings]
                for term, postings in data["postings"].items()
            }
            self._doc_lengths = {
                (doc, field_name): int(length)
                for doc, field_name, length in data["doc_lengths"]
            }
            self._field_totals = {
                k: int(v) for k, v in data["field_totals"].items()
            }
            self._field_docs = dict(
                Counter(field_name for _doc, field_name in self._doc_lengths)
            )
            doc_terms: dict[str, dict[str, None]] = {doc: {} for doc in self._documents}
            for term, postings in self._postings.items():
                for posting in postings:
                    doc_terms[posting.doc_id][term] = None
            self._doc_terms = {doc: list(terms) for doc, terms in doc_terms.items()}
            self._doc_freq = dict(
                Counter(term for terms in self._doc_terms.values() for term in terms)
            )
            self._doc_texts = {}


class SearchIndexParticipant:
    """The search index's storage-engine adapter.

    Journal ops are incremental document deltas -- ``add`` (doc id +
    full field map) and ``remove`` -- so every pipeline batch's index
    changes are durable the moment the batch commits.
    """

    name = "search"

    def __init__(self) -> None:
        self.index = SearchIndex()

    def apply(self, ops: list[dict]) -> None:
        for op in ops:
            kind = op["op"]
            if kind == "add":
                self.index.add(op["doc_id"], op["fields"])
            elif kind == "remove":
                self.index.remove(op["doc_id"])
            else:  # pragma: no cover - corrupted journal
                raise ValueError(f"unknown search operation {kind!r}")

    def snapshot_data(self) -> dict:
        return self.index.to_state()

    def snapshot_text(self) -> str:
        return self.index.to_state_text()

    def load_snapshot(self, data: dict) -> None:
        self.index.restore_state(data)

    def reset(self) -> None:
        self.index.clear()


__all__ = ["SearchHit", "SearchIndex", "SearchIndexParticipant"]
