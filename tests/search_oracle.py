"""Brute-force search index: the reference ``repro.search`` is tested against.

Independent of the engine on purpose.  The reference analyzer runs the
whole NLP tokenizer -- sentence segmentation, ``Token`` objects with
offsets -- and then picks each token's terms, re-lemmatising every
word, where the engine scans a field once and looks words up in a
map.  The reference index keeps nothing but every document's analysed
fields, in the order the documents were last added, and derives
document frequencies, field averages, BM25 sums, phrase counts and the
snapshot state from them on every call, where the engine maintains
postings and counters incrementally.  Only the float expression of one
posting's contribution and the order of the sum (query terms by first
occurrence, then documents, then fields) are the engine's, so scores
compare by ``repr``.  Small corpora only: a query is O(documents x
fields x terms).
"""

import math
import re

from repro.nlp.ioc import _PATTERNS, IOCMatch
from repro.nlp.lemma import lemmatize
from repro.nlp.tokenize import Token, tokenize_sentences
from repro.search.analyzer import STOPWORDS

_SPLIT_RE = re.compile(r"[\\/@.:_\-]+")


def find_iocs(text: str) -> list[IOCMatch]:
    """Every recogniser run over ``text``, whatever it holds: the nine
    passes ``repro.nlp.ioc.find_iocs`` skips some of."""
    taken: list[tuple[int, int]] = []
    matches: list[IOCMatch] = []
    for kind, _literals, pattern in _PATTERNS:
        for match in pattern.finditer(text):
            start = match.start()
            value = match.group().rstrip(".,;:!?'\")")
            end = start + len(value)
            if value and not any(start < b and end > a for a, b in taken):
                taken.append((start, end))
                matches.append(IOCMatch(start=start, end=end, text=value, type=kind))
    return sorted(matches, key=lambda m: m.start)


def tokenize_words(text: str, protect_iocs: bool = True) -> list[Token]:
    """All tokens of ``text`` regardless of sentence boundaries."""
    return [
        token
        for sentence in tokenize_sentences(text, protect_iocs=protect_iocs)
        for token in sentence.tokens
    ]


def analyze(text: str) -> list[str]:
    """Terms of one text, token by token."""
    terms: list[str] = []
    for token in tokenize_words(text):
        lower = token.text.lower()
        if token.is_ioc:
            terms.append(lower)
            terms.extend(frag for frag in _SPLIT_RE.split(lower) if len(frag) > 1)
            continue
        if not any(ch.isalnum() for ch in lower):
            continue
        if lower in STOPWORDS:
            continue
        terms.append(lower)
        lemma = lemmatize(lower)
        if lemma != lower:
            terms.append(lemma)
    return terms


class OracleIndex:
    """Documents as analysed fields; everything else recomputed per call."""

    def __init__(self, field_boosts, k1: float = 1.5, b: float = 0.75):
        self.field_boosts = dict(field_boosts)
        self.k1 = k1
        self.b = b
        self.documents: dict[str, dict[str, str]] = {}
        self.analysed: dict[str, dict[str, list[str]]] = {}

    def add(self, doc_id: str, fields: dict[str, str]) -> None:
        self.remove(doc_id)  # a re-added document moves to the end
        self.documents[doc_id] = dict(fields)
        self.analysed[doc_id] = {name: analyze(text) for name, text in fields.items()}

    def remove(self, doc_id: str) -> bool:
        self.analysed.pop(doc_id, None)
        return self.documents.pop(doc_id, None) is not None

    # -- ranking ------------------------------------------------------------

    def _average_length(self, field: str) -> float:
        lengths = [
            len(fields[field]) for fields in self.analysed.values() if field in fields
        ]
        return sum(lengths) / len(lengths) if lengths else 1.0

    def search(self, query, limit=10):
        """Ranked ``(doc_id, score)`` pairs."""
        terms = list(dict.fromkeys(analyze(query)))
        scores: dict[str, float] = {}
        for term in terms:
            containing = sum(
                any(term in field_terms for field_terms in fields.values())
                for fields in self.analysed.values()
            )
            idf = math.log(
                1 + (len(self.analysed) - containing + 0.5) / (containing + 0.5)
            )
            for doc_id, fields in self.analysed.items():
                for field, field_terms in fields.items():
                    frequency = field_terms.count(term)
                    if not frequency:
                        continue
                    denom = frequency + self.k1 * (
                        1
                        - self.b
                        + self.b
                        * len(field_terms)
                        / max(self._average_length(field), 1e-9)
                    )
                    boost = self.field_boosts.get(field, 1.0)
                    scores[doc_id] = scores.get(doc_id, 0.0) + (
                        idf * frequency * (self.k1 + 1) / denom * boost
                    )
        hits = sorted(scores.items(), key=lambda hit: (-hit[1], hit[0]))
        return hits[:limit]

    def phrase_search(self, phrase):
        """``(doc_id, occurrences)``: the best field of each document,
        the ten best documents."""
        terms = analyze(phrase)
        best: dict[str, float] = {}
        if terms:
            for doc_id, fields in self.analysed.items():
                for field_terms in fields.values():
                    count = sum(
                        field_terms[at : at + len(terms)] == terms
                        for at in range(len(field_terms))
                    )
                    if count:
                        best[doc_id] = max(best.get(doc_id, 0.0), float(count))
        hits = sorted(best.items(), key=lambda hit: (-hit[1], hit[0]))
        return hits[:10]

    # -- snapshot state -------------------------------------------------------

    def state(self) -> dict:
        """What ``SearchIndex.to_state()`` must equal."""
        postings: dict[str, list] = {}
        lengths = []
        totals: dict[str, int] = {}
        for doc_id, fields in self.analysed.items():
            for field, field_terms in fields.items():
                lengths.append([doc_id, field, len(field_terms)])
                totals[field] = totals.get(field, 0) + len(field_terms)
                for term in dict.fromkeys(field_terms):
                    positions = [
                        at for at, other in enumerate(field_terms) if other == term
                    ]
                    postings.setdefault(term, []).append([doc_id, field, positions])
        return {
            "documents": self.documents,
            "postings": postings,
            "doc_lengths": lengths,
            "field_totals": totals,
            "field_boosts": self.field_boosts,
        }
