"""Text analysis for the search index.

Lowercases, tokenizes with IOC protection (so ``update-relay3.xyz``
is findable as one term), drops stopwords, and adds lemma variants so
``encrypts`` matches a query for ``encrypt``.  IOC terms additionally
index their internal fragments (the domain inside a URL, the file name
inside a path) because analysts search for those.

A field is scanned once: one IOC scan, then one word-pattern pass over
the text between the IOCs -- the tokens :mod:`repro.nlp.tokenize`
yields, without its sentence segmentation, offsets or token objects,
none of which reach a term.
"""

from __future__ import annotations

import re
from functools import lru_cache

from repro.nlp.ioc import find_iocs
from repro.nlp.lemma import lemmatize
from repro.nlp.tokenize import WORD_RE

STOPWORDS = frozenset(
    "a an the and or of to in on for with by from at is are was were be been "
    "this that these those it its as into their his her our your over under "
    "has have had do does did not no can could will would s t".split()
)

#: Distinct words whose terms are remembered (least recently used out).
WORD_TERMS_CAP = 1 << 15

_SPLIT_RE = re.compile(r"[\\/@.:_\-]+")


@lru_cache(maxsize=WORD_TERMS_CAP)
def _word_terms(word: str) -> tuple[str, ...]:
    """The terms one non-IOC token contributes: none for a stopword or
    a punctuation mark, else the word and its lemma where they differ."""
    lower = word.lower()
    if lower in STOPWORDS or not any(ch.isalnum() for ch in lower):
        return ()
    lemma = lemmatize(lower)
    return (lower,) if lemma == lower else (lower, lemma)


def analyze(text: str) -> list[str]:
    """Terms for indexing/searching one text."""
    terms: list[str] = []

    def words(start: int, end: int) -> None:
        # bounded by ``end``: a word never extends into the IOC there
        for word in WORD_RE.findall(text, start, end):
            terms.extend(_word_terms(word))

    cursor = 0
    for ioc in find_iocs(text):
        words(cursor, ioc.start)
        lower = ioc.text.lower()
        terms.append(lower)
        terms.extend(frag for frag in _SPLIT_RE.split(lower) if len(frag) > 1)
        cursor = ioc.end
    words(cursor, len(text))
    return terms


def analyze_query(text: str) -> list[str]:
    """Terms for a user query (same pipeline, kept separate for tuning)."""
    return analyze(text)


__all__ = ["STOPWORDS", "WORD_TERMS_CAP", "analyze", "analyze_query"]
