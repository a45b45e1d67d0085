"""Tokenization and sentence segmentation with IOC protection.

Generic NLP tokenizers shred IOCs: ``update-relay3.xyz`` becomes four
tokens, an IP becomes seven, and sentence splitters break at every dot
inside a URL.  The paper's *IOC protection* (section 2.4, from [17])
replaces each IOC with an innocuous placeholder word before running
the standard pipeline and restores it afterwards, guaranteeing that
"the potential entities are complete tokens".

:func:`tokenize_sentences` implements exactly that: find IOCs, swap in
placeholders, segment and tokenize the protected text, then map the
placeholder tokens back to the original IOC strings (and their
character offsets in the *original* text).  Setting
``protect_iocs=False`` reproduces the naive behaviour -- the ablation
benchmark (E6) measures how much that costs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.nlp.ioc import IOCMatch, find_iocs
from repro.ontology.entities import EntityType

#: Placeholder stem; index is appended so placeholders stay unique.
_PLACEHOLDER_STEM = "iocshield"

_ABBREVIATIONS = frozenset(
    {"e.g", "i.e", "etc", "vs", "dr", "mr", "ms", "inc", "ltd", "corp", "no", "fig"}
)

#: One token of IOC-free text.  The search analyzer applies it to the
#: same gaps between IOCs, so both cut text into the same tokens.
WORD_RE = re.compile(
    # words, alphanumeric names (rundll32, f5) and hyphenated compounds
    # (pan-os) stay single tokens; contractions keep their apostrophe
    r"[A-Za-z0-9]+(?:[-'][A-Za-z0-9]+)*"
    r"|[^\sA-Za-z0-9]"  # any single punctuation mark
)


@dataclass
class Token:
    """One token with offsets into the original text."""

    text: str
    start: int
    end: int
    ioc_type: EntityType | None = None
    #: the tag :func:`repro.nlp.pos.tag` gave this token in its sentence
    pos: str | None = field(default=None, compare=False, repr=False)

    @property
    def is_ioc(self) -> bool:
        return self.ioc_type is not None


@dataclass
class Sentence:
    """One sentence: its original span and its tokens."""

    text: str
    start: int
    end: int
    tokens: list[Token] = field(default_factory=list)


def _placeholder(index: int) -> str:
    return f"{_PLACEHOLDER_STEM}{index}"


def _protect(text: str, matches: list[IOCMatch]) -> str:
    """``text`` with each IOC span replaced by a placeholder word."""
    pieces: list[str] = []
    cursor = 0
    for index, match in enumerate(matches):
        pieces.append(text[cursor : match.start])
        pieces.append(_placeholder(index))
        cursor = match.end
    pieces.append(text[cursor:])
    return "".join(pieces)


def _words(text: str, start: int, end: int, tokens: list[Token]) -> None:
    """Append the word tokens of ``text[start:end]``; a match cannot
    reach past ``end``, so a word never extends into the IOC there."""
    for match in WORD_RE.finditer(text, start, end):
        tokens.append(Token(match.group(), match.start(), match.end()))


def _split_sentences(text: str) -> list[tuple[int, int]]:
    """Sentence spans over (protected) text.

    A sentence ends at ``. ! ?`` followed by whitespace and an
    upper-case letter or digit, unless the dot terminates a known
    abbreviation.
    """
    spans: list[tuple[int, int]] = []
    start = 0
    i = 0
    length = len(text)
    while i < length:
        char = text[i]
        if char in ".!?":
            j = i + 1
            while j < length and text[j] in ".!?\"')":
                j += 1
            if j >= length:
                spans.append((start, j))
                start = j
                i = j
                continue
            if text[j].isspace():
                k = j
                while k < length and text[k].isspace():
                    k += 1
                next_char = text[k] if k < length else ""
                word_before = re.search(r"[\w.]+$", text[start:i])
                is_abbrev = bool(
                    word_before
                    and word_before.group(0).rstrip(".").lower() in _ABBREVIATIONS
                )
                if (next_char.isupper() or next_char.isdigit()) and not is_abbrev:
                    spans.append((start, j))
                    start = k
                    i = k
                    continue
        i += 1
    if start < length and text[start:].strip():
        spans.append((start, length))
    return spans


def tokenize_sentences(text: str, protect_iocs: bool = True) -> list[Sentence]:
    """Segment and tokenize ``text``.

    With ``protect_iocs=True`` (the paper's method) each IOC surfaces
    as exactly one token whose ``text`` is the original IOC string and
    whose ``ioc_type`` is set.  With ``protect_iocs=False`` the raw
    text goes straight through the generic pipeline, shredding IOCs --
    kept for the E6 ablation and for measuring the failure the paper
    describes.
    """
    matches = find_iocs(text) if protect_iocs else []
    protected = _protect(text, matches) if matches else text

    # Only the sentence splitter reads the protected text.  Sentences
    # break at whitespace, never inside a placeholder, so each span maps
    # back to the original text by the running length difference of the
    # IOCs before it, and tokens are cut from the original text: the
    # gaps between IOCs by ``WORD_RE``, the IOCs themselves whole.  A
    # placeholder is thus a token only where ``_protect`` wrote one.
    sentences: list[Sentence] = []
    next_ioc = 0  # first IOC not yet emitted
    shift = 0  # original offset - protected offset, after the last emitted IOC
    for span_start, span_end in _split_sentences(protected):
        start = cursor = span_start + shift
        tokens: list[Token] = []
        while next_ioc < len(matches) and matches[next_ioc].start - shift < span_end:
            ioc = matches[next_ioc]
            _words(text, cursor, ioc.start, tokens)
            tokens.append(Token(ioc.text, ioc.start, ioc.end, ioc.type))
            cursor = ioc.end
            shift += ioc.end - ioc.start - len(_placeholder(next_ioc))
            next_ioc += 1
        end = span_end + shift
        _words(text, cursor, end, tokens)
        if tokens:
            sentences.append(Sentence(text[start:end], start, end, tokens))
    return sentences


__all__ = ["Sentence", "Token", "WORD_RE", "tokenize_sentences"]
