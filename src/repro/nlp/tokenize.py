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

_PLACEHOLDER_RE = re.compile(rf"{_PLACEHOLDER_STEM}(\d+)")

_ABBREVIATIONS = frozenset(
    {"e.g", "i.e", "etc", "vs", "dr", "mr", "ms", "inc", "ltd", "corp", "no", "fig"}
)

_WORD_RE = re.compile(
    rf"{_PLACEHOLDER_STEM}\d+"  # placeholders survive as single tokens
    # words, alphanumeric names (rundll32, f5) and hyphenated compounds
    # (pan-os) stay single tokens; contractions keep their apostrophe
    r"|[A-Za-z0-9]+(?:[-'][A-Za-z0-9]+)*"
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


def _protect(text: str) -> tuple[str, dict[str, IOCMatch], list[tuple[int, int]]]:
    """Replace IOC spans with placeholder words.

    Returns the protected text, placeholder -> original match, and a
    piecewise offset map ``[(protected_pos, original_pos), ...]`` for
    translating protected offsets back to original ones.
    """
    matches = find_iocs(text)
    placeholders: dict[str, IOCMatch] = {}
    pieces: list[str] = []
    offset_map: list[tuple[int, int]] = [(0, 0)]
    cursor = 0
    out_len = 0
    for index, match in enumerate(matches):
        literal = text[cursor : match.start]
        pieces.append(literal)
        out_len += len(literal)
        placeholder = f"{_PLACEHOLDER_STEM}{index}"
        placeholders[placeholder] = match
        pieces.append(placeholder)
        offset_map.append((out_len, match.start))
        out_len += len(placeholder)
        offset_map.append((out_len, match.end))
        cursor = match.end
    pieces.append(text[cursor:])
    return "".join(pieces), placeholders, offset_map


def _to_original(offset_map: list[tuple[int, int]], pos: int) -> int:
    """Translate a protected-text offset to an original-text offset."""
    base_protected, base_original = 0, 0
    for protected, original in offset_map:
        if protected > pos:
            break
        base_protected, base_original = protected, original
    return base_original + (pos - base_protected)


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
    if protect_iocs:
        protected, placeholders, offset_map = _protect(text)
    else:
        protected, placeholders, offset_map = text, {}, [(0, 0)]

    sentences: list[Sentence] = []
    for span_start, span_end in _split_sentences(protected):
        chunk = protected[span_start:span_end]
        tokens: list[Token] = []
        for match in _WORD_RE.finditer(chunk):
            token_text = match.group(0)
            protected_start = span_start + match.start()
            original_start = _to_original(offset_map, protected_start)
            ph = _PLACEHOLDER_RE.fullmatch(token_text)
            if ph and token_text in placeholders:
                ioc = placeholders[token_text]
                tokens.append(
                    Token(
                        text=ioc.text,
                        start=ioc.start,
                        end=ioc.end,
                        ioc_type=ioc.type,
                    )
                )
            else:
                tokens.append(
                    Token(
                        text=token_text,
                        start=original_start,
                        end=original_start + len(token_text),
                    )
                )
        if not tokens:
            continue
        original_span_start = _to_original(offset_map, span_start)
        original_span_end = _to_original(offset_map, span_end)
        sentences.append(
            Sentence(
                text=text[original_span_start:original_span_end],
                start=original_span_start,
                end=original_span_end,
                tokens=tokens,
            )
        )
    return sentences


def tokenize_words(text: str, protect_iocs: bool = True) -> list[Token]:
    """All tokens of ``text`` regardless of sentence boundaries."""
    return [
        token
        for sentence in tokenize_sentences(text, protect_iocs=protect_iocs)
        for token in sentence.tokens
    ]


__all__ = ["Sentence", "Token", "tokenize_sentences", "tokenize_words"]
