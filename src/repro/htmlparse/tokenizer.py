"""HTML tokenizer.

A pragmatic HTML5-ish tokenizer: it produces a flat stream of
:class:`Token` objects (start tags with attributes, end tags, text,
comments, doctype) from markup.  It handles the quirks that real OSCTI
pages exhibit -- unquoted attribute values, boolean attributes, raw-text
elements (``<script>``/``<style>``), and character references -- without
attempting full spec-compliant error recovery.
"""

from __future__ import annotations

import enum
import html
import re
from dataclasses import dataclass, field

#: Elements whose content is raw text up to the matching close tag.
RAWTEXT_ELEMENTS = frozenset({"script", "style"})

#: Void elements never take an end tag.
VOID_ELEMENTS = frozenset(
    {
        "area",
        "base",
        "br",
        "col",
        "embed",
        "hr",
        "img",
        "input",
        "link",
        "meta",
        "param",
        "source",
        "track",
        "wbr",
    }
)


class TokenKind(enum.Enum):
    START_TAG = "start"
    END_TAG = "end"
    TEXT = "text"
    COMMENT = "comment"
    DOCTYPE = "doctype"


@dataclass
class Token:
    """One lexical token of the HTML input."""

    kind: TokenKind
    data: str  # tag name for tags, text content otherwise
    attrs: dict[str, str] = field(default_factory=dict)
    self_closing: bool = False


_TAG_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9:-]*")
_ATTR_RE = re.compile(
    r"""\s*([^\s=/>"']+)(?:\s*=\s*("([^"]*)"|'([^']*)'|[^\s>]*))?""",
)


def _parse_attrs(raw: str) -> tuple[dict[str, str], bool]:
    """Parse the attribute region of a start tag.

    Returns the attribute dict and whether the tag is self-closing.
    Later duplicates of an attribute are ignored, matching browsers.
    """
    self_closing = raw.rstrip().endswith("/")
    if self_closing:
        raw = raw.rstrip()[:-1]
    attrs: dict[str, str] = {}
    for match in _ATTR_RE.finditer(raw):
        name = match.group(1).lower()
        if not name or name == "/":
            continue
        if match.group(2) is None:
            value = ""
        elif match.group(3) is not None:
            value = match.group(3)
        elif match.group(4) is not None:
            value = match.group(4)
        else:
            value = match.group(2)
        if name not in attrs:
            attrs[name] = html.unescape(value)
    return attrs, self_closing


def tokenize(markup: str) -> list[Token]:
    """Tokenize HTML markup into a flat token stream.

    Text inside ``<script>``/``<style>`` is emitted verbatim as a single
    TEXT token (no entity decoding), as per the raw-text tokenizer
    states of the HTML spec.
    """
    tokens: list[Token] = []
    pos = 0
    length = len(markup)
    rawtext_until: str | None = None

    while pos < length:
        if rawtext_until is not None:
            # the close tag is found in the page itself, ASCII case
            # folded: a lowercased copy can be longer than the page
            # ("İ".lower() is two characters), so an offset into the
            # copy is not an offset into the page
            found = re.compile(
                f"</{rawtext_until}", re.ASCII | re.IGNORECASE
            ).search(markup, pos)
            if found is None:
                tokens.append(Token(TokenKind.TEXT, markup[pos:]))
                pos = length
                rawtext_until = None
                continue
            close = found.start()
            if close > pos:
                tokens.append(Token(TokenKind.TEXT, markup[pos:close]))
            end = markup.find(">", close)
            tokens.append(Token(TokenKind.END_TAG, rawtext_until))
            pos = length if end == -1 else end + 1
            rawtext_until = None
            continue

        lt = markup.find("<", pos)
        if lt == -1:
            tokens.append(Token(TokenKind.TEXT, html.unescape(markup[pos:])))
            break
        if lt > pos:
            tokens.append(Token(TokenKind.TEXT, html.unescape(markup[pos:lt])))
        pos = lt

        if markup.startswith("<!--", pos):
            end = markup.find("-->", pos + 4)
            if end == -1:
                tokens.append(Token(TokenKind.COMMENT, markup[pos + 4 :]))
                break
            tokens.append(Token(TokenKind.COMMENT, markup[pos + 4 : end]))
            pos = end + 3
            continue
        if markup.startswith("<!", pos):
            end = markup.find(">", pos)
            if end == -1:
                break
            tokens.append(Token(TokenKind.DOCTYPE, markup[pos + 2 : end].strip()))
            pos = end + 1
            continue
        if markup.startswith("</", pos):
            end = markup.find(">", pos)
            if end == -1:
                break
            name_match = _TAG_NAME_RE.match(markup, pos + 2)
            if name_match:
                tokens.append(Token(TokenKind.END_TAG, name_match.group(0).lower()))
            pos = end + 1
            continue

        name_match = _TAG_NAME_RE.match(markup, pos + 1)
        if not name_match:
            # A bare '<' that does not open a tag is character data.
            tokens.append(Token(TokenKind.TEXT, "<"))
            pos += 1
            continue
        name = name_match.group(0).lower()
        attr_start = name_match.end()
        end = _find_tag_end(markup, attr_start)
        if end == -1:
            break
        attrs, self_closing = _parse_attrs(markup[attr_start:end])
        tokens.append(Token(TokenKind.START_TAG, name, attrs, self_closing))
        pos = end + 1
        if name in RAWTEXT_ELEMENTS and not self_closing:
            rawtext_until = name

    return tokens


def _find_tag_end(markup: str, start: int) -> int:
    """Find the closing ``>`` of a tag, skipping quoted attribute values."""
    pos = start
    length = len(markup)
    quote: str | None = None
    while pos < length:
        char = markup[pos]
        if quote is not None:
            if char == quote:
                quote = None
        elif char in "\"'":
            quote = char
        elif char == ">":
            return pos
        pos += 1
    return -1


__all__ = ["RAWTEXT_ELEMENTS", "Token", "TokenKind", "VOID_ELEMENTS", "tokenize"]
