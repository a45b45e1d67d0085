"""DOM tree construction over the token stream.

Builds an element tree with browser-like auto-closing for the common
misnesting patterns OSCTI pages contain (unclosed ``<p>``, ``<li>``,
table rows/cells), exposes traversal helpers, and extracts readable
text with block/inline awareness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator

from repro.htmlparse.tokenizer import (
    VOID_ELEMENTS,
    Token,
    TokenKind,
    tokenize,
)

#: Opening one of these closes any open element of the mapped set first.
_AUTO_CLOSE: dict[str, frozenset[str]] = {
    "p": frozenset({"p"}),
    "li": frozenset({"li"}),
    "dt": frozenset({"dt", "dd"}),
    "dd": frozenset({"dt", "dd"}),
    "tr": frozenset({"tr", "td", "th"}),
    "td": frozenset({"td", "th"}),
    "th": frozenset({"td", "th"}),
    "option": frozenset({"option"}),
    "thead": frozenset({"tbody", "tfoot"}),
    "tbody": frozenset({"thead", "tbody"}),
}

#: Block-level elements: text extraction inserts newlines around them.
_BLOCK_ELEMENTS = frozenset(
    {
        "address",
        "article",
        "aside",
        "blockquote",
        "br",
        "dd",
        "div",
        "dl",
        "dt",
        "fieldset",
        "figure",
        "footer",
        "form",
        "h1",
        "h2",
        "h3",
        "h4",
        "h5",
        "h6",
        "header",
        "hr",
        "li",
        "main",
        "nav",
        "ol",
        "p",
        "pre",
        "section",
        "table",
        "td",
        "th",
        "tr",
        "ul",
    }
)

_WS_RE = re.compile(r"[ \t\r\f\v]+")


@dataclass
class TextNode:
    """A run of character data."""

    text: str
    parent: "Element | None" = None


@dataclass
class Element:
    """An element node with attributes and ordered children."""

    tag: str
    attrs: dict[str, str] = field(default_factory=dict)
    children: list["Element | TextNode"] = field(default_factory=list)
    parent: "Element | None" = None

    # -- construction -------------------------------------------------

    def append(self, node: "Element | TextNode") -> None:
        node.parent = self
        self.children.append(node)

    # -- attribute access ---------------------------------------------

    def get(self, name: str, default: str = "") -> str:
        """Attribute value (case-insensitive name), or ``default``."""
        return self.attrs.get(name.lower(), default)

    @property
    def id(self) -> str:
        return self.get("id")

    @property
    def classes(self) -> frozenset[str]:
        return frozenset(self.get("class").split())

    # -- traversal ----------------------------------------------------

    def iter(self) -> Iterator["Element"]:
        """Depth-first pre-order iteration over element descendants,
        including this element itself."""
        yield self
        for child in self.children:
            if isinstance(child, Element):
                yield from child.iter()

    def iter_children(self) -> Iterator["Element"]:
        """Direct element children only."""
        for child in self.children:
            if isinstance(child, Element):
                yield child

    def find_all(self, tag: str) -> list["Element"]:
        """All descendant elements with the given tag name."""
        tag = tag.lower()
        return [el for el in self.iter() if el.tag == tag]

    def find(self, tag: str) -> "Element | None":
        """First descendant element with the given tag name, if any."""
        tag = tag.lower()
        for el in self.iter():
            if el.tag == tag:
                return el
        return None

    def select(self, selector: str) -> list["Element"]:
        """CSS-selector query over this element's descendants."""
        from repro.htmlparse.selectors import select

        return select(self, selector)

    def select_one(self, selector: str) -> "Element | None":
        from repro.htmlparse.selectors import select_one

        return select_one(self, selector)

    # -- text extraction ----------------------------------------------

    def text(self, separator: str = "\n") -> str:
        """Readable text content.

        Whitespace is collapsed within inline runs; block boundaries
        become ``separator``.  ``<script>``/``<style>`` content is
        skipped entirely.
        """
        lines: list[str] = []
        current: list[str] = []

        def flush() -> None:
            joined = _WS_RE.sub(" ", "".join(current)).strip()
            if joined:
                lines.append(joined)
            current.clear()

        def walk(node: "Element | TextNode") -> None:
            if isinstance(node, TextNode):
                current.append(node.text)
                return
            if node.tag in ("script", "style"):
                return
            block = node.tag in _BLOCK_ELEMENTS
            if block:
                flush()
            for child in node.children:
                walk(child)
            if block:
                flush()

        walk(self)
        flush()
        return separator.join(lines)

    def inner_text(self) -> str:
        """Single-line text with all whitespace (incl. newlines) collapsed."""
        return re.sub(r"\s+", " ", self.text(separator=" ")).strip()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ident = f"#{self.id}" if self.id else ""
        return f"<Element {self.tag}{ident} children={len(self.children)}>"


class Document:
    """Parsed HTML document.

    Wraps the root element and exposes the common lookups the
    source-dependent parsers need.
    """

    def __init__(self, root: Element):
        self.root = root

    @property
    def body(self) -> Element:
        return self.root.find("body") or self.root

    @property
    def head(self) -> Element | None:
        return self.root.find("head")

    @property
    def title(self) -> str:
        title = self.root.find("title")
        return title.inner_text() if title is not None else ""

    def find(self, tag: str) -> Element | None:
        return self.root.find(tag)

    def find_all(self, tag: str) -> list[Element]:
        return self.root.find_all(tag)

    def text(self) -> str:
        return self.body.text()

    def select(self, selector: str) -> list[Element]:
        """CSS-selector query (see :mod:`repro.htmlparse.selectors`)."""
        from repro.htmlparse.selectors import select

        return select(self.root, selector)

    def select_one(self, selector: str) -> Element | None:
        return self.root.select_one(selector)


def parse(markup: str) -> Document:
    """Parse HTML markup into a :class:`Document`."""
    return Document(build_tree(tokenize(markup)))


def build_tree(tokens: list[Token]) -> Element:
    """Assemble the token stream into an element tree.

    Mis-nested end tags close intervening elements when the named
    ancestor is open, and are dropped otherwise -- the behaviour that
    keeps real-world sloppy markup parseable.
    """
    root = Element("#document")
    stack: list[Element] = [root]

    for token in tokens:
        if token.kind is TokenKind.TEXT:
            if token.data:
                stack[-1].append(TextNode(token.data))
        elif token.kind is TokenKind.START_TAG:
            closers = _AUTO_CLOSE.get(token.data)
            if closers:
                while len(stack) > 1 and stack[-1].tag in closers:
                    stack.pop()
            element = Element(token.data, dict(token.attrs))
            stack[-1].append(element)
            if token.data not in VOID_ELEMENTS and not token.self_closing:
                stack.append(element)
        elif token.kind is TokenKind.END_TAG:
            if any(el.tag == token.data for el in stack[1:]):
                while len(stack) > 1:
                    closed = stack.pop()
                    if closed.tag == token.data:
                        break
        # Comments and doctypes are dropped from the tree.

    return root


__all__ = ["Document", "Element", "TextNode", "build_tree", "parse"]
