"""CSS selector subset.

Supports the selector grammar the source-dependent parsers need:

* type selectors (``div``), universal (``*``)
* id (``#report``), class (``.ioc-list``), attribute
  (``[href]``, ``[data-kind=hash]``, ``[href^=/page]``,
  ``[href$=.html]``, ``[href*=report]``)
* compound selectors (``table.ioc[data-kind=ip]``)
* descendant (whitespace) and child (``>``) combinators
* selector groups separated by commas

Matching is performed top-down in one DOM pass per selector group, so
queries stay linear in document size.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from repro.htmlparse.dom import Element


@dataclass(frozen=True)
class AttrCheck:
    """One attribute condition of a simple selector."""

    name: str
    op: str  # '', '=', '^=', '$=', '*='
    value: str

    def matches(self, element: Element) -> bool:
        if self.name == "class" and self.op == "~":
            return self.value in element.classes
        if self.name not in element.attrs:
            return False
        actual = element.attrs[self.name]
        if self.op == "":
            return True
        if self.op == "=":
            return actual == self.value
        if self.op == "^=":
            return bool(self.value) and actual.startswith(self.value)
        if self.op == "$=":
            return bool(self.value) and actual.endswith(self.value)
        if self.op == "*=":
            return bool(self.value) and self.value in actual
        raise ValueError(f"unknown attribute operator {self.op!r}")


@dataclass(frozen=True)
class SimpleSelector:
    """A compound simple selector: tag + id/class/attribute checks."""

    tag: str = "*"
    checks: tuple[AttrCheck, ...] = field(default=())

    def matches(self, element: Element) -> bool:
        if self.tag != "*" and element.tag != self.tag:
            return False
        return all(check.matches(element) for check in self.checks)


@dataclass(frozen=True)
class CompiledSelector:
    """A selector chain: simple selectors joined by combinators.

    ``combinators[i]`` joins ``parts[i]`` to ``parts[i+1]`` and is
    either ``" "`` (descendant) or ``">"`` (child).
    """

    parts: tuple[SimpleSelector, ...]
    combinators: tuple[str, ...]


class SelectorSyntaxError(ValueError):
    """Raised for selectors outside the supported grammar."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s*>\s*|\s+)
  | (?P<id>\#[\w-]+)
  | (?P<class>\.[\w-]+)
  | (?P<attr>\[\s*[\w-]+\s*(?:[\^\$\*]?=\s*(?:"[^"]*"|'[^']*'|[^\]\s]*))?\s*\])
  | (?P<tag>\*|[a-zA-Z][\w-]*)
    """,
    re.VERBOSE,
)

_ATTR_BODY_RE = re.compile(
    r"""\[\s*(?P<name>[\w-]+)\s*(?:(?P<op>[\^\$\*]?=)\s*(?P<value>"[^"]*"|'[^']*'|[^\]\s]*))?\s*\]"""
)


def _parse_attr(token: str) -> AttrCheck:
    match = _ATTR_BODY_RE.fullmatch(token)
    if not match:
        raise SelectorSyntaxError(f"bad attribute selector: {token!r}")
    name = match.group("name").lower()
    op = match.group("op") or ""
    value = match.group("value") or ""
    if value[:1] in "\"'" and value[:1] == value[-1:]:
        value = value[1:-1]
    return AttrCheck(name=name, op=op, value=value)


@lru_cache(maxsize=512)
def compile_selector(selector: str) -> tuple[CompiledSelector, ...]:
    """Compile a selector group string into chains (one per comma part);
    memoised, since the parsers ask the same few dozen of every page."""
    chains: list[CompiledSelector] = []
    for part in selector.split(","):
        part = part.strip()
        if not part:
            raise SelectorSyntaxError(f"empty selector in group: {selector!r}")
        chains.append(_compile_chain(part))
    return tuple(chains)


def _compile_chain(selector: str) -> CompiledSelector:
    parts: list[SimpleSelector] = []
    combinators: list[str] = []
    tag = "*"
    checks: list[AttrCheck] = []
    have_current = False
    pos = 0

    def flush() -> None:
        nonlocal tag, checks, have_current
        if not have_current:
            raise SelectorSyntaxError(f"dangling combinator in {selector!r}")
        parts.append(SimpleSelector(tag=tag, checks=tuple(checks)))
        tag = "*"
        checks = []
        have_current = False

    while pos < len(selector):
        match = _TOKEN_RE.match(selector, pos)
        if not match or match.end() == pos:
            raise SelectorSyntaxError(
                f"cannot parse selector {selector!r} at offset {pos}"
            )
        pos = match.end()
        if match.group("ws") is not None:
            flush()
            combinators.append(">" if ">" in match.group("ws") else " ")
        elif match.group("id") is not None:
            checks.append(AttrCheck("id", "=", match.group("id")[1:]))
            have_current = True
        elif match.group("class") is not None:
            checks.append(AttrCheck("class", "~", match.group("class")[1:]))
            have_current = True
        elif match.group("attr") is not None:
            checks.append(_parse_attr(match.group("attr")))
            have_current = True
        else:
            tag = match.group("tag").lower()
            have_current = True
    flush()
    return CompiledSelector(parts=tuple(parts), combinators=tuple(combinators))


def select(root: Element, selector: str) -> list[Element]:
    """All descendant elements of ``root`` matching the selector group.

    Results are in document order without duplicates, matching the
    behaviour of ``querySelectorAll``.
    """
    chains = compile_selector(selector)
    matched: list[Element] = []
    seen: set[int] = set()
    for element, states in _walk(root, chains):
        if states and id(element) not in seen:
            seen.add(id(element))
            matched.append(element)
    return matched


def select_one(root: Element, selector: str) -> Element | None:
    """First match of :func:`select`, or ``None``; the walk stops there."""
    for element, full in _walk(root, compile_selector(selector)):
        if full:
            return element
    return None


def matches(element: Element, selector: str) -> bool:
    """Whether ``element`` itself matches a (single compound) selector."""
    chains = compile_selector(selector)
    for chain in chains:
        if len(chain.parts) == 1 and chain.parts[0].matches(element):
            return True
    return False


def _walk(root: Element, chains: tuple[CompiledSelector, ...]):
    """Yield ``(element, fully_matched_chain_indexes)`` pairs.

    Implements descendant/child matching with a per-path state set:
    each state is ``(chain_idx, part_idx, via_child)`` meaning the chain
    still needs ``parts[part_idx]`` and, when ``via_child`` is true, it
    must match at the immediate child level.
    """
    initial = [(ci, 0, False) for ci in range(len(chains))]

    def visit(element: Element, states: list[tuple[int, int, bool]]):
        full: list[int] = []
        propagate: list[tuple[int, int, bool]] = []
        for ci, pi, _via_child in states:
            chain = chains[ci]
            if chain.parts[pi].matches(element):
                if pi + 1 == len(chain.parts):
                    full.append(ci)
                else:
                    propagate.append((ci, pi + 1, chain.combinators[pi] == ">"))
        yield element, full
        child_states = [
            state for state in states if not state[2]
        ]  # descendant states stay live at any depth
        child_states.extend(propagate)
        for child in element.iter_children():
            yield from visit(child, child_states)

    # Like ``querySelectorAll``, matching starts at the root's children:
    # the root element itself is never part of the result set.
    for child in root.iter_children():
        yield from visit(child, initial)


__all__ = [
    "AttrCheck",
    "CompiledSelector",
    "SelectorSyntaxError",
    "SimpleSelector",
    "compile_selector",
    "matches",
    "select",
    "select_one",
]
