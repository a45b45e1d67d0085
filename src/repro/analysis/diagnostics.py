"""Shared diagnostics core for the static-analysis subsystem.

Both analyzers (the Cypher semantic checker and the repo invariant
lint) report findings as :class:`Diagnostic` values: a rule id, a
severity, a message, and -- when known -- a source location.  The
renderer produces the familiar compiler-style output::

    error[cypher/unknown-label] unknown node label 'Malwear' (did you mean 'Malware'?)
      MATCH (m:Malwear) RETURN m.name
               ^~~~~~~

Locations come in two flavours: character spans into an in-memory
source string (Cypher queries) and ``path:line:col`` positions in a
file on disk (lint findings).  A diagnostic may carry either or both.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings are rejected outright (strict query mode raises,
    the lint exits nonzero); ``WARNING`` findings are surfaced but do
    not block execution.
    """

    WARNING = "warning"
    ERROR = "error"

    @property
    def is_error(self) -> bool:
        return self is Severity.ERROR


@dataclass(frozen=True)
class Span:
    """A half-open character range ``[start, end)`` into a source string."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            object.__setattr__(self, "end", self.start)

    @property
    def length(self) -> int:
        return max(1, self.end - self.start)


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding.

    Parameters
    ----------
    rule:
        Stable rule identifier, e.g. ``"cypher/unknown-label"`` or
        ``"det/wall-clock"``.  Rule ids are namespaced with ``/`` so
        suppression comments can match either the full id or the leaf.
    severity:
        :class:`Severity` of the finding.
    message:
        Human-readable description (one line).
    span:
        Character span into the analysed source, when known.
    path / line / col:
        File location for on-disk findings (lint).  ``line`` is 1-based,
        ``col`` 0-based (matching ``ast`` column offsets).
    """

    rule: str
    severity: Severity
    message: str
    span: Span | None = None
    path: str | None = None
    line: int | None = None
    col: int | None = None
    suggestion: str | None = field(default=None, compare=False)

    def to_dict(self) -> dict[str, object]:
        """JSON-compatible form (used by the UI server API)."""
        payload: dict[str, object] = {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.span is not None:
            payload["start"] = self.span.start
            payload["end"] = self.span.end
        if self.path is not None:
            payload["path"] = self.path
        if self.line is not None:
            payload["line"] = self.line
        if self.col is not None:
            payload["col"] = self.col
        if self.suggestion:
            payload["suggestion"] = self.suggestion
        return payload

    def format(self, source: str | None = None) -> str:
        """Render the finding, with a caret line when a span is known."""
        location = ""
        if self.path is not None:
            location = f"{self.path}:{self.line or 0}:{self.col or 0}: "
        message = self.message
        if self.suggestion:
            message = f"{message} (did you mean {self.suggestion!r}?)"
        head = f"{location}{self.severity.value}[{self.rule}] {message}"
        if source is None or self.span is None:
            return head
        return head + "\n" + caret_block(source, self.span)


def caret_block(source: str, span: Span, indent: str = "  ") -> str:
    """The source line containing ``span`` with a ``^~~~`` underline."""
    start = min(span.start, max(0, len(source) - 1))
    line_start = source.rfind("\n", 0, start) + 1
    line_end = source.find("\n", start)
    if line_end == -1:
        line_end = len(source)
    line = source[line_start:line_end]
    col = start - line_start
    width = min(span.length, max(1, line_end - start))
    underline = " " * col + "^" + "~" * (width - 1)
    return f"{indent}{line}\n{indent}{underline}"


def render(source: str | None, diagnostics: list[Diagnostic]) -> str:
    """Render a batch of diagnostics as one message."""
    return "\n".join(d.format(source) for d in diagnostics)


def errors(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    """Only the ERROR-severity findings."""
    return [d for d in diagnostics if d.severity.is_error]


__all__ = [
    "Diagnostic",
    "Severity",
    "Span",
    "caret_block",
    "errors",
    "render",
]
