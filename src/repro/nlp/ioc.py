"""IOC recognition in raw text.

Regex recognisers for the paper's IOC types (file name, file path, IP,
URL, email, domain, registry keys, hashes) plus CVE identifiers.
Overlaps are resolved by precedence (a URL wins over the domain inside
it; an email wins over its domain; a file path wins over the file name
at its end) and, within a type, by leftmost-longest match.

These matches serve two masters: they become IOC entities directly
(the regex path), and they drive *IOC protection* during tokenization
(section 2.4) so the CRF sees them as single, well-formed tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.ontology.entities import EntityType


@dataclass(frozen=True)
class IOCMatch:
    """One IOC span found in text."""

    start: int
    end: int
    text: str
    type: EntityType


_FILE_EXT = (
    r"(?:exe|dll|bat|ps1|vbs|js|scr|docm|docx|doc|xlsm|xls|pdf|lnk|hta|jar|"
    r"zip|rar|7z|tmp|sys|bin|dat|cmd|msi|iso|img)"
)

#: Recognisers in precedence order (earlier wins on overlap), each with
#: the literals one of which every match of it contains, lower-cased
#: (``""``: none): a text that holds none of them skips the pass.
_PATTERNS: tuple[tuple[EntityType, tuple[str, ...], re.Pattern[str]], ...] = (
    (
        EntityType.URL,
        ("://",),
        re.compile(r"\bhttps?://[^\s\"'<>()]+[^\s\"'<>().,;:!?]"),
    ),
    (
        EntityType.EMAIL,
        ("@",),
        re.compile(
            r"\b[a-zA-Z0-9][a-zA-Z0-9._%+-]*@[a-zA-Z0-9.-]+\.[a-zA-Z]{2,}\b"
        ),
    ),
    # Intermediate path/registry segments may contain spaces ("Program
    # Files", "Windows NT") because the trailing backslash bounds them;
    # the final segment may not, or it would swallow the sentence.
    (
        EntityType.REGISTRY,
        ("\\",),
        re.compile(
            r"\b(?:HKLM|HKCU|HKCR|HKU|HKEY_[A-Z_]+)\\(?:[\w.-]+(?: [\w.-]+)?\\)*[\w.-]+",
            re.IGNORECASE,
        ),
    ),
    (
        EntityType.FILE_PATH,
        (":\\", "/"),
        re.compile(
            r"\b[A-Za-z]:\\(?:[\w.-]+(?: [\w.-]+)?\\)*[\w.-]+"
            r"|(?:/(?:usr|etc|var|tmp|opt|home|bin)/[^\s\"'<>]+)"
        ),
    ),
    (
        EntityType.IP,
        (".",),
        re.compile(
            r"\b(?:(?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)\.){3}"
            r"(?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)\b"
        ),
    ),
    (
        EntityType.HASH,
        ("",),
        re.compile(r"\b[a-fA-F0-9]{64}\b|\b[a-fA-F0-9]{40}\b|\b[a-fA-F0-9]{32}\b"),
    ),
    (
        EntityType.VULNERABILITY,
        ("cve-",),
        re.compile(r"\bCVE-\d{4}-\d{4,7}\b", re.IGNORECASE),
    ),
    (
        EntityType.FILE_NAME,
        (".",),
        re.compile(r"\b[\w][\w.-]{0,60}\." + _FILE_EXT + r"\b"),
    ),
    (
        EntityType.DOMAIN,
        (".",),
        re.compile(
            r"\b(?:[a-z0-9](?:[a-z0-9-]{0,61}[a-z0-9])?\.)+"
            r"(?:com|net|org|info|biz|xyz|top|cc|io|ru|cn|onion|example)\b",
            re.IGNORECASE,
        ),
    ),
)


def find_iocs(text: str) -> list[IOCMatch]:
    """All IOC spans in ``text``, non-overlapping, in document order.

    Precedence order of ``_PATTERNS`` resolves containment (URL over
    domain, path over file name); among same-type candidates the
    leftmost-longest match survives.
    """
    taken: list[tuple[int, int]] = []
    matches: list[IOCMatch] = []
    lowered = text.lower()
    for kind, literals, pattern in _PATTERNS:
        if not any(literal in lowered for literal in literals):
            continue
        for match in pattern.finditer(text):
            start, end = match.start(), match.end()
            # Greedy path/registry/URL patterns may swallow trailing
            # sentence punctuation; give it back to the tokenizer.
            value = text[start:end].rstrip(".,;:!?'\")")
            end = start + len(value)
            if not value:
                continue
            if any(start < t_end and end > t_start for t_start, t_end in taken):
                continue
            taken.append((start, end))
            matches.append(IOCMatch(start=start, end=end, text=value, type=kind))
    matches.sort(key=lambda m: m.start)
    return matches


def classify_ioc(value: str) -> EntityType | None:
    """The IOC type of a bare string, or ``None`` if it matches nothing.

    Used by parsers when a structured field supplies an IOC without a
    kind label.
    """
    for kind, _literals, pattern in _PATTERNS:
        match = pattern.fullmatch(value.strip())
        if match:
            return kind
    return None


__all__ = ["IOCMatch", "classify_ioc", "find_iocs"]
