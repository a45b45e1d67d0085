"""Checker: filter irrelevant reports before parsing.

Checkers "work as filters on the list of intermediate report
representations; they screen out irrelevant reports like empty pages
or ads by running condition checks" (paper section 2.4).  Checks are
named predicates so configurations can enable subsets and the system
can report *why* something was dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.porter import parsed_pages
from repro.ontology.intermediate import ReportRecord

#: A check returns None when the record passes, else a rejection reason.
Check = Callable[[ReportRecord], "str | None"]

#: Words whose presence marks a page as security-relevant.
SECURITY_SIGNALS = frozenset(
    "malware ransomware trojan vulnerability exploit attack threat actor "
    "phishing backdoor botnet breach campaign cve encrypts payload "
    "compromise adversary infection advisory indicator".split()
)

_AD_MARKERS = ("sponsored content", "advertisement", "buy now", "% off")


def rendered_text(record: ReportRecord) -> str:
    """Every page of the record rendered to text.

    Parsed and rendered once per record however many checks ask: both
    are kept with the record's DOMs (:func:`parsed_pages`).
    """
    return parsed_pages(record).text


def check_non_empty(record: ReportRecord) -> str | None:
    """Reject records with no page content at all."""
    if not any(page.strip() for page in record.pages):
        return "empty pages"
    return None


def make_min_text_check(min_chars: int = 120) -> Check:
    """Reject records whose rendered text is shorter than ``min_chars``."""

    def check_min_text(record: ReportRecord) -> str | None:
        text = rendered_text(record)
        if len(text) < min_chars:
            return f"text too short ({len(text)} < {min_chars} chars)"
        return None

    return check_min_text


def check_security_signal(record: ReportRecord) -> str | None:
    """Reject pages with no security-related vocabulary (ads, fluff)."""
    text = rendered_text(record).lower()
    if not any(signal in text for signal in SECURITY_SIGNALS):
        return "no security signal"
    return None


def check_not_ad(record: ReportRecord) -> str | None:
    """Reject obvious advertising pages."""
    text = rendered_text(record).lower()
    if any(marker in text for marker in _AD_MARKERS):
        return "advertising content"
    return None


def default_checks() -> list[Check]:
    return [
        check_non_empty,
        make_min_text_check(),
        check_security_signal,
        check_not_ad,
    ]


@dataclass
class CheckReport:
    """Outcome of one checker pass."""

    passed: list[ReportRecord] = field(default_factory=list)
    rejected: list[tuple[ReportRecord, str]] = field(default_factory=list)


class Checker:
    """Run every configured check; first failure rejects the record."""

    def __init__(self, checks: list[Check] | None = None):
        self.checks = checks if checks is not None else default_checks()

    def filter(self, records: list[ReportRecord]) -> CheckReport:
        report = CheckReport()
        for record in records:
            reason = self.why_rejected(record)
            if reason is None:
                report.passed.append(record)
            else:
                report.rejected.append((record, reason))
        return report

    def why_rejected(self, record: ReportRecord) -> str | None:
        for check in self.checks:
            reason = check(record)
            if reason is not None:
                return reason
        return None


__all__ = [
    "Check",
    "CheckReport",
    "Checker",
    "SECURITY_SIGNALS",
    "check_non_empty",
    "check_not_ad",
    "check_security_signal",
    "default_checks",
    "make_min_text_check",
    "rendered_text",
]
