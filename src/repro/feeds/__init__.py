"""Dissemination: TLP-tiered STIX feeds over the storage journal.

The paper's end goal is intelligence that analysts and downstream
tools can *consume*.  This package turns the STIX interchange mapping
(`repro.ontology.stix`) into a serving story: :class:`FeedPublisher`
maintains one sanitized, TLP-filtered bundle per feed tier
(public / partner / internal), tracks changes against the storage
journal's commit sequence numbers, and answers pulls either in full,
as an incremental delta since an opaque cursor, or as a conditional-GET
cache hit (ETag).  See ``DISSEMINATION.md`` for the wire contract.
"""

from repro.feeds.publisher import FeedPublisher, FeedResponse
from repro.feeds.tlp import (
    TIER_MAX_TLP,
    TIERS,
    TLP_LEVELS,
    TLP_MARKING_IDS,
    tlp_of_object,
)

__all__ = [
    "FeedPublisher",
    "FeedResponse",
    "TIER_MAX_TLP",
    "TIERS",
    "TLP_LEVELS",
    "TLP_MARKING_IDS",
    "tlp_of_object",
]
