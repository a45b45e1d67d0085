"""Feed tiers and their TLP ceilings.

TLP (FIRST's Traffic Light Protocol) orders intelligence by how widely
it may travel: ``white`` (unlimited) < ``green`` (community) <
``amber`` (need-to-know) < ``red`` (named recipients only).  The TLP
vocabulary itself -- levels, canonical STIX marking-definition ids,
per-object classification -- lives in :mod:`repro.ontology.stix`
because markings *are* STIX objects; this module adds the serving-side
mapping from feed tiers to the maximum TLP each may carry.
"""

from __future__ import annotations

from repro.ontology.stix import (
    TLP_BY_MARKING_ID,
    TLP_LEVELS,
    TLP_MARKING_IDS,
    max_tlp,
    tlp_of_object,
    tlp_order,
)

#: Feed tiers in increasing privilege order.
TIERS: tuple[str, ...] = ("public", "partner", "internal")

#: Most sensitive TLP level each tier may carry.
TIER_MAX_TLP: dict[str, str] = {
    "public": "white",
    "partner": "amber",
    "internal": "red",
}


def check_tier(tier: str) -> str:
    """Validate a tier name; returns it unchanged."""
    if tier not in TIER_MAX_TLP:
        raise ValueError(f"unknown feed tier {tier!r}; known: {list(TIERS)}")
    return tier


__all__ = [
    "TIER_MAX_TLP",
    "TIERS",
    "TLP_BY_MARKING_ID",
    "TLP_LEVELS",
    "TLP_MARKING_IDS",
    "check_tier",
    "max_tlp",
    "tlp_of_object",
    "tlp_order",
]
