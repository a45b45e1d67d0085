"""Curated entity-name gazetteers.

The paper constructs its labeling functions from curated lists of
threat actors, techniques and tools (from MITRE ATT&CK) plus malware
and software names.  The lists live as package data under
``repro/nlp/data`` and deliberately cover only *part* of the name
space -- extraction of names outside the lists is what the CRF's
generalisation benchmark measures.
"""

from __future__ import annotations

from importlib import resources

from repro.ontology.entities import EntityType

_FILES: dict[EntityType, str] = {
    EntityType.THREAT_ACTOR: "threat_actors.txt",
    EntityType.MALWARE: "malware.txt",
    EntityType.TECHNIQUE: "techniques.txt",
    EntityType.TOOL: "tools.txt",
    EntityType.SOFTWARE: "software.txt",
}


class Gazetteer:
    """Multi-token longest-match lookup over curated name lists."""

    def __init__(self, entries: dict[EntityType, set[tuple[str, ...]]]):
        self.entries = entries
        self._max_len = max(
            (len(phrase) for phrases in entries.values() for phrase in phrases),
            default=1,
        )
        # first token -> [(phrase, type)] for cheap candidate lookup
        self._by_first: dict[str, list[tuple[tuple[str, ...], EntityType]]] = {}
        for entity_type, phrases in entries.items():
            for phrase in phrases:
                self._by_first.setdefault(phrase[0], []).append((phrase, entity_type))

    @classmethod
    def load_default(cls) -> "Gazetteer":
        """Load the package's curated lists."""
        entries: dict[EntityType, set[tuple[str, ...]]] = {}
        package = resources.files("repro.nlp") / "data"
        for entity_type, filename in _FILES.items():
            text = (package / filename).read_text()
            entries[entity_type] = {
                tuple(line.lower().split())
                for line in text.splitlines()
                if line.strip()
            }
        return cls(entries)

    def match(self, words: list[str]) -> list[tuple[int, int, EntityType]]:
        """Longest non-overlapping matches over a token sequence.

        Returns ``(start, end, type)`` token spans, scanning left to
        right and preferring the longest phrase at each position.
        """
        lowered = [word.lower() for word in words]
        matches: list[tuple[int, int, EntityType]] = []
        i = 0
        while i < len(lowered):
            candidates = self._by_first.get(lowered[i], ())
            best: tuple[int, EntityType] | None = None
            for phrase, entity_type in candidates:
                end = i + len(phrase)
                if end <= len(lowered) and tuple(lowered[i:end]) == phrase:
                    if best is None or len(phrase) > best[0]:
                        best = (len(phrase), entity_type)
            if best is not None:
                matches.append((i, i + best[0], best[1]))
                i += best[0]
            else:
                i += 1
        return matches


__all__ = ["Gazetteer"]
