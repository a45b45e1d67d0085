"""String similarity for knowledge fusion.

Different CTI vendors render the same entity under different naming
conventions ("agent tesla", "AgentTesla", "agent_tesla"); fusion needs
to recognise these as one entity.  Two complementary signals:

* :func:`squash` -- a normal form that removes case, separators and
  punctuation; equal squashes indicate a pure convention difference.
* :func:`jaro_winkler` -- edit-distance-flavoured similarity for
  near-miss spellings ("sodinokibi" vs "sodinokibi ransomware" is
  handled by token containment in :func:`name_similarity`).
"""

from __future__ import annotations

import re

_NON_ALNUM = re.compile(r"[^a-z0-9]+")


def squash(name: str) -> str:
    """Case/separator/punctuation-free normal form of a name."""
    return _NON_ALNUM.sub("", name.lower())


def jaro(a: str, b: str) -> float:
    """Jaro similarity in [0, 1]."""
    if a == b:
        return 1.0
    len_a, len_b = len(a), len(b)
    if not len_a or not len_b:
        return 0.0
    window = max(len_a, len_b) // 2 - 1
    window = max(window, 0)
    match_a = [False] * len_a
    match_b = [False] * len_b
    matches = 0
    for i, char in enumerate(a):
        lo = max(0, i - window)
        hi = min(len_b, i + window + 1)
        for j in range(lo, hi):
            if not match_b[j] and b[j] == char:
                match_a[i] = True
                match_b[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(len_a):
        if match_a[i]:
            while not match_b[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    return (
        matches / len_a + matches / len_b + (matches - transpositions) / matches
    ) / 3


def jaro_winkler(a: str, b: str) -> float:
    """Jaro-Winkler similarity: Jaro with a common-prefix bonus (the
    standard scale 0.1 per shared character, at most four)."""
    base = jaro(a, b)
    prefix = 0
    for char_a, char_b in zip(a[:4], b[:4]):
        if char_a != char_b:
            break
        prefix += 1
    return base + prefix * 0.1 * (1 - base)


def token_set_overlap(a: str, b: str) -> float:
    """Jaccard overlap of the word sets of two names."""
    set_a = set(a.lower().split())
    set_b = set(b.lower().split())
    if not set_a or not set_b:
        return 0.0
    return len(set_a & set_b) / len(set_a | set_b)


def name_similarity(a: str, b: str) -> float:
    """Composite similarity used by the fusion stage.

    1.0 for squash-equal names (pure convention differences); else the
    max of Jaro-Winkler over squashes and token-set overlap.
    """
    squash_a, squash_b = squash(a), squash(b)
    if squash_a and squash_a == squash_b:
        return 1.0
    return max(jaro_winkler(squash_a, squash_b), token_set_overlap(a, b))


__all__ = ["jaro", "jaro_winkler", "name_similarity", "squash", "token_set_overlap"]
