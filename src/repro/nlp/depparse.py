"""Shallow dependency parsing for relation extraction.

The paper's relation pipeline ([17]) walks dependency paths between
entities to pick up the connecting verb.  Full statistical parsing is
out of reach offline, so this module builds the arcs that matter for
subject-verb-object extraction deterministically from POS patterns:

* ``nsubj``  -- the nominal head left of a verb within its clause;
* ``dobj``   -- the nominal head right of the verb before a clause
  boundary;
* ``pobj``   -- the nominal object of a preposition attached to the
  verb (labelled ``prep:<word>``);
* ``conj``   -- coordination between nominals ("A and B"), so objects
  distribute over conjunctions;
* passive subjects are marked ``nsubjpass`` and agents ``agent``
  ("X was dropped by Y").

Clause boundaries are other verbs and strong punctuation, which is
sufficient for the declarative prose of threat reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.nlp.pos import tag as pos_tag
from repro.nlp.tokenize import Token

_NOMINAL_TAGS = frozenset({"NN", "NNS", "NNP", "CD"})
_VERB_TAGS = frozenset({"VB", "VBZ", "VBD", "VBG", "VBN"})
_BOUNDARY_PUNCT = frozenset({",", ";", ":", ".", "!", "?"})


@dataclass(frozen=True)
class Arc:
    """One dependency arc: ``head`` and ``dep`` are token indices."""

    head: int
    dep: int
    label: str


@dataclass
class ParsedSentence:
    """Tokens, POS tags and dependency arcs of one sentence."""

    tokens: list[Token]
    tags: list[str]
    arcs: list[Arc]

    def arcs_from(self, head: int) -> list[Arc]:
        return [arc for arc in self.arcs if arc.head == head]

    def verbs(self) -> list[int]:
        return [i for i, t in enumerate(self.tags) if t in _VERB_TAGS]


def _is_nominal(tags: list[str], index: int) -> bool:
    return tags[index] in _NOMINAL_TAGS


def _nominal_head_left(tokens: Sequence[Token], tags: list[str], start: int) -> int | None:
    """Rightmost nominal to the left of ``start`` within the clause."""
    for i in range(start - 1, -1, -1):
        if tags[i] in _VERB_TAGS or tokens[i].text in _BOUNDARY_PUNCT:
            return None
        if _is_nominal(tags, i):
            return i
    return None


def _nominal_head_right(
    tokens: Sequence[Token], tags: list[str], start: int
) -> int | None:
    """Head of the first nominal group right of ``start``, clause-bounded.

    The head of an English NP is its last nominal token ('the lsass
    memory dump' -> 'dump'), so we scan to the end of the group.
    """
    i = start + 1
    n = len(tags)
    while i < n:
        if tags[i] in _VERB_TAGS or tokens[i].text in _BOUNDARY_PUNCT:
            return None
        if tags[i] == "IN" or tags[i] == "TO":
            return None
        if _is_nominal(tags, i):
            head = i
            while head + 1 < n and _is_nominal(tags, head + 1):
                head += 1
            return head
        i += 1
    return None


def parse(tokens: Sequence[Token], tags: list[str] | None = None) -> ParsedSentence:
    """Build the SVO-relevant dependency arcs of one sentence."""
    tokens = list(tokens)
    if tags is None:
        # a sentence the recogniser already tagged carries its tags
        tags = [token.pos for token in tokens]
        if None in tags:
            tags = pos_tag(tokens)
    arcs: list[Arc] = []
    n = len(tokens)

    for v in range(n):
        if tags[v] not in _VERB_TAGS:
            continue
        lower = tokens[v].text.lower()
        if lower in ("is", "are", "was", "were", "be", "been", "being"):
            continue  # copulas handled via the passive pattern below

        passive = tags[v] in ("VBN", "VBD") and v >= 1 and tokens[v - 1].text.lower() in (
            "is",
            "are",
            "was",
            "were",
            "been",
            "being",
            "be",
        )

        subject = _nominal_head_left(tokens, tags, v - 1 if passive else v)
        if subject is not None:
            arcs.append(Arc(v, subject, "nsubjpass" if passive else "nsubj"))

        obj = _nominal_head_right(tokens, tags, v)
        if obj is not None:
            arcs.append(Arc(v, obj, "dobj"))

        # Prepositional attachments: verb (... NP)? IN NP
        i = v + 1
        hops = 0
        while i < n and hops < 8:
            if tokens[i].text in _BOUNDARY_PUNCT or tags[i] in _VERB_TAGS:
                break
            if tags[i] in ("IN", "TO"):
                pobj = _nominal_head_right(tokens, tags, i)
                if pobj is not None:
                    prep = tokens[i].text.lower()
                    label = "agent" if passive and prep == "by" else f"prep:{prep}"
                    arcs.append(Arc(v, pobj, label))
            i += 1
            hops += 1

    # Nominal coordination: N (, N)* and N  -> conj arcs from the first.
    i = 0
    while i < n:
        if _is_nominal(tags, i):
            j = i
            group_head = i
            while j + 1 < n:
                k = j + 1
                if tokens[k].text in (",",) and k + 1 < n and _is_nominal(tags, k + 1):
                    arcs.append(Arc(group_head, k + 1, "conj"))
                    j = k + 1
                elif tokens[k].text.lower() in ("and", "or") and k + 1 < n and _is_nominal(
                    tags, k + 1
                ):
                    arcs.append(Arc(group_head, k + 1, "conj"))
                    j = k + 1
                else:
                    break
            i = j + 1
        else:
            i += 1

    return ParsedSentence(tokens=tokens, tags=tags, arcs=arcs)


__all__ = ["Arc", "ParsedSentence", "parse"]
