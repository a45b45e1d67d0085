"""Data programming: programmatic training-set synthesis.

Manually annotating enough OSCTI sentences to train a CRF is
prohibitively expensive; the paper instead synthesises annotations
with data programming [11].  This module implements the approach:

* **Labeling functions** (LFs) propose entity spans: gazetteer lookups
  over the curated lists, contextual cue patterns ("the X ransomware",
  "threat actor X"), and a CVE shape rule.  LFs are noisy and partial;
  they may conflict.
* A **label model** reconciles LF votes.  Per-LF accuracies are
  estimated without gold labels by agreement with the weighted
  majority (an EM-style fixed point, the spirit of Snorkel's
  generative model), and tokens are labelled by accuracy-weighted
  vote when confidence clears a margin; otherwise they stay ``O``.

The output is a BIO-labelled corpus ready for CRF training.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.nlp.gazetteer import Gazetteer
from repro.nlp.pos import is_verb_like
from repro.nlp.tokenize import Token
from repro.ontology.entities import CRF_ENTITY_TYPES, EntityType

#: A span proposal: (start_token, end_token, entity_type).
Proposal = tuple[int, int, EntityType]

#: A labeling function maps a token sequence to span proposals.
LabelingFunction = Callable[[Sequence[Token]], list[Proposal]]


@dataclass
class NamedLF:
    """A labeling function with an identity (for accuracy bookkeeping)."""

    name: str
    fn: LabelingFunction

    def __call__(self, tokens: Sequence[Token]) -> list[Proposal]:
        return self.fn(tokens)


# ---------------------------------------------------------------------------
# labeling functions


def make_gazetteer_lf(gazetteer: Gazetteer, entity_type: EntityType) -> NamedLF:
    """LF: spans matching the curated list of one entity type."""

    def lf(tokens: Sequence[Token]) -> list[Proposal]:
        words = [token.text for token in tokens]
        return [
            (start, end, matched_type)
            for start, end, matched_type in gazetteer.match(words)
            if matched_type == entity_type
        ]

    return NamedLF(name=f"gazetteer:{entity_type.value}", fn=lf)


_MALWARE_CUES_AFTER = frozenset(
    {"ransomware", "trojan", "malware", "worm", "backdoor", "stealer", "loader",
     "implant", "botnet", "rat", "wiper", "dropper"}
)
_ACTOR_INTROS = (
    ("threat", "actor"),
    ("intrusion", "set"),
    ("group", "known", "as"),
    ("attributed", "to"),
    ("the", "actor"),
    ("actor",),
)
_STOPWORDS = frozenset(
    "the a an this that these those its his her their of and or to in on at "
    "by for with from as is are was were be been new known malicious based "
    "infrastructure using against during".split()
)
_NAME_RE = re.compile(r"^[a-z][a-z0-9-]*$", re.IGNORECASE)


def _looks_like_name(token: Token) -> bool:
    return (
        not token.is_ioc
        and token.text.lower() not in _STOPWORDS
        and not is_verb_like(token.text)
        and bool(_NAME_RE.match(token.text))
    )


def _extend_name(tokens: Sequence[Token], start: int, max_len: int = 3) -> int:
    """Greedy right extension over plausible name tokens."""
    words = [token.text.lower() for token in tokens]
    end = start
    while (
        end < len(tokens)
        and end - start < max_len
        and _looks_like_name(tokens[end])
        and words[end] not in _STOPWORDS
    ):
        end += 1
    return end


def cue_malware_lf(tokens: Sequence[Token]) -> list[Proposal]:
    """LF: '<name> ransomware/trojan/...' and 'operators behind <name>'."""
    proposals: list[Proposal] = []
    words = [token.text.lower() for token in tokens]
    for i, token in enumerate(tokens[:-1]):
        if words[i + 1] in _MALWARE_CUES_AFTER and _looks_like_name(token):
            start = i
            if i >= 1 and _looks_like_name(tokens[i - 1]):
                start = i - 1
            proposals.append((start, i + 1, EntityType.MALWARE))
    for i in range(len(words) - 2):
        if words[i] == "operators" and words[i + 1] == "behind":
            end = _extend_name(tokens, i + 2, max_len=2)
            if end > i + 2:
                proposals.append((i + 2, end, EntityType.MALWARE))
    return proposals


def cue_actor_lf(tokens: Sequence[Token]) -> list[Proposal]:
    """LF: 'threat actor <name>', 'group known as <name>', etc."""
    words = [token.text.lower() for token in tokens]
    proposals: list[Proposal] = []
    for intro in _ACTOR_INTROS:
        size = len(intro)
        for i in range(len(words) - size):
            if tuple(words[i : i + size]) != intro:
                continue
            start = i + size
            end = _extend_name(tokens, start, max_len=3)
            if end > start:
                proposals.append((start, end, EntityType.THREAT_ACTOR))
    return proposals


def default_labeling_functions() -> list[NamedLF]:
    """The standard LF set: per-type gazetteers + contextual cue patterns.

    CVE identifiers are deliberately absent: IOC-protected tokenization
    already types them via the regex path, so the CRF never needs to
    label them (labeling them twice would double-count mentions).
    """
    gazetteer = Gazetteer.load_default()
    lfs = [
        make_gazetteer_lf(gazetteer, entity_type)
        for entity_type in CRF_ENTITY_TYPES
        if gazetteer.entries.get(entity_type)
    ]
    lfs.append(NamedLF("cue:malware", cue_malware_lf))
    lfs.append(NamedLF("cue:actor", cue_actor_lf))
    # NOTE: cue LFs for technique/tool/software exist (below) but are
    # not in the default set: their precision on free text is too low
    # and the label model cannot demote solo voters.  The default
    # regime instead trains on known-name corpora (full gazetteer
    # coverage) and relies on feature dropout for generalisation.
    return lfs


# ---------------------------------------------------------------------------
# label model


@dataclass
class LabelModelResult:
    """Per-sentence BIO labels plus diagnostics."""

    labels: list[list[str]]
    lf_accuracies: dict[str, float]
    coverage: float  # fraction of tokens with at least one vote


class LabelModel:
    """Accuracy-weighted reconciliation of labeling-function votes."""

    #: Rounds of re-estimating each function's accuracy from consensus.
    ITERATIONS = 5

    def fit_predict(
        self,
        sentences: list[Sequence[Token]],
        lfs: list[NamedLF],
    ) -> LabelModelResult:
        """Estimate LF accuracies and emit BIO labels for every sentence."""
        # Collect votes: votes[s][i] = {lf_name: (span_id, type)}
        all_votes: list[list[dict[str, tuple[int, EntityType]]]] = []
        span_registry: list[list[dict[str, list[Proposal]]]] = []
        for sentence in sentences:
            token_votes: list[dict[str, tuple[int, EntityType]]] = [
                {} for _ in sentence
            ]
            proposals_by_lf: dict[str, list[Proposal]] = {}
            for lf in lfs:
                proposals = lf(sentence)
                proposals_by_lf[lf.name] = proposals
                for span_id, (start, end, entity_type) in enumerate(proposals):
                    for i in range(start, min(end, len(sentence))):
                        token_votes[i][lf.name] = (span_id, entity_type)
            all_votes.append(token_votes)
            span_registry.append([proposals_by_lf])

        accuracies = {lf.name: 0.7 for lf in lfs}
        for _ in range(self.ITERATIONS):
            agree = {lf.name: 1.0 for lf in lfs}
            total = {lf.name: 2.0 for lf in lfs}  # +2 smoothing
            for token_votes in all_votes:
                for votes in token_votes:
                    if not votes:
                        continue
                    consensus = self._weighted_majority(votes, accuracies)
                    if consensus is None:
                        continue
                    for lf_name, (_sid, entity_type) in votes.items():
                        total[lf_name] += 1.0
                        if entity_type == consensus:
                            agree[lf_name] += 1.0
            accuracies = {
                name: min(0.99, max(0.01, agree[name] / total[name]))
                for name in accuracies
            }

        labels: list[list[str]] = []
        voted_tokens = 0
        total_tokens = 0
        for sentence, token_votes in zip(sentences, all_votes):
            total_tokens += len(sentence)
            token_types: list[EntityType | None] = []
            for votes in token_votes:
                if votes:
                    voted_tokens += 1
                decided = self._confident_label(votes, accuracies)
                token_types.append(decided)
            labels.append(_to_bio(token_types))
        return LabelModelResult(
            labels=labels,
            lf_accuracies=accuracies,
            coverage=voted_tokens / total_tokens if total_tokens else 0.0,
        )

    @staticmethod
    def _weighted_majority(
        votes: dict[str, tuple[int, EntityType]],
        accuracies: dict[str, float],
    ) -> EntityType | None:
        scores: dict[EntityType, float] = {}
        for lf_name, (_sid, entity_type) in votes.items():
            acc = accuracies[lf_name]
            weight = math.log(acc / (1 - acc))
            scores[entity_type] = scores.get(entity_type, 0.0) + weight
        if not scores:
            return None
        return max(scores, key=scores.get)

    def _confident_label(
        self,
        votes: dict[str, tuple[int, EntityType]],
        accuracies: dict[str, float],
    ) -> EntityType | None:
        if not votes:
            return None
        scores: dict[EntityType, float] = {}
        for lf_name, (_sid, entity_type) in votes.items():
            acc = accuracies[lf_name]
            scores[entity_type] = scores.get(entity_type, 0.0) + math.log(
                acc / (1 - acc)
            )
        best = max(scores, key=scores.get)
        # Require the weighted vote mass to be net positive: a single
        # low-accuracy LF (weight < 0 once acc drops under 0.5) cannot
        # force a label on its own.
        return best if scores[best] > 0 else None


def _to_bio(token_types: list[EntityType | None]) -> list[str]:
    """Convert per-token types to BIO tags."""
    bio: list[str] = []
    previous: EntityType | None = None
    for entity_type in token_types:
        if entity_type is None:
            bio.append("O")
        elif entity_type == previous:
            bio.append(f"I-{entity_type.value}")
        else:
            bio.append(f"B-{entity_type.value}")
        previous = entity_type
    return bio


def synthesize_corpus(
    sentences: list[Sequence[Token]],
    lfs: list[NamedLF] | None = None,
) -> tuple[list[tuple[Sequence[Token], list[str]]], LabelModelResult]:
    """End-to-end data programming: sentences -> BIO training corpus."""
    lfs = lfs if lfs is not None else default_labeling_functions()
    result = LabelModel().fit_predict(sentences, lfs)
    corpus = list(zip(sentences, result.labels))
    return corpus, result


__all__ = [
    "LabelModel",
    "LabelModelResult",
    "NamedLF",
    "Proposal",
    "cue_actor_lf",
    "cue_malware_lf",
    "default_labeling_functions",
    "make_gazetteer_lf",
    "synthesize_corpus",
]
