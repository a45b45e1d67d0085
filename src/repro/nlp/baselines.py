"""Baseline entity recognisers.

The paper claims its CRF "can outperform a naive entity recognition
solution that relies on regex rules, and generalize to entities that
are not in the training set".  These two baselines make that claim
measurable (benchmark E4):

* :class:`RegexRecognizer` -- IOC regexes plus the CVE shape rule
  only; it cannot see concept entities at all.
* :class:`GazetteerRecognizer` -- regexes plus exact lookup in the
  curated lists; it nails listed names and misses everything else.
"""

from __future__ import annotations

from repro.nlp.gazetteer import Gazetteer
from repro.nlp.tokenize import Sentence, tokenize_sentences
from repro.ontology.intermediate import Mention


class RegexRecognizer:
    """IOC/CVE regex extraction only (the naive solution)."""

    def extract(self, text: str) -> tuple[list[Sentence], list[Mention]]:
        sentences = tokenize_sentences(text)
        mentions: list[Mention] = []
        for index, sentence in enumerate(sentences):
            for token in sentence.tokens:
                if token.is_ioc:
                    mentions.append(
                        Mention(
                            text=token.text,
                            type=token.ioc_type,
                            sentence_index=index,
                            start=token.start,
                            end=token.end,
                            method="regex",
                        )
                    )
        return sentences, mentions


class GazetteerRecognizer(RegexRecognizer):
    """Regexes + curated-list lookup (no generalisation)."""

    def __init__(self) -> None:
        self.gazetteer = Gazetteer.load_default()

    def extract(self, text: str) -> tuple[list[Sentence], list[Mention]]:
        sentences, mentions = super().extract(text)
        for index, sentence in enumerate(sentences):
            words = [token.text for token in sentence.tokens]
            for start, end, entity_type in self.gazetteer.match(words):
                first = sentence.tokens[start]
                last = sentence.tokens[end - 1]
                mentions.append(
                    Mention(
                        text=" ".join(words[start:end]),
                        type=entity_type,
                        sentence_index=index,
                        start=first.start,
                        end=last.end,
                        method="gazetteer",
                    )
                )
        return sentences, mentions


__all__ = ["GazetteerRecognizer", "RegexRecognizer"]
