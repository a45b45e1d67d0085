"""Security-related entity recognition (paper section 2.4).

:class:`EntityRecognizer` is the full pipeline the paper describes:
IOC-protected tokenization, feature extraction (lemmas, POS tags,
embeddings, gazetteers), a linear-chain CRF trained on annotations
synthesised by data programming, and BIO decoding back to typed
mentions.  IOC mentions come from the regex recognisers (they are
deterministic artifacts, not prose), concept mentions from the CRF.

``EntityRecognizer.train`` is self-contained: give it raw sentences
and it synthesises labels, trains embeddings, and fits the CRF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.nlp.crf import LinearChainCRF
from repro.nlp.features import FeatureExtractor
from repro.nlp.gazetteer import Gazetteer
from repro.nlp.labeling import NamedLF, synthesize_corpus
from repro.nlp.embeddings import WordEmbeddings
from repro.nlp.tokenize import Sentence, Token, tokenize_sentences
from repro.ontology.entities import EntityType
from repro.ontology.intermediate import Mention


@dataclass
class EntitySpan:
    """A typed span over a tokenized sentence (token index range)."""

    start: int  # first token index
    end: int  # one past last token index
    type: EntityType
    text: str
    confidence: float = 1.0


def decode_bio(
    tokens: Sequence[Token], labels: list[str], confidences: list[float] | None = None
) -> list[EntitySpan]:
    """Collapse a BIO sequence into typed spans."""
    spans: list[EntitySpan] = []
    current_type: EntityType | None = None
    start = 0
    scores: list[float] = []

    def flush(end: int) -> None:
        nonlocal current_type, scores
        if current_type is not None:
            text = " ".join(token.text for token in tokens[start:end])
            confidence = min(scores) if scores else 1.0
            spans.append(
                EntitySpan(
                    start=start,
                    end=end,
                    type=current_type,
                    text=text,
                    confidence=confidence,
                )
            )
        current_type = None
        scores = []

    for i, label in enumerate(labels):
        conf = confidences[i] if confidences else 1.0
        if label == "O":
            flush(i)
            continue
        prefix, _, type_name = label.partition("-")
        entity_type = EntityType(type_name)
        if prefix == "B" or entity_type != current_type:
            flush(i)
            current_type = entity_type
            start = i
        scores.append(conf)
    flush(len(labels))
    return spans


_IDENTITY_PREFIXES = ("w=", "lemma=", "gaz=")


def _drop_identity_features(features: list[str]) -> list[str]:
    """Remove identity features from one token's feature list."""
    return [f for f in features if not f.startswith(_IDENTITY_PREFIXES)]


class EntityRecognizer:
    """CRF-based recogniser for concept entities + regex IOC mentions."""

    def __init__(
        self,
        crf: LinearChainCRF,
        feature_extractor: FeatureExtractor,
        protect_iocs: bool = True,
    ):
        self.crf = crf
        self.features = feature_extractor
        self.protect_iocs = protect_iocs

    # -- training -----------------------------------------------------------

    @classmethod
    def train(
        cls,
        texts: list[str],
        gazetteer: Gazetteer | None = None,
        lfs: list[NamedLF] | None = None,
        embedding_dim: int = 24,
        l2: float = 0.05,
        max_iterations: int = 70,
        protect_iocs: bool = True,
        use_embeddings: bool = True,
        context_window: int = 2,
        use_gazetteer_features: bool = True,
        feature_dropout: float = 0.3,
        dropout_seed: int = 17,
    ) -> "EntityRecognizer":
        """End-to-end training from raw sentence strings.

        Labels are synthesised by data programming; no gold annotation
        is consumed, mirroring the paper's setting.

        ``feature_dropout`` randomly blanks the identity features
        (``w=``, ``lemma=``, ``gaz=``) of a fraction of training
        tokens.  Without it the CRF can satisfy the training labels by
        memorising gazetteer hits and never learns the contextual
        evidence that lets it recognise names outside the curated
        lists -- the generalisation the paper claims over naive
        lookup solutions.
        """
        import random as _random

        gazetteer = gazetteer or Gazetteer.load_default()
        token_sentences: list[list[Token]] = []
        for text in texts:
            for sentence in tokenize_sentences(text, protect_iocs=protect_iocs):
                token_sentences.append(sentence.tokens)

        corpus, _diag = synthesize_corpus(token_sentences, lfs=lfs)

        embeddings = None
        if use_embeddings:
            embeddings = WordEmbeddings(dim=embedding_dim).train(
                [[t.text for t in tokens] for tokens in token_sentences]
            )
        extractor = FeatureExtractor(
            gazetteer=gazetteer if use_gazetteer_features else None,
            embeddings=embeddings,
            window=context_window,
        )
        rng = _random.Random(dropout_seed)
        features = []
        labels = []
        for tokens, bio in corpus:
            sentence_features = extractor.extract(tokens)
            if feature_dropout > 0:
                sentence_features = [
                    _drop_identity_features(feats)
                    if rng.random() < feature_dropout
                    else feats
                    for feats in sentence_features
                ]
            features.append(sentence_features)
            labels.append(bio)
        crf = LinearChainCRF(l2=l2, max_iterations=max_iterations).fit(
            features, labels
        )
        return cls(crf=crf, feature_extractor=extractor, protect_iocs=protect_iocs)

    # -- inference -------------------------------------------------------------

    def extract(self, text: str) -> tuple[list[Sentence], list[Mention]]:
        """All mentions in ``text``: CRF concepts + regex IOCs.

        Returns the sentence segmentation (for downstream relation
        extraction) and the mentions with character offsets.  The CRF
        sees the text once: one encoded batch, one packed decode.
        """
        sentences = tokenize_sentences(text, protect_iocs=self.protect_iocs)
        batch = self.features.encode(
            [sentence.tokens for sentence in sentences], self.crf.feature_index
        )
        decoded = self.crf.decode_many(batch)
        mentions: list[Mention] = []
        for index, (sentence, bio) in enumerate(zip(sentences, decoded)):
            tokens = sentence.tokens
            mentions.extend(
                Mention(t.text, t.ioc_type, index, t.start, t.end, 1.0, "regex")
                for t in tokens
                if t.is_ioc
            )
            for span in decode_bio(tokens, *bio):  # ``method`` defaults to "crf"
                start, end = tokens[span.start].start, tokens[span.end - 1].end
                mentions.append(
                    Mention(span.text, span.type, index, start, end, span.confidence)
                )
        return sentences, mentions


__all__ = ["EntityRecognizer", "EntitySpan", "decode_bio"]
