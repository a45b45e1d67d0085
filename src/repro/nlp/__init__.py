"""AI/NLP extraction stack (paper section 2.4).

Everything the paper's extractors need, built from scratch for the
offline environment: IOC recognition and IOC-protected tokenization,
rule lemmatizer, POS tagger, PPMI-SVD word embeddings, data-programming
label synthesis, a linear-chain CRF for security-entity recognition,
and dependency-based relation extraction.
"""

from repro.nlp.baselines import GazetteerRecognizer, RegexRecognizer
from repro.nlp.crf import LinearChainCRF
from repro.nlp.depparse import Arc, ParsedSentence
from repro.nlp.depparse import parse as parse_dependencies
from repro.nlp.embeddings import WordEmbeddings
from repro.nlp.features import FeatureExtractor, word_shape
from repro.nlp.gazetteer import Gazetteer
from repro.nlp.ioc import IOCMatch, classify_ioc, find_iocs
from repro.nlp.labeling import (
    LabelModel,
    NamedLF,
    default_labeling_functions,
    synthesize_corpus,
)
from repro.nlp.lemma import lemmatize
from repro.nlp.metrics import (
    EntityEvaluation,
    PRF,
    evaluate_entities,
    evaluate_relations,
)
from repro.nlp.ner import EntityRecognizer, EntitySpan, decode_bio
from repro.nlp.pos import tag as pos_tag
from repro.nlp.relation import RelationExtractor
from repro.nlp.tokenize import Sentence, Token, tokenize_sentences

__all__ = [
    "Arc",
    "EntityEvaluation",
    "EntityRecognizer",
    "EntitySpan",
    "FeatureExtractor",
    "Gazetteer",
    "GazetteerRecognizer",
    "IOCMatch",
    "LabelModel",
    "LinearChainCRF",
    "NamedLF",
    "PRF",
    "ParsedSentence",
    "RegexRecognizer",
    "RelationExtractor",
    "Sentence",
    "Token",
    "WordEmbeddings",
    "classify_ioc",
    "decode_bio",
    "default_labeling_functions",
    "evaluate_entities",
    "evaluate_relations",
    "find_iocs",
    "lemmatize",
    "parse_dependencies",
    "pos_tag",
    "synthesize_corpus",
    "tokenize_sentences",
    "word_shape",
]
