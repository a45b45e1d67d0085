"""Evaluation metrics for extraction quality.

Span-level precision/recall/F1 for entity recognition (exact match on
normalised text + type) and triple-level F1 for relation extraction
(head, normalised relation, tail).  Used by the tests and by the E4-E7
benchmarks that reproduce the paper's ">92% F1" claim.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.ontology.entities import EntityType, canonical_name
from repro.ontology.relations import normalize_verb


@dataclass
class PRF:
    """Precision / recall / F1 with raw counts."""

    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0

    @property
    def precision(self) -> float:
        denom = self.true_positives + self.false_positives
        return self.true_positives / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.true_positives + self.false_negatives
        return self.true_positives / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    def __iadd__(self, other: "PRF") -> "PRF":
        self.true_positives += other.true_positives
        self.false_positives += other.false_positives
        self.false_negatives += other.false_negatives
        return self


@dataclass
class EntityEvaluation:
    """Micro scores plus per-type breakdown for entity extraction."""

    micro: PRF = field(default_factory=PRF)
    by_type: dict[EntityType, PRF] = field(default_factory=dict)

    @property
    def macro_f1(self) -> float:
        scores = [prf.f1 for prf in self.by_type.values()]
        return sum(scores) / len(scores) if scores else 0.0


def _entity_key(text: str, entity_type: EntityType) -> tuple[str, str]:
    return (canonical_name(text), entity_type.value)


def evaluate_entities(
    predicted: list[tuple[str, EntityType]],
    gold: list[tuple[str, EntityType]],
) -> EntityEvaluation:
    """Multiset span matching: each gold mention may be matched once."""
    evaluation = EntityEvaluation()
    predicted_counts = Counter(_entity_key(t, k) for t, k in predicted)
    gold_counts = Counter(_entity_key(t, k) for t, k in gold)

    keys = set(predicted_counts) | set(gold_counts)
    for key in keys:
        entity_type = EntityType(key[1])
        prf = evaluation.by_type.setdefault(entity_type, PRF())
        tp = min(predicted_counts[key], gold_counts[key])
        fp = predicted_counts[key] - tp
        fn = gold_counts[key] - tp
        prf.true_positives += tp
        prf.false_positives += fp
        prf.false_negatives += fn
        evaluation.micro += PRF(tp, fp, fn)
    return evaluation


def _relation_key(head: str, verb: str, tail: str) -> tuple[str, str, str]:
    return (canonical_name(head), normalize_verb(verb).value, canonical_name(tail))


def evaluate_relations(
    predicted: list[tuple[str, str, str]],
    gold: list[tuple[str, str, str]],
) -> PRF:
    """Triple matching after verb normalisation."""
    predicted_counts = Counter(_relation_key(*triple) for triple in predicted)
    gold_counts = Counter(_relation_key(*triple) for triple in gold)
    prf = PRF()
    for key in set(predicted_counts) | set(gold_counts):
        tp = min(predicted_counts[key], gold_counts[key])
        prf.true_positives += tp
        prf.false_positives += predicted_counts[key] - tp
        prf.false_negatives += gold_counts[key] - tp
    return prf


__all__ = ["EntityEvaluation", "PRF", "evaluate_entities", "evaluate_relations"]
