"""Security-related relation extraction (paper section 2.4).

Unsupervised, dependency-based: for each verb the extractor gathers
its subject, object, prepositional and passive arguments from the
shallow parse, maps each argument to a recognised entity by
noun-phrase overlap (the syntactic head of "the wannacry ransomware"
is *ransomware*, but the entity is *wannacry* inside the same NP), and
emits <entity, verb, entity> triples:

* active:   ``subj --verb--> dobj / first prep object``
* carrier:  when the subject is not an entity but both the direct and
  a prepositional object are ("telemetry links X to Y" -> X verb Y)
* passive:  ``agent --verb--> nsubjpass``; without an agent, the
  passive subject relates to the first prepositional object
  ("X is attributed to Y" -> X verb Y)
* coordinated verbs inherit the previous verb's subject
  ("... as a.exe and encrypts b.doc")
* conjunction arcs distribute objects ("drops A and B")

Extracted triples whose endpoint types violate the ontology schema are
discarded (ontology-guided filtering), as are triples whose verb is
outside the relation vocabulary; both are extraction noise by
construction.  Confidence decays with argument distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.nlp.depparse import ParsedSentence, parse
from repro.nlp.lemma import lemmatize
from repro.nlp.ner import EntitySpan
from repro.nlp.tokenize import Token
from repro.ontology.entities import Entity
from repro.ontology.intermediate import Mention, RelationMention
from repro.ontology.relations import RelationType, normalize_verb
from repro.ontology.schema import check_relation
from repro.ontology.relations import Relation

#: Most tokens between the two arguments of one triple.
MAX_DISTANCE = 20
_NP_TAGS = frozenset({"NN", "NNS", "NNP", "CD", "JJ", "DT"})

#: Verbs that relate their own objects rather than their subject
#: ("telemetry *links* X to Y", "researchers *tied* X to Y").
_CARRIER_VERBS = frozenset({"link", "tie", "connect", "associate", "attribute", "relate"})


def _is_carrier_verb(word: str) -> bool:
    return lemmatize(word) in _CARRIER_VERBS


def _np_range(tags: list[str], head: int) -> tuple[int, int]:
    """The contiguous noun-phrase token range around a nominal head."""
    start = head
    while start > 0 and tags[start - 1] in _NP_TAGS:
        start -= 1
    end = head + 1
    while end < len(tags) and tags[end] in _NP_TAGS:
        end += 1
    return start, end


class RelationExtractor:
    """Extract <entity, verb, entity> triples from tokenized sentences.

    A triple is dropped when its verb does not normalise into the
    relation vocabulary (it would collapse to ``RELATED_TO``) or its
    endpoints violate the ontology schema.
    """

    # -- argument resolution -------------------------------------------

    @staticmethod
    def _argument_for(
        parsed: ParsedSentence, spans: Sequence[EntitySpan], dep: int
    ) -> EntitySpan | None:
        """The entity span realising the NP around token ``dep``."""
        covering = [s for s in spans if s.start <= dep < s.end]
        if covering:
            return covering[0]
        np_start, np_end = _np_range(parsed.tags, dep)
        overlapping = [s for s in spans if s.start < np_end and s.end > np_start]
        if overlapping:
            # nearest to the head wins
            return min(overlapping, key=lambda s: abs(s.end - 1 - dep))
        return None

    @staticmethod
    def _keep(relation: RelationMention) -> bool:
        relation_type = normalize_verb(relation.verb)
        if relation_type == RelationType.RELATED_TO:
            return False
        candidate = Relation(
            head=Entity(relation.head_type, relation.head_text),
            type=relation_type,
            tail=Entity(relation.tail_type, relation.tail_text),
        )
        return check_relation(candidate) is None

    # -- extraction ------------------------------------------------------

    def extract_from_parse(
        self, parsed: ParsedSentence, spans: Sequence[EntitySpan]
    ) -> list[RelationMention]:
        """Relations among ``spans`` evidenced by ``parsed``'s arcs."""
        if len(spans) < 2:
            return []
        sentence_text = " ".join(token.text for token in parsed.tokens)
        conj_map: dict[int, list[int]] = {}
        for arc in parsed.arcs:
            if arc.label == "conj":
                conj_map.setdefault(arc.head, []).append(arc.dep)

        relations: list[RelationMention] = []
        seen: set[tuple[str, str, str]] = set()
        last_subject: EntitySpan | None = None

        def resolve(dep: int) -> list[EntitySpan]:
            out = []
            for index in [dep] + conj_map.get(dep, []):
                span = self._argument_for(parsed, spans, index)
                if span is not None and span not in out:
                    out.append(span)
            return out

        def emit(head: EntitySpan, verb_index: int, tail: EntitySpan) -> None:
            if head is tail:
                return
            distance = abs((head.end - 1) - (tail.end - 1))
            if distance > MAX_DISTANCE:
                return
            verb = lemmatize(parsed.tokens[verb_index].text)
            key = (head.text, verb, tail.text)
            if key in seen:
                return
            mention = RelationMention(
                head_text=head.text,
                head_type=head.type,
                verb=verb,
                tail_text=tail.text,
                tail_type=tail.type,
                sentence=sentence_text,
                confidence=1.0 / (1.0 + 0.1 * distance),
            )
            if not self._keep(mention):
                return
            seen.add(key)
            relations.append(mention)

        for verb_index in parsed.verbs():
            subject_entity: EntitySpan | None = None
            subject_nominal: int | None = None
            passive_subjects: list[EntitySpan] = []
            agents: list[EntitySpan] = []
            direct_objects: list[EntitySpan] = []
            prep_objects: list[EntitySpan] = []

            for arc in sorted(parsed.arcs_from(verb_index), key=lambda a: a.dep):
                if arc.label == "nsubj":
                    subject_nominal = arc.dep
                    resolved = resolve(arc.dep)
                    if resolved:
                        subject_entity = resolved[0]
                elif arc.label == "nsubjpass":
                    passive_subjects.extend(resolve(arc.dep))
                elif arc.label == "agent":
                    agents.extend(resolve(arc.dep))
                elif arc.label == "dobj":
                    direct_objects.extend(resolve(arc.dep))
                elif arc.label.startswith("prep:") and not prep_objects:
                    # take the first preposition whose object is an entity
                    prep_objects.extend(resolve(arc.dep))

            # Appositive / relative-clause subjects: "X, a group that
            # leverages Y" -- the grammatical subject ("group") is not
            # an entity, but an entity NP sits just to its left.
            if subject_entity is None and subject_nominal is not None:
                steps = 0
                i = subject_nominal - 1
                while i >= 0 and steps < 6:
                    word = parsed.tokens[i].text.lower()
                    if parsed.tags[i] in ("NN", "NNS", "NNP", "CD"):
                        resolved = resolve(i)
                        if resolved:
                            subject_entity = resolved[0]
                            break
                    elif word not in (",", "that", "which", "who") and parsed.tags[
                        i
                    ] not in ("DT", "JJ"):
                        break
                    i -= 1
                    steps += 1

            # Coordinated verbs share the previous verb's subject:
            # "... drops a copy as a.exe and encrypts b.doc" -- the
            # nominal left of 'encrypts' is the previous object, not
            # the subject, so the previous subject wins outright.
            left = verb_index - 1
            while left >= 0 and parsed.tags[left] == "RB":
                left -= 1
            coordinated = left >= 0 and parsed.tokens[left].text.lower() in (
                "and",
                "or",
                ",",
                "then",
            )
            if coordinated and last_subject is not None:
                subject_entity = last_subject

            if subject_entity is not None:
                # Direct objects win; prepositional objects only fill in
                # when the verb has no entity direct object ("connects
                # to <ip>", "tampers with <registry>").
                for obj in direct_objects or prep_objects:
                    emit(subject_entity, verb_index, obj)
                last_subject = subject_entity
            elif passive_subjects:
                if agents:
                    for agent in agents:
                        for subject in passive_subjects:
                            emit(agent, verb_index, subject)
                else:
                    for subject in passive_subjects:
                        for obj in prep_objects:
                            emit(subject, verb_index, obj)
            elif _is_carrier_verb(parsed.tokens[verb_index].text):
                # Carrier verbs relate their own arguments:
                # "telemetry links X to Y" -> X verb Y.
                for head in direct_objects:
                    for tail in prep_objects:
                        emit(head, verb_index, tail)
        return relations

    def extract(
        self, tokens: Sequence[Token], spans: Sequence[EntitySpan]
    ) -> list[RelationMention]:
        """Parse ``tokens`` and extract relations among ``spans``."""
        if len(spans) < 2:
            return []  # nothing to relate: skip the parse
        return self.extract_from_parse(parse(tokens), spans)

    def extract_with_mentions(
        self,
        tokens: Sequence[Token],
        mentions: Sequence[Mention],
        sentence_index: int = 0,
    ) -> list[RelationMention]:
        """Convenience: accept ontology mentions with char offsets.

        Mentions are mapped back to token spans by offset overlap (one
        from another sentence overlaps no token and is ignored); IOC
        mentions participate as relation arguments too (``connects to
        <ip>``).
        """
        spans: list[EntitySpan] = []
        for mention in mentions:
            token_start = token_end = None
            for i, token in enumerate(tokens):
                if token.end > mention.start and token.start < mention.end:
                    if token_start is None:
                        token_start = i
                    token_end = i + 1
            if token_start is None:
                continue
            spans.append(
                EntitySpan(
                    start=token_start,
                    end=token_end,
                    type=mention.type,
                    text=mention.text,
                    confidence=mention.confidence,
                )
            )
        extracted = self.extract(tokens, spans)
        for relation in extracted:
            relation.sentence_index = sentence_index
        return extracted


__all__ = ["RelationExtractor"]
