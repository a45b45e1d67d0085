"""Unit tests for relation vocabulary, verb normalisation and schema."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ontology import (
    SCHEMA,
    Entity,
    EntityType,
    Relation,
    RelationType,
    VERB_TO_RELATION,
    check_relation,
    normalize_verb,
    validate_relation,
)


def _rel(head_type, rel_type, tail_type):
    return Relation(
        head=Entity(head_type, "head"),
        type=rel_type,
        tail=Entity(tail_type, "tail"),
    )


class TestNormalizeVerb:
    @pytest.mark.parametrize(
        ("verb", "expected"),
        [
            ("drop", RelationType.DROPS),
            ("drops", RelationType.DROPS),
            ("dropped", RelationType.DROPS),
            ("dropping", RelationType.DROPS),
            ("use", RelationType.USES),
            ("uses", RelationType.USES),
            ("used", RelationType.USES),
            ("encrypts", RelationType.ENCRYPTS),
            ("encrypted", RelationType.ENCRYPTS),
            ("beaconing", RelationType.COMMUNICATES_WITH),
            ("exfiltrates", RelationType.SENDS),
            ("leveraged", RelationType.USES),
            ("Connects", RelationType.CONNECTS_TO),
            ("TARGETS", RelationType.TARGETS),
        ],
    )
    def test_inflections(self, verb, expected):
        assert normalize_verb(verb) == expected

    def test_unknown_verb_falls_back(self):
        assert normalize_verb("frobnicates") == RelationType.RELATED_TO

    @given(st.sampled_from(sorted(VERB_TO_RELATION)))
    def test_every_base_verb_maps_to_itself(self, verb):
        assert normalize_verb(verb) == VERB_TO_RELATION[verb]


class TestSchema:
    def test_every_relation_type_has_schema(self):
        assert set(SCHEMA) == set(RelationType)

    def test_legal_relation_passes(self):
        rel = _rel(EntityType.MALWARE, RelationType.DROPS, EntityType.FILE_NAME)
        assert check_relation(rel) is None
        assert validate_relation(rel) is rel

    def test_illegal_head_rewritten(self):
        rel = _rel(EntityType.FILE_NAME, RelationType.DROPS, EntityType.MALWARE)
        assert check_relation(rel) is not None
        coerced = validate_relation(rel)
        assert coerced.type == RelationType.RELATED_TO
        assert coerced.attributes["raw_type"] == "DROPS"

    def test_illegal_tail_rewritten(self):
        rel = _rel(EntityType.MALWARE, RelationType.ENCRYPTS, EntityType.IP)
        coerced = validate_relation(rel)
        assert coerced.type == RelationType.RELATED_TO

    def test_related_to_accepts_anything(self):
        for head in EntityType:
            rel = _rel(head, RelationType.RELATED_TO, EntityType.MALWARE)
            assert check_relation(rel) is None

    def test_ioc_indicates_malware(self):
        rel = _rel(EntityType.HASH, RelationType.INDICATES, EntityType.MALWARE)
        assert check_relation(rel) is None

    def test_allowed_tail_types(self):
        heads, tails = SCHEMA[RelationType.CONNECTS_TO]
        assert EntityType.MALWARE in heads and EntityType.IP not in heads
        assert EntityType.IP in tails
        assert EntityType.FILE_NAME not in tails

    @given(
        st.sampled_from(list(EntityType)),
        st.sampled_from(list(RelationType)),
        st.sampled_from(list(EntityType)),
    )
    def test_validate_always_yields_legal_relation(self, head, rel_type, tail):
        coerced = validate_relation(_rel(head, rel_type, tail))
        assert check_relation(coerced) is None


class TestRelationSerialization:
    def test_round_trip(self):
        rel = Relation(
            head=Entity(EntityType.MALWARE, "wannacry"),
            type=RelationType.DROPS,
            tail=Entity(EntityType.FILE_NAME, "tasksche.exe"),
            attributes={"verb": "dropped"},
            provenance={"report_id": "r1", "sentence": "it dropped it"},
        )
        assert Relation.from_dict(rel.to_dict()) == rel

    def test_key_ignores_attributes(self):
        a = Relation(
            Entity(EntityType.MALWARE, "x"),
            RelationType.DROPS,
            Entity(EntityType.FILE_NAME, "y"),
            attributes={"a": 1},
        )
        b = Relation(
            Entity(EntityType.MALWARE, "X"),
            RelationType.DROPS,
            Entity(EntityType.FILE_NAME, "Y"),
            attributes={"b": 2},
        )
        assert a.key == b.key
