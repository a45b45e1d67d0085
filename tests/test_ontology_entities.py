"""Unit tests for the entity vocabulary and merge keys."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ontology import (
    CRF_ENTITY_TYPES,
    IOC_TYPES,
    Entity,
    EntityType,
    canonical_name,
)


class TestEntityType:
    def test_report_types_flagged(self):
        assert EntityType.MALWARE_REPORT.is_report
        assert EntityType.VULNERABILITY_REPORT.is_report
        assert EntityType.ATTACK_REPORT.is_report
        assert not EntityType.MALWARE.is_report

    def test_ioc_types_cover_paper_list(self):
        # file name, file path, IP, URL, email, domain, registry, hashes
        assert len(IOC_TYPES) == 8
        assert EntityType.REGISTRY.is_ioc
        assert not EntityType.TOOL.is_ioc

    def test_concept_partition(self):
        for entity_type in EntityType:
            # a concept is what is neither: no type is both
            assert not (entity_type.is_report and entity_type.is_ioc), entity_type

    def test_crf_types_are_concepts(self):
        for entity_type in CRF_ENTITY_TYPES:
            assert not entity_type.is_report and not entity_type.is_ioc


class TestCanonicalName:
    def test_case_and_whitespace_folded(self):
        assert canonical_name("  WannaCry ") == "wannacry"
        assert canonical_name("Cozy  Duke") == "cozy duke"

    def test_inner_newlines_folded(self):
        assert canonical_name("a\nb\tc") == "a b c"

    @given(st.text(min_size=1))
    def test_idempotent(self, text):
        once = canonical_name(text)
        assert canonical_name(once) == once


class TestEntity:
    def test_key_matches_for_case_variants(self):
        a = Entity(EntityType.MALWARE, "WannaCry")
        b = Entity(EntityType.MALWARE, "wannacry")
        assert a.key == b.key

    def test_key_differs_across_types(self):
        a = Entity(EntityType.MALWARE, "mimikatz")
        b = Entity(EntityType.TOOL, "mimikatz")
        assert a.key != b.key

    def test_round_trip(self):
        entity = Entity(EntityType.IP, "10.0.0.1", {"first_seen": "2021-01-01"})
        assert Entity.from_dict(entity.to_dict()) == entity

    def test_merged_with_unions_attributes(self):
        a = Entity(EntityType.MALWARE, "emotet", {"family": "loader"})
        b = Entity(EntityType.MALWARE, "Emotet", {"active": True})
        merged = a.merged_with(b)
        assert merged.attributes == {"family": "loader", "active": True}

    def test_merged_with_other_wins_ties(self):
        a = Entity(EntityType.MALWARE, "emotet", {"severity": "low"})
        b = Entity(EntityType.MALWARE, "emotet", {"severity": "high"})
        assert a.merged_with(b).attributes["severity"] == "high"

    def test_merged_with_rejects_different_keys(self):
        a = Entity(EntityType.MALWARE, "emotet")
        b = Entity(EntityType.MALWARE, "trickbot")
        with pytest.raises(ValueError):
            a.merged_with(b)

    @given(
        st.sampled_from(list(EntityType)),
        st.text(min_size=1, max_size=40),
    )
    def test_round_trip_property(self, entity_type, name):
        entity = Entity(entity_type, name)
        assert Entity.from_dict(entity.to_dict()) == entity
