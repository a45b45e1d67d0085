"""Unit tests for the intermediate representations and refactoring."""

from hypothesis import given
from hypothesis import strategies as st

from repro.ontology import (
    CTIRecord,
    EntityType,
    Mention,
    RelationMention,
    RelationType,
    ReportRecord,
    check_relation,
    refactor_record,
)


def make_record(**overrides):
    base = dict(
        report_id="r-1",
        source="ThreatPedia",
        url="https://threatpedia.example/threats/x",
        title="WannaCry analysis",
        vendor="Arcane Labs",
        report_category="malware",
        summary="The wannacry ransomware dropped tasksche.exe on hosts.",
    )
    base.update(overrides)
    return CTIRecord(**base)


class TestReportRecord:
    def test_round_trip_json(self):
        record = ReportRecord(
            report_id="a",
            source="s",
            url="u",
            title="t",
            pages=["<html>1</html>", "<html>2</html>"],
            fetched_at=12.5,
            metadata={"index": 3},
        )
        assert ReportRecord.from_json(record.to_json()) == record


class TestCTIRecord:
    def test_round_trip_json(self):
        record = make_record()
        record.sections = [("Overview", "text one"), ("Impact", "text two")]
        record.structured_fields = {"Severity": "high"}
        record.add_ioc(EntityType.IP, "10.0.0.1")
        record.mentions.append(Mention("wannacry", EntityType.MALWARE, 0, 4, 12))
        record.relations.append(
            RelationMention(
                "wannacry",
                EntityType.MALWARE,
                "dropped",
                "tasksche.exe",
                EntityType.FILE_NAME,
                sentence="it dropped it",
            )
        )
        assert CTIRecord.from_json(record.to_json()) == record

    def test_add_ioc_deduplicates(self):
        record = make_record()
        record.add_ioc(EntityType.IP, "10.0.0.1")
        record.add_ioc(EntityType.IP, "10.0.0.1")
        record.add_ioc(EntityType.IP, "10.0.0.2")
        assert record.ioc_values(EntityType.IP) == ["10.0.0.1", "10.0.0.2"]

    def test_text_joins_summary_and_sections(self):
        record = make_record(summary="s.")
        record.sections = [("H", "body.")]
        assert record.text == "s.\nbody."

    @given(st.text(max_size=30), st.text(max_size=30))
    def test_round_trip_property(self, title, summary):
        record = make_record(title=title, summary=summary)
        assert CTIRecord.from_dict(record.to_dict()) == record


class TestRefactor:
    def test_report_entity_typed_by_category(self):
        delta = refactor_record(make_record(report_category="vulnerability"))
        assert delta.entities[0].type == EntityType.VULNERABILITY_REPORT

    def test_unknown_category_defaults_to_attack(self):
        delta = refactor_record(make_record(report_category=""))
        assert delta.entities[0].type == EntityType.ATTACK_REPORT

    def test_vendor_edge_created(self):
        delta = refactor_record(make_record())
        created_by = [r for r in delta.relations if r.type == RelationType.CREATED_BY]
        assert len(created_by) == 1
        assert created_by[0].tail.name == "Arcane Labs"

    def test_iocs_become_entities_with_mentions(self):
        record = make_record()
        record.add_ioc(EntityType.IP, "10.0.0.1")
        record.add_ioc(EntityType.HASH, "ab" * 16)
        delta = refactor_record(record)
        ioc_entities = [e for e in delta.entities if e.type.is_ioc]
        assert {e.name for e in ioc_entities} == {"10.0.0.1", "ab" * 16}
        mention_edges = [r for r in delta.relations if r.type == RelationType.MENTIONS]
        assert {r.tail.name for r in mention_edges} >= {"10.0.0.1", "ab" * 16}

    def test_malware_mention_gets_describes_edge(self):
        record = make_record()
        record.mentions.append(Mention("wannacry", EntityType.MALWARE))
        delta = refactor_record(record)
        describes = [r for r in delta.relations if r.type == RelationType.DESCRIBES]
        assert [r.tail.name for r in describes] == ["wannacry"]

    def test_relation_mentions_validated_and_normalised(self):
        record = make_record()
        record.relations.append(
            RelationMention(
                "wannacry",
                EntityType.MALWARE,
                "dropped",
                "tasksche.exe",
                EntityType.FILE_NAME,
            )
        )
        delta = refactor_record(record)
        drops = [r for r in delta.relations if r.type == RelationType.DROPS]
        assert len(drops) == 1
        assert drops[0].attributes["verb"] == "dropped"
        assert all(check_relation(r) is None for r in delta.relations)

    def test_duplicate_mentions_interned_once(self):
        record = make_record()
        record.mentions.append(Mention("emotet", EntityType.MALWARE))
        record.mentions.append(Mention("Emotet", EntityType.MALWARE))
        delta = refactor_record(record)
        malware = [e for e in delta.entities if e.type == EntityType.MALWARE]
        assert len(malware) == 1
