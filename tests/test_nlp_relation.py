"""Unit tests for dependency parsing and relation extraction."""

from repro.nlp.depparse import parse
from repro.nlp.ner import EntitySpan
from repro.nlp.relation import RelationExtractor
from repro.ontology import EntityType, RelationType, VERB_TO_RELATION
from search_oracle import tokenize_words


def spans_for(tokens, *specs):
    """specs: (phrase, type) -> EntitySpan with token indices."""
    words = [t.text for t in tokens]
    result = []
    for phrase, entity_type in specs:
        parts = phrase.split(" ") if " " not in phrase or not any(
            t.text == phrase for t in tokens
        ) else [phrase]
        # exact single-token IOC strings appear as one token
        if any(t.text == phrase for t in tokens):
            i = words.index(phrase)
            result.append(EntitySpan(i, i + 1, entity_type, phrase))
            continue
        first = words.index(parts[0])
        result.append(
            EntitySpan(first, first + len(parts), entity_type, phrase)
        )
    return result


def triples(extractor, text, *specs):
    tokens = tokenize_words(text)
    spans = spans_for(tokens, *specs)
    return {
        (r.head_text, r.verb, r.tail_text)
        for r in extractor.extract(tokens, spans)
    }


class TestDepparse:
    def test_svo_arcs(self):
        tokens = tokenize_words("wannacry dropped tasksche.exe on hosts")
        parsed = parse(tokens)
        labels = {(a.label, parsed.tokens[a.dep].text) for a in parsed.arcs}
        assert ("nsubj", "wannacry") in labels
        assert ("dobj", "tasksche.exe") in labels

    def test_prep_arc(self):
        tokens = tokenize_words("The malware connects to 10.0.0.1 daily")
        parsed = parse(tokens)
        assert any(a.label == "prep:to" for a in parsed.arcs)

    def test_conjunction_arc(self):
        tokens = tokenize_words("it drops a.exe and b.exe today")
        parsed = parse(tokens)
        assert any(a.label == "conj" for a in parsed.arcs)

    def test_passive_detection(self):
        tokens = tokenize_words("emotet is attributed to mummy spider")
        parsed = parse(tokens)
        assert any(a.label == "nsubjpass" for a in parsed.arcs)


class TestRelationExtractor:
    RX = RelationExtractor()

    def test_simple_svo(self):
        found = triples(
            self.RX,
            "The wannacry ransomware dropped tasksche.exe on infected hosts.",
            ("wannacry", EntityType.MALWARE),
            ("tasksche.exe", EntityType.FILE_NAME),
        )
        assert ("wannacry", "drop", "tasksche.exe") in found

    def test_prepositional_object(self):
        found = triples(
            self.RX,
            "Researchers observed that emotet connects to 10.9.8.7 over port 443.",
            ("emotet", EntityType.MALWARE),
            ("10.9.8.7", EntityType.IP),
        )
        assert ("emotet", "connect", "10.9.8.7") in found

    def test_conjunction_distributes(self):
        found = triples(
            self.RX,
            "The group known as night owl employs credential dumping and process injection in attacks.",
            ("night owl", EntityType.THREAT_ACTOR),
            ("credential dumping", EntityType.TECHNIQUE),
            ("process injection", EntityType.TECHNIQUE),
        )
        assert ("night owl", "employ", "credential dumping") in found
        assert ("night owl", "employ", "process injection") in found

    def test_coordinated_verbs_share_subject(self):
        found = triples(
            self.RX,
            "emotet drops a copy as x.exe and encrypts y.doc across drives.",
            ("emotet", EntityType.MALWARE),
            ("x.exe", EntityType.FILE_NAME),
            ("y.doc", EntityType.FILE_NAME),
        )
        assert ("emotet", "encrypt", "y.doc") in found

    def test_passive_with_prep(self):
        found = triples(
            self.RX,
            "emotet is attributed to mummy spider based on infrastructure.",
            ("emotet", EntityType.MALWARE),
            ("mummy spider", EntityType.THREAT_ACTOR),
        )
        assert ("emotet", "attribute", "mummy spider") in found

    def test_carrier_verb(self):
        found = triples(
            self.RX,
            "Telemetry links emotet to mummy spider with high confidence.",
            ("emotet", EntityType.MALWARE),
            ("mummy spider", EntityType.THREAT_ACTOR),
        )
        assert ("emotet", "link", "mummy spider") in found

    def test_np_overlap_resolution(self):
        # syntactic head 'ransomware' differs from the entity 'wannacry'
        found = triples(
            self.RX,
            "The wannacry ransomware encrypts backup.dat silently.",
            ("wannacry", EntityType.MALWARE),
            ("backup.dat", EntityType.FILE_NAME),
        )
        assert ("wannacry", "encrypt", "backup.dat") in found

    def test_schema_filter_blocks_illegal(self):
        # a file cannot DROP a malware; schema filtering must reject it
        found = triples(
            self.RX,
            "x.exe dropped emotet on the host.",
            ("x.exe", EntityType.FILE_NAME),
            ("emotet", EntityType.MALWARE),
        )
        assert ("x.exe", "drop", "emotet") not in found

    def test_unknown_verb_dropped_by_default(self):
        found = triples(
            self.RX,
            "emotet frobnicates x.exe entirely.",
            ("emotet", EntityType.MALWARE),
            ("x.exe", EntityType.FILE_NAME),
        )
        assert found == set()

    def test_unknown_verb_kept_when_configured(self, monkeypatch):
        # 'monitor' is a known verb form but not in the relation
        # vocabulary: dropped until the vocabulary maps it, kept after.
        spec = (
            self.RX,
            "emotet monitors x.exe continuously.",
            ("emotet", EntityType.MALWARE),
            ("x.exe", EntityType.FILE_NAME),
        )
        assert triples(*spec) == set()
        monkeypatch.setitem(VERB_TO_RELATION, "monitor", RelationType.MODIFIES)
        assert ("emotet", "monitor", "x.exe") in triples(*spec)

    def test_fewer_than_two_spans(self):
        tokens = tokenize_words("emotet spreads quickly.")
        spans = [EntitySpan(0, 1, EntityType.MALWARE, "emotet")]
        assert self.RX.extract(tokens, spans) == []

    def test_extract_with_mentions_maps_offsets(self):
        from repro.ontology import Mention

        text = "emotet connects to 10.0.0.1 daily."
        tokens = tokenize_words(text)
        mentions = [
            Mention("emotet", EntityType.MALWARE, 0, text.index("emotet"), text.index("emotet") + 6),
            Mention("10.0.0.1", EntityType.IP, 0, text.index("10."), text.index("10.") + 8),
        ]
        rels = self.RX.extract_with_mentions(tokens, mentions, 0)
        assert [(r.head_text, r.tail_text) for r in rels] == [("emotet", "10.0.0.1")]
