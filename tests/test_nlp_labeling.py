"""Unit tests for gazetteers, labeling functions and the label model."""

from repro.nlp.gazetteer import Gazetteer
from repro.nlp.labeling import (
    LabelModel,
    NamedLF,
    cue_actor_lf,
    cue_malware_lf,
    default_labeling_functions,
    make_gazetteer_lf,
    synthesize_corpus,
)
from repro.ontology import EntityType
from search_oracle import tokenize_words


class TestGazetteer:
    GAZ = Gazetteer(
        {
            EntityType.MALWARE: {("wannacry",), ("agent", "tesla")},
            EntityType.TOOL: {("mimikatz",)},
            EntityType.THREAT_ACTOR: {("cozy", "bear")},
        }
    )

    def test_single_token_match(self):
        assert self.GAZ.match(["found", "wannacry", "here"]) == [
            (1, 2, EntityType.MALWARE)
        ]

    def test_multi_token_longest_match(self):
        matches = self.GAZ.match(["the", "agent", "tesla", "stealer"])
        assert matches == [(1, 3, EntityType.MALWARE)]

    def test_case_insensitive(self):
        assert self.GAZ.match(["WannaCry"]) == [(0, 1, EntityType.MALWARE)]

    def test_no_overlapping_matches(self):
        matches = self.GAZ.match(["cozy", "bear", "mimikatz"])
        assert [(m[0], m[1]) for m in matches] == [(0, 2), (2, 3)]

    def test_default_loads_all_types(self):
        gaz = Gazetteer.load_default()
        for entity_type in (
            EntityType.MALWARE,
            EntityType.THREAT_ACTOR,
            EntityType.TECHNIQUE,
            EntityType.TOOL,
            EntityType.SOFTWARE,
        ):
            assert gaz.entries[entity_type], entity_type


class TestCueLFs:
    def test_malware_type_word_cue(self):
        tokens = tokenize_words("The zephyrlock ransomware spread fast")
        proposals = cue_malware_lf(tokens)
        assert any(
            p[2] == EntityType.MALWARE and "zephyrlock" in " ".join(
                t.text for t in tokens[p[0] : p[1]]
            )
            for p in proposals
        )

    def test_actor_intro_cue(self):
        tokens = tokenize_words("The threat actor crimson fox uses tools")
        proposals = cue_actor_lf(tokens)
        texts = {
            " ".join(t.text for t in tokens[p[0] : p[1]]) for p in proposals
        }
        assert "crimson fox" in texts

    def test_actor_cue_stops_at_verb(self):
        tokens = tokenize_words("attributed to crimson fox based on overlap")
        proposals = cue_actor_lf(tokens)
        for start, end, _t in proposals:
            span = " ".join(t.text for t in tokens[start:end])
            assert "based" not in span

    def test_no_cue_in_plain_text(self):
        tokens = tokenize_words("Apply updates and keep backups offline")
        assert cue_malware_lf(tokens) == []
        assert cue_actor_lf(tokens) == []


class TestLabelModel:
    def test_conflicting_lfs_resolved_by_accuracy(self):
        good = NamedLF(
            "good", lambda toks: [(0, 1, EntityType.MALWARE)] if toks else []
        )
        # 'bad' fires on the same token with a different type but
        # disagrees with two corroborating functions.
        bad = NamedLF("bad", lambda toks: [(0, 1, EntityType.TOOL)] if toks else [])
        good2 = NamedLF(
            "good2", lambda toks: [(0, 1, EntityType.MALWARE)] if toks else []
        )
        sentences = [tokenize_words("emotet spreads")] * 10
        result = LabelModel().fit_predict(sentences, [good, bad, good2])
        assert result.lf_accuracies["good"] > result.lf_accuracies["bad"]
        assert result.labels[0][0] == "B-Malware"

    def test_bio_continuity(self):
        gaz = Gazetteer({EntityType.MALWARE: {("agent", "tesla")}})
        lf = make_gazetteer_lf(gaz, EntityType.MALWARE)
        sentences = [tokenize_words("agent tesla struck again")]
        result = LabelModel().fit_predict(sentences, [lf])
        assert result.labels[0][:2] == ["B-Malware", "I-Malware"]
        assert result.labels[0][2] == "O"

    def test_coverage_reported(self):
        sentences = [tokenize_words("wannacry hit hospitals")]
        _corpus, result = synthesize_corpus(sentences)
        assert 0 < result.coverage <= 1

    def test_unlabeled_tokens_stay_o(self):
        sentences = [tokenize_words("nothing suspicious here at all")]
        corpus, _r = synthesize_corpus(sentences)
        assert corpus[0][1] == ["O"] * len(corpus[0][0])

    def test_default_lfs_have_unique_names(self):
        lfs = default_labeling_functions()
        names = [lf.name for lf in lfs]
        assert len(names) == len(set(names))
