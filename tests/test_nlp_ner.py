"""Tests for the entity recogniser, embeddings and metrics."""

import random

from repro.nlp import (
    EntityRecognizer,
    WordEmbeddings,
    evaluate_entities,
    evaluate_relations,
)
from repro.nlp.ner import decode_bio
from repro.ontology import EntityType
from repro.websim.scenario import generate_report_content, make_scenarios
from search_oracle import tokenize_words


class TestDecodeBio:
    def test_simple_span(self):
        tokens = tokenize_words("the wannacry ransomware spread")
        labels = ["O", "B-Malware", "O", "O"]
        (span,) = decode_bio(tokens, labels)
        assert (span.start, span.end, span.type) == (1, 2, EntityType.MALWARE)
        assert span.text == "wannacry"

    def test_multi_token_span(self):
        tokens = tokenize_words("agent tesla struck")
        labels = ["B-Malware", "I-Malware", "O"]
        (span,) = decode_bio(tokens, labels)
        assert span.text == "agent tesla"

    def test_adjacent_spans_with_b_tags(self):
        tokens = tokenize_words("emotet trickbot joined")
        labels = ["B-Malware", "B-Malware", "O"]
        spans = decode_bio(tokens, labels)
        assert [s.text for s in spans] == ["emotet", "trickbot"]

    def test_type_change_splits_span(self):
        tokens = tokenize_words("emotet mimikatz here")
        labels = ["B-Malware", "I-Tool", "O"]
        spans = decode_bio(tokens, labels)
        assert [(s.text, s.type) for s in spans] == [
            ("emotet", EntityType.MALWARE),
            ("mimikatz", EntityType.TOOL),
        ]

    def test_confidence_is_min_over_span(self):
        tokens = tokenize_words("agent tesla")
        labels = ["B-Malware", "I-Malware"]
        (span,) = decode_bio(tokens, labels, [0.9, 0.4])
        assert span.confidence == 0.4


class TestEmbeddings:
    def test_similar_contexts_have_similar_vectors(self):
        sentences = []
        for malware in ("alpha", "beta", "gamma"):
            for _ in range(30):
                sentences.append(f"the {malware} ransomware encrypts files".split())
        for tool in ("hammer", "wrench"):
            for _ in range(30):
                sentences.append(f"operators run {tool} to move laterally".split())
        emb = WordEmbeddings(dim=8).train(sentences)
        alpha = emb.vector("alpha")  # unit vectors: the dot is the cosine
        assert alpha @ emb.vector("beta") > alpha @ emb.vector("hammer")

    def test_oov_vector_is_zero(self):
        emb = WordEmbeddings(dim=4).train([["a", "b", "a", "b"]] * 5)
        assert not emb.vector("zzz").any()

    def test_bucket_features_shape(self):
        emb = WordEmbeddings(dim=8).train([["a", "b", "c", "a", "b"]] * 10)
        feats = emb.bucket_features("a", buckets=4)
        assert 0 < len(feats) <= 4
        assert all(f.startswith("emb") for f in feats)


class TestMetrics:
    def test_perfect_match(self):
        pred = [("wannacry", EntityType.MALWARE)]
        ev = evaluate_entities(pred, list(pred))
        assert ev.micro.f1 == 1.0

    def test_case_insensitive_matching(self):
        ev = evaluate_entities(
            [("WannaCry", EntityType.MALWARE)], [("wannacry", EntityType.MALWARE)]
        )
        assert ev.micro.f1 == 1.0

    def test_type_mismatch_is_error(self):
        ev = evaluate_entities(
            [("mimikatz", EntityType.MALWARE)], [("mimikatz", EntityType.TOOL)]
        )
        assert ev.micro.f1 == 0.0

    def test_multiset_counting(self):
        pred = [("x", EntityType.IP)] * 3
        gold = [("x", EntityType.IP)] * 2
        ev = evaluate_entities(pred, gold)
        assert ev.micro.true_positives == 2
        assert ev.micro.false_positives == 1

    def test_relation_verb_normalisation(self):
        prf = evaluate_relations(
            [("a", "dropped", "b")], [("a", "drops", "b")]
        )
        assert prf.f1 == 1.0

    def test_empty_inputs(self):
        assert evaluate_entities([], []).micro.f1 == 0.0
        assert evaluate_relations([], []).f1 == 0.0


class TestEntityRecognizer:
    def test_extract_finds_iocs_without_training_effort(self, small_recognizer):
        _s, mentions = small_recognizer.extract(
            "It beacons to 10.1.2.3 and downloads https://bad.example.com/x now."
        )
        kinds = {m.type for m in mentions}
        assert EntityType.IP in kinds
        assert EntityType.URL in kinds

    def test_extract_recognises_known_malware(self, small_recognizer):
        _s, mentions = small_recognizer.extract(
            "The wannacry ransomware encrypts files across mapped drives."
        )
        assert any(
            m.type == EntityType.MALWARE and m.text == "wannacry" for m in mentions
        )

    def test_mention_offsets_match_text(self, small_recognizer):
        text = "The emotet trojan communicates with its server at files.example now."
        _s, mentions = small_recognizer.extract(text)
        for m in mentions:
            assert text[m.start : m.end] == m.text

    def test_generalises_beyond_gazetteer(self, small_recognizer):
        # 'zephyrlock' and 'crimson fox' are in no curated list;
        # context must carry them.  The quickly-trained fixture is
        # allowed to miss one probe; the benchmark model misses none.
        probes = [
            (
                "Once executed, zephyrlock drops a copy of itself as "
                r"C:\Temp\x.dll and encrypts files.",
                ("zephyrlock", EntityType.MALWARE),
            ),
            (
                "The threat actor crimson fox uses credential dumping "
                "to establish persistence.",
                ("crimson fox", EntityType.THREAT_ACTOR),
            ),
            (
                "Operators behind zephyrlock modified registry keys to "
                "survive reboots.",
                ("zephyrlock", EntityType.MALWARE),
            ),
        ]
        hits = 0
        for text, (name, entity_type) in probes:
            _s, mentions = small_recognizer.extract(text)
            if any(m.type == entity_type and m.text == name for m in mentions):
                hits += 1
        assert hits >= 2

    def test_save_load_round_trip(self, small_recognizer, tmp_path):
        path = tmp_path / "ner"
        small_recognizer.save(path)
        loaded = EntityRecognizer.load(
            path, embeddings=small_recognizer.features.embeddings
        )
        text = "The wannacry ransomware encrypts files."
        _s1, m1 = small_recognizer.extract(text)
        _s2, m2 = loaded.extract(text)
        assert [(m.text, m.type) for m in m1] == [(m.text, m.type) for m in m2]

    def test_end_to_end_f1_above_ninety(self, small_recognizer):
        """Smoke-level reproduction of the >92% F1 claim (scaled down)."""
        test_scen = make_scenarios(6, seed=77)
        pred, gold = [], []
        for s in test_scen:
            content = generate_report_content(
                s, random.Random(f"e{s.scenario_id}"), sentence_count=6
            )
            text = " ".join(gs.text for gs in content.truth.sentences)
            _sents, mentions = small_recognizer.extract(text)
            pred += [(m.text, m.type) for m in mentions]
            gold += [
                (m.text, m.type)
                for gs in content.truth.sentences
                for m in gs.mentions
            ]
        ev = evaluate_entities(pred, gold)
        # the full benchmark trains on more data and reaches ~0.99;
        # the fast fixture must still clear a high bar
        assert ev.micro.f1 > 0.85


_TRAIN_AND_HASH = """
import hashlib, sys
sys.path[:0] = {paths!r}
from test_nlp_ner import train_tiny, model_bytes
print(hashlib.sha256(model_bytes(train_tiny())).hexdigest())
"""


def train_tiny() -> EntityRecognizer:
    from conftest import training_texts

    return EntityRecognizer.train(
        training_texts(6, 1), max_iterations=8, embedding_dim=8
    )


def model_bytes(recognizer: EntityRecognizer) -> bytes:
    return b"".join(
        array.tobytes()
        for array in (
            recognizer.crf.emission,
            recognizer.crf.transition,
            recognizer.features.embeddings.vectors,
        )
    )


class TestTrainingDeterminism:
    def test_same_model_twice_in_process_and_in_a_subprocess(self):
        """The truncated SVD behind the embeddings starts from a fixed
        vector and pins each singular vector's sign, so the same texts
        give byte-equal weights in every process (ARPACK's default
        start vector comes from numpy's global RNG)."""
        import hashlib
        import subprocess
        import sys
        from pathlib import Path

        first, second = model_bytes(train_tiny()), model_bytes(train_tiny())
        assert first == second
        tests_dir = Path(__file__).resolve().parent
        script = _TRAIN_AND_HASH.format(
            paths=[str(tests_dir.parent / "src"), str(tests_dir)]
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
        )
        assert child.stdout.strip() == hashlib.sha256(first).hexdigest()

    def test_singular_vector_signs_do_not_depend_on_the_solver(self, monkeypatch):
        import numpy as np

        import repro.nlp.embeddings as embeddings

        def flipped(*args, **kwargs):
            u, s, vt = svds(*args, **kwargs)
            return -u, s, -vt

        svds = embeddings.svds
        sentences = [f"the {w} tool drops {w} files".split() for w in "abcdef"] * 6
        expected = WordEmbeddings(dim=4).train(sentences).vectors
        monkeypatch.setattr(embeddings, "svds", flipped)
        np.testing.assert_array_equal(
            WordEmbeddings(dim=4).train(sentences).vectors, expected
        )
