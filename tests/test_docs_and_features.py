"""Doctest verification plus feature-extraction unit tests.

Module docstrings carry runnable examples; this suite executes them so
the documentation cannot drift from the code.
"""

import doctest

import pytest

import repro.core.system
import repro.crawlers
import repro.graphdb
import repro.htmlparse
import repro.search
import repro.websim
from repro.nlp.features import FeatureExtractor, word_shape
from repro.nlp.gazetteer import Gazetteer
from repro.ontology import EntityType
from search_oracle import tokenize_words


@pytest.mark.parametrize(
    "module",
    [
        repro.htmlparse,
        repro.search,
        repro.graphdb,
        repro.websim,
        repro.crawlers,
        repro.core.system,
    ],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__}: {results.failed} doctest failures"


class TestWordShape:
    @pytest.mark.parametrize(
        ("word", "shape"),
        [
            ("WannaCry", "XxXx"),
            ("emotet", "x"),
            ("CVE-2021-1234", "X-d-d"),
            ("10.0.0.1", "d.d.d.d"),
            ("T1059", "Xd"),
            ("", ""),
        ],
    )
    def test_shapes(self, word, shape):
        assert word_shape(word) == shape

    def test_shape_truncates_long_words(self):
        assert len(word_shape("a" * 100)) <= 12


class TestFeatureExtractor:
    GAZ = Gazetteer({EntityType.MALWARE: {("emotet",)}})

    def test_core_feature_families_present(self):
        tokens = tokenize_words("The Emotet trojan connects to 10.0.0.1")
        features = FeatureExtractor(gazetteer=self.GAZ).extract(tokens)
        emotet_feats = features[1]
        assert "w=emotet" in emotet_feats
        assert "lemma=emotet" in emotet_feats
        assert any(f.startswith("pos=") for f in emotet_feats)
        assert any(f.startswith("shape=") for f in emotet_feats)
        assert "gaz=Malware" in emotet_feats
        assert "cap" in emotet_feats

    def test_ioc_token_features(self):
        tokens = tokenize_words("connects to 10.0.0.1 daily")
        features = FeatureExtractor().extract(tokens)
        ip_index = [t.text for t in tokens].index("10.0.0.1")
        assert "ioc" in features[ip_index]
        assert "ioctype=IP" in features[ip_index]

    def test_context_window_features(self):
        tokens = tokenize_words("alpha beta gamma")
        features = FeatureExtractor(window=1).extract(tokens)
        assert "w[-1]=alpha" in features[1]
        assert "w[+1]=gamma" in features[1]
        assert "w[-1]=<s>" in features[0]
        assert "w[+1]=</s>" in features[2]

    def test_window_zero_drops_context(self):
        tokens = tokenize_words("alpha beta gamma")
        features = FeatureExtractor(window=0).extract(tokens)
        assert not any(f.startswith("w[") for f in features[1])

    def test_bos_eos_markers(self):
        tokens = tokenize_words("one two")
        features = FeatureExtractor().extract(tokens)
        assert "bos" in features[0]
        assert "eos" in features[-1]

    def test_no_gazetteer_no_gaz_features(self):
        tokens = tokenize_words("emotet spreads")
        features = FeatureExtractor(gazetteer=None).extract(tokens)
        assert not any(f.startswith("gaz=") for f in features[0])


class TestFeatureIdCache:
    """``encode`` resolves templates to ids through a bounded per-word
    cache that the extract workers share without a lock."""

    def test_cache_stops_growing_at_its_cap(self, small_recognizer, monkeypatch):
        import repro.nlp.features as features

        monkeypatch.setattr(features, "WORD_CACHE_CAP", 5)
        crf = small_recognizer.crf
        extractor = FeatureExtractor(
            gazetteer=small_recognizer.features.gazetteer,
            embeddings=small_recognizer.features.embeddings,
        )
        text = "The emotet trojan drops a copy of itself and encrypts mapped drives"
        for _ in range(2):
            tokens = tokenize_words(text)
            encoded = extractor.encode([tokens], crf.feature_index)
            assert len(extractor._cache.words) == 5
            # words past the cap are resolved afresh, to the same ids
            reference = crf._encode([extractor.extract(tokens)])
            assert encoded.ids.tolist() == reference.ids.tolist()
            assert encoded.by_width == reference.by_width

    def test_concurrent_encoders_agree_and_respect_the_cap(
        self, small_recognizer, monkeypatch
    ):
        """More threads than cores, a tiny switch interval and a cap the
        vocabulary overflows: every thread encodes what one thread does,
        and the racing inserts never push the cache past its cap."""
        import sys
        import threading

        import repro.nlp.features as features

        monkeypatch.setattr(features, "WORD_CACHE_CAP", 12)
        crf = small_recognizer.crf
        extractor = FeatureExtractor(
            gazetteer=small_recognizer.features.gazetteer,
            embeddings=small_recognizer.features.embeddings,
        )
        texts = [
            "The emotet trojan drops a copy of itself and encrypts mapped drives",
            "Operators behind wannacry modified registry keys to survive reboots",
            "Lazarus group uses credential dumping against 10.1.2.3 daily",
        ]
        expected = [
            crf._encode([extractor.extract(tokenize_words(text))]).ids.tolist()
            for text in texts
        ]
        wrong: list[str] = []

        def encode_all():
            for _ in range(40):
                for text, ids in zip(texts, expected):
                    got = extractor.encode([tokenize_words(text)], crf.feature_index)
                    if got.ids.tolist() != ids:
                        wrong.append(text)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=encode_all, name=f"encoder-{i}")
                for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(extractor._cache.words) == 12

    def test_another_feature_index_starts_a_fresh_cache(self, small_recognizer):
        extractor = small_recognizer.features
        tokens = tokenize_words("emotet spreads")
        index = dict(small_recognizer.crf.feature_index)
        index["w=emotet"] = len(index) + 7
        assert index["w=emotet"] in extractor.encode([tokens], index).ids
        again = extractor.encode([tokens], small_recognizer.crf.feature_index)
        assert index["w=emotet"] not in again.ids

    def test_worker_counts_produce_the_same_records(self, small_recognizer, small_web):
        """The CRF in 2 or 3 forked extractor processes (each with its
        own copy of the recogniser and its cache) extracts exactly what
        one pipeline thread does, in the same order."""
        from repro import SecurityKG, SystemConfig

        def records(workers: int) -> list[str]:
            with SecurityKG(
                SystemConfig(
                    sources=["ThreatPedia", "SecureListing", "InfoSec Ledger"],
                    connectors=["graph"], clock="virtual",
                    parse_workers=workers, extract_workers=workers,
                ),
                web=small_web, recognizer=small_recognizer,
            ) as kg:
                checked = kg.checker.filter(kg.porter.port(kg.crawl().documents))
                processed, result = kg.process(checked.passed)
            assert not result.errors
            return [record.to_json() for record in processed]

        serial = records(1)
        assert len(serial) > 5
        for workers in (1, 2, 3):
            assert records(workers) == serial, workers


class TestCrfInFullPipeline:
    def test_crf_extractor_feeds_the_knowledge_graph(self, small_recognizer):
        """The paper's extractor inside the full system: unseen-name
        malware reaches the graph, which regex/gazetteer cannot do."""
        from repro import SecurityKG, SystemConfig

        config = SystemConfig(
            scenario_count=6,
            reports_per_site=2,
            sources=["SecureListing", "InfoSec Ledger"],
            connectors=["graph"],
        )
        crf_system = SecurityKG(config, recognizer=small_recognizer)
        crf_system.run_once()
        regex_system = SecurityKG(
            SystemConfig(**{**config.__dict__, "recognizer": "regex"})
        )
        regex_system.run_once()

        crf_labels = crf_system.graph.label_counts()
        regex_labels = regex_system.graph.label_counts()
        assert crf_labels.get("Malware", 0) > regex_labels.get("Malware", 0)
        assert crf_labels.get("ThreatActor", 0) > regex_labels.get("ThreatActor", 0)
        # behavioural relations require recognised concepts
        assert any(
            t in crf_system.graph.edge_type_counts()
            for t in ("DROPS", "CONNECTS_TO", "USES", "ENCRYPTS")
        )
