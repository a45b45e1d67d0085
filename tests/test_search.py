"""Unit tests for the analyzer and BM25 search index."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search import SearchIndex, analyze


class TestAnalyzer:
    def test_lowercases_and_drops_stopwords(self):
        terms = analyze("The Malware AND the Files")
        assert "the" not in terms
        assert "malware" in terms

    def test_lemma_variants_added(self):
        terms = analyze("it encrypts files")
        assert "encrypts" in terms and "encrypt" in terms

    def test_ioc_kept_whole_and_fragmented(self):
        terms = analyze("beacons to update-relay3.xyz now")
        assert "update-relay3.xyz" in terms
        assert "relay3" in terms

    def test_url_fragments(self):
        terms = analyze("from https://evil.example/gate today")
        assert "evil" in terms and "gate" in terms

    def test_punctuation_dropped(self):
        assert "," not in analyze("a, b, c")


@pytest.fixture
def index():
    idx = SearchIndex()
    idx.add(
        "r1",
        {
            "title": "WannaCry: anatomy of an evolving threat",
            "body": "The wannacry ransomware encrypts files and spreads fast.",
            "source": "ThreatPedia",
        },
    )
    idx.add(
        "r2",
        {
            "title": "Emotet returns",
            "body": "The emotet trojan drops payloads and encrypts nothing.",
            "source": "SecureListing",
        },
    )
    idx.add(
        "r3",
        {
            "title": "Quarterly roundup",
            "body": "Many families including wannacry and emotet were active.",
            "source": "ThreatPedia",
        },
    )
    return idx


class TestSearch:
    def test_basic_ranking_title_boost(self, index):
        hits = index.search("wannacry")
        assert hits[0].doc_id == "r1"  # title match outranks body-only
        assert {h.doc_id for h in hits} == {"r1", "r3"}

    def test_and_mode(self, index):
        hits = index.search("wannacry emotet", mode="and")
        assert [h.doc_id for h in hits] == ["r3"]

    def test_or_mode_includes_partial(self, index):
        hits = index.search("wannacry emotet", mode="or")
        assert {h.doc_id for h in hits} == {"r1", "r2", "r3"}

    def test_filters(self, index):
        hits = index.search("wannacry", filters={"source": "ThreatPedia"})
        assert {h.doc_id for h in hits} == {"r1", "r3"}
        assert index.search("emotet", filters={"source": "Nope"}) == []

    def test_limit(self, index):
        assert len(index.search("emotet", limit=1)) == 1

    def test_lemma_matching(self, index):
        hits = index.search("encrypt")
        assert {h.doc_id for h in hits} == {"r1", "r2"}

    def test_empty_query(self, index):
        assert index.search("") == []
        assert index.search("the and of") == []

    def test_unknown_term(self, index):
        assert index.search("zzzzz") == []

    def test_scores_descending(self, index):
        hits = index.search("wannacry emotet files")
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)


class TestPhraseSearch:
    def test_exact_phrase(self, index):
        hits = index.phrase_search("wannacry ransomware")
        assert [h.doc_id for h in hits] == ["r1"]

    def test_phrase_order_matters(self, index):
        assert index.phrase_search("ransomware wannacry") == []

    def test_single_term_phrase(self, index):
        assert {h.doc_id for h in index.phrase_search("emotet")} == {"r2", "r3"}


class TestLifecycle:
    def test_reindex_replaces(self, index):
        index.add("r1", {"title": "totally different", "body": "nothing here"})
        assert index.search("wannacry", mode="and") and all(
            h.doc_id != "r1" for h in index.search("wannacry")
        )

    def test_remove(self, index):
        assert index.remove("r1")
        assert not index.remove("r1")
        assert all(h.doc_id != "r1" for h in index.search("wannacry"))
        assert index.doc_count == 2

    def test_save_load_round_trip(self, index):
        # the engine's snapshot format: to_state through JSON and back
        loaded = SearchIndex()
        loaded.restore_state(json.loads(json.dumps(index.to_state())))
        assert [h.doc_id for h in loaded.search("wannacry")] == [
            h.doc_id for h in index.search("wannacry")
        ]
        assert loaded.doc_count == index.doc_count

    @given(
        st.lists(
            st.text(alphabet="abcdef ghij", min_size=1, max_size=30),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_every_indexed_doc_findable_by_own_terms(self, bodies):
        idx = SearchIndex()
        for i, body in enumerate(bodies):
            idx.add(f"d{i}", {"body": body})
        for i, body in enumerate(bodies):
            terms = analyze(body)
            if not terms:
                continue
            hits = idx.search(terms[0], limit=len(bodies))
            assert any(h.doc_id == f"d{i}" for h in hits)


_SCORE_IN_A_CHILD = """
import sys
sys.path.insert(0, {src!r})
from repro.search import SearchIndex
index = SearchIndex()
index.add("a", {{"title": "emotet encrypts files", "entities": "emotet",
                "body": "the emotet loader encrypts and encrypts then emotet sleeps"}})
index.add("b", {{"title": "files", "entities": "emotet trickbot",
                "body": "emotet drops files; nothing encrypts them"}})
index.add("c", {{"title": "encrypt everything", "entities": "x",
                "body": "emotet emotet emotet and a long tail of other words here"}})
index.add("d", {{"title": "unrelated", "body": "nothing to see", "entities": "y"}})
print([(hit.doc_id, repr(hit.score)) for hit in index.search("emotet encrypts")])
"""


class TestScoresDoNotDependOnTheHashSeed:
    def test_same_scores_in_processes_with_different_hash_seeds(self):
        """A score is a float sum over the query's terms (here three:
        ``encrypts`` also queries its lemma), so the order of the sum
        must not come from a set of strings."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = set()
        for hash_seed in ("1", "2"):
            child = subprocess.run(
                [sys.executable, "-c", _SCORE_IN_A_CHILD.format(src=src)],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
            )
            outputs.add(child.stdout.strip())
        assert len(outputs) == 1, outputs
        assert "'a'" in outputs.pop()
