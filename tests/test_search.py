"""Unit tests for the analyzer and BM25 search index."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import search_oracle
from repro import SecurityKG, SystemConfig
from repro.search import SearchIndex, analyze
from repro.search.index import FIELD_BOOSTS


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

    def test_or_mode_includes_partial(self, index):
        hits = index.search("wannacry emotet")
        assert {h.doc_id for h in hits} == {"r1", "r2", "r3"}

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
        assert index.search("wannacry") and all(
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


# -- against the brute-force oracle ------------------------------------------

#: the shapes that broke the tokenizer: words glued to IOCs, literal
#: placeholders, IOCs at sentence edges, abbreviations, non-ASCII
_ADVERSARIAL = [
    "c2", "-", "'", " ", "  ", ". ", ".", "\n", ", ", "10.1.2.3", "evil.com",
    "update-relay3.xyz", "https://evil.example/gate?x=1", "/usr/bin/x",
    r"C:\Program Files\x.exe", r"HKLM\Software\Run", "a.exe", "CVE-2020-1234",
    "user@mail.example", "iocshield0", "iocshield1", "e.g.", "Dr.", "The",
    "Encrypts", "files", "was", "Zeus", "9", "x_", "é", "\u00a0", "(", ")", "!",
    "d41d8cd98f00b204e9800998ecf8427e",
]
adversarial_text = st.lists(st.sampled_from(_ADVERSARIAL), max_size=14).map("".join)
any_text = st.one_of(adversarial_text, st.text(max_size=40))


def ranked(hits):
    return [(hit.doc_id, repr(hit.score)) for hit in hits]


def oracle_ranked(hits):
    return [(doc_id, repr(score)) for doc_id, score in hits]


def same_answers(index, oracle, queries, limit=1000):
    assert index.to_state() == oracle.state()
    for query in queries:
        assert ranked(index.search(query, limit=limit)) == (
            oracle_ranked(oracle.search(query, limit=limit))
        ), query
        assert ranked(index.phrase_search(query)) == oracle_ranked(
            oracle.phrase_search(query)
        ), query


class TestAgainstOracle:
    @given(any_text)
    @settings(max_examples=300, deadline=None)
    def test_analyzer_terms(self, text):
        assert analyze(text) == search_oracle.analyze(text)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "add", "add", "remove"]),
                st.sampled_from(["d0", "d1", "d2", "d3"]),
                st.dictionaries(
                    st.sampled_from(["title", "body", "entities"]),
                    adversarial_text,
                    max_size=3,
                ),
            ),
            max_size=10,
        ),
        st.lists(adversarial_text, min_size=1, max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_adds_re_adds_and_removes(self, operations, queries):
        index = SearchIndex()
        oracle = search_oracle.OracleIndex(FIELD_BOOSTS)
        for op, doc_id, fields in operations:
            if op == "add":
                index.add(doc_id, fields)
                oracle.add(doc_id, fields)
            else:
                assert index.remove(doc_id) == oracle.remove(doc_id)
        same_answers(index, oracle, queries)
        # nothing of a removed or replaced document is left behind:
        # the state is that of a fresh index given the survivors
        fresh = SearchIndex()
        for doc_id, fields in oracle.documents.items():
            fresh.add(doc_id, fields)
        assert index.to_state() == fresh.to_state()
        # ... and it survives the snapshot round trip, counters included
        restored = SearchIndex()
        restored.restore_state(json.loads(json.dumps(index.to_state())))
        same_answers(restored, oracle, queries)
        for doc_id in list(oracle.documents):
            assert restored.remove(doc_id)
        assert restored.to_state() == SearchIndex().to_state()

    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_websim_corpus(self, seed):
        """Every report of the 42-site web, as the search connector
        indexes it."""
        import random

        from repro.connectors.searchconn import SearchConnector
        from repro.search.index import SearchIndexParticipant
        from repro.storage import StorageEngine
        from repro.websim import build_default_web

        kg = SecurityKG(
            SystemConfig(recognizer="gazetteer", clock="virtual", time_scale=0.0,
                         failure_rate=0.0, connectors=["graph"]),
            web=build_default_web(scenario_count=40, reports_per_site=2, seed=seed),
        )
        crawl = kg.crawl()
        records, _result = kg.process(kg.checker.filter(kg.porter.port(crawl.documents)).passed)
        kg.close()
        assert len(records) > 75
        connector = SearchConnector(StorageEngine(None, [SearchIndexParticipant()]))
        for record in records:
            connector.ingest(record)
        index = connector.index
        oracle = search_oracle.OracleIndex(FIELD_BOOSTS)
        for record in records:
            oracle.add(record.report_id, index.document(record.report_id))
        rng = random.Random(seed)
        vocabulary = sorted(
            {term for fields in oracle.analysed.values() for terms in fields.values()
             for term in terms}
        )
        queries = [
            " ".join(rng.sample(vocabulary, rng.choice((1, 2, 2, 3)))) for _ in range(25)
        ]
        queries += [record.title for record in rng.sample(records, 5)]
        same_answers(index, oracle, queries)
        # re-index a third of the corpus, drop a tenth
        for record in rng.sample(records, len(records) // 3):
            fields = dict(index.document(record.report_id), title="re-indexed " + record.title)
            index.add(record.report_id, fields)
            oracle.add(record.report_id, fields)
        for record in rng.sample(records, len(records) // 10):
            assert index.remove(record.report_id) == oracle.remove(record.report_id)
        same_answers(index, oracle, queries)
