"""Unit tests for tokenization, sentence splitting and IOC protection."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.ioc import find_iocs
from repro.nlp.tokenize import tokenize_sentences
from repro.ontology import EntityType
from search_oracle import tokenize_words


class TestSentenceSplitting:
    def test_basic_split(self):
        sentences = tokenize_sentences("First sentence. Second one here.")
        assert len(sentences) == 2

    def test_abbreviation_not_split(self):
        sentences = tokenize_sentences("Use tools e.g. Mimikatz today. Done now.")
        assert len(sentences) == 2

    def test_question_and_exclamation(self):
        sentences = tokenize_sentences("Is it bad? Yes! Patch now.")
        assert len(sentences) == 3

    def test_ioc_dots_do_not_split(self):
        text = "Malware beacons to 10.0.0.1 daily. It then stops."
        assert len(tokenize_sentences(text)) == 2

    def test_url_does_not_split(self):
        text = "See https://a.example.com/x.y.z for info. Next sentence."
        sentences = tokenize_sentences(text)
        assert len(sentences) == 2
        assert any(t.is_ioc for t in sentences[0].tokens)

    def test_final_sentence_without_period(self):
        assert len(tokenize_sentences("No trailing period here")) == 1

    def test_empty_text(self):
        assert tokenize_sentences("") == []
        assert tokenize_sentences("   \n  ") == []


class TestIocProtection:
    TEXT = (
        "The wannacry ransomware connects to 192.168.1.10 and writes "
        r"C:\Windows\Temp\x.dll quickly."
    )

    def test_ioc_tokens_are_single(self):
        tokens = tokenize_words(self.TEXT)
        ioc_tokens = [t for t in tokens if t.is_ioc]
        assert [t.text for t in ioc_tokens] == [
            "192.168.1.10",
            r"C:\Windows\Temp\x.dll",
        ]
        assert ioc_tokens[0].ioc_type == EntityType.IP
        assert ioc_tokens[1].ioc_type == EntityType.FILE_PATH

    def test_unprotected_tokenization_shreds_iocs(self):
        protected = tokenize_words(self.TEXT, protect_iocs=True)
        naive = tokenize_words(self.TEXT, protect_iocs=False)
        assert len(naive) > len(protected)
        assert not any(t.is_ioc for t in naive)

    def test_offsets_point_into_original_text(self):
        for sentence in tokenize_sentences(self.TEXT):
            for token in sentence.tokens:
                assert self.TEXT[token.start : token.end] == token.text

    def test_sentence_spans_cover_original(self):
        text = "One here. Two 10.0.0.1 there. Three."
        for sentence in tokenize_sentences(text):
            assert text[sentence.start : sentence.end] == sentence.text

    def test_alphanumeric_names_stay_single_tokens(self):
        tokens = tokenize_words("rundll32 proxy execution on f5 big-ip")
        texts = [t.text for t in tokens]
        assert "rundll32" in texts
        assert "f5" in texts
        assert "big-ip" in texts

    @given(st.text(alphabet="abcdefgh ., ", max_size=80))
    @settings(max_examples=50, deadline=None)
    def test_offsets_always_consistent(self, text):
        for sentence in tokenize_sentences(text):
            for token in sentence.tokens:
                assert text[token.start : token.end] == token.text

    def test_every_ioc_type_survives_protection(self):
        text = (
            "a@b.com 10.0.0.1 evil.com https://x.com/y "
            r"C:\a\b.exe HKLM\S\R x.exe "
            + "e" * 32
            + " CVE-2019-1000"
        )
        tokens = [t for t in tokenize_words(text) if t.is_ioc]
        kinds = {t.ioc_type for t in tokens}
        assert EntityType.EMAIL in kinds
        assert EntityType.IP in kinds
        assert EntityType.HASH in kinds
        assert EntityType.VULNERABILITY in kinds


class TestPlaceholdersDoNotLeak:
    """A placeholder is a token only where the protector wrote one."""

    def test_glued_word_does_not_swallow_the_ioc(self):
        tokens = tokenize_words("beacon to c2-10.1.2.3 now")
        assert [t.text for t in tokens] == [
            "beacon", "to", "c2", "-", "10.1.2.3", "now",
        ]
        assert [t.text for t in tokens if t.is_ioc] == ["10.1.2.3"]

    def test_word_running_into_a_path_stops_at_it(self):
        tokens = tokenize_words("dropped into tmp/usr/bin/evil quickly")
        assert [(t.text, t.is_ioc) for t in tokens] == [
            ("dropped", False),
            ("into", False),
            ("tmp", False),
            ("/usr/bin/evil", True),
            ("quickly", False),
        ]

    def test_literal_placeholder_word_stays_literal(self):
        text = "the string iocshield0 was seen next to 10.1.2.3 today"
        tokens = tokenize_words(text)
        assert [t.text for t in tokens if t.is_ioc] == ["10.1.2.3"]
        assert "iocshield0" in [t.text for t in tokens if not t.is_ioc]
        for token in tokens:
            assert text[token.start : token.end] == token.text

    @given(
        st.lists(
            st.sampled_from(
                ["c2", "-", "'", " ", ". ", "10.1.2.3", "evil.com", "/usr/bin/x",
                 "iocshield0", "iocshield1", "A", "9", "x.exe", "\n"]
            ),
            max_size=12,
        ).map("".join)
    )
    @settings(max_examples=200, deadline=None)
    def test_no_placeholder_surfaces_and_every_ioc_does(self, text):
        tokens = tokenize_words(text)
        for token in tokens:
            assert text[token.start : token.end] == token.text
        assert [(t.start, t.end) for t in tokens if t.is_ioc] == [
            (m.start, m.end) for m in find_iocs(text)
        ]
