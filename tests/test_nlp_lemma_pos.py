"""Unit tests for the lemmatizer and POS tagger."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nlp.lemma import lemmatize
from repro.nlp.pos import is_verb_like, tag
from search_oracle import tokenize_words


class TestLemmatize:
    @pytest.mark.parametrize(
        ("word", "lemma"),
        [
            ("drops", "drop"),
            ("dropped", "drop"),
            ("dropping", "drop"),
            ("uses", "use"),
            ("used", "use"),
            ("encrypts", "encrypt"),
            ("encrypted", "encrypt"),
            ("utilizes", "utilize"),
            ("modified", "modify"),
            ("families", "family"),
            ("vulnerabilities", "vulnerability"),
            ("was", "be"),
            ("written", "write"),
            ("connects", "connect"),
            ("beacons", "beacon"),
            ("analysis", "analysis"),
            ("process", "process"),
            ("hosts", "host"),
            ("exfiltrates", "exfiltrate"),
            ("propagates", "propagate"),
            ("Targets", "target"),
        ],
    )
    def test_inflections(self, word, lemma):
        assert lemmatize(word) == lemma

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12))
    def test_always_lowercase_and_nonempty(self, word):
        lemma = lemmatize(word)
        assert lemma
        assert lemma == lemma.lower()


def tags_for(text: str) -> list[tuple[str, str]]:
    tokens = tokenize_words(text)
    return list(zip([t.text for t in tokens], tag(tokens)))


class TestPosTagger:
    def test_simple_svo(self):
        tagged = dict(tags_for("The malware drops files"))
        assert tagged["The"] == "DT"
        assert tagged["drops"] == "VBZ"
        assert tagged["files"] in ("NNS", "NN")

    def test_ioc_tokens_are_nnp(self):
        tokens = tokenize_words("It beacons to 10.0.0.1 today")
        tags = tag(tokens)
        ip_index = [t.text for t in tokens].index("10.0.0.1")
        assert tags[ip_index] == "NNP"

    def test_participle_before_noun_is_adjectival(self):
        tagged = dict(tags_for("The actor employs scheduled task persistence"))
        assert tagged["scheduled"] == "JJ"
        assert tagged["employs"] == "VBZ"

    def test_main_verb_not_adjectivised(self):
        tagged = dict(tags_for("The ransomware dropped tasksche.exe on hosts"))
        assert tagged["dropped"] == "VBD"

    def test_to_plus_verb_is_infinitival(self):
        tagged = tags_for("It tries to establish persistence")
        as_dict = dict(tagged)
        assert as_dict["to"] == "TO"

    def test_short_ic_word_is_not_adjective(self):
        tagged = dict(tags_for("It executed wmic quickly"))
        assert tagged["wmic"] != "JJ"

    def test_numbers_are_cd(self):
        tagged = dict(tags_for("over port 443 now"))
        assert tagged["443"] == "CD"

    def test_punctuation(self):
        tagged = dict(tags_for("Stop . now"))
        assert tagged["."] == "PUNCT"

    def test_is_verb_like(self):
        assert is_verb_like("drops")
        assert is_verb_like("exfiltrates")
        assert is_verb_like("dropped")
        assert not is_verb_like("wannacry")
        assert not is_verb_like("infrastructure")

    def test_tag_length_matches_tokens(self):
        tokens = tokenize_words("a b c d e")
        assert len(tag(tokens)) == len(tokens)
