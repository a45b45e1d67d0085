"""Unit tests for IOC recognition."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import search_oracle
from repro.nlp.ioc import classify_ioc, find_iocs
from repro.ontology import EntityType
from repro.websim import iocgen


class TestFindIocs:
    def test_each_kind_detected(self):
        text = (
            "Seen: 10.1.2.3, evil-site.com, https://evil-site.com/gate, "
            "billing@evil-site.com, tasksche.exe, "
            r"C:\Windows\Temp\x.dll, "
            r"HKLM\Software\Run\svc, "
            "d41d8cd98f00b204e9800998ecf8427e and CVE-2021-34527."
        )
        kinds = {m.type for m in find_iocs(text)}
        assert kinds == {
            EntityType.IP,
            EntityType.DOMAIN,
            EntityType.URL,
            EntityType.EMAIL,
            EntityType.FILE_NAME,
            EntityType.FILE_PATH,
            EntityType.REGISTRY,
            EntityType.HASH,
            EntityType.VULNERABILITY,
        }

    def test_url_wins_over_inner_domain(self):
        matches = find_iocs("Visit https://bad.example.com/x now")
        assert len([m for m in matches if m.type == EntityType.DOMAIN]) == 0

    def test_email_wins_over_inner_domain(self):
        matches = find_iocs("From billing@bad-host.net today")
        assert [m.type for m in matches] == [EntityType.EMAIL]

    def test_path_wins_over_inner_file_name(self):
        matches = find_iocs(r"Dropped C:\Temp\payload.exe on disk")
        assert [m.type for m in matches] == [EntityType.FILE_PATH]

    def test_path_with_spaces_in_segments(self):
        text = r"Wrote C:\Program Files\Common Files\winupd.dll today"
        (match,) = find_iocs(text)
        assert match.text == r"C:\Program Files\Common Files\winupd.dll"

    def test_registry_with_spaced_hive(self):
        text = r"Key HKLM\Software\Microsoft\Windows NT\CurrentVersion\Winlogon\x set"
        (match,) = find_iocs(text)
        assert match.type == EntityType.REGISTRY
        assert match.text.endswith(r"Winlogon\x")

    def test_trailing_punctuation_stripped(self):
        (match,) = find_iocs(r"It used C:\Temp\a.exe.")
        assert match.text == r"C:\Temp\a.exe"

    def test_offsets_are_exact(self):
        text = "blocked 8.8.8.8 and 1.2.3.4 today"
        for match in find_iocs(text):
            assert text[match.start : match.end] == match.text

    def test_invalid_ip_not_matched(self):
        assert not [
            m for m in find_iocs("version 1.2.3.256 is out") if m.type == EntityType.IP
        ]

    def test_hash_lengths_only(self):
        assert not find_iocs("deadbeef" * 3)  # 24 hex chars: not a hash length

    def test_no_iocs_in_plain_prose(self):
        assert find_iocs("The quick brown fox jumps over the lazy dog") == []


#: each recogniser's required literal alone, inside near-misses and
#: inside matches
NEAR_MISSES = (
    "CVE-2021-34527", "cve-2020-0601", "https://a.io/x", "a@b.co", "HKLM\\Software\\Run",
    "C:\\Temp\\a.exe", "/usr/bin/x",
    "://", "@", "\\", ":\\", "/", ".", "cve-", "CVE-", "Cve-2021", "http://", "a@b",
    "HKLM\\", "hklm\\x", "C:\\", "c:\\x.", "/usr/", "/etc/x", "1.2.3", "1.2.3.4", "x.exe",
    "evil.com", "d41d8cd98f00b204e9800998ecf8427e", "\u0130", "\u212a", "\u017f", " ", "\n",
)


class TestLiteralPrefilter:
    """``find_iocs`` skips a recogniser whose required literal the text
    lacks; what it returns is what all nine passes return."""

    @given(st.lists(st.one_of(st.sampled_from(NEAR_MISSES), st.text(max_size=8)), max_size=12))
    @settings(max_examples=400, deadline=None)
    def test_generated_strings(self, pieces):
        text = "".join(pieces)
        assert find_iocs(text) == search_oracle.find_iocs(text)

    def test_websim_reports(self):
        from conftest import training_texts

        texts = training_texts(scenario_count=12)
        assert sum(len(find_iocs(text)) for text in texts) > 50
        for text in texts:
            assert find_iocs(text) == search_oracle.find_iocs(text)
            for line in text.split(". "):
                assert find_iocs(line) == search_oracle.find_iocs(line)


class TestClassifyIoc:
    @pytest.mark.parametrize(
        ("value", "expected"),
        [
            ("10.0.0.1", EntityType.IP),
            ("evil.com", EntityType.DOMAIN),
            ("https://evil.com/x", EntityType.URL),
            ("a@b.com", EntityType.EMAIL),
            ("x.exe", EntityType.FILE_NAME),
            (r"C:\a\b.exe", EntityType.FILE_PATH),
            (r"HKCU\Software\Run\x", EntityType.REGISTRY),
            ("a" * 64, EntityType.HASH),
            ("CVE-2020-1234", EntityType.VULNERABILITY),
            ("not an ioc", None),
            ("", None),
        ],
    )
    def test_classification(self, value, expected):
        assert classify_ioc(value) == expected


class TestGeneratedIocsRoundTrip:
    """Every IOC the corpus generator emits must be recognised."""

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_generated_values_classify(self, seed):
        rng = random.Random(seed)
        checks = [
            (iocgen.make_ip(rng), EntityType.IP),
            (iocgen.make_domain(rng), EntityType.DOMAIN),
            (iocgen.make_url(rng), EntityType.URL),
            (iocgen.make_email(rng), EntityType.EMAIL),
            (iocgen.make_hash(rng), EntityType.HASH),
            (iocgen.make_file_name(rng), EntityType.FILE_NAME),
            (iocgen.make_file_path(rng), EntityType.FILE_PATH),
            (iocgen.make_registry_key(rng), EntityType.REGISTRY),
            (iocgen.make_cve(rng), EntityType.VULNERABILITY),
        ]
        for value, expected in checks:
            assert classify_ioc(value) == expected, value
