"""Unit tests for the synthetic OSCTI web."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htmlparse import parse
from repro.ontology import EntityType
from repro.websim import (
    DEFAULT_SITE_SPECS,
    SimulatedTransport,
    TEMPLATES,
    TransportError,
    build_default_web,
    make_scenarios,
    realize,
)
from repro.websim import iocgen
from repro.websim.render import FAMILIES, render_report
from repro.websim.scenario import generate_report_content
from repro.websim.textgen import SLOT_TYPES, Template, template_slots


@pytest.fixture(scope="module")
def web():
    return build_default_web(scenario_count=12, reports_per_site=6)


class TestSeedsAndIocGen:
    def test_default_web_has_40_plus_sources(self):
        assert len(DEFAULT_SITE_SPECS) >= 40

    def test_ip_shape(self):
        rng = random.Random(1)
        for _ in range(50):
            octets = iocgen.make_ip(rng).split(".")
            assert len(octets) == 4
            assert all(1 <= int(o) <= 254 for o in octets)

    def test_hash_lengths(self):
        # md5, sha1 and sha256 digests, the algorithm drawn per hash
        rng = random.Random(2)
        assert {len(iocgen.make_hash(rng)) for _ in range(60)} == {32, 40, 64}

    def test_cve_shape(self):
        rng = random.Random(3)
        cve = iocgen.make_cve(rng)
        assert cve.startswith("CVE-")
        year = int(cve.split("-")[1])
        assert 2014 <= year <= 2021

    def test_registry_and_path_have_backslashes(self):
        rng = random.Random(4)
        assert "\\" in iocgen.make_registry_key(rng)
        assert iocgen.make_file_path(rng).startswith("C:\\")

    def test_email_and_url_shapes(self):
        rng = random.Random(5)
        assert "@" in iocgen.make_email(rng)
        assert iocgen.make_url(rng).startswith(("http://", "https://"))


class TestTemplates:
    def test_realize_spans_are_exact(self):
        template = Template(
            "The {malware} ransomware dropped {file_name} on hosts.",
            (("malware", "dropped", "file_name"),),
        )
        sentence = realize(
            template, {"malware": "wannacry", "file_name": "tasksche.exe"}
        )
        for mention in sentence.mentions:
            assert sentence.text[mention.start : mention.end] == mention.text
        assert sentence.relations[0].head_text == "wannacry"
        assert sentence.relations[0].tail_text == "tasksche.exe"

    def test_missing_slot_raises(self):
        template = TEMPLATES[0]
        with pytest.raises(KeyError):
            realize(template, {})

    def test_all_template_slots_are_known(self):
        for template in TEMPLATES:
            for slot in template_slots(template):
                assert slot in SLOT_TYPES, slot

    def test_all_relation_slots_appear_in_pattern(self):
        for template in TEMPLATES:
            slots = set(template_slots(template))
            for head, _verb, tail in template.relations:
                assert head in slots and tail in slots

    def test_relation_verbs_normalise(self):
        from repro.ontology import RelationType, normalize_verb

        for template in TEMPLATES:
            for _head, verb, _tail in template.relations:
                assert normalize_verb(verb) != RelationType.RELATED_TO, verb


class TestScenario:
    def test_scenarios_deterministic(self):
        assert repr(make_scenarios(5, seed=3)) == repr(make_scenarios(5, seed=3))

    def test_report_content_has_truth(self):
        scenario = make_scenarios(1, seed=3)[0]
        content = generate_report_content(scenario, random.Random(1))
        assert content.title
        assert content.truth.sentences
        assert any(s.mentions for s in content.truth.sentences)
        assert content.ioc_table[EntityType.IP.value]

    def test_ioc_fraction_limits_disclosure(self):
        scenario = make_scenarios(1, seed=3)[0]
        full = generate_report_content(
            scenario, random.Random(1), ioc_fraction=1.0
        )
        partial = generate_report_content(
            scenario, random.Random(1), ioc_fraction=0.34
        )
        assert sum(map(len, partial.ioc_table.values())) < sum(
            map(len, full.ioc_table.values())
        )

    @given(st.sampled_from(FAMILIES))
    @settings(max_examples=10, deadline=None)
    def test_every_family_renders_parseable_html(self, family):
        scenario = make_scenarios(1, seed=3)[0]
        content = generate_report_content(scenario, random.Random(1))
        html = render_report(content, family, "Test Site")
        doc = parse(html)
        assert content.title in doc.title


class TestWeb:
    def test_total_reports(self, web):
        assert web.total_reports == 42 * 6

    def test_urls_unique_across_sites(self, web):
        seen = set()
        for site in web.sites:
            for url in site.pages():
                assert url not in seen
                seen.add(url)

    def test_ground_truth_reachable_from_url(self, web):
        site = web.sites[3]
        article = site.articles()[2]
        truth = site.ground_truth(article.url)
        assert truth is article.content
        # query-string page maps to the same article
        if article.extra_page_url:
            assert site.ground_truth(article.extra_page_url) is article.content

    def test_scenario_overlap_across_sites(self, web):
        # At least one scenario is covered by two different sites.
        coverage = {}
        for site in web.sites[:6]:
            for article in site.articles():
                coverage.setdefault(article.content.scenario.scenario_id, set()).add(
                    site.name
                )
        assert any(len(sites) >= 2 for sites in coverage.values())

    def test_robots_served(self, web):
        transport = SimulatedTransport(web, time_scale=0.0)
        response = transport.fetch(web.sites[0].robots_url)
        assert response.ok
        assert "Disallow: /private/" in response.body


class TestIncrementalPublishing:
    def test_existing_articles_unchanged(self):
        web = build_default_web(scenario_count=8, reports_per_site=3)
        site = web.sites[0]
        before = {a.url: a.content.title for a in site.articles()}
        site.publish_more(2)
        after = {a.url: a.content.title for a in site.articles()}
        assert len(after) == len(before) + 2
        for url, title in before.items():
            assert after[url] == title

    def test_index_pages_list_new_articles(self):
        web = build_default_web(scenario_count=8, reports_per_site=3)
        site = web.sites[0]
        site.publish_more(9)  # forces a second index page (page size 10)
        pages = site.pages()
        assert f"{site.base_url}/index/2" in pages

    def test_publish_everywhere(self):
        web = build_default_web(scenario_count=8, reports_per_site=3)
        total = web.publish_everywhere(1)
        assert total == 42 * 4


class TestTransport:
    def test_unknown_url_is_404(self, web):
        transport = SimulatedTransport(web, time_scale=0.0)
        assert transport.fetch("https://nowhere.example/x").status == 404

    def test_failures_deterministic(self, web):
        url = web.sites[0].index_url

        def run():
            transport = SimulatedTransport(web, time_scale=0.0, failure_rate=0.5)
            outcomes = []
            for _ in range(8):
                try:
                    outcomes.append(transport.fetch(url).status)
                except TransportError:
                    outcomes.append("err")
            return outcomes

        assert run() == run()

    def test_retry_attempt_gets_fresh_roll(self, web):
        url = web.sites[0].index_url
        transport = SimulatedTransport(web, time_scale=0.0, failure_rate=0.5)
        outcomes = set()
        for _ in range(16):
            try:
                outcomes.add(transport.fetch(url).status)
            except TransportError:
                outcomes.add("err")
        assert 200 in outcomes  # some attempt eventually succeeds

    def test_stats_recorded(self, web):
        transport = SimulatedTransport(web, time_scale=0.0)
        transport.fetch(web.sites[0].index_url)
        transport.fetch(web.sites[1].index_url)
        snapshot = transport.stats.snapshot()
        assert snapshot["total"] == 2
        assert len(snapshot["by_host"]) == 2
