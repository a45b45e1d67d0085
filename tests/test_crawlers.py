"""Unit and integration tests for the crawler framework."""

import threading
import time

import pytest

from repro.crawlers import (
    CRAWLER_REGISTRY,
    CrawlEngine,
    CrawlState,
    FetchDenied,
    FetchFailed,
    Fetcher,
    Frontier,
    HostRateLimiter,
    JobSpec,
    PeriodicScheduler,
    RobotsPolicy,
    build_all_crawlers,
    crawler_for,
    path_of,
    resolve_url,
)
from repro.crawlers.state import CrawlParticipant
from repro.runtime import VirtualClock
from repro.storage import StorageEngine
from repro.websim import SimulatedTransport, TransportError


class TestRobots:
    POLICY = RobotsPolicy.parse(
        """
        # comment
        User-agent: *
        Disallow: /private/
        Allow: /private/press/
        Crawl-delay: 1.5

        User-agent: badbot
        Disallow: /
        """
    )

    def test_disallow_prefix(self):
        assert not self.POLICY.allowed("/private/data")
        assert self.POLICY.allowed("/public/x")

    def test_allow_overrides_longer_match(self):
        assert self.POLICY.allowed("/private/press/release")

    def test_specific_agent_group(self):
        assert not self.POLICY.allowed("/anything", agent="badbot")
        assert self.POLICY.allowed("/public", agent="goodbot")

    def test_crawl_delay(self):
        assert self.POLICY.crawl_delay() == 1.5

    def test_empty_disallow_allows_all(self):
        policy = RobotsPolicy.parse("User-agent: *\nDisallow:\n")
        assert policy.allowed("/anything")

    def test_allow_all_when_missing(self):
        assert RobotsPolicy.allow_all().allowed("/private/x")

    def test_path_of(self):
        assert path_of("https://h.example/a/b?c=1") == "/a/b?c=1"
        assert path_of("https://h.example") == "/"


class TestResolveUrl:
    def test_absolute_passthrough(self):
        assert resolve_url("https://a/x", "https://b/y") == "https://b/y"

    def test_rooted(self):
        assert resolve_url("https://a.example/x/y", "/z") == "https://a.example/z"

    def test_query_only(self):
        assert (
            resolve_url("https://a.example/x?page=1", "?page=2")
            == "https://a.example/x?page=2"
        )

    def test_relative(self):
        assert resolve_url("https://a.example/dir/page", "next") == (
            "https://a.example/dir/next"
        )


class TestFrontier:
    def test_dedup(self):
        frontier = Frontier()
        assert frontier.add("u1")
        assert not frontier.add("u1")
        assert len(frontier) == 1

    def test_priority_band(self):
        frontier = Frontier()
        frontier.add("normal")
        frontier.add("urgent", priority=True)
        assert frontier.take() == "urgent"
        frontier.task_done()

    def test_mark_seen_blocks_future_add(self):
        frontier = Frontier()
        frontier.mark_seen("u")
        assert not frontier.add("u")

    def test_take_returns_none_when_drained(self):
        frontier = Frontier()
        frontier.add("only")
        assert frontier.take() == "only"
        done = []

        def finish():
            time.sleep(0.02)
            frontier.task_done()
            done.append(True)

        threading.Thread(target=finish).start()
        assert frontier.take(timeout=2.0) is None
        assert done

    def test_worker_can_enqueue_while_in_flight(self):
        frontier = Frontier()
        frontier.add("a")
        url = frontier.take()
        frontier.add("b")  # discovered while processing 'a'
        frontier.task_done()
        assert frontier.take() == "b"


class TestRateLimiter:
    def test_enforces_interval(self):
        clock = VirtualClock()
        limiter = HostRateLimiter(min_interval=1.0, clock=clock)
        assert limiter.acquire("h") == 0.0
        assert limiter.acquire("h") == 1.0
        assert clock.now() == 1.0

    def test_hosts_are_independent(self):
        clock = VirtualClock()
        limiter = HostRateLimiter(min_interval=1.0, clock=clock)
        limiter.acquire("a")
        assert limiter.acquire("b") == 0.0
        assert clock.now() == 0.0

    def test_robots_delay_applies(self):
        clock = VirtualClock()
        limiter = HostRateLimiter(min_interval=0.0, clock=clock)
        limiter.set_host_delay("h", 2.0)
        assert limiter.acquire("h") == 0.0
        assert limiter.acquire("h") == 2.0
        assert clock.now() == 2.0


class TestFetcher:
    def test_retries_transient_failures(self, small_web):
        transport = SimulatedTransport(small_web, time_scale=0.0, failure_rate=0.4)
        fetcher = Fetcher(transport, max_retries=8, backoff=0.0)
        response = fetcher.fetch(small_web.sites[0].index_url)
        assert response.ok
        assert fetcher.stats.snapshot()["retries"] >= 0

    def test_gives_up_after_budget(self, small_web):
        transport = SimulatedTransport(small_web, time_scale=0.0, failure_rate=1.0)
        fetcher = Fetcher(transport, max_retries=2, backoff=0.0)
        with pytest.raises(FetchFailed):
            fetcher.fetch(small_web.sites[0].index_url)
        assert fetcher.stats.snapshot()["failures"] == 1

    def test_robots_denied(self, small_web):
        site = small_web.sites[0]
        fetcher = Fetcher(SimulatedTransport(small_web, time_scale=0.0))
        with pytest.raises(FetchDenied):
            fetcher.fetch(f"{site.base_url}/private/internal")
        assert fetcher.stats.snapshot()["denied"] == 1

    def test_robots_can_be_disabled(self, small_web):
        site = small_web.sites[0]
        fetcher = Fetcher(
            SimulatedTransport(small_web, time_scale=0.0), respect_robots=False
        )
        assert fetcher.fetch(f"{site.base_url}/private/internal").ok

    def test_404_returned_not_retried(self, small_web):
        fetcher = Fetcher(SimulatedTransport(small_web, time_scale=0.0))
        response = fetcher.fetch(f"{small_web.sites[0].base_url}/nope")
        assert response.status == 404
        assert fetcher.stats.snapshot()["attempts"] == 1


class TestCrawlerClasses:
    def test_registry_covers_all_sites(self, small_web):
        assert {site.name for site in small_web.sites} == set(CRAWLER_REGISTRY)

    def test_classify(self):
        crawler = crawler_for("ThreatPedia")
        base = crawler.base_url
        assert crawler.classify(f"{base}/index/1") == "index"
        assert crawler.classify(f"{base}/threats/x-1") == "article"
        assert crawler.classify(f"{base}/threats/x-1?page=2") == "continuation"
        assert crawler.classify(f"{base}/private/x") == "other"
        assert crawler.classify("https://elsewhere.example/threats/x") == "other"

    def test_group_url_and_page_no(self):
        crawler = crawler_for("ThreatPedia")
        url = f"{crawler.base_url}/threats/x-1?page=2"
        assert crawler.group_url(url).endswith("/threats/x-1")
        assert crawler.page_no(url) == 2

    def test_unknown_site_raises(self):
        with pytest.raises(KeyError):
            crawler_for("NoSuchSite")

    def test_link_extraction_from_live_index(self, small_web):
        from repro.htmlparse import parse

        site = small_web.sites[0]
        crawler = crawler_for(site.name)
        doc = parse(site.pages()[site.index_url])
        links = crawler.extract_article_links(site.index_url, doc)
        assert links
        assert all(crawler.classify(link) == "article" for link in links)

    def test_pagination_followed(self, small_web):
        from repro.htmlparse import parse

        site = small_web.sites[0]  # 5 articles, page size 10 -> one page
        crawler = crawler_for(site.name)
        doc = parse(site.pages()[site.index_url])
        assert crawler.extract_next_index(site.index_url, doc) is None


class TestCrawlEngine:
    def test_collects_everything(self, small_web):
        engine = CrawlEngine(
            build_all_crawlers(),
            Fetcher(SimulatedTransport(small_web, time_scale=0.0)),
            num_threads=8,
        )
        result = engine.crawl()
        assert result.article_count == small_web.total_reports
        assert not result.errors

    def test_multipage_reports_fetched(self, small_web):
        engine = CrawlEngine(
            build_all_crawlers(["ThreatPedia"]),
            Fetcher(SimulatedTransport(small_web, time_scale=0.0)),
            num_threads=2,
        )
        result = engine.crawl()
        pages = [d for d in result.documents if d.page_no == 2]
        site = small_web.site_by_name("ThreatPedia")
        assert len(pages) == site.report_count

    def test_max_articles_cap(self, small_web):
        engine = CrawlEngine(
            build_all_crawlers(["SecureListing"]),
            Fetcher(SimulatedTransport(small_web, time_scale=0.0)),
            num_threads=2,
            max_articles=2,
        )
        assert engine.crawl().article_count == 2

    def test_state_persists_and_dedupes(self, small_web, tmp_path):
        def open_engine():
            return StorageEngine(tmp_path / "state", [CrawlParticipant()])

        engine = open_engine()
        CrawlEngine(
            build_all_crawlers(["SecureListing"]),
            Fetcher(SimulatedTransport(small_web, time_scale=0.0)),
            num_threads=2,
            state=CrawlState(engine),
        ).crawl()
        engine.close()  # flushes the staged seen-URL deltas
        reloaded = CrawlState(open_engine())
        result = CrawlEngine(
            build_all_crawlers(["SecureListing"]),
            Fetcher(SimulatedTransport(small_web, time_scale=0.0)),
            num_threads=2,
            state=reloaded,
        ).crawl()
        assert result.article_count == 0
        assert reloaded.last_crawl("SecureListing") is not None


class TestScheduler:
    def test_ok_job(self):
        scheduler = PeriodicScheduler([JobSpec("ok", lambda: 42)])
        outcomes = scheduler.run_cycles(2)
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert outcomes[0].value == 42

    def test_reboot_after_failure(self):
        crashes = {"left": 1}

        def flaky():
            if crashes["left"]:
                crashes["left"] -= 1
                raise RuntimeError("boom")
            return "recovered"

        scheduler = PeriodicScheduler(
            [JobSpec("flaky", flaky, max_restarts=2, backoff=0.0)]
        )
        (outcome,) = scheduler.run_cycles(1)
        assert outcome.status == "rebooted"
        assert outcome.value == "recovered"
        assert scheduler.stats.reboots == 1

    def test_permanent_failure_reported(self):
        from repro.obs import make_obs

        def dead():
            raise RuntimeError("always")

        obs = make_obs()
        scheduler = PeriodicScheduler(
            [JobSpec("dead", dead, max_restarts=1, backoff=0.0)], obs=obs
        )
        (outcome,) = scheduler.run_cycles(1)
        assert outcome.status == "failed"
        assert "always" in outcome.error
        assert scheduler.stats.failures == 1
        # exhausting the reboot budget counts a failure metric too
        assert obs.metrics.counter("scheduler.failures", job="dead") == 1
        assert obs.metrics.counter("scheduler.reboots", job="dead") == 1

    def test_job_seconds_histogram_recorded(self):
        from repro.obs import make_obs

        obs = make_obs()
        scheduler = PeriodicScheduler(
            [JobSpec("quick", lambda: 1), JobSpec("other", lambda: 2)],
            obs=obs,
        )
        scheduler.run_cycles(3)
        histograms = obs.metrics.snapshot()["histograms"]
        series = histograms["scheduler.job_seconds"]
        assert series["job=quick"]["count"] == 3
        assert series["job=other"]["count"] == 3


class TestTransportErrorsPropagate:
    def test_transport_error_is_retriable(self, small_web):
        class FlakyOnce:
            def __init__(self, inner):
                self.inner = inner
                self.first = True

            def fetch(self, url):
                if self.first:
                    self.first = False
                    raise TransportError("reset")
                return self.inner.fetch(url)

        fetcher = Fetcher(
            FlakyOnce(SimulatedTransport(small_web, time_scale=0.0)),
            max_retries=2,
            backoff=0.0,
            respect_robots=False,
        )
        assert fetcher.fetch(small_web.sites[0].index_url).ok
