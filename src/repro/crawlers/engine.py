"""Multi-threaded crawl engine.

Workers pull URLs from a shared :class:`~repro.crawlers.frontier.Frontier`
and dispatch each to the crawler owning its host.  Index pages yield
article links and the next archive page; article pages are emitted as
:class:`~repro.crawlers.base.RawDocument` records; continuation pages
are fetched at high priority and grouped under the first page's URL.

Because fetch latency dominates (as on the real web), the thread pool
is what delivers the paper's reported throughput (~350 reports/min on
one host) -- benchmark E1 sweeps the thread count to reproduce that
series.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.crawlers.base import Crawler, RawDocument
from repro.crawlers.fetcher import FetchDenied, FetchFailed, Fetcher
from repro.crawlers.frontier import Frontier
from repro.crawlers.state import CrawlState
from repro.htmlparse import parse
from repro.obs import NO_OBS, Obs
from repro.runtime import REAL_CLOCK, Clock, Stopwatch, named_lock


@dataclass
class CrawlResult:
    """Outcome of one crawl run."""

    documents: list[RawDocument] = field(default_factory=list)
    errors: list[tuple[str, str]] = field(default_factory=list)
    denied: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    pages_fetched: int = 0

    @property
    def article_count(self) -> int:
        """Logical reports collected (continuations don't double-count)."""
        return sum(1 for doc in self.documents if doc.page_no == 1)

    @property
    def reports_per_minute(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.article_count / self.elapsed * 60.0


class CrawlEngine:
    """Crawl one or more sources with a worker pool.

    Parameters
    ----------
    crawlers:
        The per-source crawlers to run together.
    fetcher:
        The robust fetcher (shared across workers; it is thread-safe).
    num_threads:
        Worker pool size.
    state:
        Optional incremental state; article URLs already seen are not
        re-emitted, and newly emitted ones are recorded.
    max_articles:
        Optional cap for bounded benchmark runs.
    clock:
        Clock for elapsed/timestamp measurement and worker
        coordination.  Defaults to the fetcher's clock, so one virtual
        clock injected at the transport virtualises the whole crawl.
    health:
        Optional :class:`~repro.obs.health.HealthEngine`.  Every URL is
        admitted through it: quarantined sources are skipped (recorded
        in ``CrawlResult.skipped``) except for the single canonical
        probe fetch the engine grants per backoff expiry, and degraded
        sources get their host rate-limit interval stretched.
    """

    def __init__(
        self,
        crawlers: list[Crawler],
        fetcher: Fetcher,
        num_threads: int = 8,
        state: CrawlState | None = None,
        max_articles: int | None = None,
        clock: Clock | None = None,
        obs: Obs | None = None,
        health=None,
    ):
        self.crawlers = list(crawlers)
        self.fetcher = fetcher
        self.num_threads = num_threads
        self.state = state
        self.max_articles = max_articles
        self.clock = (
            clock
            if clock is not None
            else getattr(fetcher, "clock", None) or REAL_CLOCK
        )
        self.obs = obs if obs is not None else NO_OBS
        self.health = health
        self._by_host = {crawler.host: crawler for crawler in self.crawlers}
        self._result_lock = named_lock("crawl.result")

    def _crawler_for(self, url: str) -> Crawler | None:
        return self._by_host.get(Fetcher.host_of(url))

    def crawl(self) -> CrawlResult:
        """Run until the frontier drains (or ``max_articles`` reached)."""
        with self.obs.tracer.span(
            "crawl", sources=len(self.crawlers), threads=self.num_threads
        ) as crawl_span:
            if self.health is None:
                return self._crawl(crawl_span)
            # Verdict spans emitted mid-crawl nest under the crawl span
            # regardless of which worker thread triggers them.
            previous_parent = self.health.bind_parent(crawl_span)
            self.health.crawl_started()
            try:
                return self._crawl(crawl_span)
            finally:
                self.health.crawl_finished()
                self.health.bind_parent(previous_parent)

    def _crawl(self, crawl_span) -> CrawlResult:
        frontier = Frontier(clock=self.clock, obs=self.obs)
        result = CrawlResult()
        stop = threading.Event()
        for crawler in self.crawlers:
            frontier.add_all(crawler.seed_urls())

        def emit(doc: RawDocument) -> tuple[bool, bool]:
            """Record a document; returns (accepted, keep_going)."""
            with self._result_lock:
                if (
                    self.max_articles is not None
                    and doc.page_no == 1
                    and result.article_count >= self.max_articles
                ):
                    # capacity reached while this worker was fetching:
                    # drop the document rather than exceed the cap
                    return False, False
                result.documents.append(doc)
                full = (
                    self.max_articles is not None
                    and doc.page_no == 1
                    and result.article_count >= self.max_articles
                )
            return True, not full

        # All workers must be registered with the clock before any of
        # them starts fetching, or an early worker could advance
        # virtual time while a late one is still starting up.
        ready = threading.Barrier(self.num_threads)

        def work() -> None:
            with self.clock.worker():
                ready.wait()
                while not stop.is_set():
                    url = frontier.take()
                    if url is None:
                        return
                    try:
                        self._process(url, frontier, result, emit, stop, crawl_span)
                    finally:
                        frontier.task_done()

        watch = Stopwatch(self.clock)
        threads = [
            threading.Thread(target=work, name=f"crawl-{i}", daemon=True)
            for i in range(self.num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        frontier.close()
        result.elapsed = watch.elapsed
        # Workers append in completion order, which races at identical
        # virtual instants; a canonical sort keeps virtual-clock crawls
        # byte-for-byte reproducible.
        result.documents.sort(key=lambda doc: (doc.fetched_at, doc.url))
        result.errors.sort()
        result.denied.sort()
        result.skipped.sort()
        if self.state is not None:
            now = self.clock.now()
            for crawler in self.crawlers:
                self.state.record_crawl(crawler.site_name, now)
            # Nothing is persisted here: each seen-URL delta commits
            # with the transaction that stores its report.
        return result

    def _process(
        self,
        url: str,
        frontier: Frontier,
        result: CrawlResult,
        emit,
        stop: threading.Event,
        crawl_span=None,
    ) -> None:
        crawler = self._crawler_for(url)
        if crawler is None:
            return
        source = crawler.site_name
        metrics = self.obs.metrics
        probe = False
        if self.health is not None:
            admission = self.health.admit(source, self.clock.now())
            # Feedback: a degraded/probing source crawls at a stretched
            # politeness interval; a recovered one gets its pace back.
            self.fetcher.rate_limiter.set_host_multiplier(
                crawler.host,
                admission.rate_multiplier,
                admission.min_interval,
            )
            if not admission.allow:
                with self._result_lock:
                    result.skipped.append(url)
                if not admission.probe:
                    return
                # The probe always targets the source's canonical seed
                # URL, so the granted fetch is identical no matter which
                # queued URL's worker won the grant.
                probe = True
                url = crawler.seed_urls()[0]
        # The worker thread has no span context of its own, so the
        # crawl span is passed in as the explicit parent.
        with self.obs.tracer.span(
            "crawl.fetch", parent=crawl_span, url=url, source=source
        ) as span:
            if probe:
                span.set("probe", True)
            try:
                # A probe asks a yes/no question; one attempt answers it.
                response = self.fetcher.fetch(
                    url, source=source, max_attempts=1 if probe else None
                )
            except FetchDenied:
                span.set("outcome", "denied")
                metrics.inc("crawl.denied", source=source)
                with self._result_lock:
                    result.denied.append(url)
                return
            except FetchFailed as error:
                span.set("outcome", "failed")
                metrics.inc("crawl.errors", source=source)
                with self._result_lock:
                    result.errors.append((url, str(error)))
                return
            if not response.ok:
                span.set("outcome", f"http-{response.status}")
                metrics.inc("crawl.errors", source=source)
                with self._result_lock:
                    result.errors.append((url, f"http {response.status}"))
                return
            span.set("outcome", "ok")
            if probe:
                # A probe only answers "is the source well again?"; the
                # page is not parsed, emitted or counted as progress.
                return
            metrics.inc("crawl.pages", source=source)
            with self._result_lock:
                result.pages_fetched += 1

            kind = crawler.classify(url)
            span.set("kind", kind)
            doc = parse(response.body)
            if kind == "index":
                links = crawler.extract_article_links(url, doc)
                if self.state is not None:
                    links = [link for link in links if not self.state.is_seen(link)]
                frontier.add_all(links)
                next_index = crawler.extract_next_index(url, doc)
                if next_index:
                    frontier.add(next_index)
            elif kind in ("article", "continuation"):
                page_no = crawler.page_no(url)
                group = crawler.group_url(url)
                if page_no == 1 and self.state is not None:
                    if not self.state.mark_seen(group):
                        return
                accepted, keep_going = emit(
                    RawDocument(
                        url=url,
                        source=source,
                        html=response.body,
                        fetched_at=self.clock.now(),
                        group_url=group,
                        page_no=page_no,
                        document=doc,
                    )
                )
                if not accepted:
                    # the cap dropped this document; let a future crawl
                    # collect it
                    if page_no == 1 and self.state is not None:
                        self.state.unmark(group)
                    stop.set()
                    frontier.close()
                    return
                if page_no == 1:
                    metrics.inc("crawl.reports", source=source)
                if not keep_going:
                    stop.set()
                    frontier.close()
                    return
                if page_no == 1:
                    continuation = crawler.extract_continuation(url, doc)
                    if continuation:
                        frontier.add(continuation, priority=True)


__all__ = ["CrawlEngine", "CrawlResult"]
