"""Site registry: the 40+ synthetic OSCTI sources.

Each :class:`Site` is one data source with its own host, URL scheme,
site family, archive pagination and publishing volume.  Content is
materialised lazily and deterministically from the site seed, so the
same site always serves the same bytes -- crawls are reproducible and
incremental re-crawls see stable URLs.

Sites draw their stories from a shared scenario pool with overlap:
several sources report on the same incident with different narrative
text and partially overlapping IOC disclosures, exactly the situation
that makes cross-report knowledge-graph merging meaningful.
"""

from __future__ import annotations

import math
import random
import re
import threading
from dataclasses import dataclass, field

from repro.runtime import named_lock
from repro.websim.render import render_index, render_report
from repro.websim.rnd import derive_rng
from repro.websim.scenario import (
    ReportContent,
    ThreatScenario,
    generate_report_content,
    make_scenarios,
)
from repro.websim import seeds

#: The source table: one (site name, family) row, one crawler, per source.
DEFAULT_SITE_SPECS: tuple[tuple[str, str], ...] = (
    ("ThreatPedia", "encyclopedia"),
    ("MalwareVault", "encyclopedia"),
    ("VirusArchive", "encyclopedia"),
    ("ThreatLibrary", "encyclopedia"),
    ("InfectDB", "encyclopedia"),
    ("MalwareAtlas", "encyclopedia"),
    ("ThreatCompendium", "encyclopedia"),
    ("SpecimenIndex", "encyclopedia"),
    ("SecureListing", "blog"),
    ("RedCanopy Blog", "blog"),
    ("NightOwl Notes", "blog"),
    ("CipherTrace Journal", "blog"),
    ("BlueLattice Research", "blog"),
    ("ThreatForge Lab", "blog"),
    ("ObsidianSec Posts", "blog"),
    ("HaloGuard Insights", "blog"),
    ("VectorShield Briefs", "blog"),
    ("PaleFire Writeups", "blog"),
    ("IronVeil Dispatch", "blog"),
    ("CrimsonHex Diary", "blog"),
    ("InfoSec Ledger", "news"),
    ("Breach Gazette", "news"),
    ("CyberWire Daily", "news"),
    ("ThreatPost Mirror", "news"),
    ("DarkReading Echo", "news"),
    ("HackWatch News", "news"),
    ("ZeroDay Tribune", "news"),
    ("PacketStorm Times", "news"),
    ("FirewallHerald", "news"),
    ("MalwareBulletin", "news"),
    ("NVD Shadow", "advisory"),
    ("CERT Relay", "advisory"),
    ("PatchAlert", "advisory"),
    ("VulnTracker", "advisory"),
    ("ExploitNotice", "advisory"),
    ("AdvisoryHub", "advisory"),
    ("SecFlaw Registry", "advisory"),
    ("OTX Mirror", "feed"),
    ("ThreatMiner Echo", "feed"),
    ("PhishTank Relay", "feed"),
    ("IOC Firehose", "feed"),
    ("IntelStream", "feed"),
)

#: family -> (article path, whether an article continues on ``?page=2``)
FAMILY_LAYOUT: dict[str, tuple[str, bool]] = {
    "encyclopedia": ("/threats/{slug}", True),
    "blog": ("/posts/{slug}", False),
    "news": ("/news/{slug}.html", False),
    "advisory": ("/advisories/{slug}", False),
    "feed": ("/items/{slug}", False),
}


def _slugify(text: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")
    return slug[:60] or "item"


def host_for(site_name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "", site_name.lower()) + ".example"


@dataclass
class Article:
    """One published report on one site."""

    index: int
    url: str
    title: str
    content: ReportContent
    extra_page_url: str | None = None  # encyclopedia page 2


@dataclass
class Site:
    """One OSCTI source: lazily-rendered pages plus ground truth."""

    name: str
    family: str
    scenario_pool: list[ThreatScenario]
    seed: int
    report_count: int = 30
    page_size: int = 10
    latency_ms: tuple[float, float] = (20.0, 80.0)
    scenario_stride: int = 1
    scenario_offset: int = 0
    vendor: str = ""
    _articles: list[Article] | None = field(default=None, repr=False)
    _pages: dict[str, str] | None = field(default=None, repr=False)
    _lock: threading.Lock = field(
        default_factory=lambda: named_lock("websim.site"), repr=False
    )

    def __post_init__(self) -> None:
        if not self.vendor:
            rng = random.Random(self.seed)
            self.vendor = rng.choice(seeds.VENDORS)

    @property
    def host(self) -> str:
        return host_for(self.name)

    @property
    def base_url(self) -> str:
        return f"https://{self.host}"

    @property
    def index_url(self) -> str:
        return f"{self.base_url}/index/1"

    @property
    def robots_url(self) -> str:
        return f"{self.base_url}/robots.txt"

    # -- content materialisation ---------------------------------------

    def articles(self) -> list[Article]:
        """All articles of this site (materialised once, thread-safely)."""
        with self._lock:
            if self._articles is None:
                self._articles = self._build_articles()
            return self._articles

    def _build_articles(self) -> list[Article]:
        articles: list[Article] = []
        pool_size = len(self.scenario_pool)
        for index in range(self.report_count):
            scenario = self.scenario_pool[
                (self.scenario_offset + index * self.scenario_stride) % pool_size
            ]
            rng = derive_rng(self.seed, "article", index)
            category = _category_for(self.family, rng)
            content = generate_report_content(
                scenario,
                rng,
                category=category,
                vendor=self.vendor,
                sentence_count=4 if self.family in ("news", "feed") else 10,
                ioc_fraction=rng.uniform(0.5, 1.0),
            )
            slug = f"{_slugify(content.title)}-{index}"
            path, continues = FAMILY_LAYOUT[self.family]
            url = f"{self.base_url}{path.format(slug=slug)}"
            extra = f"{url}?page=2" if continues else None
            articles.append(
                Article(
                    index=index,
                    url=url,
                    title=content.title,
                    content=content,
                    extra_page_url=extra,
                )
            )
        return articles

    def pages(self) -> dict[str, str]:
        """URL -> HTML for every page this site serves."""
        with self._lock:
            if self._pages is not None:
                return self._pages
        articles = self.articles()
        pages: dict[str, str] = {}
        total_index_pages = max(1, math.ceil(len(articles) / self.page_size))
        for page_no in range(1, total_index_pages + 1):
            window = articles[
                (page_no - 1) * self.page_size : page_no * self.page_size
            ]
            links = [(a.url, a.title) for a in window]
            pages[f"{self.base_url}/index/{page_no}"] = render_index(
                self.name, links, page_no, total_index_pages
            )
        for article in articles:
            pages[article.url] = render_report(
                article.content, self.family, self.name, page=1
            )
            if article.extra_page_url:
                pages[article.extra_page_url] = render_report(
                    article.content, self.family, self.name, page=2
                )
        pages[self.robots_url] = (
            "User-agent: *\nDisallow: /private/\nCrawl-delay: 0\n"
        )
        pages[f"{self.base_url}/private/internal"] = "<html><body>private</body></html>"
        with self._lock:
            self._pages = pages
        return pages

    def publish_more(self, count: int) -> int:
        """The site publishes ``count`` new reports.

        Existing article URLs and content are untouched (articles are a
        deterministic function of their index), so incremental crawls
        pick up exactly the new ones.  Returns the new report count.
        """
        with self._lock:
            self.report_count += count
            self._articles = None
            self._pages = None
        return self.report_count

    # -- ground truth ----------------------------------------------------

    def article_for_url(self, url: str) -> Article | None:
        base = url.split("?", 1)[0]
        for article in self.articles():
            if article.url == base:
                return article
        return None

    def ground_truth(self, url: str) -> ReportContent | None:
        """The gold content behind an article URL (None for non-articles)."""
        article = self.article_for_url(url)
        return article.content if article else None


def _category_for(family: str, rng: random.Random) -> str:
    if family == "advisory":
        return "vulnerability"
    if family == "encyclopedia":
        return "malware"
    return rng.choice(["malware", "attack", "attack"])


@dataclass
class Web:
    """The whole synthetic web: sites plus the shared scenario pool."""

    sites: list[Site]
    scenarios: list[ThreatScenario]

    def site_by_name(self, name: str) -> Site:
        for site in self.sites:
            if site.name == name:
                return site
        raise KeyError(f"unknown site {name!r}")

    def site_for_url(self, url: str) -> Site | None:
        for site in self.sites:
            if url.startswith(site.base_url):
                return site
        return None

    def page(self, url: str) -> str | None:
        site = self.site_for_url(url)
        if site is None:
            return None
        return site.pages().get(url)

    @property
    def total_reports(self) -> int:
        return sum(site.report_count for site in self.sites)

    def publish_everywhere(self, count: int) -> int:
        """Every site publishes ``count`` new reports (continuous web)."""
        for site in self.sites:
            site.publish_more(count)
        return self.total_reports


def build_default_web(
    scenario_count: int = 60,
    reports_per_site: int = 30,
    seed: int = 7,
) -> Web:
    """Construct the default 42-source web over a shared scenario pool.

    Consecutive sites start at staggered offsets into the pool, so each
    scenario is covered by several sources (cross-source overlap), and
    strides are co-prime-ish with the pool size to spread coverage.
    """
    scenarios = make_scenarios(scenario_count, seed=seed)
    sites: list[Site] = []
    for index, (name, family) in enumerate(DEFAULT_SITE_SPECS):
        sites.append(
            Site(
                name=name,
                family=family,
                scenario_pool=scenarios,
                seed=seed * 1000 + index,
                report_count=reports_per_site,
                page_size=10,
                latency_ms=(20.0 + (index % 5) * 10, 80.0 + (index % 7) * 20),
                scenario_stride=1 + index % 3,
                scenario_offset=index * 3,
            )
        )
    return Web(sites=sites, scenarios=scenarios)


__all__ = [
    "Article",
    "DEFAULT_SITE_SPECS",
    "FAMILY_LAYOUT",
    "Site",
    "Web",
    "build_default_web",
    "host_for",
]
