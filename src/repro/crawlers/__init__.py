"""OSCTI collection: the crawler framework (paper section 2.2).

One :class:`Crawler` per source -- a row of the 42-source table --
runs over a shared multi-threaded engine with a deduplicating
frontier, per-host politeness, robots gating, retrying fetcher,
incremental state and a periodic scheduler that reboots crashed
crawlers.

>>> from repro.crawlers import CrawlEngine, Fetcher, build_all_crawlers
>>> from repro.websim import SimulatedTransport, build_default_web
>>> web = build_default_web(scenario_count=5, reports_per_site=3)
>>> engine = CrawlEngine(
...     build_all_crawlers([web.sites[0].name]),
...     Fetcher(SimulatedTransport(web, time_scale=0.0)),
...     num_threads=2,
... )
>>> engine.crawl().article_count
3
"""

from repro.crawlers.base import (
    CRAWLER_REGISTRY,
    Crawler,
    RawDocument,
    build_all_crawlers,
    resolve_url,
)
from repro.crawlers.engine import CrawlEngine, CrawlResult
from repro.crawlers.fetcher import FetchDenied, FetchFailed, FetchStats, Fetcher
from repro.crawlers.frontier import Frontier
from repro.crawlers.ratelimit import HostRateLimiter
from repro.crawlers.robots import RobotsPolicy, path_of
from repro.crawlers.scheduler import (
    JobOutcome,
    JobSpec,
    PeriodicScheduler,
    SchedulerStats,
)
from repro.crawlers.state import CrawlState

__all__ = [
    "CRAWLER_REGISTRY",
    "CrawlEngine",
    "CrawlResult",
    "CrawlState",
    "Crawler",
    "FetchDenied",
    "FetchFailed",
    "FetchStats",
    "Fetcher",
    "Frontier",
    "HostRateLimiter",
    "JobOutcome",
    "JobSpec",
    "PeriodicScheduler",
    "RawDocument",
    "RobotsPolicy",
    "SchedulerStats",
    "build_all_crawlers",
    "path_of",
    "resolve_url",
]
