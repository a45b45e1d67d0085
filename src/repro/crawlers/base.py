"""The crawler: one per data source, each built from a row of the
source table.

A :class:`Crawler` knows one site's URL layout: where the archive
index lives, which links on it are articles, how pagination advances
and whether articles continue onto extra pages.  The crawl engine is
generic; everything source-specific is the site's name and family
(:data:`CRAWLER_REGISTRY`, read from websim's ``DEFAULT_SITE_SPECS``),
so adding a source is adding a row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.htmlparse import Document, parse
from repro.websim.render import site_prefix
from repro.websim.sites import DEFAULT_SITE_SPECS, FAMILY_LAYOUT, host_for


@dataclass
class RawDocument:
    """One fetched article page, before porter grouping.

    ``group_url`` identifies the logical report; continuation pages of
    a multi-page report share the first page's ``group_url`` and carry
    ``page_no > 1``.  ``document`` is the DOM the crawl engine built to
    find the page's links, kept so the porter need not build it again.
    """

    url: str
    source: str
    html: str
    fetched_at: float
    group_url: str
    page_no: int = 1
    document: Document | None = field(default=None, repr=False, compare=False)

    def take_document(self) -> Document:
        """The page's DOM, handed over: this object drops its reference,
        so the DOM lives only as long as its new owner keeps it."""
        document, self.document = self.document, None
        return document if document is not None else parse(self.html)


def resolve_url(base: str, href: str) -> str:
    """Resolve an href against the page URL (absolute/rooted/query forms)."""
    if href.startswith(("http://", "https://")):
        return href
    scheme, _, rest = base.partition("://")
    host = rest.split("/", 1)[0]
    if href.startswith("/"):
        return f"{scheme}://{host}{href}"
    if href.startswith("?"):
        return base.split("?", 1)[0] + href
    # relative path: resolve against the base directory
    directory = base.split("?", 1)[0].rsplit("/", 1)[0]
    return f"{directory}/{href}"


#: site name -> family, for every source there is a crawler for
CRAWLER_REGISTRY: dict[str, str] = dict(DEFAULT_SITE_SPECS)


class Crawler:
    """The crawler for one data source.

    The site's family fixes its URL layout (websim's
    :data:`~repro.websim.sites.FAMILY_LAYOUT`); its CSS class prefix is
    derived the same way the renderer does, which is exactly the prior
    knowledge a hand-written per-source crawler encodes.
    """

    def __init__(self, site_name: str):
        try:
            self.family = CRAWLER_REGISTRY[site_name]
        except KeyError:
            raise KeyError(f"no crawler registered for site {site_name!r}") from None
        self.site_name = site_name
        article_path, self.multi_page = FAMILY_LAYOUT[self.family]
        self.article_prefix = article_path.split("{", 1)[0]
        self.prefix = site_prefix(site_name)
        self.host = host_for(site_name)
        self.base_url = f"https://{self.host}"

    # -- URL space -------------------------------------------------------

    def seed_urls(self) -> list[str]:
        """Where a crawl of this source starts."""
        return [f"{self.base_url}/index/1"]

    def classify(self, url: str) -> str:
        """``'index'``, ``'article'``, ``'continuation'`` or ``'other'``."""
        if not url.startswith(self.base_url):
            return "other"
        path = url[len(self.base_url) :]
        if path.startswith("/index/"):
            return "index"
        if path.split("?", 1)[0].startswith(self.article_prefix):
            if "?page=" in path and not path.endswith("?page=1"):
                return "continuation"
            return "article"
        return "other"

    def group_url(self, url: str) -> str:
        """The logical report URL a page belongs to (strips ?page=N)."""
        return url.split("?", 1)[0]

    def page_no(self, url: str) -> int:
        if "?page=" in url:
            try:
                return int(url.rsplit("?page=", 1)[1])
            except ValueError:
                return 1
        return 1

    # -- link extraction ---------------------------------------------------

    def extract_article_links(self, url: str, doc: Document) -> list[str]:
        """Article URLs linked from an index page."""
        anchors = doc.select(f"a.{self.prefix}-link")
        return [
            resolve_url(url, a.get("href"))
            for a in anchors
            if a.get("href")
        ]

    def extract_next_index(self, url: str, doc: Document) -> str | None:
        """The next archive page, when pagination continues."""
        anchor = doc.select_one("nav.pager a.next")
        if anchor is None or not anchor.get("href"):
            return None
        return resolve_url(url, anchor.get("href"))

    def extract_continuation(self, url: str, doc: Document) -> str | None:
        """An article's continuation page (multi-page sources only)."""
        if not self.multi_page:
            return None
        anchor = doc.select_one(f"a.{self.prefix}-next")
        if anchor is None or not anchor.get("href"):
            return None
        return resolve_url(url, anchor.get("href"))


def build_all_crawlers(site_names: list[str] | None = None) -> list[Crawler]:
    """One crawler per registered source (or per named source)."""
    names = site_names if site_names is not None else list(CRAWLER_REGISTRY)
    return [Crawler(name) for name in names]


__all__ = [
    "CRAWLER_REGISTRY",
    "Crawler",
    "RawDocument",
    "build_all_crawlers",
    "resolve_url",
]
