"""Full-text search substrate (Elasticsearch substitute).

An IOC-aware analyzer plus a positional inverted index with BM25
ranking, phrase queries and JSON persistence.
Backs the UI's multilingual keyword-search path (paper section 2.6).

>>> from repro.search import SearchIndex
>>> index = SearchIndex()
>>> index.add("r1", {"title": "WannaCry analysis", "body": "it encrypts files"})
>>> index.search("wannacry")[0].doc_id
'r1'
"""

from repro.search.analyzer import STOPWORDS, analyze, analyze_query
from repro.search.index import SearchHit, SearchIndex

__all__ = ["STOPWORDS", "SearchHit", "SearchIndex", "analyze", "analyze_query"]
