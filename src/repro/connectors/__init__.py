"""Storage connectors (paper Figure 1, storage stage).

All connectors share the :class:`~repro.connectors.base.Connector`
interface; the configuration layer picks them by name: ``graph``
(default, Neo4j-like), ``sql`` (sqlite RDBMS) and ``search`` (full-text
index).  Each is built on the storage engine of the partition it
writes, and ingests one record inside that record's transaction.
"""

from repro.connectors.base import Connector, IngestStats
from repro.connectors.graph import GraphConnector
from repro.connectors.searchconn import SearchConnector
from repro.connectors.sql import SQLConnector

__all__ = [
    "Connector",
    "GraphConnector",
    "IngestStats",
    "SQLConnector",
    "SearchConnector",
]
