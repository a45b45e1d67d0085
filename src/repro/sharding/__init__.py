"""Multi-partition sharding: hash placement, N engines, one graph view.

See :mod:`repro.sharding.router` for placement,
:mod:`repro.sharding.shards` for the partition set and the store
fan-out, and :mod:`repro.sharding.union` for the live union view that
lets the one Cypher engine (and every other reader) see N partition
graphs as one.
"""

from repro.sharding.router import ShardRouter
from repro.sharding.shards import (
    ShardPartition,
    ShardSet,
    ShardStoreOutcome,
    ShardWorkerStats,
    ShardedCrawlState,
)
from repro.sharding.union import ID_STRIDE, GraphUnion

__all__ = [
    "GraphUnion",
    "ID_STRIDE",
    "ShardPartition",
    "ShardRouter",
    "ShardSet",
    "ShardStoreOutcome",
    "ShardWorkerStats",
    "ShardedCrawlState",
]
