"""Hash partitioning of entities and reports across N shards.

The :class:`ShardRouter` is the single placement authority of the
sharded deployment (ROADMAP item 1): every layer that must decide
"which partition owns this?" -- the store stage, the crawl-state
facade, Cypher CREATE routing -- asks the router, so placement stays
consistent across layers and across runs.

Placement is a pure function of the key and the partition count:

* keys are hashed with ``blake2b`` (not :func:`hash`, which is salted
  per process by ``PYTHONHASHSEED``), so the same key lands on the same
  partition in every process, every run, and every insertion order;
* records are routed by their *anchor entity* -- the lexicographically
  smallest entity key among the record's mentions -- so reports about
  the same primary entity co-locate and the graph connector can merge
  them instead of duplicating the entity across partitions.  Records
  with no mentions fall back to their report id.
"""

from __future__ import annotations

import hashlib

from repro.ontology.entities import canonical_name
from repro.ontology.intermediate import CTIRecord

#: Separator between the label and name halves of an entity key; a
#: control character so it cannot collide with report text.
_KEY_SEP = "\x1f"


class ShardRouter:
    """Deterministic hash placement of keys over ``partitions`` shards."""

    def __init__(self, partitions: int):
        if partitions < 1:
            raise ValueError(f"partitions must be >= 1, got {partitions}")
        self.partitions = int(partitions)

    def partition_for(self, key: str) -> int:
        """The owning partition of an opaque string key."""
        if self.partitions == 1:
            return 0
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.partitions

    # -- entity and record placement ----------------------------------

    def entity_key(self, label: str, name: str) -> str:
        """Canonical placement key of one entity (label + folded name)."""
        return f"{label}{_KEY_SEP}{canonical_name(name)}"

    def partition_for_entity(self, label: str, name: str) -> int:
        return self.partition_for(self.entity_key(label, name))

    def anchor_key(self, record: CTIRecord) -> str:
        """The record's placement key: its lexicographically smallest
        entity key (stable no matter the order mentions were extracted
        in), falling back to the report id for mention-less records."""
        candidates = [
            self.entity_key(mention.type.value, mention.text)
            for mention in record.mentions
        ]
        if candidates:
            return min(candidates)
        return f"report{_KEY_SEP}{record.report_id}"

    def partition_for_record(self, record: CTIRecord) -> int:
        return self.partition_for(self.anchor_key(record))

    def group_records(
        self, records: list[CTIRecord]
    ) -> dict[int, list[CTIRecord]]:
        """Split a batch into per-partition sublists (original order
        preserved within each partition; every partition present)."""
        groups: dict[int, list[CTIRecord]] = {
            index: [] for index in range(self.partitions)
        }
        for record in records:
            groups[self.partition_for_record(record)].append(record)
        return groups


__all__ = ["ShardRouter"]
