"""SQL connector (the RDBMS alternative of paper section 2.1).

"If the user cares less about multi-hop relations, he may switch to a
RDBMS using a SQL connector."  This connector materialises the same
ontology into three sqlite tables -- ``entities``, ``relations``,
``reports`` -- with the identical exact-description merge semantics as
the graph connector, so the two backends stay row/node-comparable
(benchmark E14).

The database lives in memory as a participant of a
:class:`~repro.storage.StorageEngine` and durability comes from the
engine's journal: each record's ingest is one journal op replayed on
recovery, with snapshots carrying a full SQL dump.  The connector is
built on its partition's engine and reads under that engine's lock.
"""

from __future__ import annotations

import json
import sqlite3

from repro.connectors.base import Connector, IngestStats
from repro.ontology.entities import Entity, merge_key_for
from repro.ontology.intermediate import CTIRecord
from repro.ontology.refactor import refactor_record
from repro.storage.engine import StorageEngine

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entities (
    id INTEGER PRIMARY KEY,
    label TEXT NOT NULL,
    merge_key TEXT NOT NULL,
    name TEXT NOT NULL,
    attributes TEXT NOT NULL DEFAULT '{}',
    UNIQUE (label, merge_key)
);
CREATE TABLE IF NOT EXISTS relations (
    id INTEGER PRIMARY KEY,
    head INTEGER NOT NULL REFERENCES entities(id),
    type TEXT NOT NULL,
    tail INTEGER NOT NULL REFERENCES entities(id),
    weight INTEGER NOT NULL DEFAULT 1,
    attributes TEXT NOT NULL DEFAULT '{}',
    UNIQUE (head, type, tail)
);
CREATE TABLE IF NOT EXISTS reports (
    report_id TEXT PRIMARY KEY,
    source TEXT NOT NULL,
    url TEXT NOT NULL,
    title TEXT NOT NULL,
    category TEXT NOT NULL,
    published TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_entities_label ON entities(label);
CREATE INDEX IF NOT EXISTS idx_relations_type ON relations(type);
"""


def _merge_entity(
    cursor: sqlite3.Cursor, entity: Entity, stats: IngestStats
) -> int:
    """Find-or-create an entity row by (label, merge_key)."""
    merge_key = merge_key_for(entity)
    row = cursor.execute(
        "SELECT id, attributes FROM entities WHERE label = ? AND merge_key = ?",
        (entity.type.value, merge_key),
    ).fetchone()
    if row is not None:
        entity_id, attributes_json = row
        if entity.attributes:
            attributes = json.loads(attributes_json)
            changed = False
            for key, value in entity.attributes.items():
                if key not in attributes:
                    attributes[key] = value
                    changed = True
            if changed:
                cursor.execute(
                    "UPDATE entities SET attributes = ? WHERE id = ?",
                    (json.dumps(attributes), entity_id),
                )
        stats.entities_merged += 1
        return int(entity_id)
    cursor.execute(
        "INSERT INTO entities (label, merge_key, name, attributes) "
        "VALUES (?, ?, ?, ?)",
        (
            entity.type.value,
            merge_key,
            entity.name,
            json.dumps(entity.attributes),
        ),
    )
    stats.entities_created += 1
    return int(cursor.lastrowid)


def _ingest_record(
    cursor: sqlite3.Cursor, record: CTIRecord, stats: IngestStats
) -> None:
    """Merge one record into the three tables."""
    cursor.execute(
        "INSERT OR IGNORE INTO reports "
        "(report_id, source, url, title, category, published) "
        "VALUES (?, ?, ?, ?, ?, ?)",
        (
            record.report_id,
            record.source,
            record.url,
            record.title,
            record.report_category,
            record.published,
        ),
    )
    delta = refactor_record(record)
    ids: dict[tuple[str, str], int] = {}
    for entity in delta.entities:
        ids[entity.key] = _merge_entity(cursor, entity, stats)
    for relation in delta.relations:
        head, tail = ids[relation.head.key], ids[relation.tail.key]
        existing = cursor.execute(
            "SELECT id, weight FROM relations "
            "WHERE head = ? AND type = ? AND tail = ?",
            (head, relation.type.value, tail),
        ).fetchone()
        if existing is not None:
            cursor.execute(
                "UPDATE relations SET weight = ? WHERE id = ?",
                (int(existing[1]) + 1, int(existing[0])),
            )
            stats.relations_merged += 1
        else:
            cursor.execute(
                "INSERT INTO relations (head, type, tail, attributes) "
                "VALUES (?, ?, ?, ?)",
                (
                    head,
                    relation.type.value,
                    tail,
                    json.dumps(relation.attributes),
                ),
            )
            stats.relations_created += 1


class SQLParticipant:
    """The SQL mirror's storage-engine adapter.

    The sqlite database is in-memory; the engine's journal is its
    durability.  Ops carry the full serialised record
    (``{"op": "ingest", "record": <CTIRecord dict>}``) so replay re-runs
    the identical merge; snapshots are a full ``iterdump`` script.
    """

    name = "sql"

    def __init__(self) -> None:
        self.connection = sqlite3.connect(":memory:", check_same_thread=False)
        self.connection.executescript(_SCHEMA)

    def apply(self, ops: list[dict]) -> IngestStats:
        stats = IngestStats(records=len(ops))
        cursor = self.connection.cursor()
        for op in ops:
            if op["op"] != "ingest":  # pragma: no cover - corrupted journal
                raise ValueError(f"unknown sql operation {op['op']!r}")
            _ingest_record(cursor, CTIRecord.from_dict(op["record"]), stats)
        self.connection.commit()
        return stats

    def snapshot_data(self) -> str:
        return "\n".join(self.connection.iterdump())

    def snapshot_text(self) -> str:
        return json.dumps(self.snapshot_data())

    def load_snapshot(self, data: str) -> None:
        self.reset(schema=False)
        self.connection.executescript(data)
        self.connection.commit()

    def reset(self, schema: bool = True) -> None:
        self.connection.close()
        self.connection = sqlite3.connect(":memory:", check_same_thread=False)
        if schema:
            self.connection.executescript(_SCHEMA)


class SQLConnector(Connector):
    """Merge intermediate CTI representations into sqlite."""

    name = "sql"

    def __init__(self, engine: StorageEngine):
        self.engine = engine
        self._participant = engine.participant(SQLParticipant.name)
        self._lock = engine.lock

    @property
    def connection(self) -> sqlite3.Connection:
        return self._participant.connection

    def ingest(self, record: CTIRecord) -> IngestStats:
        return self.engine.log(
            SQLParticipant.name, [{"op": "ingest", "record": record.to_dict()}]
        )

    # -- reading -------------------------------------------------------

    def entity_count(self) -> int:
        with self._lock:
            return int(
                self.connection.execute("SELECT COUNT(*) FROM entities").fetchone()[0]
            )

    def relation_count(self) -> int:
        with self._lock:
            return int(
                self.connection.execute("SELECT COUNT(*) FROM relations").fetchone()[0]
            )

    def label_counts(self) -> dict[str, int]:
        with self._lock:
            rows = self.connection.execute(
                "SELECT label, COUNT(*) FROM entities GROUP BY label ORDER BY label"
            ).fetchall()
        return {label: int(count) for label, count in rows}


__all__ = ["SQLConnector", "SQLParticipant"]
