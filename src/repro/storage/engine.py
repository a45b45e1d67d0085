"""Unified transactional storage engine.

The paper's storage stage leans on Neo4j's and Elasticsearch's own
durability; this reproduction coordinates *all* of its stores -- the
property graph, the search index, the incremental crawl state, the SQL
mirror -- under one store-agnostic engine so a crash can never leave
them mutually inconsistent.

Design
------
* **Participants.**  Each store registers a named :class:`Participant`
  adapter: ``apply(ops)`` mutates the in-memory state, ``snapshot_text``
  / ``load_snapshot`` serialise it for compaction, ``reset`` empties it
  before recovery.  The engine never interprets a store's ops; it only
  journals and replays them.
* **One journal, one commit.**  All participants share a single
  JSON-lines journal.  A commit is one line carrying every
  participant's op batches plus the batch's per-report *ingest
  markers*, so graph mutations, search-index doc deltas and the
  seen-URL delta become durable as a single unit.  A torn final line
  (crash mid-append) is detected and truncated on recovery; a line is
  either fully applied or not at all.  Only the final line is ever
  discarded: a damaged or inapplicable record with committed records
  after it fails the open instead.
* **Redo-log semantics.**  Ops are applied to memory when logged and
  journalled at commit; memory is a cache of the log.  After a crash
  the process is gone, so recovery = load snapshot + replay journal.
  Replay is idempotent: every commit carries a sequence number and
  replay skips records at or below the recovered sequence.
* **Manifest-based checkpoints.**  Compaction writes
  ``snapshot-<gen>.json`` and an empty ``journal-<gen>.jsonl``, then
  atomically swaps ``MANIFEST`` (fsync'd write-rename) to the new
  generation.  The manifest swap is the commit point; a crash anywhere
  else leaves the previous generation fully intact, and stale files are
  swept on the next open.  The snapshot joins each participant's
  ``snapshot_text``; the graph, search index and feed views memoise
  each item's encoding until it changes (about one snapshot of ``str``
  held once a process has checkpointed), so a checkpoint re-encodes
  what changed while the bytes it writes and fsyncs stay O(store).
* **Exactly-once ingest.**  ``transaction().mark_ingested(report_id)``
  records that a report's mutations are part of this commit; after a
  crash the pipeline asks :meth:`StorageEngine.is_ingested` and skips
  replayed reports, so re-crawled input is never double-counted.
* **Staged ops.**  Deltas produced *before* their owning commit is
  known (seen-URLs recorded while crawling) are staged: applied to
  memory immediately, keyed, and later adopted into the transaction
  that stores the matching report -- or flushed in bulk.
* **Fault injection.**  Every commit/checkpoint boundary calls into a
  :class:`~repro.storage.faults.CrashInjector`; recovery tests kill the
  engine at each registered point and assert convergence.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Protocol, runtime_checkable

from repro.obs import NO_OBS, Obs
from repro.runtime import named_lock
from repro.storage.atomic import atomic_write_text, fsync_directory
from repro.storage.faults import NO_FAULTS, InjectedCrash


class StorageError(Exception):
    """Misuse of or unrecoverable damage to the storage engine."""


@runtime_checkable
class Participant(Protocol):
    """A named store coordinated by the engine."""

    name: str

    def apply(self, ops: list[dict]) -> object | None:
        """Apply one op batch to the in-memory state; may return a result."""

    def snapshot_data(self) -> object:
        """JSON-safe serialisation of the full current state."""

    def snapshot_text(self) -> str:
        """``json.dumps(snapshot_data())`` byte for byte, maybe joined
        from per-item encodings memoised until the item changes."""

    def load_snapshot(self, data: object) -> None:
        """Replace the in-memory state with a snapshot's contents."""

    def reset(self) -> None:
        """Empty the in-memory state (recovery starts from zero)."""


class _StagedOp:
    __slots__ = ("name", "key", "op")

    def __init__(self, name: str, key: str | None, op: dict):
        self.name = name
        self.key = key
        self.op = op


class EngineTransaction:
    """Buffers one atomic cross-store commit."""

    def __init__(self, engine: "StorageEngine"):
        self._engine = engine
        self._groups: list[tuple[str, list[dict]]] = []
        self._marks: list[str] = []

    def mark_ingested(self, report_id: str) -> None:
        """Record a per-report ingest marker in this commit."""
        self._marks.append(report_id)

    def adopt_staged(self, name: str, keys: Iterable[str]) -> int:
        """Move staged ops with the given keys into this transaction.

        Unknown participants are tolerated (no-op) so callers can run
        against engines without, say, a crawl participant.
        """
        if name not in self._engine._participants:
            return 0
        ops = self._engine._take_staged(name, set(keys))
        if ops:
            self._groups.append((name, ops))
        return len(ops)


def _decode_record(line: str) -> dict | None:
    """One journal line as a record, or ``None`` when it is not a
    complete one (no newline ever made it to disk, or not a JSON
    object)."""
    if not line.endswith("\n"):
        return None
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) else None


class StorageEngine:
    """Crash-consistent coordinator of named storage participants.

    Parameters
    ----------
    path:
        Directory for the manifest, journal and snapshots.  ``None``
        keeps everything in memory (tests, benchmarks, ephemeral runs)
        while preserving the full transactional API.
    participants:
        The stores to coordinate.  Recovery needs them registered up
        front, so the set is fixed at construction.
    faults:
        Optional :class:`~repro.storage.faults.CrashInjector`; the
        default never fires.
    fsync:
        Issue real ``fsync`` calls (disable only in benchmarks that
        measure something else).
    obs:
        Observability bundle: commit/checkpoint spans, journal-byte and
        commit counters, checkpoint-duration histogram.  Defaults to
        the no-op bundle.
    """

    MANIFEST = "MANIFEST"

    def __init__(
        self,
        path: str | Path | None,
        participants: Iterable[Participant],
        faults=None,
        fsync: bool = True,
        obs: Obs | None = None,
    ):
        self.path = Path(path) if path is not None else None
        self._obs = obs if obs is not None else NO_OBS
        self._participants: dict[str, Participant] = {}
        for participant in participants:
            if participant.name in self._participants:
                raise StorageError(f"duplicate participant {participant.name!r}")
            self._participants[participant.name] = participant
        self._faults = faults if faults is not None else NO_FAULTS
        self._fsync = fsync
        # Public and re-entrant: CrawlState and SQLConnector alias this
        # lock, and transactions re-enter it.
        self.lock = named_lock("storage.engine", reentrant=True)
        self._seq = 0
        self._generation = 1
        self._ingested: set[str] = set()
        self._staged: list[_StagedOp] = []
        self._active_tx: EngineTransaction | None = None
        self._failed = False
        self._closed = False
        self._journal_handle = None
        self._journal_path: Path | None = None
        self._checkpoint_steps: list = []
        if self.path is not None:
            self.path.mkdir(parents=True, exist_ok=True)
            self._recover()

    # -- introspection ----------------------------------------------------

    def participant(self, name: str) -> Participant:
        try:
            return self._participants[name]
        except KeyError:
            raise StorageError(
                f"no participant {name!r} registered; "
                f"known: {sorted(self._participants)}"
            ) from None

    @property
    def participant_names(self) -> list[str]:
        return sorted(self._participants)

    @property
    def journal_path(self) -> Path | None:
        """The live journal file (None for in-memory engines)."""
        return self._journal_path

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def last_seq(self) -> int:
        return self._seq

    def is_ingested(self, report_id: str) -> bool:
        """Whether a report's mutations are already durably committed."""
        with self.lock:
            return report_id in self._ingested

    @property
    def ingested_count(self) -> int:
        with self.lock:
            return len(self._ingested)

    def ingested_ids(self) -> list[str]:
        """Sorted ids of every durably ingested report."""
        with self.lock:
            return sorted(self._ingested)

    # -- recovery ---------------------------------------------------------

    def _manifest_path(self) -> Path:
        return self.path / self.MANIFEST

    @staticmethod
    def _snapshot_name(generation: int) -> str:
        return f"snapshot-{generation:06d}.json"

    @staticmethod
    def _journal_name(generation: int) -> str:
        return f"journal-{generation:06d}.jsonl"

    def _recover(self) -> None:
        for leftover in self.path.glob("*.tmp"):
            leftover.unlink()
        manifest_path = self._manifest_path()
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            self._generation = int(manifest["generation"])
            for participant in self._participants.values():
                participant.reset()
            self._seq = 0
            self._ingested = set()
            snapshot_name = manifest.get("snapshot")
            if snapshot_name:
                snapshot_path = self.path / snapshot_name
                if not snapshot_path.exists():
                    raise StorageError(
                        f"manifest references missing snapshot {snapshot_name!r}"
                    )
                self._load_snapshot(
                    json.loads(snapshot_path.read_text(encoding="utf-8"))
                )
            journal_path = self.path / manifest["journal"]
            if journal_path.exists():
                self.replay_journal(journal_path)
            else:
                # crash window between manifest swap and journal creation
                # cannot happen (journal is created first), but an empty
                # journal is always a valid state
                journal_path.touch()
        else:
            journal_path = self.path / self._journal_name(self._generation)
            journal_path.touch()
            self._write_manifest(snapshot=None)
        self._journal_path = journal_path
        self._journal_handle = journal_path.open("a", encoding="utf-8")
        self._sweep_stale_generations()

    def _load_snapshot(self, data: dict) -> None:
        self._seq = int(data.get("seq", 0))
        self._ingested = set(data.get("ingested", []))
        for name, store_data in data.get("stores", {}).items():
            if name not in self._participants:
                raise StorageError(
                    f"snapshot contains unknown participant {name!r}; "
                    "open the store with the same participants it was "
                    "written with"
                )
            self._participants[name].load_snapshot(store_data)

    def replay_journal(self, journal_path: Path) -> int:
        """Replay a journal file; returns the number of records applied.

        Only the final line can be a torn tail (a crash mid-append: no
        trailing newline, or undecodable with nothing after it); it is
        truncated away.  Every other record was committed and
        acknowledged, so one that cannot be decoded or applied raises
        :class:`StorageError` and leaves the file untouched --
        discarding it, and everything after it, would lose data.

        Replay is idempotent: records whose sequence number is at or
        below the engine's current sequence are skipped, so replaying
        any prefix and then the full journal equals applying the
        journal once.
        """
        applied = 0
        valid_bytes = 0
        with journal_path.open("r", encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    record = _decode_record(line)
                    if record is None:
                        if handle.read().strip():
                            raise StorageError(
                                f"{journal_path}: the record after seq "
                                f"{self._seq} is corrupt but committed "
                                "records follow it; refusing to truncate"
                            )
                        break  # torn tail
                    try:
                        applied += self.replay_records([record])
                    except (KeyError, TypeError, ValueError) as error:
                        raise StorageError(
                            f"{journal_path}: committed record seq="
                            f"{record.get('seq')} cannot be applied: {error!r}"
                        ) from error
                valid_bytes += len(line.encode("utf-8"))
        if valid_bytes < journal_path.stat().st_size:
            with journal_path.open("r+b") as handle:
                handle.truncate(valid_bytes)
        return applied

    def replay_records(self, records: Iterable[dict]) -> int:
        """Apply journal records to the participants (seq-idempotent)."""
        applied = 0
        for record in records:
            seq = int(record["seq"])
            if seq <= self._seq:
                continue
            for name, batches in record.get("ops", {}).items():
                if name not in self._participants:
                    raise StorageError(
                        f"journal references unknown participant {name!r}"
                    )
                for batch in batches:
                    self._participants[name].apply(batch)
            self._ingested.update(record.get("marks", []))
            self._seq = seq
            applied += 1
        return applied

    # -- fault plumbing ---------------------------------------------------

    def _fail(self, point: str) -> None:
        self._failed = True
        raise InjectedCrash(point)

    def _crash_point(self, point: str) -> None:
        if self._faults.fire(point):
            self._fail(point)

    def _check_usable(self) -> None:
        if self._closed:
            raise StorageError("storage engine is closed")
        if self._failed:
            raise StorageError(
                "storage engine crashed (injected fault); reopen it to recover"
            )

    # -- mutation path ----------------------------------------------------

    def log(self, name: str, ops: list[dict]) -> object | None:
        """Apply one op batch now; journal it with the active transaction
        (or as its own commit when none is open).  Returns whatever the
        participant's ``apply`` returns."""
        with self.lock:
            self._check_usable()
            result = self.participant(name).apply(ops)
            if self._active_tx is not None:
                self._active_tx._groups.append((name, ops))
            else:
                self._commit([(name, ops)], [])
            return result

    def stage(self, name: str, op: dict, key: str | None = None) -> None:
        """Apply one op now; defer its durability until a transaction
        adopts it by ``key`` or :meth:`flush` commits the backlog."""
        with self.lock:
            self._check_usable()
            self.participant(name).apply([op])
            self._staged.append(_StagedOp(name, key, op))

    def unstage(self, name: str, key: str) -> bool:
        """Drop the first staged op with this key; True when one existed."""
        with self.lock:
            for index, staged in enumerate(self._staged):
                if staged.name == name and staged.key == key:
                    del self._staged[index]
                    return True
            return False

    def _take_staged(self, name: str, keys: set[str]) -> list[dict]:
        with self.lock:
            taken = [
                staged
                for staged in self._staged
                if staged.name == name and staged.key in keys
            ]
            if taken:
                remaining = [s for s in self._staged if s not in taken]
                self._staged = remaining
            return [staged.op for staged in taken]

    @contextmanager
    def transaction(self):
        """One atomic cross-store commit.

        Ops logged inside the block are buffered and written as a
        single journal record on exit.  On an ordinary exception the
        buffered ops are *still* committed (they were already applied
        to memory; committing keeps disk and memory in agreement) and
        the exception propagates.  On an injected crash the engine is
        poisoned and nothing further is written.
        """
        with self.lock:
            self._check_usable()
            if self._active_tx is not None:
                raise StorageError("transactions do not nest")
            tx = EngineTransaction(self)
            self._active_tx = tx
            try:
                yield tx
            except InjectedCrash:
                raise
            except BaseException:
                if not self._failed:
                    self._commit(tx._groups, tx._marks)
                raise
            else:
                self._commit(tx._groups, tx._marks)
            finally:
                self._active_tx = None

    def flush(self) -> None:
        """Durably commit every staged op as one journal record."""
        with self.lock:
            self._check_usable()
            if not self._staged:
                return
            grouped: dict[str, list[dict]] = {}
            for staged in self._staged:
                grouped.setdefault(staged.name, []).append(staged.op)
            self._staged = []
            self._commit(list(grouped.items()), [])

    def _commit(self, groups: list[tuple[str, list[dict]]], marks: list[str]) -> None:
        """Write one journal record (caller holds the lock, ops are
        already applied to memory)."""
        if not groups and not marks:
            return
        self._seq += 1
        # the journal sequence number is deliberately NOT a span
        # attribute: it reflects arrival order, which races between
        # pipeline workers, and would break golden-trace byte identity
        with self._obs.tracer.span(
            "storage.commit", marks=len(marks)
        ) as span:
            if marks:
                span.set("report", marks[0])
            if self._journal_handle is not None:
                ops_map: dict[str, list[list[dict]]] = {}
                for name, batch in groups:
                    ops_map.setdefault(name, []).append(batch)
                line = (
                    json.dumps({"seq": self._seq, "ops": ops_map, "marks": marks})
                    + "\n"
                )
                self._crash_point("commit.before-append")
                if self._faults.fire("commit.torn-append"):
                    self._journal_handle.write(line[: max(1, len(line) // 2)])
                    self._journal_handle.flush()
                    self._fail("commit.torn-append")
                self._journal_handle.write(line)
                self._journal_handle.flush()
                self._crash_point("commit.after-append")
                if self._fsync:
                    os.fsync(self._journal_handle.fileno())
                self._crash_point("commit.after-fsync")
                self._obs.metrics.inc("storage.journal_bytes", len(line))
        self._obs.metrics.inc("storage.commits")
        self._ingested.update(marks)

    # -- checkpoint (log compaction) --------------------------------------

    def add_checkpoint_step(self, step) -> None:
        """Register a zero-argument callable to run after every
        successful checkpoint (feed snapshot publication, cache
        rebuilds).  Steps run *outside* the engine lock -- they may do
        their own I/O -- and are skipped when the checkpoint itself
        crashed (the ``checkpoint.feeds-snapshot`` crash point models
        dying in that window; recovery simply re-runs the steps at the
        next checkpoint)."""
        with self.lock:
            self._checkpoint_steps.append(step)

    def checkpoint(self) -> None:
        """Compact: snapshot every participant, start a fresh journal,
        and atomically swap the manifest to the new generation."""
        if self.path is None:
            with self.lock:
                self._check_usable()
                self._staged = []  # effects live in memory only anyway
                steps = list(self._checkpoint_steps)
            for step in steps:
                step()
            return
        with self.lock:
            self._check_usable()
            with self._obs.tracer.span(
                "storage.checkpoint", generation=self._generation + 1
            ) as span:
                self._checkpoint_locked()
            self._obs.metrics.observe("storage.checkpoint_seconds", span.duration)
            self._crash_point("checkpoint.feeds-snapshot")
            steps = list(self._checkpoint_steps)
        for step in steps:
            step()

    def _checkpoint_locked(self) -> None:
        """The checkpoint body (caller holds the lock and the span)."""
        self._crash_point("checkpoint.begin")
        new_generation = self._generation + 1
        stores = ", ".join(
            f"{json.dumps(name)}: {participant.snapshot_text()}"
            for name, participant in sorted(self._participants.items())
        )
        # json.dumps({"seq": ..., "ingested": ..., "stores": {...}})
        payload = (
            f'{{"seq": {json.dumps(self._seq)}, '
            f'"ingested": {json.dumps(sorted(self._ingested))}, '
            f'"stores": {{{stores}}}}}'
        )
        snapshot_name = self._snapshot_name(new_generation)
        if self._faults.fire("checkpoint.torn-snapshot"):
            (self.path / (snapshot_name + ".tmp")).write_text(
                payload[: max(1, len(payload) // 2)], encoding="utf-8"
            )
            self._fail("checkpoint.torn-snapshot")
        atomic_write_text(
            self.path / snapshot_name, payload, fsync=self._fsync
        )
        journal_name = self._journal_name(new_generation)
        (self.path / journal_name).touch()
        self._crash_point("checkpoint.after-snapshot")
        if self._faults.fire("checkpoint.torn-manifest"):
            (self.path / (self.MANIFEST + ".tmp")).write_text(
                '{"generation": ', encoding="utf-8"
            )
            self._fail("checkpoint.torn-manifest")
        self._generation = new_generation
        self._write_manifest(snapshot=snapshot_name)
        self._crash_point("checkpoint.after-manifest")
        self._journal_handle.close()
        self._journal_path = self.path / journal_name
        self._journal_handle = self._journal_path.open("a", encoding="utf-8")
        # snapshot captured the staged ops' in-memory effects
        self._staged = []
        self._sweep_stale_generations()
        self._crash_point("checkpoint.after-cleanup")

    def _write_manifest(self, snapshot: str | None) -> None:
        manifest = {
            "generation": self._generation,
            "snapshot": snapshot,
            "journal": self._journal_name(self._generation),
            "participants": sorted(self._participants),
        }
        atomic_write_text(
            self._manifest_path(), json.dumps(manifest), fsync=self._fsync
        )

    def _sweep_stale_generations(self) -> None:
        """Remove snapshot/journal files from other generations (debris
        of a crashed checkpoint; the manifest is the source of truth)."""
        keep = {
            self._snapshot_name(self._generation),
            self._journal_name(self._generation),
            self.MANIFEST,
        }
        for candidate in self.path.iterdir():
            name = candidate.name
            if name in keep:
                continue
            if name.startswith(("snapshot-", "journal-")) or name.endswith(".tmp"):
                candidate.unlink()
        if self._fsync:
            fsync_directory(self.path)

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Flush staged ops (when healthy) and release the journal."""
        with self.lock:
            if self._closed:
                return
            if not self._failed and self._staged and self._journal_handle is not None:
                self.flush()
            self._closed = True
            if self._journal_handle is not None:
                self._journal_handle.close()
                self._journal_handle = None

    def __enter__(self) -> "StorageEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


__all__ = [
    "EngineTransaction",
    "Participant",
    "StorageEngine",
    "StorageError",
]
