"""Tests for the unified transactional storage engine."""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crawlers.state import CrawlParticipant, CrawlState
from repro.storage import (
    CRASH_POINTS,
    CrashInjector,
    InjectedCrash,
    StorageEngine,
    StorageError,
    atomic_write_bytes,
    atomic_write_text,
)


class KVParticipant:
    """Minimal participant: a dict with set/del ops."""

    name = "kv"

    def __init__(self):
        self.data = {}

    def apply(self, ops):
        for op in ops:
            if op["op"] == "set":
                self.data[op["k"]] = op["v"]
            elif op["op"] == "del":
                self.data.pop(op["k"], None)
            else:
                raise ValueError(op["op"])
        return len(ops)

    def snapshot_data(self):
        return dict(self.data)

    def snapshot_text(self):
        return json.dumps(self.snapshot_data())

    def load_snapshot(self, data):
        self.data = dict(data)

    def reset(self):
        self.data = {}


def open_engine(path, faults=None):
    return StorageEngine(path, [KVParticipant()], faults=faults, fsync=False)


def kv(engine):
    return engine.participant("kv").data


class TestAtomicWrite:
    def test_replaces_content(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "one")
        atomic_write_text(target, "two")
        assert target.read_text() == "two"
        assert not (tmp_path / "out.txt.tmp").exists()

    def test_bytes_and_json(self, tmp_path):
        atomic_write_bytes(tmp_path / "b.bin", b"\x00\x01")
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\x01"
        atomic_write_text(tmp_path / "p.json", json.dumps({"a": [1, 2]}))
        assert json.loads((tmp_path / "p.json").read_text()) == {"a": [1, 2]}

    def test_dotted_names_do_not_collide(self, tmp_path):
        # with_suffix(".tmp") would map both of these onto "state.tmp";
        # the helper appends to the full filename instead
        a, b = tmp_path / "state.json", tmp_path / "state.yaml"
        atomic_write_text(a, "json")
        atomic_write_text(b, "yaml")
        assert a.read_text() == "json" and b.read_text() == "yaml"

    def test_no_fsync_mode(self, tmp_path):
        atomic_write_text(tmp_path / "x", "ok", fsync=False)
        assert (tmp_path / "x").read_text() == "ok"


class TestCrashInjector:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            CrashInjector("no-such-point")

    def test_fires_on_nth_hit(self):
        injector = CrashInjector("commit.after-append", at_hit=3)
        assert not injector.fire("commit.after-append")
        assert not injector.fire("commit.before-append")
        assert not injector.fire("commit.after-append")
        assert injector.fire("commit.after-append")
        assert injector.fired
        # once fired, never again
        assert not injector.fire("commit.after-append")

    def test_seeded_is_deterministic(self):
        a, b = CrashInjector.seeded(42), CrashInjector.seeded(42)
        assert (a.point, a.at_hit) == (b.point, b.at_hit)
        assert a.point in CRASH_POINTS


class TestEngineBasics:
    def test_commit_and_reopen(self, tmp_path):
        engine = open_engine(tmp_path / "s")
        engine.log("kv", [{"op": "set", "k": "a", "v": 1}])
        engine.log("kv", [{"op": "set", "k": "b", "v": 2}])
        engine.close()
        reopened = open_engine(tmp_path / "s")
        assert kv(reopened) == {"a": 1, "b": 2}
        assert reopened.last_seq == 2

    def test_log_returns_apply_result(self, tmp_path):
        engine = open_engine(None)
        assert engine.log("kv", [{"op": "set", "k": "a", "v": 1}]) == 1

    def test_transaction_is_one_journal_record(self, tmp_path):
        engine = open_engine(tmp_path / "s")
        with engine.transaction() as tx:
            engine.log("kv", [{"op": "set", "k": "a", "v": 1}])
            engine.log("kv", [{"op": "set", "k": "b", "v": 2}])
            tx.mark_ingested("rpt-1")
        lines = engine.journal_path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["marks"] == ["rpt-1"]
        assert len(record["ops"]["kv"]) == 2
        assert engine.is_ingested("rpt-1")
        assert not engine.is_ingested("rpt-2")

    def test_transactions_do_not_nest(self):
        engine = open_engine(None)
        with pytest.raises(StorageError):
            with engine.transaction():
                with engine.transaction():
                    pass

    def test_ordinary_exception_still_commits_applied_ops(self, tmp_path):
        # memory was already mutated inside the block; committing keeps
        # disk and memory in agreement (redo-log semantics)
        engine = open_engine(tmp_path / "s")
        with pytest.raises(RuntimeError):
            with engine.transaction():
                engine.log("kv", [{"op": "set", "k": "a", "v": 1}])
                raise RuntimeError("boom")
        engine.close()
        assert kv(open_engine(tmp_path / "s")) == {"a": 1}

    def test_unknown_participant_rejected(self):
        engine = open_engine(None)
        with pytest.raises(StorageError, match="no participant"):
            engine.log("nope", [])

    def test_duplicate_participant_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="duplicate"):
            StorageEngine(None, [KVParticipant(), KVParticipant()])

    def test_closed_engine_rejects_ops(self, tmp_path):
        engine = open_engine(tmp_path / "s")
        engine.close()
        with pytest.raises(StorageError):
            engine.log("kv", [{"op": "set", "k": "a", "v": 1}])

    def test_in_memory_engine_full_api(self):
        engine = open_engine(None)
        with engine.transaction() as tx:
            engine.log("kv", [{"op": "set", "k": "a", "v": 1}])
            tx.mark_ingested("r")
        engine.checkpoint()
        assert kv(engine) == {"a": 1}
        assert engine.is_ingested("r")
        assert engine.journal_path is None


class TestStagedOps:
    def test_staged_applies_immediately_but_defers_durability(self, tmp_path):
        engine = open_engine(tmp_path / "s")
        engine.stage("kv", {"op": "set", "k": "a", "v": 1}, key="a")
        assert kv(engine) == {"a": 1}
        assert engine.journal_path.read_text() == ""
        reopened = open_engine(tmp_path / "s")  # simulated crash
        assert kv(reopened) == {}

    def test_adopt_staged_commits_with_transaction(self, tmp_path):
        engine = open_engine(tmp_path / "s")
        engine.stage("kv", {"op": "set", "k": "a", "v": 1}, key="a")
        engine.stage("kv", {"op": "set", "k": "b", "v": 2}, key="b")
        with engine.transaction() as tx:
            assert tx.adopt_staged("kv", ["a"]) == 1
        reopened = open_engine(tmp_path / "s")
        assert kv(reopened) == {"a": 1}

    def test_adopt_staged_tolerates_unknown_participant(self):
        engine = open_engine(None)
        with engine.transaction() as tx:
            assert tx.adopt_staged("crawl", ["x"]) == 0

    def test_flush_commits_backlog(self, tmp_path):
        engine = open_engine(tmp_path / "s")
        engine.stage("kv", {"op": "set", "k": "a", "v": 1}, key="a")
        engine.stage("kv", {"op": "set", "k": "b", "v": 2})
        engine.flush()
        assert kv(open_engine(tmp_path / "s")) == {"a": 1, "b": 2}

    def test_unstage_drops_pending_op(self, tmp_path):
        engine = open_engine(tmp_path / "s")
        engine.stage("kv", {"op": "set", "k": "a", "v": 1}, key="a")
        assert engine.unstage("kv", "a")
        assert not engine.unstage("kv", "a")
        engine.flush()
        assert open_engine(tmp_path / "s").journal_path.read_text() == ""

    def test_close_flushes_staged(self, tmp_path):
        engine = open_engine(tmp_path / "s")
        engine.stage("kv", {"op": "set", "k": "a", "v": 1}, key="a")
        engine.close()
        assert kv(open_engine(tmp_path / "s")) == {"a": 1}

    @staticmethod
    def journal(engine):
        return [json.loads(line) for line in engine.journal_path.read_text().splitlines()]

    @staticmethod
    def op(key, value):
        return {"op": "set", "k": key, "v": value}

    def test_unstage_then_adopt_takes_what_is_left_in_staging_order(self, tmp_path):
        engine = open_engine(tmp_path / "s")
        engine.stage("kv", self.op("a", 1), key="a")
        engine.stage("kv", self.op("b", 2), key="b")
        engine.stage("kv", self.op("a", 3), key="a")
        assert engine.unstage("kv", "a")  # the first "a" only
        with engine.transaction() as tx:
            assert tx.adopt_staged("kv", ["a", "b", "a"]) == 2
        engine.flush()  # nothing left
        assert [r["ops"] for r in self.journal(engine)] == [
            {"kv": [[self.op("b", 2), self.op("a", 3)]]}
        ]
        assert not engine.unstage("kv", "a")

    def test_duplicate_keys_are_adopted_together(self, tmp_path):
        engine = open_engine(tmp_path / "s")
        engine.stage("kv", self.op("a", 1), key="a")
        engine.stage("kv", self.op("c", 2), key="c")
        engine.stage("kv", self.op("a", 3), key="a")
        with engine.transaction() as tx:
            assert tx.adopt_staged("kv", ["a"]) == 2
        engine.flush()
        assert [r["ops"] for r in self.journal(engine)] == [
            {"kv": [[self.op("a", 1), self.op("a", 3)]]},
            {"kv": [[self.op("c", 2)]]},
        ]

    def test_flush_keeps_staging_order_across_interleaved_crawl_writes(
        self, tmp_path
    ):
        engine = StorageEngine(
            tmp_path / "s", [CrawlParticipant(), KVParticipant()], fsync=False
        )
        state = CrawlState(engine)
        state.mark_seen("u1")
        state.record_crawl("s1", 1.0)
        state.mark_seen("u2")
        engine.stage("kv", self.op("u2", 0), key="u2")  # same key, other store
        state.record_crawl("s2", 2.0)
        state.mark_seen("u3")
        state.unmark("u1")  # never durable: dropped, not journaled
        with engine.transaction() as tx:
            assert tx.adopt_staged("crawl", ["u2"]) == 1
        engine.flush()
        adopted, flushed = self.journal(engine)
        assert adopted["ops"] == {"crawl": [[{"op": "seen", "url": "u2"}]]}
        assert list(flushed["ops"].items()) == [
            ("crawl", [[
                {"op": "crawl", "source": "s1", "ts": 1.0},
                {"op": "crawl", "source": "s2", "ts": 2.0},
                {"op": "seen", "url": "u3"},
            ]]),
            ("kv", [[self.op("u2", 0)]]),
        ]
        assert not state.is_seen("u1")


class TestCheckpoint:
    def test_checkpoint_starts_new_generation(self, tmp_path):
        engine = open_engine(tmp_path / "s")
        engine.log("kv", [{"op": "set", "k": "a", "v": 1}])
        engine.checkpoint()
        assert engine.generation == 2
        assert engine.journal_path.read_text() == ""
        engine.log("kv", [{"op": "set", "k": "b", "v": 2}])
        engine.close()
        reopened = open_engine(tmp_path / "s")
        assert kv(reopened) == {"a": 1, "b": 2}

    def test_checkpoint_sweeps_stale_generations(self, tmp_path):
        engine = open_engine(tmp_path / "s")
        engine.log("kv", [{"op": "set", "k": "a", "v": 1}])
        engine.checkpoint()
        engine.checkpoint()
        names = sorted(p.name for p in (tmp_path / "s").iterdir())
        assert names == ["MANIFEST", "journal-000003.jsonl", "snapshot-000003.json"]

    def test_markers_survive_checkpoint(self, tmp_path):
        engine = open_engine(tmp_path / "s")
        with engine.transaction() as tx:
            engine.log("kv", [{"op": "set", "k": "a", "v": 1}])
            tx.mark_ingested("rpt-9")
        engine.checkpoint()
        engine.close()
        assert open_engine(tmp_path / "s").is_ingested("rpt-9")


class TestRecovery:
    def test_torn_final_line_truncated(self, tmp_path):
        engine = open_engine(tmp_path / "s")
        engine.log("kv", [{"op": "set", "k": "a", "v": 1}])
        journal = engine.journal_path
        engine.close()
        with journal.open("a") as handle:
            handle.write('{"seq": 2, "ops": {"kv": [[{"op": "se')
        reopened = open_engine(tmp_path / "s")
        assert kv(reopened) == {"a": 1}
        # tail was truncated: the journal ends at the last good record
        reopened.log("kv", [{"op": "set", "k": "b", "v": 2}])
        reopened.close()
        assert kv(open_engine(tmp_path / "s")) == {"a": 1, "b": 2}

    def test_unterminated_tail_without_newline_truncated(self, tmp_path):
        engine = open_engine(tmp_path / "s")
        engine.log("kv", [{"op": "set", "k": "a", "v": 1}])
        journal = engine.journal_path
        engine.close()
        # valid JSON but no newline: the append never completed
        with journal.open("a") as handle:
            handle.write('{"seq": 2, "ops": {}, "marks": []}')
        assert kv(open_engine(tmp_path / "s")) == {"a": 1}

    @pytest.mark.parametrize(
        "bad, names",
        [
            ('{"seq": 2, "ops": {"kv": [[{"op": "se\n', "after seq 1"),
            ('{"seq": 2, "ops": {"kv": [[{"op": "explode"}]]}}\n', "seq=2"),
            ('{"seq": 2, "ops": {"kv": [[{"k": "b"}]]}}\n', "seq=2"),
        ],
        ids=["undecodable", "apply-raises-value-error", "apply-raises-key-error"],
    )
    def test_bad_middle_record_refuses_to_truncate(self, tmp_path, bad, names):
        engine = open_engine(tmp_path / "s")
        engine.log("kv", [{"op": "set", "k": "a", "v": 1}])
        journal = engine.journal_path
        engine.close()
        with journal.open("a") as handle:
            handle.write(bad)
            handle.write('{"seq": 3, "ops": {"kv": [[{"op": "set", '
                         '"k": "c", "v": 3}]]}, "marks": []}\n')
        before = journal.read_bytes()
        with pytest.raises(StorageError, match=names):
            open_engine(tmp_path / "s")
        # the committed record after the damage is still on disk
        assert journal.read_bytes() == before

    def test_inapplicable_final_record_is_not_a_torn_tail(self, tmp_path):
        engine = open_engine(tmp_path / "s")
        engine.log("kv", [{"op": "set", "k": "a", "v": 1}])
        journal = engine.journal_path
        engine.close()
        with journal.open("a") as handle:
            handle.write('{"seq": 2, "ops": {"kv": [[{"op": "explode"}]]}}\n')
        before = journal.read_bytes()
        with pytest.raises(StorageError, match="seq=2"):
            open_engine(tmp_path / "s")
        assert journal.read_bytes() == before

    def test_snapshot_with_unknown_participant_rejected(self, tmp_path):
        engine = open_engine(tmp_path / "s")
        engine.log("kv", [{"op": "set", "k": "a", "v": 1}])
        engine.checkpoint()
        engine.close()
        with pytest.raises(StorageError, match="unknown participant"):
            StorageEngine(tmp_path / "s", [], fsync=False)

    def test_leftover_tmp_files_removed(self, tmp_path):
        engine = open_engine(tmp_path / "s")
        engine.log("kv", [{"op": "set", "k": "a", "v": 1}])
        engine.close()
        (tmp_path / "s" / "MANIFEST.tmp").write_text("{half")
        reopened = open_engine(tmp_path / "s")
        assert not (tmp_path / "s" / "MANIFEST.tmp").exists()
        assert kv(reopened) == {"a": 1}


class TestCommitCrashPoints:
    @pytest.mark.parametrize(
        "point", ["commit.before-append", "commit.torn-append"]
    )
    def test_crash_before_durable_loses_only_that_commit(self, tmp_path, point):
        engine = open_engine(tmp_path / "s", faults=CrashInjector(point, at_hit=2))
        engine.log("kv", [{"op": "set", "k": "a", "v": 1}])
        with pytest.raises(InjectedCrash):
            engine.log("kv", [{"op": "set", "k": "b", "v": 2}])
        reopened = open_engine(tmp_path / "s")
        assert kv(reopened) == {"a": 1}
        assert reopened.last_seq == 1

    @pytest.mark.parametrize(
        "point", ["commit.after-append", "commit.after-fsync"]
    )
    def test_crash_after_append_keeps_the_commit(self, tmp_path, point):
        engine = open_engine(tmp_path / "s", faults=CrashInjector(point))
        with pytest.raises(InjectedCrash):
            engine.log("kv", [{"op": "set", "k": "a", "v": 1}])
        assert kv(open_engine(tmp_path / "s")) == {"a": 1}

    def test_poisoned_engine_rejects_further_use(self, tmp_path):
        engine = open_engine(
            tmp_path / "s", faults=CrashInjector("commit.before-append")
        )
        with pytest.raises(InjectedCrash):
            engine.log("kv", [{"op": "set", "k": "a", "v": 1}])
        with pytest.raises(StorageError, match="crashed"):
            engine.log("kv", [{"op": "set", "k": "b", "v": 2}])
        with pytest.raises(StorageError, match="crashed"):
            engine.checkpoint()
        engine.close()  # close after crash must not flush anything
        assert kv(open_engine(tmp_path / "s")) == {}


class TestCheckpointCrashPoints:
    @pytest.mark.parametrize(
        "point",
        [p for p in CRASH_POINTS if p.startswith("checkpoint.")],
    )
    def test_checkpoint_crash_never_loses_committed_data(self, tmp_path, point):
        engine = open_engine(tmp_path / "s", faults=CrashInjector(point))
        engine.log("kv", [{"op": "set", "k": "a", "v": 1}])
        engine.log("kv", [{"op": "set", "k": "b", "v": 2}])
        with pytest.raises(InjectedCrash):
            engine.checkpoint()
        reopened = open_engine(tmp_path / "s")
        assert kv(reopened) == {"a": 1, "b": 2}
        # the survivor is fully usable: commit and checkpoint again
        reopened.log("kv", [{"op": "set", "k": "c", "v": 3}])
        reopened.checkpoint()
        reopened.close()
        assert kv(open_engine(tmp_path / "s")) == {"a": 1, "b": 2, "c": 3}


class TestConcurrency:
    def test_parallel_writers_serialise_cleanly(self, tmp_path):
        engine = open_engine(tmp_path / "s")

        def writer(worker):
            for i in range(25):
                with engine.lock:
                    with engine.transaction():
                        engine.log(
                            "kv", [{"op": "set", "k": f"{worker}-{i}", "v": i}]
                        )

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        engine.close()
        assert len(kv(open_engine(tmp_path / "s"))) == 100


OPS = st.lists(
    st.tuples(st.sampled_from("abcd"), st.integers(0, 99)),
    min_size=0,
    max_size=6,
).map(lambda kvs: [{"op": "set", "k": k, "v": v} for k, v in kvs])


class TestReplayIdempotence:
    @given(
        batches=st.lists(OPS, min_size=1, max_size=10),
        prefix_fraction=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_prefix_then_full_equals_once(self, batches, prefix_fraction):
        records = [
            {"seq": i + 1, "ops": {"kv": [batch]}, "marks": [f"m{i}"]}
            for i, batch in enumerate(batches)
        ]
        prefix = records[: int(len(records) * prefix_fraction)]

        once = StorageEngine(None, [KVParticipant()])
        once.replay_records(records)

        twice = StorageEngine(None, [KVParticipant()])
        twice.replay_records(prefix)
        twice.replay_records(records)  # prefix records must be skipped

        assert kv(twice) == kv(once)
        assert twice.last_seq == once.last_seq
        assert twice.ingested_count == once.ingested_count
