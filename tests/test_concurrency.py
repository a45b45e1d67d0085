"""Tests for the interprocedural concurrency analyzer and the runtime
lock-order witness.

The synthetic-violation tests seed each ``conc/*`` rule with a minimal
program that must fire it -- the real tree is kept at zero findings, so
these are the proof the rules still bite.  The witness tests use
*private* :class:`LockOrderWitness` instances so their deliberately bad
orders never pollute the session-wide witness installed by conftest.
"""

import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.concurrency import (
    DEFAULT_ROOT,
    _cycle_findings,
    analyze_package,
    analyze_paths,
)
from repro.connectors import SQLConnector
from repro.connectors.sql import SQLParticipant
from repro.ontology import CTIRecord, EntityType, Mention
from repro.runtime.locks import (
    LockOrderViolation,
    LockOrderWitness,
    WitnessLock,
)
from repro.storage import StorageEngine

REPO_ROOT = Path(__file__).resolve().parents[1]


def analyze_source(tmp_path, source, name="mod.py"):
    target = tmp_path / name
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return analyze_paths([target], root=tmp_path)


def rules(diags):
    return [d.rule for d in diags]


class TestInconsistentGuard:
    def test_unguarded_thread_reachable_write_fires(self, tmp_path):
        model, diags = analyze_source(
            tmp_path,
            '''
            import threading
            from repro.runtime import named_lock

            class Counter:
                def __init__(self):
                    self._lock = named_lock("test.counter")
                    self.value = 0

                def locked_bump(self):
                    with self._lock:
                        self.value += 1

                def racy_bump(self):
                    self.value += 1

            def start():
                counter = Counter()
                worker = threading.Thread(target=counter.racy_bump, name="w")
                worker.start()
                counter.locked_bump()
            ''',
        )
        assert rules(diags) == ["conc/inconsistent-guard"]
        assert "value" in diags[0].message
        assert model.guards["Counter"]["value"] == ["test.counter"]

    def test_consistently_guarded_class_is_clean(self, tmp_path):
        _, diags = analyze_source(
            tmp_path,
            '''
            import threading
            from repro.runtime import named_lock

            class Counter:
                def __init__(self):
                    self._lock = named_lock("test.counter")
                    self.value = 0

                def bump(self):
                    with self._lock:
                        self.value += 1

            def start():
                counter = Counter()
                threading.Thread(target=counter.bump, name="w").start()
                counter.bump()
            ''',
        )
        assert diags == []


class TestLockOrderCycle:
    def test_reversed_nesting_fires(self, tmp_path):
        _, diags = analyze_source(
            tmp_path,
            '''
            from repro.runtime import named_lock

            def one(a=named_lock("test.a"), b=named_lock("test.b")):
                with a:
                    with b:
                        pass

            def two(a=named_lock("test.a"), b=named_lock("test.b")):
                with b:
                    with a:
                        pass
            ''',
        )
        assert rules(diags) == ["conc/lock-order-cycle"]
        assert "test.a" in diags[0].message and "test.b" in diags[0].message

    def test_consistent_nesting_yields_edge_not_finding(self, tmp_path):
        model, diags = analyze_source(
            tmp_path,
            '''
            from repro.runtime import named_lock

            def one(a=named_lock("test.a"), b=named_lock("test.b")):
                with a:
                    with b:
                        pass

            def two(a=named_lock("test.a"), b=named_lock("test.b")):
                with a:
                    with b:
                        pass
            ''',
        )
        assert diags == []
        assert ("test.a", "test.b") in model.edge_pairs()

    def test_cycle_detection_groups_components(self):
        edges = {
            ("a", "b"): {"m.py:1"},
            ("b", "c"): {"m.py:2"},
            ("c", "a"): {"m.py:3"},
            ("x", "y"): {"m.py:4"},  # acyclic side edge
        }
        diags = _cycle_findings(edges)
        assert rules(diags) == ["conc/lock-order-cycle"]
        assert "a -> b -> c -> a" in diags[0].message
        assert "x" not in diags[0].message

    def test_two_disjoint_cycles_report_separately(self):
        edges = {
            ("a", "b"): {"m.py:1"},
            ("b", "a"): {"m.py:2"},
            ("x", "y"): {"m.py:3"},
            ("y", "x"): {"m.py:4"},
        }
        diags = _cycle_findings(edges)
        assert rules(diags) == [
            "conc/lock-order-cycle",
            "conc/lock-order-cycle",
        ]


class TestBlockingUnderLock:
    def test_sleep_under_lock_fires(self, tmp_path):
        _, diags = analyze_source(
            tmp_path,
            '''
            import threading
            from repro.runtime import named_lock

            class Poller:
                def __init__(self, clock):
                    self._lock = named_lock("test.poll")
                    self.clock = clock

                def tick(self):
                    with self._lock:
                        self.clock.sleep(1.0)

            def start(poller):
                threading.Thread(target=poller.tick, name="p").start()
            ''',
        )
        assert rules(diags) == ["conc/blocking-under-lock"]
        assert "test.poll" in diags[0].message

    def test_future_result_under_lock_fires(self, tmp_path):
        _, diags = analyze_source(
            tmp_path,
            '''
            from concurrent.futures import Future
            from repro.runtime import named_lock

            class Waiter:
                def __init__(self):
                    self._lock = named_lock("test.wait")

                def collect(self, pending: Future, future):
                    with self._lock:
                        pending.result()
                        future.result()
            ''',
        )
        assert rules(diags) == ["conc/blocking-under-lock"] * 2
        assert "pending.result()" in diags[0].message

    def test_queue_get_under_lock_fires(self, tmp_path):
        _, diags = analyze_source(
            tmp_path,
            '''
            from queue import SimpleQueue
            from repro.runtime import named_lock

            class Drainer:
                def __init__(self):
                    self._lock = named_lock("test.drain")
                    self.seen = {}

                def drain(self, inbox: SimpleQueue, work_queue):
                    with self._lock:
                        inbox.get()
                        work_queue.get()
                        self.seen.get("a")  # a dict's get does not block
                    return work_queue.get()
            ''',
        )
        assert rules(diags) == ["conc/blocking-under-lock"] * 2
        assert "test.drain" in diags[0].message

    def test_sleep_outside_lock_is_clean(self, tmp_path):
        _, diags = analyze_source(
            tmp_path,
            '''
            import threading
            from repro.runtime import named_lock

            class Poller:
                def __init__(self, clock):
                    self._lock = named_lock("test.poll")
                    self.clock = clock

                def tick(self):
                    with self._lock:
                        pass
                    self.clock.sleep(1.0)

            def start(poller):
                threading.Thread(target=poller.tick, name="p").start()
            ''',
        )
        assert diags == []


class TestContextManagerHolds:
    def test_lock_held_across_yield_extends_caller_body(self, tmp_path):
        model, diags = analyze_source(
            tmp_path,
            '''
            from contextlib import contextmanager
            from repro.runtime import named_lock

            class Engine:
                def __init__(self):
                    self.lock = named_lock("test.engine", reentrant=True)

                @contextmanager
                def transaction(self):
                    with self.lock:
                        yield self

            class Store:
                def __init__(self):
                    self._lock = named_lock("test.store")
                    self.engine = Engine()

                def commit(self):
                    with self.engine.transaction():
                        with self._lock:
                            pass
            ''',
        )
        assert diags == []
        assert ("test.engine", "test.store") in model.edge_pairs()


class TestPropertyReads:
    def test_property_read_under_lock_is_a_call_of_its_getter(self, tmp_path):
        model, diags = analyze_source(
            tmp_path,
            '''
            from repro.runtime import named_lock

            class Engine:
                def __init__(self):
                    self._lock = named_lock("test.engine")
                    self._ingested = set()

                @property
                def ingested_count(self):
                    with self._lock:
                        return len(self._ingested)

            class Api:
                def __init__(self):
                    self._lock = named_lock("test.api")
                    self.engine = Engine()

                def stats(self):
                    with self._lock:
                        return {"ingested": self.engine.ingested_count}
            ''',
        )
        assert diags == []
        assert ("test.api", "test.engine") in model.edge_pairs()


class TestCanonicalModel:
    def test_synthetic_model_is_byte_stable(self, tmp_path):
        source = '''
            from repro.runtime import named_lock

            def run(a=named_lock("test.a"), b=named_lock("test.b")):
                with a:
                    with b:
                        pass
        '''
        first, _ = analyze_source(tmp_path, source, name="one.py")
        second, _ = analyze_source(tmp_path, source, name="one.py")
        assert first.canonical_json() == second.canonical_json()
        report = first.report()
        assert report["version"] == 1
        assert set(report) == {
            "version", "locks", "order", "guards", "thread_roots",
        }

    def test_package_model_is_byte_stable(self):
        cached, _ = analyze_package()
        fresh, _ = analyze_paths([DEFAULT_ROOT], root=DEFAULT_ROOT)
        assert fresh.canonical_json() == cached.canonical_json()

    def test_closure_is_transitive(self, tmp_path):
        model, _ = analyze_source(
            tmp_path,
            '''
            from repro.runtime import named_lock

            def run(
                a=named_lock("test.a"),
                b=named_lock("test.b"),
                c=named_lock("test.c"),
            ):
                with a:
                    with b:
                        pass
                with b:
                    with c:
                        pass
            ''',
        )
        assert ("test.a", "test.c") in model.closure()


class TestRepoModel:
    """The analysed tree itself: zero findings, a sane hierarchy."""

    def test_package_has_no_findings(self):
        _, diags = analyze_package()
        assert diags == []

    def test_hierarchy_is_acyclic(self):
        model, _ = analyze_package()
        closure = model.closure()
        assert not [pair for pair in closure if (pair[1], pair[0]) in closure]

    def test_transaction_scope_edge_is_modelled(self):
        # StorageEngine.transaction holds storage.engine across its
        # yield and every connector ingests inside that with-body, so
        # the engine lock sits above each store's own lock -- and is
        # the only lock the stores share
        model, _ = analyze_package()
        pairs = model.edge_pairs()
        assert ("storage.engine", "graphdb.store") in pairs
        assert ("storage.engine", "search.index") in pairs
        assert not {"crawl.state", "connectors.sql"} & set(model.lock_names())

    def test_known_locks_and_guards_present(self):
        model, _ = analyze_package()
        names = model.lock_names()
        for expected in ("storage.engine", "crawl.frontier", "obs.metrics"):
            assert expected in names
        assert model.locks["storage.engine"]["reentrant"] is True
        assert model.guards  # the guard map is populated
        assert model.roots  # thread roots were discovered

    def test_stage_functions_are_roots_through_the_executor(self):
        # the loop hands each report to a ThreadPoolExecutor: the method
        # it submits and the check and parse functions SecurityKG wires
        # in must still count as running on threads, or what they write
        # drops out of the guard map; so must the inline extract and the
        # partition writers of the store fan-out
        model, _ = analyze_package()
        for root in (
            "core/pipeline.py::Pipeline._check_parse",
            "core/checker.py::Checker.why_rejected",
            "core/parsers.py::ParserDispatch.parse",
            "core/extractor.py::Extractor.extract",
            "sharding/shards.py::ShardSet._store_worker",
        ):
            assert root in model.roots
        assert model.guards["_Templates"]["words"] == ["nlp.feature_cache"]
        assert not [name for name in model.lock_names() if name.startswith("pipeline.")]


class TestWitness:
    def test_records_acquisition_order_edges(self):
        witness = LockOrderWitness()
        witness.enable()
        outer = WitnessLock("w.outer", witness)
        inner = WitnessLock("w.inner", witness)
        with outer:
            with inner:
                pass
        assert witness.observed_edges() == [("w.outer", "w.inner")]

    def test_reentrant_hold_records_no_edge(self):
        witness = LockOrderWitness()
        witness.enable()
        lock = WitnessLock("w.re", witness, reentrant=True)
        other = WitnessLock("w.other", witness)
        with lock:
            with lock:
                with other:
                    pass
        assert witness.observed_edges() == [("w.re", "w.other")]

    def test_violations_are_edges_outside_the_closure(self):
        witness = LockOrderWitness()
        witness.enable()
        a = WitnessLock("w.a", witness)
        b = WitnessLock("w.b", witness)
        with b:
            with a:
                pass
        closure = frozenset({("w.a", "w.b")})
        assert witness.violations(closure) == [("w.b", "w.a")]
        # restricting to known names hides synthetic locks
        assert witness.violations(closure, known_names={"w.a"}) == []

    def test_reversing_a_known_edge_raises_immediately(self):
        witness = LockOrderWitness()
        witness.enable(hierarchy={("w.a", "w.b")})
        a = WitnessLock("w.a", witness)
        b = WitnessLock("w.b", witness)
        with pytest.raises(LockOrderViolation):
            with b:
                with a:
                    pass

    def test_reset_drops_edges(self):
        witness = LockOrderWitness()
        witness.enable()
        with WitnessLock("w.a", witness):
            with WitnessLock("w.b", witness):
                pass
        witness.reset()
        assert witness.observed_edges() == []


def _record(report_id: str) -> CTIRecord:
    record = CTIRecord(
        report_id=report_id,
        source="ThreatPedia",
        url=f"https://x/{report_id}",
        title=f"Report {report_id}",
        vendor="Arcane Labs",
        report_category="malware",
        summary=f"The emotet trojan connects to 10.0.0.{len(report_id)}.",
    )
    record.add_ioc(EntityType.IP, "10.0.0.1")
    record.mentions.append(Mention("emotet", EntityType.MALWARE))
    return record


class TestWitnessProperty:
    """Randomised real workloads never leave the static hierarchy.

    The session-wide witness records every acquisition these workloads
    make; the property checks -- per example, so hypothesis can shrink
    a counterexample -- that the observed edges between model-known
    locks stay inside the static closure.
    """

    @settings(max_examples=15, deadline=None)
    @given(
        ops=st.lists(
            st.sampled_from(
                ["attached", "tx_private", "private", "flush", "reads"]
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_random_store_workloads_stay_inside_hierarchy(self, ops):
        from repro.runtime import WITNESS

        model, _ = analyze_package()
        closure = model.closure()
        engine = StorageEngine(None, [SQLParticipant()], fsync=False)
        attached = SQLConnector(engine=engine)
        private = SQLConnector()  # owns its own in-memory engine
        try:
            for index, op in enumerate(ops):
                record = _record(f"r{index}")
                if op == "attached":
                    attached.ingest([record])
                elif op == "tx_private":
                    with engine.transaction() as tx:
                        private.ingest([record])
                        tx.mark_ingested(record.report_id)
                elif op == "private":
                    private.ingest([record])
                elif op == "flush":
                    engine.flush()
                else:
                    private.entity_count()
                    attached.label_counts()
            bad = WITNESS.violations(closure, known_names=model.lock_names())
            assert bad == []
        finally:
            private.engine.close()
            engine.close()


class TestDocsCoverage:
    def test_every_lock_is_documented(self):
        doc = (REPO_ROOT / "CONCURRENCY.md").read_text(encoding="utf-8")
        model, _ = analyze_package()
        for name in model.lock_names():
            assert f"`{name}`" in doc, f"lock {name} missing from CONCURRENCY.md"

    def test_every_hierarchy_edge_is_documented(self):
        doc = (REPO_ROOT / "CONCURRENCY.md").read_text(encoding="utf-8")
        model, _ = analyze_package()
        for line in model.hierarchy_lines():
            assert line in doc, f"hierarchy row missing from CONCURRENCY.md: {line}"
