"""Unit tests for the parallel pipeline engine."""

import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import Pipeline, Stage
from repro.obs import make_obs


def items_counted(obs, stage, outcome):
    return obs.metrics.counter("pipeline.items", stage=stage, outcome=outcome)


class TestBasics:
    def test_single_stage_identity(self):
        result = Pipeline([Stage("id", lambda x: x)]).run([1, 2, 3])
        assert result.outputs == [1, 2, 3]

    def test_chained_stages(self):
        result = Pipeline(
            [Stage("inc", lambda x: x + 1), Stage("double", lambda x: x * 2)]
        ).run([1, 2, 3])
        assert result.outputs == [4, 6, 8]

    def test_filtering_stage(self):
        obs = make_obs()
        result = Pipeline(
            [Stage("evens", lambda x: x if x % 2 == 0 else None)], obs=obs
        ).run(list(range(10)))
        assert result.outputs == [0, 2, 4, 6, 8]
        assert items_counted(obs, "evens", "filtered") == 5
        assert items_counted(obs, "evens", "ok") == 5

    def test_empty_input(self):
        result = Pipeline([Stage("id", lambda x: x)]).run([])
        assert result.outputs == []

    def test_no_stages_rejected(self):
        with pytest.raises(ValueError):
            Pipeline([])

    def test_stage_without_workers_rejected(self):
        # used to build, then block run() forever
        with pytest.raises(ValueError, match="'parse'"):
            Pipeline([Stage("check", lambda x: x), Stage("parse", lambda x: x, workers=0)])

    def test_result_throughput(self):
        result = Pipeline([Stage("id", lambda x: x)]).run([1] * 10)
        assert result.throughput > 0


class TestErrorIsolation:
    def test_stage_exception_drops_item_only(self):
        def boom(x):
            if x == 2:
                raise RuntimeError("bad item")
            return x

        obs = make_obs()
        result = Pipeline([Stage("boom", boom, workers=2)], obs=obs).run([1, 2, 3])
        assert result.outputs == [1, 3]
        assert items_counted(obs, "boom", "error") == 1
        assert result.errors == [("boom", "RuntimeError: bad item")]

    def test_raising_middle_stage_does_not_hang(self):
        def boom(x):
            if x % 3 == 0:
                raise RuntimeError(f"bad {x}")
            return x

        result = Pipeline(
            [
                Stage("a", lambda x: x + 1, workers=2),
                Stage("boom", boom, workers=2),
                Stage("c", lambda x: x * 2, workers=2),
            ]
        ).run(list(range(12)))
        assert result.outputs == [2 * (x + 1) for x in range(12) if (x + 1) % 3]
        assert result.errors == [
            ("boom", f"RuntimeError: bad {x + 1}") for x in range(12) if (x + 1) % 3 == 0
        ]

    def test_a_failing_settle_or_encode_drops_its_item_only(self):
        """A submitting stage's ``settle`` runs on the settling thread;
        what it raises -- here its own error, or its result's failed
        JSON round trip -- is that item's error, and its span's, as it
        would be inside the stage."""

        def settle(_began, value, _span):
            if value == 2:
                raise RuntimeError("bad settle")
            return json.loads(json.dumps({"v": object()} if value == 3 else value))

        obs = make_obs()
        with ThreadPoolExecutor(2, thread_name_prefix="elsewhere") as executor:
            result = Pipeline(
                [Stage("sub", lambda x: executor.submit(abs, x), settle=settle)],
                obs=obs,
            ).run([1, 2, 3, 4])
        assert result.outputs == [1, 4]
        assert result.errors[0] == ("sub", "RuntimeError: bad settle")
        assert [stage for stage, _message in result.errors] == ["sub", "sub"]
        assert result.errors[1][1].startswith("TypeError: ")
        assert items_counted(obs, "sub", "error") == 2
        spans = [span for span in obs.tracer.export() if span["name"] == "sub"]
        assert sorted(span["attrs"].get("error", "") for span in spans) == [
            "", "", "RuntimeError", "TypeError"
        ]


class TestParallelism:
    def test_workers_speed_up_io_bound_stage(self):
        def slow(x):
            time.sleep(0.004)
            return x

        items = list(range(32))
        serial = Pipeline([Stage("slow", slow, workers=1)]).run(items)
        parallel = Pipeline([Stage("slow", slow, workers=8)]).run(items)
        assert parallel.outputs == serial.outputs == items
        assert parallel.elapsed < serial.elapsed / 2

    def test_all_items_processed_with_many_workers(self):
        result = Pipeline(
            [
                Stage("a", lambda x: x + 1, workers=4),
                Stage("b", lambda x: x * 2, workers=4),
                Stage("c", lambda x: x - 1, workers=4),
            ]
        ).run(list(range(200)))
        assert result.outputs == [(x + 1) * 2 - 1 for x in range(200)]

    def test_thread_safety_of_stats(self):
        counter = []
        lock = threading.Lock()

        def count(x):
            with lock:
                counter.append(x)
            return x

        obs = make_obs()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more workers than cores, switching often
        try:
            result = Pipeline([Stage("c", count, workers=8)], obs=obs).run(
                list(range(500))
            )
        finally:
            sys.setswitchinterval(interval)
        assert len(counter) == 500
        assert result.outputs == list(range(500))
        assert items_counted(obs, "c", "ok") == 500

    def test_run_twice_and_leave_no_thread_behind(self):
        baseline = threading.active_count()
        pipeline = Pipeline(
            [Stage("a", lambda x: x + 1, workers=3), Stage("b", lambda x: x * 2, workers=2)]
        )
        for _ in range(2):
            assert pipeline.run([1, 2, 3]).outputs == [4, 6, 8]
            assert threading.active_count() == baseline


#: what a stage does to an item at a position: pass it on, filter it, raise
FATES = st.sampled_from(["ok", "ok", "ok", "filtered", "raise"])
#: how a stage hands its result back: as it is, as a future of it from an
#: executor (which then resolves or raises), or submitted to an executor
#: already shut down
RETURNS = st.sampled_from(["value", "future", "shut down"])
#: what submitting to a shut-down executor raises
SHUT = "RuntimeError: cannot schedule new futures after shutdown"


class TestInputOrder:
    @settings(max_examples=60, deadline=None)
    @given(
        plan=st.lists(
            st.tuples(st.integers(1, 8), st.lists(FATES, min_size=12, max_size=12)),
            min_size=1,
            max_size=3,
        ),
        count=st.integers(0, 12),
        returns=st.lists(RETURNS, min_size=3, max_size=3),
    )
    def test_outputs_and_errors_equal_the_serial_fold(self, plan, count, returns):
        """1-3 stages, 1-8 workers each, any item filtered or raising at
        any stage, a stage's result handed back as it is or as a future:
        the run is the serial fold, in input order."""

        def make_fn(depth, fates):
            def fn(item):
                fate = fates[item["at"]]
                if fate == "raise":
                    raise RuntimeError(f"{item['at']}@{depth}")
                return None if fate == "filtered" else {**item, "seen": depth + 1}

            return fn

        def make_stage(depth, workers, fates, pool):
            fn = make_fn(depth, fates)
            if returns[depth] == "value":
                return Stage(f"s{depth}", fn, workers=workers)
            return Stage(
                f"s{depth}",
                lambda item: pool.submit(fn, item),
                workers=workers,
                settle=lambda _began, value, _span: value,
            )

        items = [{"at": at, "seen": 0} for at in range(count)]
        outputs, errors = [], []
        for item in items:
            for depth, (_workers, fates) in enumerate(plan):
                fate = fates[item["at"]]
                if returns[depth] == "shut down":
                    errors.append((f"s{depth}", SHUT))
                    break
                if fate == "raise":
                    errors.append((f"s{depth}", f"RuntimeError: {item['at']}@{depth}"))
                if fate != "ok":
                    break
                item = {**item, "seen": depth + 1}
            else:
                outputs.append(item)

        dead = ThreadPoolExecutor(1, thread_name_prefix="dead")
        dead.shutdown()
        with ThreadPoolExecutor(3, thread_name_prefix="elsewhere") as executor:
            pools = {"future": executor, "shut down": dead}
            stages = [
                make_stage(depth, workers, fates, pools.get(returns[depth]))
                for depth, (workers, fates) in enumerate(plan)
            ]
            result = Pipeline(stages).run(items)
        assert result.outputs == outputs
        assert result.errors == errors
