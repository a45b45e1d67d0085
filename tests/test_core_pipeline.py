"""Unit tests for the parallel pipeline engine."""

import json
import threading
import time

import pytest

from repro.core.pipeline import Codec, Pipeline, Stage


class TestBasics:
    def test_single_stage_identity(self):
        result = Pipeline([Stage("id", lambda x: x)]).run([1, 2, 3])
        assert sorted(result.outputs) == [1, 2, 3]

    def test_chained_stages(self):
        result = Pipeline(
            [Stage("inc", lambda x: x + 1), Stage("double", lambda x: x * 2)]
        ).run([1, 2, 3])
        assert sorted(result.outputs) == [4, 6, 8]

    def test_filtering_stage(self):
        result = Pipeline(
            [Stage("evens", lambda x: x if x % 2 == 0 else None)]
        ).run(list(range(10)))
        assert sorted(result.outputs) == [0, 2, 4, 6, 8]
        assert result.stages[0].filtered == 5
        assert result.stages[0].processed == 5

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

        result = Pipeline([Stage("boom", boom, workers=2)]).run([1, 2, 3])
        assert sorted(result.outputs) == [1, 3]
        assert result.stages[0].errors == 1
        assert result.errors == [("boom", "RuntimeError: bad item")]


class TestParallelism:
    def test_workers_speed_up_io_bound_stage(self):
        def slow(x):
            time.sleep(0.004)
            return x

        items = list(range(32))
        serial = Pipeline([Stage("slow", slow, workers=1)]).run(items)
        parallel = Pipeline([Stage("slow", slow, workers=8)]).run(items)
        assert sorted(parallel.outputs) == sorted(serial.outputs)
        assert parallel.elapsed < serial.elapsed / 2

    def test_all_items_processed_with_many_workers(self):
        result = Pipeline(
            [
                Stage("a", lambda x: x + 1, workers=4),
                Stage("b", lambda x: x * 2, workers=4),
                Stage("c", lambda x: x - 1, workers=4),
            ]
        ).run(list(range(200)))
        assert sorted(result.outputs) == [(x + 1) * 2 - 1 for x in range(200)]

    def test_thread_safety_of_stats(self):
        counter = []
        lock = threading.Lock()

        def count(x):
            with lock:
                counter.append(x)
            return x

        result = Pipeline([Stage("c", count, workers=8)]).run(list(range(500)))
        assert len(counter) == 500
        assert result.stages[0].processed == 500


class TestSerializationBoundaries:
    def test_codec_round_trip(self):
        codec = Codec(encode=json.dumps, decode=json.loads)
        result = Pipeline(
            [
                Stage("wrap", lambda x: {"v": x}, codec=codec),
                Stage("unwrap", lambda d: d["v"] + 1),
            ]
        ).run([1, 2, 3])
        assert sorted(result.outputs) == [2, 3, 4]

    def test_final_stage_codec_decoded_in_outputs(self):
        codec = Codec(encode=json.dumps, decode=json.loads)
        result = Pipeline(
            [Stage("wrap", lambda x: {"v": x}, codec=codec)]
        ).run([7])
        assert result.outputs == [{"v": 7}]

    def test_codec_failures_are_stage_errors(self):
        codec = Codec(encode=json.dumps, decode=json.loads)
        result = Pipeline(
            [
                Stage("bad", lambda x: {"v": object()}, codec=codec),
            ]
        ).run([1])
        assert result.outputs == []
        assert result.stages[0].errors == 1
