"""Tests for the repo invariant lint."""

import io
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import lint_file, main


def lint_source(tmp_path: Path, source: str, name: str = "mod.py"):
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_file(target)


def rules(findings) -> list[str]:
    return [f.rule for f in findings]


class TestDeterminismRules:
    def test_global_random_call(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import random

            def pick():
                return random.randint(0, 10)
            """,
        )
        assert rules(findings) == ["det/global-random"]

    def test_from_import_random(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from random import choice

            def pick(items):
                return choice(items)
            """,
        )
        assert rules(findings) == ["det/global-random"]

    def test_seeded_random_allowed(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import random

            def make(seed):
                return random.Random(seed).randint(0, 10)
            """,
        )
        assert findings == []

    def test_time_time_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert rules(findings) == ["det/wall-clock"]

    def test_raw_sleep_and_monotonic_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time

            def elapsed(start):
                time.sleep(0.01)
                return time.monotonic() - start
            """,
        )
        assert rules(findings) == ["det/raw-sleep"] * 2

    def test_from_import_sleep_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from time import sleep

            def nap():
                sleep(1)
            """,
        )
        assert rules(findings) == ["det/raw-sleep"]

    def test_unseeded_solver_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import scipy.sparse.linalg as sla
            from scipy.sparse.linalg import svds

            def factor(matrix):
                u, s, vt = svds(matrix, k=4)
                return u, sla.eigsh(matrix, k=2)
            """,
        )
        assert rules(findings) == ["det/unseeded-solver"] * 2

    def test_seeded_solver_allowed(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import numpy as np
            from scipy.sparse.linalg import eigs, lobpcg, svds

            def factor(matrix, guess):
                svds(matrix, k=4, v0=np.ones(matrix.shape[0]))
                eigs(matrix, k=2, rng=0)
                svds(matrix, k=4, random_state=0)
                return lobpcg(matrix, X=guess)
            """,
        )
        assert findings == []

    def test_perf_counter_allowed(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time

            def wall():
                return time.perf_counter()
            """,
        )
        assert findings == []

    def test_clock_module_may_sleep(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time

            def sleep(seconds):
                time.sleep(seconds)

            def now():
                return time.monotonic()
            """,
            name="runtime/clock.py",
        )
        assert findings == []

    def test_raw_sleep_suppressible(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time

            def nap():
                time.sleep(3600)  # repro: allow[raw-sleep]
            """,
        )
        assert findings == []

    def test_datetime_now_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from datetime import datetime
            import datetime as dt

            def stamps():
                return datetime.now(), dt.datetime.utcnow(), dt.date.today()
            """,
        )
        assert rules(findings) == ["det/wall-clock"] * 3

    def test_sanctioned_module_exempt(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import random

            def roll():
                return random.random()
            """,
            name="websim/rnd.py",
        )
        assert findings == []


class TestExceptionRules:
    def test_bare_except(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def safe(fn):
                try:
                    return fn()
                except:
                    return None
            """,
        )
        assert rules(findings) == ["err/bare-except"]

    def test_silent_swallow(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def safe(fn):
                try:
                    return fn()
                except Exception:
                    pass
            """,
        )
        assert rules(findings) == ["err/silent-swallow"]

    def test_handled_exception_allowed(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def safe(fn, log):
                try:
                    return fn()
                except ValueError as error:
                    log(error)
                    return None
            """,
        )
        assert findings == []


class TestUnnamedThreadRule:
    def test_thread_without_name_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import threading

            def run(work):
                threading.Thread(target=work, daemon=True).start()
            """,
        )
        assert rules(findings) == ["conc/unnamed-thread"]

    def test_named_thread_passes(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import threading

            def run(work):
                threading.Thread(
                    target=work, name="worker-0", daemon=True
                ).start()
            """,
        )
        assert findings == []

    def test_bare_thread_import_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from threading import Thread

            def run(work):
                Thread(target=work).start()
            """,
        )
        assert rules(findings) == ["conc/unnamed-thread"]

    def test_executor_needs_a_thread_name_prefix(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from concurrent import futures
            from concurrent.futures import ThreadPoolExecutor

            def run(work):
                with ThreadPoolExecutor(4) as anonymous:
                    anonymous.submit(work)
                with futures.ThreadPoolExecutor(max_workers=4) as anonymous:
                    anonymous.submit(work)
                with ThreadPoolExecutor(4, thread_name_prefix="parse") as named:
                    named.submit(work)
            """,
        )
        assert rules(findings) == ["conc/unnamed-thread"] * 2
        assert "thread_name_prefix=" in findings[0].message

    def test_suppression_applies(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import threading

            def run(work):
                # repro: allow[unnamed-thread]
                threading.Thread(target=work).start()
            """,
        )
        assert findings == []


class TestSerializabilityRule:
    def make(self, tmp_path, body: str):
        return lint_source(tmp_path, body, name="ontology/intermediate.py")

    def test_json_safe_fields_pass(self, tmp_path):
        findings = self.make(
            tmp_path,
            """
            from dataclasses import dataclass, field

            @dataclass
            class Record:
                name: str
                weight: float
                pages: list[str] = field(default_factory=list)
                meta: dict[str, object] = field(default_factory=dict)
                pair: tuple[str, int] = ("", 0)
                maybe: str | None = None
            """,
        )
        assert findings == []

    def test_unserializable_field_flagged(self, tmp_path):
        findings = self.make(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass
            class Record:
                name: str
                seen: set[str]
                blob: bytes = b""
            """,
        )
        assert rules(findings) == ["ser/unserializable-field"] * 2

    def test_non_str_dict_keys_flagged(self, tmp_path):
        findings = self.make(
            tmp_path,
            """
            from dataclasses import dataclass, field

            @dataclass
            class Record:
                by_id: dict[int, str] = field(default_factory=dict)
            """,
        )
        assert rules(findings) == ["ser/unserializable-field"]

    def test_nested_dataclass_reference_allowed(self, tmp_path):
        findings = self.make(
            tmp_path,
            """
            from dataclasses import dataclass, field

            @dataclass
            class Inner:
                value: str

            @dataclass
            class Outer:
                items: list[Inner] = field(default_factory=list)
            """,
        )
        assert findings == []


class TestAtomicWriteRule:
    def test_path_replace_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from pathlib import Path

            def save(path: Path, text: str) -> None:
                tmp = path.with_suffix(".tmp")
                tmp.write_text(text)
                tmp.replace(path)
            """,
        )
        assert rules(findings) == ["store/raw-atomic-write"]

    def test_os_replace_and_rename_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import os

            def save(a, b, c, d):
                os.replace(a, b)
                os.rename(c, d)
            """,
        )
        assert rules(findings) == ["store/raw-atomic-write"] * 2

    def test_shutil_move_and_from_import_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import shutil
            from os import replace

            def save(a, b, c, d):
                shutil.move(a, b)
                replace(c, d)
            """,
        )
        assert rules(findings) == ["store/raw-atomic-write"] * 2

    def test_str_replace_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def clean(text: str) -> str:
                return text.replace("a", "b")
            """,
        )
        assert rules(findings) == []

    def test_storage_package_sanctioned(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import os

            def commit(tmp, path):
                os.replace(tmp, path)
            """,
            name="repro/storage/atomic.py",
        )
        assert rules(findings) == []

    def test_suppression_applies(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import os

            def save(a, b):
                os.replace(a, b)  # repro: allow[raw-atomic-write]
            """,
        )
        assert rules(findings) == []


class TestSuppression:
    def test_same_line_suppression(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()  # repro: allow[det/wall-clock]
            """,
        )
        assert findings == []

    def test_line_above_and_leaf_rule(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time

            def stamp():
                # repro: allow[wall-clock]
                return time.time()
            """,
        )
        assert findings == []

    def test_wrong_rule_does_not_suppress(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()  # repro: allow[global-random]
            """,
        )
        assert rules(findings) == ["det/wall-clock"]


class TestCLIEntry:
    def run_lint(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_repo_is_clean(self):
        code, output = self.run_lint()
        assert code == 0, output
        assert "0 findings" in output

    def test_seeded_wall_clock_exits_nonzero(self, tmp_path):
        # acceptance criterion: a new time.time() in a deterministic
        # module makes the lint fail
        bad = tmp_path / "seeded.py"
        bad.write_text(
            "import time\n\ndef stamp():\n    return time.time()\n",
            encoding="utf-8",
        )
        code, output = self.run_lint(str(bad))
        assert code == 1
        assert "det/wall-clock" in output
        assert "seeded.py" in output

    def test_no_baseline_is_clean(self, tmp_path):
        """CI's invocation: nothing is grandfathered, because there is
        no file or flag that could."""
        from repro.analysis.lint import DEFAULT_ROOT

        report = tmp_path / "concurrency.json"
        code, output = self.run_lint("--concurrency-report", str(report))
        assert code == 0 and "0 findings" in output
        assert report.exists()
        assert not (DEFAULT_ROOT / "analysis" / "baseline.json").exists()
        with pytest.raises(SystemExit):
            self.run_lint("--no-baseline")

    def test_module_subcommand(self):
        from repro.cli import main as cli_main

        out = io.StringIO()
        code = cli_main(["lint"], out=out)
        assert code == 0
        assert "0 findings" in out.getvalue()


class TestObsUntracedStageRule:
    def scan(self, tmp_path, body):
        return lint_source(tmp_path, body, name="core/pipeline.py")

    def test_untraced_stage_call_flagged(self, tmp_path):
        findings = self.scan(
            tmp_path,
            """
            def worker(self, stage, item):
                return stage.fn(item)
            """,
        )
        assert rules(findings) == ["obs/untraced-stage"]

    def test_stage_under_span_allowed(self, tmp_path):
        findings = self.scan(
            tmp_path,
            """
            def worker(self, stage, item):
                with self.obs.tracer.span(stage.name):
                    return stage.fn(item)
            """,
        )
        assert findings == []

    def test_span_inside_branch_allowed(self, tmp_path):
        findings = self.scan(
            tmp_path,
            """
            def worker(self, stage, item, traced):
                if traced:
                    with self.obs.tracer.span(stage.name):
                        return stage.fn(item)
                return None
            """,
        )
        assert findings == []

    def test_non_span_with_still_flagged(self, tmp_path):
        findings = self.scan(
            tmp_path,
            """
            def worker(self, stage, item):
                with self.lock:
                    return stage.fn(item)
            """,
        )
        assert rules(findings) == ["obs/untraced-stage"]

    def test_nested_def_scanned_independently(self, tmp_path):
        findings = self.scan(
            tmp_path,
            """
            def outer(self, stage, item):
                with self.obs.tracer.span(stage.name):
                    def escape():
                        return stage.fn(item)
                    return escape()
            """,
        )
        assert rules(findings) == ["obs/untraced-stage"]

    def test_other_files_out_of_scope(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def worker(stage, item):
                return stage.fn(item)
            """,
            name="crawlers/other.py",
        )
        assert findings == []

    def test_suppression_comment(self, tmp_path):
        findings = self.scan(
            tmp_path,
            """
            def worker(self, stage, item):
                return stage.fn(item)  # repro: allow[untraced-stage]
            """,
        )
        assert findings == []
