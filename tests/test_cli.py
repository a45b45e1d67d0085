"""Tests for the command-line interface."""

import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.config import CONNECTORS, RECOGNIZERS, SystemConfig
from repro.feeds.tlp import TIERS
from repro.runtime.clock import CLOCKS


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


SMALL = ("--scenarios", "5", "--reports-per-site", "2")


class TestRunAndQuery:
    @pytest.fixture(scope="class")
    def state_dir(self, tmp_path_factory):
        state = tmp_path_factory.mktemp("kgstate")
        code, output = run_cli("run", "--state", str(state), *SMALL)
        assert code == 0, output
        return state

    def test_run_reports_progress(self, state_dir):
        # state fixture already ran; a second run is incremental
        code, output = run_cli("run", "--state", str(state_dir), *SMALL)
        assert code == 0
        assert "crawled 0 reports" in output

    def test_stats_reads_persisted_graph(self, state_dir):
        code, output = run_cli("stats", "--state", str(state_dir), *SMALL)
        assert code == 0
        assert "knowledge graph:" in output
        assert "0 nodes" not in output

    def test_search_persisted_index(self, state_dir):
        code, output = run_cli(
            "search", "--state", str(state_dir), *SMALL, "ransomware"
        )
        assert code == 0
        assert output.strip()

    def test_search_no_results(self, state_dir):
        code, _output = run_cli(
            "search", "--state", str(state_dir), *SMALL, "zzzzzzzz"
        )
        assert code == 1

    def test_cypher(self, state_dir):
        code, output = run_cli(
            "cypher", "--state", str(state_dir), *SMALL,
            "MATCH (n) RETURN count(*) AS c",
        )
        assert code == 0
        assert "c=" in output and "row(s)" in output

    def test_cypher_syntax_error(self, state_dir):
        code, output = run_cli(
            "cypher", "--state", str(state_dir), *SMALL, "FROB (n)"
        )
        assert code == 2
        assert "query error" in output

    def test_fuse(self, state_dir):
        code, output = run_cli("fuse", "--state", str(state_dir), *SMALL)
        assert code == 0
        assert "fused" in output

    def test_export_stix(self, state_dir, tmp_path):
        out_file = tmp_path / "bundle.json"
        code, output = run_cli(
            "export", "--state", str(state_dir), *SMALL, "--out", str(out_file)
        )
        assert code == 0
        bundle = json.loads(out_file.read_text())
        assert bundle["type"] == "bundle"
        assert bundle["objects"]

    def test_feed_export(self, state_dir, tmp_path):
        code, output = run_cli(
            "feed", "export", "--state", str(state_dir), *SMALL,
            "--out-dir", str(tmp_path / "bundles"),
        )
        assert code == 0, output
        sizes = {}
        for tier in ("public", "partner", "internal"):
            bundle = json.loads(
                (tmp_path / "bundles" / f"feed-{tier}.json").read_text()
            )
            assert bundle["type"] == "bundle"
            sizes[tier] = len(bundle["objects"])
            assert f"{tier}: {sizes[tier]} objects" in output
        # tiers nest: each clearance sees at least what the one below does
        assert 0 < sizes["public"] <= sizes["partner"] <= sizes["internal"]
        code, output = run_cli(
            "feed", "export", "--state", str(state_dir), *SMALL,
            "--out-dir", str(tmp_path / "one"), "--tier", "public",
        )
        assert code == 0
        assert [p.name for p in (tmp_path / "one").iterdir()] == [
            "feed-public.json"
        ]

    def test_hunt(self, state_dir):
        code, output = run_cli(
            "hunt", "--state", str(state_dir), *SMALL, "--attacks", "2",
            "--benign-events", "100",
        )
        assert code == 0
        assert "confirmed incident" in output

    def test_serve_once(self, state_dir):
        code, output = run_cli(
            "serve", "--state", str(state_dir), *SMALL, "--port", "0", "--once"
        )
        assert code == 0
        assert "listening on http" in output


class TestCrashResume:
    """A killed `run` resumes mid-batch with the same --state."""

    VIRTUAL = (*SMALL, "--clock", "virtual")

    def test_crash_exits_3_and_resume_converges(self, tmp_path):
        reference = tmp_path / "reference"
        code, _ = run_cli("run", "--state", str(reference), *self.VIRTUAL)
        assert code == 0
        _, expected_stats = run_cli("stats", "--state", str(reference), *self.VIRTUAL)

        crashed = tmp_path / "crashed"
        code, output = run_cli(
            "run", "--state", str(crashed), *self.VIRTUAL,
            "--crash-at", "commit.after-fsync", "--crash-at-hit", "2",
        )
        assert code == 3
        assert "simulated crash at 'commit.after-fsync'" in output

        code, output = run_cli("run", "--state", str(crashed), *self.VIRTUAL)
        assert code == 0
        assert "state saved" in output
        _, resumed_stats = run_cli("stats", "--state", str(crashed), *self.VIRTUAL)
        assert resumed_stats == expected_stats

    def test_crash_during_checkpoint_keeps_state(self, tmp_path):
        state = tmp_path / "state"
        code, output = run_cli(
            "run", "--state", str(state), *self.VIRTUAL,
            "--crash-at", "checkpoint.torn-manifest",
        )
        assert code == 3
        # every report committed before the checkpoint died; nothing to redo
        code, output = run_cli("run", "--state", str(state), *self.VIRTUAL)
        assert code == 0
        assert "crawled 0 reports" in output


class TestStandalone:
    def test_config_prints_defaults(self):
        code, output = run_cli("config")
        assert code == 0
        assert json.loads(output)["recognizer"] == "gazetteer"

    def test_run_without_state(self):
        code, output = run_cli("run", *SMALL, "--max-articles", "3")
        assert code == 0
        assert "crawled 3 reports" in output

    def test_config_file_respected(self, tmp_path):
        from repro.core.config import SystemConfig

        config_path = tmp_path / "cfg.json"
        config_path.write_text(
            SystemConfig(
                scenario_count=4,
                reports_per_site=2,
                sources=["OTX Mirror"],
                connectors=["graph", "search"],
            ).to_json()
        )
        code, output = run_cli(
            "run", "--config", str(config_path), *SMALL, "--max-articles", "99"
        )
        assert code == 0
        assert "crawled 2 reports" in output  # one source, two reports

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            run_cli("frobnicate")

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "--from-trace", "trace.jsonl"],
            ["stats", "--report", "rpt-1"],
            ["stats", "--by-partition"],
            ["feed", "serve", "--port", "0", "--once"],
        ],
        ids=["stats-from-trace", "stats-report", "stats-by-partition", "feed-serve"],
    )
    def test_retired_commands_are_usage_errors(self, argv, tmp_path):
        """Trace tables live under `profile`, the server under `serve`."""
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv, "--state", str(tmp_path / "state"))
        assert exit_info.value.code == 2
        assert not (tmp_path / "state").exists()


class TestCommandsRelease:
    """Every command that builds a system closes it: no extractor
    process outlives the command, and the read-only commands leave the
    state directory's bytes as they found them."""

    @pytest.fixture(scope="class")
    def state_dir(self, tmp_path_factory):
        state = tmp_path_factory.mktemp("releasestate")
        code, output = run_cli("run", "--state", str(state), *SMALL)
        assert code == 0, output
        return state

    @pytest.fixture
    def pooled(self, tmp_path):
        config = tmp_path / "pooled.json"
        config.write_text(json.dumps({"extract_workers": 2}))
        return str(config)

    @pytest.mark.parametrize(
        "command, args",
        [
            (["search"], ["ransomware"]),
            (["cypher"], ["MATCH (m:Malware) RETURN m.name LIMIT 2"]),
            (["export"], ["--out", "{tmp}/bundle.json"]),
            (["hunt"], ["--attacks", "1", "--benign-events", "20"]),
            (["serve"], ["--port", "0", "--once"]),
            (["fuse"], []),
            (["feed", "export"], ["--tier", "public", "--out-dir", "{tmp}"]),
        ],
        ids=["search", "cypher", "export", "hunt", "serve", "fuse", "feed-export"],
    )
    def test_no_extractor_process_outlives_the_command(
        self, state_dir, pooled, tmp_path, command, args
    ):
        import multiprocessing

        code, output = run_cli(
            *command, "--state", str(state_dir), "--config", pooled, *SMALL,
            *(arg.format(tmp=tmp_path) for arg in args),
        )
        assert code == 0, output
        assert multiprocessing.active_children() == []

    def test_read_only_commands_leave_the_state_bytes(self, state_dir, tmp_path):
        def snapshot() -> dict[str, bytes]:
            return {
                str(path.relative_to(state_dir)): path.read_bytes()
                for path in sorted(state_dir.rglob("*"))
                if path.is_file()
            }

        before = snapshot()
        for argv in (
            ["search", "ransomware"],
            ["cypher", "MATCH (m:Malware) RETURN m.name"],
            ["export", "--out", str(tmp_path / "bundle.json")],
            ["hunt", "--attacks", "1", "--benign-events", "20"],
        ):
            code, output = run_cli(
                argv[0], "--state", str(state_dir), *SMALL, *argv[1:]
            )
            assert code in (0, 1), output
            assert snapshot() == before, argv


BAD_CONFIGS = {
    "zero-partitions": {"partitions": 0},
    "zero-crawl-threads": {"crawl_threads": 0},
    "unknown-connector": {"connectors": ["neo4j"]},
    "not-an-object": [1],
    "string-count": {"partitions": "2"},
    "unknown-recognizer": {"recognizer": "bogus"},
    "unknown-clock": {"clock": "bogus"},
    "string-scenario-count": {"scenario_count": "3"},
    "string-failure-rate": {"failure_rate": "x"},
    "failure-rate-above-one": {"failure_rate": 1.5},
    "empty-storage-path": {"storage_path": ""},
    "no-connectors": {"connectors": []},
    "no-sources": {"sources": []},
}


class TestConfigErrors:
    """A configuration file the system refuses is one ``config error:``
    line and exit 2, with nothing written."""

    @pytest.mark.parametrize("payload", BAD_CONFIGS.values(), ids=BAD_CONFIGS)
    def test_bad_file_is_one_line_and_exit_2(self, tmp_path, payload):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(payload))
        state = tmp_path / "state"
        code, output = run_cli(
            "stats", "--config", str(config_path), "--state", str(state)
        )
        assert code == 2
        assert output.startswith("config error: ")
        assert output.count("\n") == 1
        assert not state.exists()

    def test_missing_file_is_a_config_error(self, tmp_path):
        code, output = run_cli("stats", "--config", str(tmp_path / "absent.json"))
        assert code == 2
        assert output.startswith("config error: ")

    def test_process_prints_no_traceback(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(BAD_CONFIGS["unknown-connector"]))
        src = str(Path(__file__).resolve().parent.parent / "src")
        child = subprocess.run(
            [sys.executable, "-m", "repro", "stats", "--config", str(config_path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert child.returncode == 2
        assert "Traceback" not in child.stdout + child.stderr
        assert "known: ['graph', 'search', 'sql']" in child.stdout

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("recognizer", "bogus", "known: ['crf', 'gazetteer', 'regex']"),
            ("clock", "bogus", "known: ['real', 'virtual']"),
            ("scenario_count", "3", "scenario_count must be an integer"),
            ("failure_rate", "x", "failure_rate must be a number"),
            ("connectors", [], "connectors must name at least one"),
            ("sources", [], "sources must name at least one"),
        ],
    )
    def test_the_line_names_the_field(self, tmp_path, key, value, named):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({key: value}))
        code, output = run_cli("stats", "--config", str(config_path))
        assert code == 2
        assert output.startswith("config error: ") and named in output

    @pytest.mark.parametrize(
        "rules, named",
        [
            ({"no-such-rule": {"threshold": 1.0}}, "unknown health rule"),
            ({"engine": {"interval": 0}}, "health interval must be > 0"),
        ],
        ids=["unknown-rule", "zero-interval"],
    )
    def test_bad_health_rules_file_is_one_line_and_exit_2(
        self, tmp_path, rules, named
    ):
        """``--health-rules`` goes through the same construction check
        as the ``--config`` file it rides on."""
        rules_path = tmp_path / "rules.json"
        rules_path.write_text(json.dumps(rules))
        state = tmp_path / "state"
        code, output = run_cli(
            "run", "--health", "--health-rules", str(rules_path),
            "--state", str(state), *SMALL,
        )
        assert code == 2
        assert output.startswith("config error: health_rules: ")
        assert named in output and output.count("\n") == 1
        assert not state.exists()


#: field names, the two retired fields and a stray key
CONFIG_KEYS = [spec.name for spec in fields(SystemConfig)] + [
    "max_articles", "health_interval", "stray",
]
#: names some field accepts, so draws reach the checks past the types
NAMES = st.sampled_from(
    list(CONNECTORS) + list(RECOGNIZERS) + list(CLOCKS) + list(TIERS)
    + ["ThreatPedia", "engine", "interval", "source-error-ratio",
       "threshold", "window", "signal", "commit_p95", "enabled"]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats()
    | NAMES | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(NAMES | st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
#: values of the default's type, so many draws are valid configs
NEAR_DEFAULT = {
    bool: st.booleans(),
    int: st.integers(1, 3),
    float: st.floats(0, 1),
    str: NAMES,
    list: st.lists(NAMES, max_size=3),
}


def _entry(key: str):
    default = type(getattr(SystemConfig(), key, None))
    return st.tuples(st.just(key), NEAR_DEFAULT.get(default, JSON_VALUES) | JSON_VALUES)


CONFIG_OBJECTS = st.lists(
    st.sampled_from(CONFIG_KEYS).flatmap(_entry), max_size=5
).map(dict)
#: the probes that ended in a traceback or were accepted before every
#: field was checked at construction
PROBES = [
    {"seed": "x"},
    {"feed_keys": [1]},
    {"storage_path": 5},
    {"reports_per_site": "3"},
    {"sources": 5},
    {"health_rules": 5},
    {"time_scale": "x"},
    {"checker_min_chars": "x"},
    {"feed_history": 0},
    {"health_rules": {"no-such-rule": {"threshold": 1.0}}},
    {"health_rules": {"engine": {"interval": 0}}},
]


def _cheap(data: dict) -> dict:
    """A draw a ``stats`` run can build in milliseconds: at most two
    processes, partitions and threads, no CRF to train, and the state
    directory the test names."""
    data = dict(data)
    for key in ("extract_workers", "partitions", "crawl_threads", "parse_workers"):
        if isinstance(data.get(key), int) and data[key] > 2:
            data[key] = 2
    if data.get("recognizer") == "crf":
        data["recognizer"] = "regex"
    if isinstance(data.get("storage_path"), str):
        del data["storage_path"]
    return data


def _with_probes(test):
    for probe in PROBES:
        test = example(probe)(test)
    return test


class TestAnyConfigObject:
    """Whatever JSON object a configuration file holds, the system
    either takes it or refuses it with one ``ValueError`` naming the
    field -- never a traceback, never a silently kept bad value."""

    @_with_probes
    @given(CONFIG_OBJECTS)
    @settings(max_examples=300, deadline=None)
    def test_from_dict_returns_or_raises_value_error(self, data):
        try:
            SystemConfig.from_dict(data)
        except ValueError as error:
            assert any(key in str(error) for key in data), error

    @_with_probes
    @given(CONFIG_OBJECTS.map(_cheap))
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_stats_exits_0_or_one_config_error_line(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            config_path = Path(tmp) / "cfg.json"
            config_path.write_text(json.dumps(data))
            state = Path(tmp) / "state"
            code, output = run_cli(
                "stats", "--config", str(config_path), "--state", str(state)
            )
            if code == 0:
                return
            assert code == 2, output
            assert output.startswith("config error: ") and output.count("\n") == 1
            assert any(key in output for key in data), output
            assert not state.exists()


class TestFlagsOverTheConfigFile:
    """Every flag the user passed overrides the ``--config`` file; a flag
    left out keeps the file's value; ``--state`` only fills a file's
    missing ``storage_path``."""

    FILE = {
        "scenario_count": 5,
        "reports_per_site": 2,
        "seed": 3,
        "recognizer": "regex",
        "clock": "virtual",
        "partitions": 2,
        "storage_path": "from-file",
    }

    @staticmethod
    def config(*argv):
        from repro.cli import _build_config, build_parser

        return _build_config(build_parser().parse_args(list(argv)))

    @pytest.fixture
    def config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.FILE))
        return str(path)

    def test_a_passed_seed_overrides_the_file(self, config_file):
        assert self.config("stats", "--config", config_file, "--seed", "9").seed == 9

    def test_every_passed_flag_overrides_the_file(self, config_file):
        config = self.config(
            "run", "--config", config_file, "--scenarios", "6",
            "--reports-per-site", "3", "--seed", "9", "--recognizer", "crf",
            "--clock", "real", "--partitions", "3", "--state", "from-flag",
        )
        assert (
            config.scenario_count, config.reports_per_site, config.seed,
            config.recognizer, config.clock, config.partitions,
            config.storage_path,
        ) == (6, 3, 9, "crf", "real", 3, "from-file")

    def test_a_flag_left_out_keeps_the_file_value(self, config_file):
        config = self.config("run", "--config", config_file)
        assert {key: getattr(config, key) for key in self.FILE} == self.FILE

    def test_state_fills_a_missing_storage_path(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 3}))
        config = self.config("stats", "--config", str(path), "--state", "d")
        assert (config.storage_path, config.seed) == ("d", 3)

    def test_without_a_file_the_cli_world(self):
        config = self.config("run", "--state", "d")
        assert (
            config.scenario_count, config.reports_per_site, config.seed,
            config.recognizer, config.clock, config.partitions,
            config.storage_path,
        ) == (12, 4, 7, "gazetteer", "real", 1, "d")
