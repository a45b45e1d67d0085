"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import main


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
        SystemConfig(
            scenario_count=4,
            reports_per_site=2,
            sources=["OTX Mirror"],
            connectors=["graph", "search"],
        ).save(config_path)
        code, output = run_cli(
            "run", "--config", str(config_path), *SMALL, "--max-articles", "99"
        )
        assert code == 0
        assert "crawled 2 reports" in output  # one source, two reports

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            run_cli("frobnicate")
