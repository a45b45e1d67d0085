"""Tests for the online health engine (SLO rules, alerts, quarantine).

Covers the three layers separately -- sliding windows, rule hysteresis
and the per-source state machine -- plus the feedback loop end to end:
a browned-out source must get quarantined by a live crawl, the verdicts
must be byte-identical across seeded virtual runs, and every surface
(`run --health-out`, `/health`, `repro health --from-trace`) must agree
on the canonical report JSON.
"""

import io
import json

import pytest

from repro import SecurityKG, SystemConfig
from repro.cli import main as cli_main
from repro.crawlers import CrawlEngine, Fetcher, build_all_crawlers
from repro.obs import make_obs
from repro.obs.health import (
    DEFAULT_RULES,
    DEGRADED,
    HEALTHY,
    QUARANTINED,
    HealthEngine,
    HealthRule,
    bucket_percentile,
    load_rules_file,
    render_health,
    replay_trace,
    rules_from_config,
)
from repro.runtime import VirtualClock, clock_from_name
from repro.ui.server import ExplorerAPI
from repro.websim import Brownout, SimulatedTransport, build_default_web


def fetch_span(source, end, ok=True, duration=0.01):
    """A minimal exported crawl.fetch span record."""
    return {
        "name": "crawl.fetch",
        "start": end - duration,
        "end": end,
        "attrs": {"source": source, "outcome": "ok" if ok else "failed"},
    }


def commit_span(end, duration):
    return {"name": "storage.commit", "start": end - duration, "end": end,
            "attrs": {}}


class TestBucketPercentile:
    BOUNDS = (0.1, 1.0, 10.0)

    def test_empty_is_zero(self):
        assert bucket_percentile([0, 0, 0, 0], self.BOUNDS, 0.95) == 0.0

    def test_single_bucket(self):
        assert bucket_percentile([5, 0, 0, 0], self.BOUNDS, 0.95) == 0.1

    def test_upper_bound_rule(self):
        # 10 samples in bucket 0, 90 in bucket 1 -> p95 in bucket 1
        assert bucket_percentile([10, 90, 0, 0], self.BOUNDS, 0.95) == 1.0
        # ... but p5 lands in bucket 0
        assert bucket_percentile([10, 90, 0, 0], self.BOUNDS, 0.05) == 0.1

    def test_inf_slot_returns_last_finite_bound(self):
        assert bucket_percentile([0, 0, 0, 4], self.BOUNDS, 0.95) == 10.0


class TestRuleConfig:
    def test_defaults_pass_through(self):
        rules, engine = rules_from_config(None)
        assert rules == tuple(sorted(DEFAULT_RULES, key=lambda r: r.name))
        assert engine == {}

    def test_field_override(self):
        rules, _ = rules_from_config(
            {"source-error-ratio": {"threshold": 0.5, "window": 30.0}}
        )
        rule = next(r for r in rules if r.name == "source-error-ratio")
        assert rule.threshold == 0.5
        assert rule.window == 30.0
        assert rule.min_samples == 4  # untouched fields keep defaults

    def test_disable_rule(self):
        rules, _ = rules_from_config({"frontier-stall": {"enabled": False}})
        assert "frontier-stall" not in {r.name for r in rules}

    def test_new_rule_needs_signal(self):
        rules, _ = rules_from_config(
            {"slow-commits": {"signal": "commit_p95", "threshold": 1.0,
                              "per_source": False}}
        )
        assert "slow-commits" in {r.name for r in rules}
        with pytest.raises(ValueError, match="signal"):
            rules_from_config({"no-such-rule": {"threshold": 1.0}})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fields"):
            rules_from_config({"source-error-ratio": {"treshold": 0.5}})

    def test_engine_entry(self):
        _, engine = rules_from_config(
            {"engine": {"interval": 2.0, "quarantine_after": 2}}
        )
        assert engine == {"interval": 2.0, "quarantine_after": 2}
        with pytest.raises(ValueError, match="engine keys"):
            rules_from_config({"engine": {"intervall": 2.0}})

    def test_non_dict_override_rejected(self):
        with pytest.raises(ValueError, match="must be a dict"):
            rules_from_config({"source-error-ratio": 0.5})

    def test_load_rules_file_json(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text('{"source-error-ratio": {"threshold": 0.9}}')
        assert load_rules_file(path) == {
            "source-error-ratio": {"threshold": 0.9}
        }

    def test_load_rules_file_rejects_non_object(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="must hold an object"):
            load_rules_file(path)

    def test_rules_sorted_and_serializable(self):
        rules, _ = rules_from_config(None)
        names = [r.name for r in rules]
        assert names == sorted(names)
        json.dumps([r.to_dict() for r in rules])


def make_engine(**kwargs):
    """A small, fast engine with one error-ratio rule."""
    defaults = dict(
        interval=1.0,
        quarantine_after=2,
        probe_backoff_base=5.0,
        probe_backoff_max=20.0,
        probe_timeout=3.0,
        degraded_rate_multiplier=4.0,
        degraded_min_interval=0.5,
    )
    defaults.update(kwargs)
    rules = defaults.pop(
        "rules",
        (HealthRule("err", "error_ratio", threshold=0.3, window=10.0,
                    min_samples=2, fire_after=1, resolve_after=2),),
    )
    return HealthEngine(rules, obs=make_obs(), **defaults)


class TestInterval:
    @pytest.mark.parametrize("interval", [0, -1.0])
    def test_non_positive_interval_rejected(self, interval):
        """``maybe_evaluate`` steps its deadline by the interval, so one
        that is not positive would spin there forever, holding the
        health lock: built directly or from ``health_rules``, refused."""
        from test_core_system import bounded

        with pytest.raises(ValueError, match="interval"):
            bounded(10, lambda: HealthEngine(interval=interval))
        with pytest.raises(ValueError, match="interval"):
            bounded(10, lambda: HealthEngine.from_config(
                {"engine": {"interval": interval}}
            ))
        with pytest.raises(ValueError, match="interval"):
            bounded(10, lambda: SecurityKG(SystemConfig(
                health=True, health_rules={"engine": {"interval": interval}}
            )))


class TestHysteresis:
    def test_fire_after_needs_consecutive_breaches(self):
        engine = make_engine(
            rules=(HealthRule("err", "error_ratio", threshold=0.3,
                              window=10.0, min_samples=2, fire_after=2),)
        )
        for t in (0.2, 0.4, 0.6):
            engine.observe_span(fetch_span("S", t, ok=False))
        engine.maybe_evaluate(1.0)
        assert not [a for a in engine.report()["alerts"] if a["firing"]]
        engine.maybe_evaluate(2.0)  # second consecutive breach
        firing = [a for a in engine.report()["alerts"] if a["firing"]]
        assert [a["rule"] for a in firing] == ["err"]
        assert firing[0]["source"] == "S"

    def test_resolve_after_clean_evaluations(self):
        engine = make_engine()
        for t in (0.2, 0.4):
            engine.observe_span(fetch_span("S", t, ok=False))
        engine.maybe_evaluate(1.0)
        assert engine.report()["alerts"][0]["firing"]
        # the 10 s window still holds the two bad events, so flood it
        # with good ones until the ratio drops under threshold
        for t in (1.2, 1.4, 1.6, 1.8, 2.2, 2.4, 2.6, 2.8):
            engine.observe_span(fetch_span("S", t, ok=True))
        engine.maybe_evaluate(3.0)  # clean #1 (2 bad / 10 total) -- firing
        assert engine.report()["alerts"][0]["firing"]
        engine.maybe_evaluate(4.0)  # clean #2 -- resolves
        alert = engine.report()["alerts"][0]
        assert not alert["firing"]
        assert alert["resolved_at"] == 4.0

    def test_min_samples_gate(self):
        engine = make_engine()
        engine.observe_span(fetch_span("S", 0.5, ok=False))  # one bad fetch
        engine.maybe_evaluate(1.0)
        assert engine.report()["alerts"] == []
        # the source is tracked (it produced fetch events) but stays
        # healthy: one sample is below the rule's min_samples
        assert engine.states() == {"S": HEALTHY}

    def test_no_data_holds_state(self):
        engine = make_engine()
        for t in (0.2, 0.4):
            engine.observe_span(fetch_span("S", t, ok=False))
        engine.maybe_evaluate(1.0)
        assert engine.states()["S"] == DEGRADED
        # windows empty out; silence must not read as recovery
        for deadline in range(2, 15):
            engine.maybe_evaluate(float(deadline))
        assert engine.states()["S"] in (DEGRADED, QUARANTINED)
        assert engine.report()["alerts"][0]["firing"]


class TestStateMachine:
    def test_full_lifecycle(self):
        engine = make_engine()
        metrics = engine.obs.metrics
        for t in (0.2, 0.3, 0.4, 0.5):
            engine.observe_span(fetch_span("S", t, ok=False))

        engine.maybe_evaluate(1.0)
        assert engine.states()["S"] == DEGRADED

        # Grandfathering: admissions at the transition instant still see
        # the pre-transition policy; strictly later ones see the new one.
        same_instant = engine.admit("S", 1.0)
        assert same_instant.allow and same_instant.rate_multiplier == 1.0
        later = engine.admit("S", 1.5)
        assert later.allow
        assert later.rate_multiplier == 4.0
        assert later.min_interval == 0.5

        engine.maybe_evaluate(2.0)  # breach #1 while degraded
        engine.maybe_evaluate(3.0)  # breach #2 -> quarantined
        assert engine.states()["S"] == QUARANTINED
        assert engine.admit("S", 3.0).allow  # same-instant grandfather

        denied = engine.admit("S", 3.5)
        assert not denied.allow and not denied.probe
        assert metrics.counter("health.skipped_fetches", source="S") == 1

        # probe backoff (base 5) expires at 8.0: exactly one probe grant
        probe = engine.admit("S", 8.5)
        assert not probe.allow and probe.probe
        assert metrics.counter("health.probes", source="S") == 1
        again = engine.admit("S", 8.6)
        assert not again.allow and not again.probe  # no double grant

        engine.observe_span(fetch_span("S", 8.7, ok=True))  # probe succeeds
        engine.maybe_evaluate(9.0)
        assert engine.states()["S"] == DEGRADED
        assert not engine.report()["alerts"][0]["firing"]
        assert metrics.counter("health.alerts_resolved", rule="err",
                               source="S") == 1

        for t in (9.1, 9.2, 9.3, 9.4):
            engine.observe_span(fetch_span("S", t, ok=True))
        engine.maybe_evaluate(10.0)
        assert engine.states()["S"] == HEALTHY
        healthy_again = engine.admit("S", 10.5)
        assert healthy_again.allow and healthy_again.rate_multiplier == 1.0

        assert [(t["from"], t["to"]) for t in engine.report()["transitions"]] == [
            (HEALTHY, DEGRADED),
            (DEGRADED, QUARANTINED),
            (QUARANTINED, DEGRADED),
            (DEGRADED, HEALTHY),
        ]
        assert metrics.counter("health.transitions", source="S",
                               to=QUARANTINED) == 1
        gauges = metrics.snapshot()["gauges"]
        assert gauges["health.source_state"]["source=S"] == 0
        assert gauges["health.rate_multiplier"]["source=S"] == 1.0

    def test_failed_probe_doubles_backoff(self):
        engine = make_engine()
        for t in (0.2, 0.3):
            engine.observe_span(fetch_span("S", t, ok=False))
        engine.maybe_evaluate(3.0)  # degrade + 2 breaches -> quarantine
        assert engine.states()["S"] == QUARANTINED
        probe = engine.admit("S", 8.0)
        assert probe.probe
        engine.observe_span(fetch_span("S", 8.1, ok=False))  # probe fails
        engine.maybe_evaluate(9.0)
        assert engine.states()["S"] == QUARANTINED
        state = engine.report()["sources"]["S"]
        assert state["probe_backoff"] == 10.0  # 5 -> 10
        # capped at probe_backoff_max eventually
        probe = engine.admit("S", state["probe_at"] + 0.5)
        assert probe.probe
        engine.observe_span(
            fetch_span("S", state["probe_at"] + 0.6, ok=False)
        )
        engine.maybe_evaluate(state["probe_at"] + 1.5)
        assert engine.report()["sources"]["S"]["probe_backoff"] == 20.0

    def test_probe_timeout_rearms(self):
        engine = make_engine()
        for t in (0.2, 0.3):
            engine.observe_span(fetch_span("S", t, ok=False))
        engine.maybe_evaluate(3.0)
        assert engine.admit("S", 8.0).probe
        # no fetch ever lands; after probe_timeout (3s) the grant re-arms
        engine.maybe_evaluate(12.0)
        assert engine.admit("S", 12.5).probe

    def test_unknown_source_is_healthy(self):
        engine = make_engine()
        admission = engine.admit("never-seen", 0.5)
        assert admission.allow
        assert admission.state == HEALTHY
        assert admission.rate_multiplier == 1.0


class TestGlobalSignals:
    def test_frontier_stall_requires_active_crawl(self):
        rule = HealthRule("stall", "frontier_stall", threshold=30.0,
                          window=60.0, min_samples=1, per_source=False)
        engine = make_engine(rules=(rule,))
        engine.observe_span(fetch_span("S", 1.0))
        engine.maybe_evaluate(40.0)  # crawl not active -> no signal
        assert engine.report()["alerts"] == []
        engine.crawl_started()
        engine.maybe_evaluate(80.0)
        alert = engine.report()["alerts"][0]
        assert alert["rule"] == "stall" and alert["source"] == ""
        engine.crawl_finished()

    def test_commit_latency_rule(self):
        rule = HealthRule("slow-commits", "commit_p95", threshold=2.5,
                          window=60.0, min_samples=4, per_source=False)
        engine = make_engine(rules=(rule,))
        for t in (1.0, 2.0, 3.0, 4.0):
            engine.observe_span(commit_span(t, duration=3.0))
        engine.maybe_evaluate(5.0)
        alert = engine.report()["alerts"][0]
        assert alert["rule"] == "slow-commits"
        assert alert["value"] > 2.5  # bucket upper-bound estimate

    def test_check_reject_ratio_reads_registry(self):
        rule = HealthRule("checks", "check_reject_ratio", threshold=0.5,
                          window=60.0, min_samples=4, per_source=False)
        engine = make_engine(rules=(rule,))
        metrics = engine.obs.metrics
        metrics.inc("pipeline.reports_rejected", 3, reason="empty")
        metrics.inc("pipeline.items", 1, stage="check", outcome="ok")
        engine.maybe_evaluate(1.0)
        alert = engine.report()["alerts"][0]
        assert alert["rule"] == "checks"
        assert alert["value"] == 0.75


class TestReport:
    def test_canonical_and_json_safe(self):
        engine = make_engine()
        for t in (0.2, 0.4):
            engine.observe_span(fetch_span("S", t, ok=False))
        report = engine.finalize(1.0)
        assert list(report) == sorted(report)
        json.dumps(report)
        assert report["enabled"] is True
        assert report["evaluations"] >= 1
        assert report["sources"]["S"]["state"] == DEGRADED

    def test_report_json_stable_bytes(self):
        engine = make_engine()
        engine.observe_span(fetch_span("S", 0.2, ok=False))
        engine.finalize(1.0)
        assert engine.report_json() == engine.report_json()
        assert engine.report_json().endswith("\n")

    def test_write_report_atomic(self, tmp_path):
        engine = make_engine()
        path = tmp_path / "health.json"
        engine.write_report(path)
        assert path.read_text() == engine.report_json()

    def test_render_health_text(self):
        engine = make_engine()
        for t in (0.2, 0.4):
            engine.observe_span(fetch_span("S", t, ok=False))
        engine.finalize(1.0)
        text = render_health(engine.report())
        assert "health @" in text
        assert "S" in text and DEGRADED in text
        assert "FIRING err" in text
        assert "healthy -> degraded" in text

    def test_render_disabled(self):
        assert "disabled" in render_health({"enabled": False})


class TestReplayTrace:
    def test_replay_matches_online(self):
        spans = [fetch_span("S", t, ok=False) for t in (0.2, 0.3, 0.4, 0.5)]
        engine = replay_trace(
            spans,
            {
                "source-error-ratio": {"window": 10.0, "min_samples": 2},
                "engine": {"interval": 1.0},
            },
        )
        report = engine.report()
        assert report["sources"]["S"]["state"] != HEALTHY
        assert any(a["rule"] == "source-error-ratio" for a in report["alerts"])

    def test_replay_deterministic(self):
        spans = [fetch_span("S", 0.1 * k, ok=k % 3 == 0) for k in range(1, 40)]
        every_half_second = {"engine": {"interval": 0.5}}
        first = replay_trace(spans, every_half_second).report_json()
        second = replay_trace(spans, every_half_second).report_json()
        assert first == second

    def test_replay_empty_trace(self):
        report = replay_trace([]).report()
        assert report["evaluations"] == 0
        assert report["sources"] == {}


BROWNOUT_SOURCES = ["AdvisoryHub", "MalwareVault", "SecureListing", "ThreatPedia"]
BROWNOUT_RULES = {
    "source-error-ratio": {"window": 10.0, "min_samples": 2},
    "source-fetch-latency": {"enabled": False},
}


def brownout_crawl(web, brownouts, feedback=True):
    """One seeded virtual crawl of four sources with gray failures."""
    clock = VirtualClock()
    obs = make_obs(clock)
    transport = SimulatedTransport(
        web, time_scale=1.0, clock=clock, brownouts=brownouts
    )
    fetcher = Fetcher(transport, backoff=0.05, obs=obs)
    health = None
    if feedback:
        health = HealthEngine.from_config(
            BROWNOUT_RULES, clock=clock, obs=obs,
            interval=0.25, quarantine_after=1,
            probe_backoff_base=0.5, probe_backoff_max=4.0, probe_timeout=5.0,
        )
        obs.tracer.on_finish = health.observe_span
    engine = CrawlEngine(
        build_all_crawlers(BROWNOUT_SOURCES), fetcher,
        num_threads=4, obs=obs, health=health,
    )
    result = engine.crawl()
    if health is not None:
        health.finalize(clock.now())
    return result, health, obs, clock


class TestBrownoutIntegration:
    @pytest.fixture(scope="class")
    def brown_web(self):
        # Enough articles per source that the sick source still has
        # queued URLs by the time quarantine kicks in.
        return build_default_web(scenario_count=12, reports_per_site=30)

    @pytest.fixture(scope="class")
    def sick_crawl(self, brown_web):
        brownout = Brownout("malwarevault.example", start=0.15, end=60.0)
        return brownout_crawl(brown_web, [brownout])

    def test_sick_source_quarantined(self, sick_crawl):
        _result, health, _obs, _clock = sick_crawl
        report = health.report()
        assert report["sources"]["MalwareVault"]["state"] == QUARANTINED
        pairs = [
            (t["source"], t["to"]) for t in report["transitions"]
        ]
        assert ("MalwareVault", DEGRADED) in pairs
        assert ("MalwareVault", QUARANTINED) in pairs
        # healthy sources never escalate
        assert all(t["source"] == "MalwareVault" for t in report["transitions"])

    def test_quarantine_skips_fetches(self, sick_crawl):
        result, health, obs, _clock = sick_crawl
        assert result.skipped
        assert all("malwarevault" in url for url in result.skipped)
        counters = obs.metrics.snapshot()["counters"]
        # every skipped URL is either a plain denial or a probe upgrade
        denials = counters["health.skipped_fetches"].get("source=MalwareVault", 0)
        probes = counters.get("health.probes", {}).get("source=MalwareVault", 0)
        assert denials + probes == len(result.skipped)
        assert denials >= 1

    def test_healthy_sources_unaffected(self, sick_crawl, brown_web):
        result, _health, _obs, _clock = sick_crawl
        healthy = [
            d for d in result.documents if d.source != "MalwareVault"
        ]
        expected = sum(
            brown_web.site_by_name(name).report_count
            for name in BROWNOUT_SOURCES
            if name != "MalwareVault"
        )
        by_source = {d.source for d in healthy}
        assert by_source == set(BROWNOUT_SOURCES) - {"MalwareVault"}
        assert len({d.url for d in healthy if d.page_no == 1}) == expected

    def test_verdicts_byte_identical(self, brown_web, sick_crawl):
        _result, health, obs, _clock = sick_crawl
        brownout = Brownout("malwarevault.example", start=0.15, end=60.0)
        _r2, health2, obs2, _c2 = brownout_crawl(brown_web, [brownout])
        assert health.report_json() == health2.report_json()
        assert obs.tracer.export_jsonl() == obs2.tracer.export_jsonl()

    def test_verdict_spans_traced(self, sick_crawl):
        _result, _health, obs, _clock = sick_crawl
        verdicts = [
            s for s in obs.tracer.export() if s["name"] == "health.verdict"
        ]
        assert verdicts
        assert all("evaluation" in s["attrs"] for s in verdicts)
        probe_spans = [
            s
            for s in obs.tracer.export()
            if s["name"] == "crawl.fetch" and s["attrs"].get("probe")
        ]
        assert probe_spans  # quarantine probes are marked


SMALL = dict(
    scenario_count=5,
    reports_per_site=2,
    seed=7,
    clock="virtual",
    connectors=["graph", "search"],
    health=True,
)
SMALL_CLI = (
    "--scenarios", "5", "--reports-per-site", "2", "--clock", "virtual",
)


def run_health_system():
    clock = clock_from_name("virtual")
    obs = make_obs(clock)
    kg = SecurityKG(SystemConfig(**SMALL), clock=clock, obs=obs)
    report = kg.run_once()
    return kg, report


class TestSystemIntegration:
    @pytest.fixture(scope="class")
    def health_run(self):
        return run_health_system()

    def test_system_report_carries_health(self, health_run):
        _kg, report = health_run
        assert report.health is not None
        assert report.health["enabled"] is True
        assert report.health["evaluations"] >= 1

    def test_endpoint_matches_engine(self, health_run):
        kg, _report = health_run
        status, payload = ExplorerAPI(kg).handle("GET", "/health")
        assert status == 200
        assert payload == kg.health_report() == kg.health.report()

    def test_endpoint_matches_health_out_bytes(self, health_run, tmp_path):
        kg, _report = health_run
        _status, payload = ExplorerAPI(kg).handle("GET", "/api/health")
        path = tmp_path / "health.json"
        kg.health.write_report(path)
        assert path.read_text() == (
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )

    def test_disabled_system_reports_disabled(self):
        kg = SecurityKG(
            SystemConfig(scenario_count=4, reports_per_site=1, clock="virtual")
        )
        assert kg.health is None
        assert kg.health_report() == {"enabled": False}
        status, payload = ExplorerAPI(kg).handle("GET", "/health")
        assert status == 200 and payload == {"enabled": False}

    def test_health_report_deterministic(self, health_run):
        kg, _report = health_run
        kg2, _report2 = run_health_system()
        assert kg.health.report_json() == kg2.health.report_json()


class TestCliHealth:
    def run_cli(self, *argv):
        out = io.StringIO()
        code = cli_main(list(argv), out=out)
        return code, out.getvalue()

    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("health") / "trace.jsonl"
        code, output = self.run_cli(
            "run", *SMALL_CLI, "--trace", str(path)
        )
        assert code == 0, output
        return path

    def test_run_health_prints_report(self):
        code, output = self.run_cli("run", *SMALL_CLI, "--health")
        assert code == 0
        assert "health @" in output
        assert "alerts:" in output

    def test_run_health_out_matches_endpoint_json(self, tmp_path):
        path = tmp_path / "health.json"
        code, output = self.run_cli(
            "run", *SMALL_CLI, "--health-out", str(path)
        )
        assert code == 0
        assert "wrote health report" in output
        written = path.read_text()
        kg, _report = run_health_system()
        _status, payload = ExplorerAPI(kg).handle("GET", "/health")
        assert written == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_health_from_trace(self, trace_file):
        code, output = self.run_cli("health", "--from-trace", str(trace_file))
        assert code == 0
        assert "health @" in output

    def test_health_from_trace_json_and_out(self, trace_file, tmp_path):
        out_path = tmp_path / "health.json"
        code, output = self.run_cli(
            "health", "--from-trace", str(trace_file),
            "--json", "--out", str(out_path),
        )
        assert code == 0
        report = json.loads(output[output.index("{"):])
        assert report["enabled"] is True
        assert json.loads(out_path.read_text()) == report

    def test_health_from_trace_deterministic(self, trace_file, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for path in (first, second):
            code, _ = self.run_cli(
                "health", "--from-trace", str(trace_file), "--out", str(path)
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_health_rules_override(self, trace_file, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text('{"frontier-stall": {"enabled": false}}')
        code, output = self.run_cli(
            "health", "--from-trace", str(trace_file),
            "--rules", str(rules), "--json",
        )
        assert code == 0
        report = json.loads(output[output.index("{"):])
        assert "frontier-stall" not in {r["name"] for r in report["rules"]}

    def test_bad_rules_file_exits_2(self, trace_file, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text('{"no-such-rule": {"threshold": 1}}')
        code, output = self.run_cli(
            "health", "--from-trace", str(trace_file), "--rules", str(rules)
        )
        assert code == 2
        assert "health rules error" in output

    def test_stats_from_trace_json(self, trace_file):
        code, output = self.run_cli(
            "profile", "--from-trace", str(trace_file), "--json"
        )
        assert code == 0
        summary = json.loads(output)
        assert summary["spans"] > 0
        assert "crawl.fetch" in summary["names"]
        assert {"count", "total_s", "self_s", "max_s"} <= set(
            summary["names"]["crawl.fetch"]
        )

    def test_stats_graph_json(self):
        code, output = self.run_cli("stats", *SMALL_CLI, "--json")
        assert code == 0
        stats = json.loads(output)
        assert stats["nodes"] >= 0
        assert set(stats) >= {"edges", "labels", "edge_types"}
