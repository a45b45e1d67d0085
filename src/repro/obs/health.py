"""Online health engine: SLO evaluation, alerting and quarantine feedback.

The paper's scheduler only reboots *crashed* crawlers; a source that is
up but rotten -- timing out, serving empty pages, feeding the checker
garbage -- keeps burning worker time forever (a textbook *gray
failure*).  This module closes the observability loop the tracer and
metrics registry opened: it tails the span stream and the
:class:`~repro.obs.MetricsRegistry`, evaluates declarative SLO rules
over sliding windows, and feeds per-source verdicts back into crawler
policy.

Three layers:

* :class:`SlidingWindow` -- per-``(stream, key)`` event windows built
  from timestamps the system already read (span start/end), plus
  periodic counter samples.  No new clock reads are needed to
  aggregate, so virtual-clock runs yield byte-identical verdicts.
* :class:`HealthRule` + the rule evaluator -- declarative thresholds
  (error ratios, windowed p95 latencies, stalls) with hysteresis
  (``fire_after`` consecutive breaches to fire, ``resolve_after``
  clean evaluations to resolve) producing firing/resolved
  :class:`Alert` records.
* The per-source state machine -- ``healthy -> degraded ->
  quarantined``: degraded sources get multiplied rate-limit intervals,
  quarantined sources are skipped by the crawl engine and re-probed
  with exponential backoff through a canonical probe URL, so the probe
  fetch is identical no matter which worker performs it.

Determinism contract: evaluation for the window ending at deadline
``D`` uses only events with ``end < D``.  Under a virtual clock, time
only advances once every worker is parked, so by the time any thread
observes ``now() >= D`` every such event has been recorded -- the
evaluated set is exactly reproducible.  Verdicts take effect only for
admissions *strictly after* the evaluation instant, so two workers
racing at the same virtual instant always see the same policy.

See OBSERVABILITY.md ("Health and alerting") for the rule syntax, the
state machine and a worked brownout walkthrough.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import asdict, dataclass, field, replace

from repro.obs.metrics import DEFAULT_BUCKETS
from repro.runtime import Clock, named_lock

#: Source states, in escalation order.
HEALTHY = "healthy"
DEGRADED = "degraded"
QUARANTINED = "quarantined"

_STATE_LEVEL = {HEALTHY: 0, DEGRADED: 1, QUARANTINED: 2}


def bucket_percentile(
    counts: list[int], bounds: tuple[float, ...], q: float
) -> float:
    """Percentile estimate from fixed-bucket counts (upper-bound rule).

    ``counts`` has one slot per bound plus the ``+Inf`` slot.  The
    estimate is the upper bound of the bucket containing the q-th
    sample (the last finite bound for the ``+Inf`` slot), mirroring how
    Prometheus-style fixed ladders are read.  Returns 0.0 when empty.
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0
    for index, count in enumerate(counts):
        seen += count
        if seen >= rank and count:
            if index < len(bounds):
                return bounds[index]
            return bounds[-1] if bounds else float("inf")
    return bounds[-1] if bounds else float("inf")


@dataclass(frozen=True)
class HealthRule:
    """One declarative SLO rule.

    Attributes
    ----------
    name:
        Stable rule id (appears in alerts and the report).
    signal:
        What to measure: ``error_ratio`` (failed / total fetches per
        source), ``fetch_p95`` (windowed p95 fetch seconds per source),
        ``check_reject_ratio`` (checker rejections / checked reports,
        from the metrics registry), ``frontier_stall`` (seconds since
        the last fetch completed while a crawl is active) or
        ``commit_p95`` (windowed p95 storage-commit seconds).
    threshold:
        Breach when the signal exceeds this value.
    window:
        Sliding-window length in seconds.
    min_samples:
        Minimum events in the window before the rule may breach
        (ratio/percentile signals; prevents one bad fetch from firing).
    fire_after / resolve_after:
        Hysteresis: consecutive breaching evaluations before the alert
        fires, and consecutive clean ones before it resolves.
    per_source:
        Evaluate one series per crawl source (feeding the state
        machine) or a single system-wide series (alert only).
    severity:
        Recorded on the alert (``degraded`` rules drive escalation).
    """

    name: str
    signal: str
    threshold: float
    window: float = 60.0
    min_samples: int = 4
    fire_after: int = 1
    resolve_after: int = 2
    per_source: bool = True
    severity: str = DEGRADED

    def to_dict(self) -> dict:
        return dict(sorted(asdict(self).items()))


#: The default ruleset (override via ``SystemConfig.health_rules``).
DEFAULT_RULES: tuple[HealthRule, ...] = (
    HealthRule("source-error-ratio", "error_ratio", threshold=0.3,
               window=60.0, min_samples=4, fire_after=1, resolve_after=2),
    HealthRule("source-fetch-latency", "fetch_p95", threshold=5.0,
               window=60.0, min_samples=4, fire_after=2, resolve_after=2),
    HealthRule("checker-rejection-ratio", "check_reject_ratio",
               threshold=0.5, window=300.0, min_samples=4, fire_after=1,
               resolve_after=1, per_source=False),
    HealthRule("frontier-stall", "frontier_stall", threshold=30.0,
               window=60.0, min_samples=1, fire_after=1, resolve_after=1,
               per_source=False),
    HealthRule("storage-commit-latency", "commit_p95", threshold=2.5,
               window=300.0, min_samples=4, fire_after=1, resolve_after=1,
               per_source=False),
)

#: Reserved ``health_rules`` keys configuring the engine itself.
_ENGINE_KEYS = frozenset(
    {
        "interval",
        "quarantine_after",
        "probe_backoff_base",
        "probe_backoff_max",
        "probe_timeout",
        "degraded_rate_multiplier",
        "degraded_min_interval",
    }
)


def rules_from_config(
    overrides: dict | None, base: tuple[HealthRule, ...] = DEFAULT_RULES
) -> tuple[tuple[HealthRule, ...], dict]:
    """Apply dict overrides to the default ruleset.

    ``overrides`` maps rule name to a dict of :class:`HealthRule`
    fields (an unknown name with a ``signal`` key defines a new rule;
    ``{"enabled": false}`` drops a rule).  An optional ``"engine"``
    entry carries engine parameters (``interval``,
    ``quarantine_after``, ``probe_backoff_base``, ...) and is returned
    separately.  Raises ``ValueError`` for unknown names or fields.
    """
    rules = {rule.name: rule for rule in base}
    engine: dict = {}
    for name, fields in (overrides or {}).items():
        if name == "engine":
            unknown = set(fields) - _ENGINE_KEYS
            if unknown:
                raise ValueError(
                    f"unknown health engine keys: {sorted(unknown)}"
                )
            engine = dict(fields)
            continue
        if not isinstance(fields, dict):
            raise ValueError(f"override for rule {name!r} must be a dict")
        fields = dict(fields)
        if fields.pop("enabled", True) is False:
            rules.pop(name, None)
            continue
        if name in rules:
            known = set(HealthRule.__dataclass_fields__)
            unknown = set(fields) - known
            if unknown:
                raise ValueError(
                    f"unknown fields for rule {name!r}: {sorted(unknown)}"
                )
            rules[name] = replace(rules[name], **fields)
        elif "signal" in fields:
            rules[name] = HealthRule(name=name, **fields)
        else:
            raise ValueError(
                f"unknown health rule {name!r} (new rules need a 'signal')"
            )
    return tuple(rules[name] for name in sorted(rules)), engine


def load_rules_file(path) -> dict:
    """Read a rule-override mapping from a JSON file; ``ValueError``
    when it does not hold one."""
    from pathlib import Path

    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: health rules file must hold an object")
    return data


@dataclass
class Alert:
    """One firing (or resolved) rule violation."""

    rule: str
    source: str  # "" for system-wide rules
    severity: str
    fired_at: float
    value: float
    threshold: float
    resolved_at: float | None = None
    resolved_value: float | None = None

    @property
    def firing(self) -> bool:
        return self.resolved_at is None

    def to_dict(self) -> dict:
        return {
            "fired_at": self.fired_at,
            "firing": self.firing,
            "resolved_at": self.resolved_at,
            "resolved_value": self.resolved_value,
            "rule": self.rule,
            "severity": self.severity,
            "source": self.source,
            "threshold": self.threshold,
            "value": self.value,
        }


@dataclass
class Admission:
    """Crawl-policy decision for one URL of one source."""

    allow: bool
    state: str = HEALTHY
    probe: bool = False  # fetch the source's canonical probe URL instead
    rate_multiplier: float = 1.0
    min_interval: float = 0.0


class SlidingWindow:
    """Per-``(stream, key)`` event deques pruned to a fixed horizon.

    Events are ``(t, value, ok)`` tuples appended in arrival order and
    queried by half-open or closed time windows; aggregation is
    commutative, so arrival-order races at one virtual instant cannot
    change a verdict.
    """

    def __init__(self, horizon: float):
        self.horizon = horizon
        self._events: dict[tuple[str, str], deque] = {}
        self._last_event_at: float | None = None

    def add(self, stream: str, key: str, t: float, value: float, ok: bool) -> None:
        events = self._events.setdefault((stream, key), deque())
        events.append((t, value, ok))
        if self._last_event_at is None or t > self._last_event_at:
            self._last_event_at = t

    def prune(self, now: float) -> None:
        cutoff = now - self.horizon
        for events in self._events.values():
            while events and events[0][0] < cutoff:
                events.popleft()

    def drop_before(self, stream: str, key: str, t: float) -> None:
        """Forget one series' events older than ``t`` (re-admission)."""
        events = self._events.get((stream, key))
        if events is None:
            return
        while events and events[0][0] < t:
            events.popleft()

    def keys(self, stream: str) -> list[str]:
        return sorted(
            key for (name, key), events in self._events.items()
            if name == stream and events
        )

    def select(
        self, stream: str, key: str, since: float, until: float,
        inclusive: bool = False,
    ) -> list[tuple[float, float, bool]]:
        events = self._events.get((stream, key), ())
        if inclusive:
            return [e for e in events if since <= e[0] <= until]
        return [e for e in events if since <= e[0] < until]

    @property
    def last_event_at(self) -> float | None:
        return self._last_event_at


class _RuleSeries:
    """Hysteresis bookkeeping for one (rule, key) series."""

    __slots__ = ("breaches", "cleans", "alert")

    def __init__(self):
        self.breaches = 0
        self.cleans = 0
        self.alert: Alert | None = None

    @property
    def firing(self) -> bool:
        return self.alert is not None and self.alert.firing


class _SourceState:
    """Escalation state for one crawl source."""

    __slots__ = (
        "state", "since", "since_deadline", "breach_evals",
        "probe_backoff", "probe_at", "probe_pending", "probe_granted_at",
        "multiplier", "prev_multiplier",
    )

    def __init__(self):
        self.state = HEALTHY
        self.since = 0.0           # evaluation instant (grandfathering)
        self.since_deadline = 0.0  # evaluated deadline (reported)
        self.breach_evals = 0
        self.probe_backoff = 0.0
        self.probe_at: float | None = None
        self.probe_pending = False
        self.probe_granted_at: float | None = None
        self.multiplier = 1.0
        self.prev_multiplier = 1.0

    def effective_multiplier(self, now: float) -> float:
        """Multiplier as seen by admissions at instant ``now``.

        Transitions take effect strictly *after* the instant they were
        decided at, so racing admissions at that instant agree.
        """
        return self.multiplier if now > self.since else self.prev_multiplier

    def to_dict(self) -> dict:
        return {
            "probe_at": self.probe_at,
            "probe_backoff": self.probe_backoff,
            "rate_multiplier": self.multiplier,
            "since": self.since_deadline,
            "state": self.state,
        }


class HealthEngine:
    """Evaluate SLO rules over the span/metric stream; emit verdicts.

    Parameters
    ----------
    rules:
        The ruleset (default :data:`DEFAULT_RULES`).
    clock:
        The deployment clock; only used as the timestamp source for the
        offline/final evaluation paths -- online evaluation is driven
        by the admission times the crawl engine already knows.
    obs:
        Observability bundle; verdicts are traced as ``health.verdict``
        spans and counted in ``health.*`` metrics.  The metrics
        registry is also *read* (counter tail) for registry-backed
        signals such as the checker-rejection ratio.
    interval:
        Evaluation period in seconds.
    quarantine_after:
        Consecutive breaching evaluations while degraded before a
        source is quarantined.
    probe_backoff_base / probe_backoff_max:
        Exponential re-admission probe schedule for quarantined
        sources.
    probe_timeout:
        Seconds after a probe grant with no observed fetch before the
        probe is considered lost and re-armed.
    degraded_rate_multiplier / degraded_min_interval:
        Crawl-policy feedback for degraded (and probing) sources: the
        host's politeness interval is raised to at least
        ``degraded_min_interval`` and multiplied.
    """

    def __init__(
        self,
        rules: tuple[HealthRule, ...] = DEFAULT_RULES,
        *,
        clock: Clock | None = None,
        obs=None,
        interval: float = 5.0,
        quarantine_after: int = 3,
        probe_backoff_base: float = 30.0,
        probe_backoff_max: float = 480.0,
        probe_timeout: float = 60.0,
        degraded_rate_multiplier: float = 4.0,
        degraded_min_interval: float = 0.5,
        start: float | None = None,
    ):
        from repro.obs import NO_OBS  # local import: obs imports health

        self.rules = tuple(rules)
        self.clock = clock
        self.obs = obs if obs is not None else NO_OBS
        self.interval = float(interval)
        self.quarantine_after = int(quarantine_after)
        self.probe_backoff_base = float(probe_backoff_base)
        self.probe_backoff_max = float(probe_backoff_max)
        self.probe_timeout = float(probe_timeout)
        self.degraded_rate_multiplier = float(degraded_rate_multiplier)
        self.degraded_min_interval = float(degraded_min_interval)

        horizon = max((rule.window for rule in self.rules), default=60.0)
        self._window = SlidingWindow(horizon)
        self._counter_samples: deque = deque()  # (t, rejected, passed)
        self._series: dict[tuple[str, str], _RuleSeries] = {}
        self._sources: dict[str, _SourceState] = {}
        self._alerts: list[Alert] = []
        self._transitions: list[dict] = []
        self._signals: dict[str, dict[str, float]] = {}
        self._evaluations = 0
        # Anchor the deadline grid at the clock's epoch by default: a
        # real clock reads wall time, and a grid anchored at 0.0 would
        # make the first maybe_evaluate() step through decades of
        # deadlines one interval at a time.
        if start is None:
            start = clock.now() if clock is not None else 0.0
        self._next_deadline = float(start) + self.interval
        self._last_eval_at = float(start)
        self._crawls_active = 0
        self._parent_span = None
        # Reentrant: a health.verdict span finishing inside evaluate()
        # re-enters observe_span through the tracer's on_finish hook.
        self._lock = named_lock("obs.health", reentrant=True)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_config(
        cls, overrides: dict | None = None, **kwargs
    ) -> "HealthEngine":
        """Build an engine from ``SystemConfig.health_rules`` overrides."""
        rules, engine_kwargs = rules_from_config(overrides)
        engine_kwargs.update(kwargs)
        return cls(rules, **engine_kwargs)

    # -- event intake ------------------------------------------------------

    @staticmethod
    def _record_fields(record) -> tuple[str, float, float, dict]:
        """(name, start, end, attrs) from a Span or an exported dict."""
        if isinstance(record, dict):
            return (
                record.get("name", ""),
                record.get("start", 0.0),
                record.get("end", 0.0),
                record.get("attrs", {}),
            )
        return record.name, record.start, record.end, record.attrs

    def observe_span(self, record) -> None:
        """Tail one finished span (tracer ``on_finish`` hook).

        Only ``crawl.fetch`` and ``storage.commit`` spans carry health
        signals; everything else returns after one name check.
        """
        name, start, end, attrs = self._record_fields(record)
        if name == "crawl.fetch":
            source = str(attrs.get("source", ""))
            outcome = str(attrs.get("outcome", ""))
            ok = outcome in ("ok", "denied")
            with self._lock:
                self._window.add(
                    "fetch", source, end, max(0.0, end - start), ok
                )
        elif name == "storage.commit":
            with self._lock:
                self._window.add(
                    "commit", "", end, max(0.0, end - start), True
                )

    def crawl_started(self) -> None:
        with self._lock:
            self._crawls_active += 1

    def crawl_finished(self) -> None:
        with self._lock:
            self._crawls_active -= 1

    def bind_parent(self, span):
        """Parent subsequent ``health.verdict`` spans under ``span``.

        Returns the previous parent so callers can restore it; explicit
        parenting keeps the span tree deterministic when evaluations
        trigger on arbitrary worker threads.
        """
        with self._lock:
            previous = self._parent_span
            self._parent_span = span
            return previous

    # -- crawl policy ------------------------------------------------------

    def admit(self, source: str, now: float) -> Admission:
        """Policy decision for one URL of ``source`` at instant ``now``.

        Runs any due evaluations first, so policy is always current.
        Quarantined sources are denied; when their probe backoff has
        expired exactly one denial is upgraded to a probe of the
        source's canonical URL (``Admission.probe``).
        """
        with self._lock:
            self.maybe_evaluate(now)
            state = self._sources.get(source)
            if state is None:
                return Admission(True)
            multiplier = state.effective_multiplier(now)
            min_interval = (
                self.degraded_min_interval if multiplier > 1.0 else 0.0
            )
            if state.state != QUARANTINED or now <= state.since:
                # Transitions bind strictly after their instant, so
                # same-instant admissions agree regardless of order.
                return Admission(
                    True,
                    state=state.state,
                    rate_multiplier=multiplier,
                    min_interval=min_interval,
                )
            if (
                state.probe_at is not None
                and now >= state.probe_at
                and not state.probe_pending
            ):
                state.probe_pending = True
                state.probe_granted_at = now
                self.obs.metrics.inc("health.probes", source=source)
                # The host has been idle throughout quarantine, so the
                # probe runs at base politeness (floored, not multiplied).
                return Admission(
                    False,
                    state=QUARANTINED,
                    probe=True,
                    rate_multiplier=1.0,
                    min_interval=self.degraded_min_interval,
                )
            self.obs.metrics.inc("health.skipped_fetches", source=source)
            return Admission(False, state=QUARANTINED)

    # -- evaluation --------------------------------------------------------

    def sample_counters(self, t: float) -> None:
        """Tail the metrics registry for registry-backed signals."""
        metrics = self.obs.metrics
        rejected = metrics.counter_total("pipeline.reports_rejected")
        passed = metrics.counter("pipeline.items", stage="check", outcome="ok")
        with self._lock:
            self._counter_samples.append((t, rejected, passed))

    def maybe_evaluate(self, now: float) -> int:
        """Run every evaluation whose deadline has passed; returns count."""
        ran = 0
        with self._lock:
            while now >= self._next_deadline:
                self._evaluate(self._next_deadline, now, inclusive=False)
                self._next_deadline += self.interval
                ran += 1
        return ran

    def finalize(self, now: float) -> dict:
        """Evaluate once at ``now`` (closed window) and return the report.

        Called at the end of a run cycle: with no concurrent workers a
        closed window is safe and lets the evaluation see events whose
        timestamp is exactly ``now`` (virtual-clock commits).
        """
        with self._lock:
            self.sample_counters(now)
            self.maybe_evaluate(now)
            self._evaluate(now, now, inclusive=True)
            return self.report()

    def _evaluate(self, deadline: float, now: float, inclusive: bool) -> None:
        """One verdict for the window ending at ``deadline``.

        ``now`` is the instant the evaluation actually runs (>= the
        deadline when triggered lazily by an admission); state changes
        are stamped with it so same-instant admissions grandfather.
        """
        self.sample_counters(deadline if not inclusive else now)
        transitions_before = len(self._transitions)
        alerts_before = sum(1 for alert in self._alerts if alert.firing)
        self._evaluations += 1
        self._last_eval_at = deadline
        self._signals = {}
        breaching_sources: dict[str, list[str]] = {}
        for rule in self.rules:
            values = self._signal_values(rule, deadline, inclusive)
            self._signals[rule.name] = dict(sorted(values.items()))
            keys = set(values)
            # series already tracked keep evaluating even with no data
            keys.update(
                key for (name, key) in self._series if name == rule.name
            )
            for key in sorted(keys):
                value = values.get(key)
                firing = self._update_series(rule, key, value, deadline)
                if firing and rule.per_source:
                    breaching_sources.setdefault(key, []).append(rule.name)
        self._escalate(breaching_sources, deadline, now)
        self._window.prune(deadline - self.interval)
        while (
            self._counter_samples
            and self._counter_samples[0][0]
            < deadline - self._max_window("check_reject_ratio")
        ):
            self._counter_samples.popleft()

        metrics = self.obs.metrics
        metrics.inc("health.evaluations")
        counts = {HEALTHY: 0, DEGRADED: 0, QUARANTINED: 0}
        for state in self._sources.values():
            counts[state.state] += 1
        firing_now = sum(1 for alert in self._alerts if alert.firing)
        with self.obs.tracer.span(
            "health.verdict",
            parent=self._parent_span,
            at=deadline,
            evaluation=self._evaluations,
            firing=firing_now,
            degraded=counts[DEGRADED],
            quarantined=counts[QUARANTINED],
        ) as span:
            if len(self._transitions) > transitions_before:
                span.set(
                    "transitions", len(self._transitions) - transitions_before
                )
            if firing_now != alerts_before:
                span.set("alerts_delta", firing_now - alerts_before)

    def _max_window(self, signal: str) -> float:
        return max(
            (rule.window for rule in self.rules if rule.signal == signal),
            default=300.0,
        )

    def _signal_values(
        self, rule: HealthRule, deadline: float, inclusive: bool
    ) -> dict[str, float]:
        """Current value of ``rule``'s signal for every key with data."""
        since = deadline - rule.window
        if rule.signal == "error_ratio":
            values = {}
            for key in self._window.keys("fetch"):
                events = self._window.select(
                    "fetch", key, since, deadline, inclusive
                )
                if len(events) >= rule.min_samples:
                    errors = sum(1 for _t, _v, ok in events if not ok)
                    values[key] = errors / len(events)
            return values
        if rule.signal == "fetch_p95":
            values = {}
            for key in self._window.keys("fetch"):
                events = self._window.select(
                    "fetch", key, since, deadline, inclusive
                )
                if len(events) >= rule.min_samples:
                    values[key] = self._percentile(
                        [v for _t, v, _ok in events], 0.95
                    )
            return values
        if rule.signal == "commit_p95":
            events = self._window.select("commit", "", since, deadline, inclusive)
            if len(events) >= rule.min_samples:
                return {"": self._percentile([v for _t, v, _ok in events], 0.95)}
            return {}
        if rule.signal == "frontier_stall":
            if self._crawls_active <= 0:
                return {}
            last = self._window.last_event_at
            if last is None:
                return {}
            return {"": max(0.0, deadline - last)}
        if rule.signal == "check_reject_ratio":
            samples = [s for s in self._counter_samples if s[0] >= since]
            if not samples:
                return {}
            base_rejected, base_passed = 0, 0
            older = [s for s in self._counter_samples if s[0] < since]
            if older:
                _t, base_rejected, base_passed = older[-1]
            _t, rejected, passed = samples[-1]
            rejected -= base_rejected
            passed -= base_passed
            total = rejected + passed
            if total < rule.min_samples:
                return {}
            return {"": rejected / total}
        raise ValueError(f"unknown health signal {rule.signal!r}")

    @staticmethod
    def _percentile(values: list[float], q: float) -> float:
        counts = [0] * (len(DEFAULT_BUCKETS) + 1)
        for value in values:
            slot = len(DEFAULT_BUCKETS)
            for index, bound in enumerate(DEFAULT_BUCKETS):
                if value <= bound:
                    slot = index
                    break
            counts[slot] += 1
        return bucket_percentile(counts, DEFAULT_BUCKETS, q)

    def _update_series(
        self, rule: HealthRule, key: str, value: float | None, at: float
    ) -> bool:
        """Hysteresis update for one series; returns whether it fires."""
        series = self._series.setdefault((rule.name, key), _RuleSeries())
        if value is None:
            # No data: hold state (a quarantined source produces no
            # samples; silence must not read as recovery).
            return series.firing
        if value > rule.threshold:
            series.breaches += 1
            series.cleans = 0
            if not series.firing and series.breaches >= rule.fire_after:
                series.alert = Alert(
                    rule=rule.name,
                    source=key,
                    severity=rule.severity,
                    fired_at=at,
                    value=value,
                    threshold=rule.threshold,
                )
                self._alerts.append(series.alert)
                self.obs.metrics.inc(
                    "health.alerts_fired", rule=rule.name, source=key
                )
        else:
            series.cleans += 1
            series.breaches = 0
            if series.firing and series.cleans >= rule.resolve_after:
                series.alert.resolved_at = at
                series.alert.resolved_value = value
                self.obs.metrics.inc(
                    "health.alerts_resolved", rule=rule.name, source=key
                )
        return series.firing

    def _escalate(
        self, breaching: dict[str, list[str]], deadline: float, now: float
    ) -> None:
        """Advance every source's state machine after a rule sweep."""
        # Every source seen in the fetch stream is tracked, so a clean
        # run reports each one as healthy rather than an empty map.
        seen = (key for key in self._window.keys("fetch") if key)
        sources = set(breaching) | set(self._sources) | set(seen)
        for source in sorted(sources):
            state = self._sources.setdefault(source, _SourceState())
            firing = source in breaching
            if state.state == HEALTHY:
                if firing:
                    self._transition(
                        state, source, DEGRADED, deadline, now,
                        breaching[source],
                    )
            elif state.state == DEGRADED:
                if firing:
                    state.breach_evals += 1
                    if state.breach_evals >= self.quarantine_after:
                        self._transition(
                            state, source, QUARANTINED, deadline, now,
                            breaching[source],
                        )
                        state.probe_backoff = self.probe_backoff_base
                        state.probe_at = now + state.probe_backoff
                        state.probe_pending = False
                elif not self._any_firing(source):
                    self._transition(state, source, HEALTHY, deadline, now, [])
            elif state.state == QUARANTINED:
                self._probe_verdict(state, source, deadline, now)

    def _any_firing(self, source: str) -> bool:
        return any(
            series.firing
            for (rule_name, key), series in self._series.items()
            if key == source
        )

    def _probe_verdict(
        self, state: _SourceState, source: str, deadline: float, now: float
    ) -> None:
        """Judge an outstanding probe for a quarantined source."""
        if not state.probe_pending or state.probe_granted_at is None:
            return
        events = self._window.select(
            "fetch", source, state.probe_granted_at, deadline, inclusive=True
        )
        if not events:
            if deadline - state.probe_granted_at >= self.probe_timeout:
                # probe grant never produced a fetch (crawl ended);
                # re-arm so the next crawl can probe immediately
                state.probe_pending = False
                state.probe_at = now
            return
        ok = events[-1][2]
        state.probe_pending = False
        if ok:
            # Stale sick-era samples must not instantly re-quarantine a
            # recovered source: restart its windows at the probe grant.
            self._window.drop_before("fetch", source, state.probe_granted_at)
            for (rule_name, key), series in self._series.items():
                if key == source:
                    series.breaches = 0
                    if series.firing:
                        series.alert.resolved_at = deadline
                        series.alert.resolved_value = 0.0
                        self.obs.metrics.inc(
                            "health.alerts_resolved",
                            rule=rule_name,
                            source=source,
                        )
            self._transition(state, source, DEGRADED, deadline, now, [])
        else:
            state.probe_backoff = min(
                state.probe_backoff * 2.0, self.probe_backoff_max
            )
            state.probe_at = now + state.probe_backoff

    def _transition(
        self,
        state: _SourceState,
        source: str,
        new_state: str,
        deadline: float,
        now: float,
        rules: list[str],
    ) -> None:
        old = state.state
        state.prev_multiplier = state.multiplier
        state.state = new_state
        state.since = now
        state.since_deadline = deadline
        state.breach_evals = 0
        if new_state == HEALTHY:
            state.multiplier = 1.0
            state.probe_at = None
            state.probe_pending = False
        else:
            state.multiplier = self.degraded_rate_multiplier
        if new_state != QUARANTINED:
            state.probe_backoff = 0.0 if new_state == HEALTHY else state.probe_backoff
        self._transitions.append(
            {
                "at": deadline,
                "from": old,
                "rules": sorted(rules),
                "source": source,
                "to": new_state,
            }
        )
        self.obs.metrics.inc("health.transitions", source=source, to=new_state)
        self.obs.metrics.set_gauge(
            "health.source_state", _STATE_LEVEL[new_state], source=source
        )
        self.obs.metrics.set_gauge(
            "health.rate_multiplier", state.multiplier, source=source
        )

    # -- readout -----------------------------------------------------------

    def states(self) -> dict[str, str]:
        """Current state per source (sources never seen are healthy)."""
        with self._lock:
            return {
                source: state.state
                for source, state in sorted(self._sources.items())
            }

    def report(self) -> dict:
        """Canonical JSON-safe health report (keys in sorted order)."""
        with self._lock:
            return {
                "alerts": [
                    alert.to_dict()
                    for alert in sorted(
                        self._alerts,
                        key=lambda a: (a.fired_at, a.rule, a.source),
                    )
                ],
                "at": self._last_eval_at,
                "enabled": True,
                "evaluations": self._evaluations,
                "interval": self.interval,
                "rules": [rule.to_dict() for rule in
                          sorted(self.rules, key=lambda r: r.name)],
                "signals": {
                    name: self._signals[name]
                    for name in sorted(self._signals)
                },
                "sources": {
                    source: state.to_dict()
                    for source, state in sorted(self._sources.items())
                },
                "transitions": list(self._transitions),
            }

    def report_json(self) -> str:
        """The report as canonical JSON text (sorted keys, one newline)."""
        return json.dumps(self.report(), indent=2, sort_keys=True) + "\n"

    def write_report(self, path) -> None:
        """Persist the report atomically (fsync'd write + rename)."""
        from repro.storage.atomic import atomic_write_text

        atomic_write_text(path, self.report_json())


def replay_trace(
    spans: list[dict],
    overrides: dict | None = None,
    interval: float | None = None,
) -> HealthEngine:
    """Offline health evaluation over an exported trace.

    Feeds the span records through a fresh engine and evaluates on the
    interval grid spanned by the trace, exactly as the online engine
    would have; returns the engine (call :meth:`HealthEngine.report`).
    """
    kwargs: dict = {}
    if interval is not None:
        kwargs["interval"] = interval
    engine = HealthEngine.from_config(overrides, **kwargs)
    for span in spans:
        engine.observe_span(span)
    if spans:
        end = max(span.get("end", 0.0) for span in spans)
        engine.crawl_started()  # frontier-stall rule sees an active crawl
        engine.maybe_evaluate(end)
        engine.crawl_finished()
        engine.finalize(end)
    return engine


def render_health(report: dict) -> str:
    """Human-readable rendering of a health report."""
    if not report.get("enabled"):
        return "health engine disabled (run with --health)"
    lines = [
        f"health @ {report['at']:.2f}s -- {report['evaluations']} "
        f"evaluation(s), every {report['interval']:g}s"
    ]
    sources = report.get("sources", {})
    if sources:
        width = max(len(name) for name in sources)
        lines.append(f"{'source':<{width}}  {'state':<12} {'since':>8}  detail")
        for name, state in sources.items():
            detail = ""
            if state["state"] == QUARANTINED and state["probe_at"] is not None:
                detail = (
                    f"probe at {state['probe_at']:.1f}s "
                    f"(backoff {state['probe_backoff']:.0f}s)"
                )
            elif state["rate_multiplier"] > 1.0:
                detail = f"rate x{state['rate_multiplier']:g}"
            lines.append(
                f"{name:<{width}}  {state['state']:<12} "
                f"{state['since']:>7.1f}s  {detail}".rstrip()
            )
    else:
        lines.append("no sources tracked (no crawl events observed)")
    firing = [a for a in report.get("alerts", []) if a["firing"]]
    resolved = [a for a in report.get("alerts", []) if not a["firing"]]
    lines.append(
        f"alerts: {len(firing)} firing, {len(resolved)} resolved"
    )
    for alert in firing:
        where = alert["source"] or "system"
        lines.append(
            f"  FIRING {alert['rule']} [{where}]: "
            f"{alert['value']:.3f} > {alert['threshold']:g} "
            f"since {alert['fired_at']:.1f}s"
        )
    for transition in report.get("transitions", []):
        lines.append(
            f"  {transition['at']:7.1f}s  {transition['source']}: "
            f"{transition['from']} -> {transition['to']}"
            + (f"  ({', '.join(transition['rules'])})"
               if transition["rules"] else "")
        )
    return "\n".join(lines)


__all__ = [
    "Admission",
    "Alert",
    "DEFAULT_RULES",
    "DEGRADED",
    "HEALTHY",
    "HealthEngine",
    "HealthRule",
    "QUARANTINED",
    "SlidingWindow",
    "bucket_percentile",
    "load_rules_file",
    "render_health",
    "replay_trace",
    "rules_from_config",
]
