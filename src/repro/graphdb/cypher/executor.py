"""Cypher query execution.

One execution model: every MATCH is lowered by
:mod:`repro.graphdb.cypher.planner` into a tree of resumable iterators
(:mod:`repro.graphdb.cypher.iterators`) and drained by a
:class:`QueryTask`.  The tree suspends after a time quantum on the
injected clock and resumes from a JSON-safe continuation -- the SaGe
web-preemption model, which is what lets the UI server page results and
serve many concurrent queries with bounded per-slice latency.  Running
to completion (:meth:`CypherEngine.run`) is the same drain with no
quantum: a single slice.  ``PROFILE`` is the same drain again with each
operator wrapped in a counter.

Pattern matching anchors each path at its cheapest node pattern
(property-indexed lookup beats label scan beats full scan) and expands
along relationship patterns using adjacency lists; WHERE conjuncts
filter as early as their variables are bound, RETURN projects,
aggregates group over the non-aggregated items, then ORDER BY /
DISTINCT / SKIP / LIMIT apply in that order.

Every entry point starts with :meth:`CypherEngine._prepare`: a bounded
map from query text to the parsed query (valid forever), the
strict-analysis verdict and the compiled physical plan (both valid for
one graph version), so a repeated query is parsed, analysed and planned
once per state of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.graphdb.cypher import ast
from repro.graphdb.cypher.compiler import CypherRuntimeError
from repro.graphdb.cypher.iterators import ExecutionContext, QuantumExhausted
from repro.graphdb.cypher.lexer import CypherSyntaxError
from repro.graphdb.cypher.parser import parse
from repro.graphdb.cypher.planner import PhysicalPlan, build_plan
from repro.graphdb.store import PropertyGraph
from repro.obs import NO_OBS, Obs
from repro.runtime.clock import Clock, REAL_CLOCK
from repro.runtime.locks import named_lock

if TYPE_CHECKING:
    from repro.graphdb.wal import GraphDatabase

#: Most query texts the engine keeps prepared; the oldest is dropped for
#: a new one.  A serving mix repeats a few hundred texts (point lookups
#: differ in one literal), so this holds a working set at a few KB each.
PREPARED_CAP = 512

#: Format of a :meth:`QueryTask.save` continuation.  2: an aggregation
#: carries running state per group, not the operand values (1).
CONTINUATION_VERSION = 2


class CypherAnalysisError(CypherRuntimeError):
    """Semantic errors caught by static analysis, before execution.

    Subclasses :class:`CypherRuntimeError` so callers that treat all
    semantic failures alike keep working; carries the structured
    diagnostics for callers (CLI, UI server) that render them.
    """

    def __init__(self, diagnostics, source: str):
        from repro.analysis.diagnostics import render

        super().__init__(render(source, diagnostics))
        self.diagnostics = list(diagnostics)
        self.source = source


@dataclass
class ResultRow:
    """One row of a query result: alias -> value."""

    values: dict[str, object]

    def __getitem__(self, alias: str) -> object:
        return self.values[alias]

    def keys(self):
        return self.values.keys()


@dataclass
class CypherPage:
    """One page of a paginated query: rows plus a resume continuation.

    ``continuation`` is a JSON-safe dict (``None`` when the query is
    exhausted); callers that need an opaque wire token encode it
    themselves (the UI server base64s it with a query fingerprint).
    """

    rows: list[ResultRow]
    continuation: dict | None = None


@dataclass
class QueryProfile:
    """The result of a ``PROFILE`` query: rows plus operator counters.

    ``operators`` lists the linear plan root-first, one dict per
    operator: ``operator``, ``detail``, ``rows`` produced, ``calls``
    (``next()`` invocations), ``cumulative_s`` (clock seconds inside
    the operator including its child) and ``self_s`` (cumulative minus
    the child's cumulative).

    The profiled execution drains the same plan as the unprofiled
    query, so ``rows`` is row-identical to it.
    """

    rows: list[ResultRow]
    operators: list[dict]

    def lines(self) -> list[str]:
        """Annotated operator tree, EXPLAIN-style indentation."""
        lines = []
        for depth, op in enumerate(self.operators):
            head = f"{op['operator']} {op['detail']}".rstrip()
            lines.append(
                "  " * depth + head
                + f"  (rows={op['rows']} calls={op['calls']} "
                f"self={op['self_s']:.6f}s total={op['cumulative_s']:.6f}s)"
            )
        return lines

    def to_dict(self) -> dict:
        """JSON-safe rendering for the UI server and CLI ``--json``."""
        return {"rows": len(self.rows), "operators": self.operators}


def _operator_stats(profilers) -> list[dict]:
    """Root-first counter dicts with self time from cumulative times.

    The plan is a linear chain, so an operator's only child is the
    next entry; its self time is the cumulative difference (clamped at
    zero -- a parent can observe slightly less than its child charges
    when ``step_cost`` ticks fire inside the child's ``next``).
    """
    stats = [profiler.stats() for profiler in profilers]
    for index, entry in enumerate(stats):
        child_s = (
            stats[index + 1]["cumulative_s"] if index + 1 < len(stats) else 0.0
        )
        entry["self_s"] = max(0.0, entry["cumulative_s"] - child_s)
    return stats


@dataclass(frozen=True)
class _Prepared:
    """What the engine keeps per query text.  Never mutated: a newer
    graph version replaces the entry."""

    parsed: ast.Query
    #: the graph version ``checked`` and ``plan`` were derived at
    version: int
    #: strict analysis ran at ``version`` and found no error
    checked: bool
    #: the compiled physical plan; ``None`` for a CREATE
    plan: PhysicalPlan | None


class CypherEngine:
    """Execute parsed Cypher against a property graph."""

    def __init__(
        self,
        graph: PropertyGraph,
        obs: Obs = NO_OBS,
        clock: Clock | None = None,
        database_for=None,
    ):
        self.graph = graph
        #: ``CreateQuery -> GraphDatabase``: the store that journals a
        #: CREATE.  Without one the engine sits on a bare, unjournaled
        #: graph and writes to it directly.
        self._database_for = database_for
        #: observability bundle (``cypher.plan`` / ``cypher.slice``
        #: spans, slice counters); the no-op default is free
        self.obs = obs
        #: timestamp source for PROFILE operator timing; falls back to
        #: the tracer's clock so a virtual-clock deployment profiles on
        #: its own timeline without extra plumbing
        self.clock = (
            clock
            if clock is not None
            else getattr(obs.tracer, "clock", None) or REAL_CLOCK
        )
        #: the analyzer's view of the graph, and the version it is of
        self._schema: tuple[int, object] | None = None
        #: query text -> :class:`_Prepared`, at most ``PREPARED_CAP``.
        #: Lookups take no lock (a dict read is atomic and entries are
        #: immutable); an insert, which checks the cap, evicts and
        #: stores in one step, does.
        self._prepared: dict[str, _Prepared] = {}
        self._prepared_lock = named_lock("cypher.prepared")

    # -- public API -----------------------------------------------------

    def run(self, query: str, strict: bool = True) -> list[ResultRow]:
        """Parse, analyze (in strict mode) and execute.

        Returns result rows (empty for CREATE).  Strict semantic
        analysis is on by default: a query with ERROR-severity findings
        raises :class:`CypherAnalysisError` before execution.  Pass
        ``strict=False`` for exploratory queries that intentionally
        probe labels the graph lacks.
        ``EXPLAIN``-prefixed queries return the physical plan as one
        ``plan`` row per operator instead of executing.
        ``PROFILE``-prefixed queries execute with instrumentation and
        return the data rows (row-identical to the plain query); reach
        the operator counters through :meth:`profile`.
        """
        return self._execute(self._prepare(query, strict))

    def _execute(self, prepared: _Prepared) -> list[ResultRow]:
        """CREATE / EXPLAIN / PROFILE dispatch; a plain MATCH is drained
        as one :class:`QueryTask` slice with no quantum."""
        parsed = prepared.parsed
        if isinstance(parsed, ast.CreateQuery):
            self._execute_create(parsed)
            return []
        if parsed.explain:
            return [
                ResultRow({"plan": line})
                for line in prepared.plan.explain_lines()
            ]
        if parsed.profile:
            return self._profile(prepared.plan).rows
        return QueryTask(self, prepared.plan).run_to_completion()

    def plan(self, parsed: ast.MatchQuery) -> PhysicalPlan:
        """Lower an analyzed MATCH query into a compiled physical plan."""
        with self.obs.tracer.span("cypher.plan"):
            return build_plan(parsed, self.graph)

    def profile(
        self,
        query: str,
        strict: bool = True,
        step_cost: float = 0.0,
    ) -> QueryProfile:
        """Execute with per-operator instrumentation.

        The plan is instantiated with every operator wrapped in a
        :class:`~repro.graphdb.cypher.iterators.ProfiledOp` and run to
        completion; the result carries the data rows *and* per-operator
        rows/calls/seconds.  ``step_cost`` charges virtual seconds per
        safe-point tick, giving virtual-clock profiles deterministic
        nonzero timings.  The ``PROFILE`` keyword prefix is optional
        here -- this entry point always profiles.
        """
        prepared = self._prepare(query, strict)
        if prepared.plan is None:
            raise CypherRuntimeError("PROFILE applies to MATCH queries only")
        return self._profile(prepared.plan, step_cost)

    def _profile(self, plan: PhysicalPlan, step_cost: float = 0.0) -> QueryProfile:
        task = QueryTask(
            self,
            plan,
            ExecutionContext(clock=self.clock, step_cost=step_cost),
            profile=True,
        )
        with self.obs.tracer.span("cypher.profile") as span:
            rows = task.run_to_completion()
            span.set("operators", len(task.profilers))
            span.set("rows", len(rows))
        self.obs.metrics.inc("cypher.profiled")
        return QueryProfile(
            rows=rows, operators=_operator_stats(task.profilers)
        )

    def run_paginated(
        self,
        query: str,
        page_size: int,
        continuation: dict | None = None,
        strict: bool = True,
    ) -> CypherPage:
        """Execute returning at most ``page_size`` rows.

        The returned continuation resumes exactly after the last row of
        this page; feeding every page's continuation back in yields the
        same rows, in the same order, as :meth:`run`.
        """
        if page_size < 1:
            raise CypherRuntimeError("page_size must be >= 1")
        prepared = self._prepare(query, strict)
        if not _is_plain_match(prepared.parsed):
            # CREATE / EXPLAIN / PROFILE: one full response, no
            # continuation -- profile counters only mean anything once
            # the query has finished
            return CypherPage(rows=self._execute(prepared))
        task = QueryTask(self, prepared.plan)
        if continuation is not None:
            task.load(continuation)
        rows = task.fetch(page_size)
        return CypherPage(rows=rows, continuation=task.save())

    def task(
        self,
        query: str,
        context=None,
        strict: bool = True,
    ) -> "QueryTask":
        """A suspendable query execution for a slice-at-a-time driver.

        ``context`` is an
        :class:`~repro.graphdb.cypher.iterators.ExecutionContext`
        carrying the quantum/clock; each :meth:`QueryTask.step` runs
        one slice and the task suspends when the quantum expires.
        """
        prepared = self._prepare(query, strict)
        if not _is_plain_match(prepared.parsed):
            raise CypherRuntimeError(
                "only MATCH queries can run as preemptable tasks"
            )
        return QueryTask(self, prepared.plan, context)

    def _prepare(self, query: str, strict: bool) -> _Prepared:
        """The entry preamble: the parsed query, analysed (in strict
        mode) and planned against the graph as it is now.

        Whatever of that an earlier call already derived is reused: the
        parse always, the verdict and the plan while the graph version
        they were derived at is the current one.  A query that fails to
        parse, analyse or plan raises and leaves no entry, so it is
        judged afresh next time.
        """
        # read before anything is derived: a write landing meanwhile
        # leaves the entry stamped older than the graph, so it is rebuilt
        version = self.graph.version
        known = self._prepared.get(query)
        current = known is not None and known.version == version
        metrics = self.obs.metrics
        if current and (known.checked or not strict):
            metrics.inc("cypher.prepared", outcome="hit")
            return known
        parsed = parse(query) if known is None else known.parsed
        if strict:
            self._check(parsed, query)
        if current:
            plan = known.plan
        elif isinstance(parsed, ast.MatchQuery):
            plan = self.plan(parsed)
        else:
            plan = None
        entry = _Prepared(parsed, version, strict, plan)
        with self._prepared_lock:
            # asked of the map as it is now, not as ``known`` saw it: a
            # racing thread may have stored or evicted this text since
            if (
                query not in self._prepared
                and len(self._prepared) >= PREPARED_CAP
            ):
                del self._prepared[next(iter(self._prepared))]
            self._prepared[query] = entry
            entries = len(self._prepared)
        metrics.inc(
            "cypher.prepared",
            outcome="miss" if known is None or current else "invalidated",
        )
        metrics.set_gauge("cypher.prepared_entries", entries)
        return entry

    def analyze(self, query: str | ast.Query, source: str = ""):
        """Diagnostics for a query against this graph's schema."""
        # Imported lazily: repro.analysis.cypher_check imports the
        # parser from this package.
        from repro.analysis.cypher_check import CypherAnalyzer, schema_for

        version = self.graph.version
        schema = self._schema
        if schema is None or schema[0] != version:
            schema = self._schema = (version, schema_for(self.graph))
        return CypherAnalyzer(schema[1]).analyze(query, source)

    def _check(self, parsed: ast.Query, source: str) -> None:
        from repro.analysis.diagnostics import errors

        failures = errors(self.analyze(parsed, source))
        if failures:
            raise CypherAnalysisError(failures, source)

    # -- CREATE ------------------------------------------------------------

    def _execute_create(self, query: ast.CreateQuery) -> None:
        if self._database_for is None:
            self._write_create(query, self.graph)
            return
        # one transaction, one journal record: the created subgraph is
        # replayed on recovery like any connector write
        database = self._database_for(query)
        with database.engine.transaction():
            self._write_create(query, database)

    @staticmethod
    def _write_create(
        query: ast.CreateQuery, target: "PropertyGraph | GraphDatabase"
    ) -> None:
        """Walk the CREATE paths, creating each node once per variable:
        on the bare graph, or through the database that journals it."""
        bound: dict[str, int] = {}
        for path in query.paths:
            previous: int | None = None
            for index, pattern in enumerate(path.nodes):
                node = bound.get(pattern.variable) if pattern.variable else None
                if node is None:
                    node = target.create_node(
                        pattern.label or "Node", dict(pattern.properties)
                    ).node_id
                    if pattern.variable:
                        bound[pattern.variable] = node
                if index > 0:
                    rel = path.rels[index - 1]
                    src, dst = (
                        (node, previous) if rel.direction == "in" else (previous, node)
                    )
                    target.create_edge(src, rel.rel_type or "RELATED_TO", dst)
                previous = node


def _is_plain_match(parsed: ast.Query) -> bool:
    return (
        isinstance(parsed, ast.MatchQuery)
        and not parsed.explain
        and not parsed.profile
    )


class QueryTask:
    """One query execution: a prepared :class:`PhysicalPlan`, run slice
    by slice.

    Every MATCH runs through here.  Each :meth:`step` runs one time
    slice under the context's quantum and returns the rows produced
    before suspension; with no quantum a single slice drains the query
    (:meth:`run_to_completion`, the path behind ``CypherEngine.run``).
    :meth:`save` / :meth:`load` round-trip the whole execution state as
    a JSON-safe continuation, so a task can be resumed in a later
    request (the pagination path) or interleaved with other tasks (the
    E22 storm).  With ``profile`` the same plan is built with every
    operator instrumented (:attr:`profilers`, root-first).
    """

    def __init__(
        self,
        engine: CypherEngine,
        # a PhysicalPlan; left unannotated because the concurrency
        # analyzer, once it can type ``self.root``, follows a served
        # query from ``ui.explorer`` to ``ExecutionContext.tick`` and
        # reports its ``step_cost`` charge -- 0 on that path -- as a
        # sleep under the lock (ROADMAP item 4 moves queries out of it)
        plan,
        context: ExecutionContext | None = None,
        profile: bool = False,
    ):
        self.engine = engine
        self.plan = plan
        self.context = context or ExecutionContext()
        if profile:
            self.root, self.profilers = plan.build_profiled(
                engine.graph, self.context
            )
        else:
            self.root = plan.build(engine.graph, self.context)
            self.profilers = []
        self.done = False

    def step(self, max_rows: int | None = None) -> list[ResultRow]:
        """Run one slice; returns rows produced before the quantum expired."""
        obs = self.engine.obs
        rows: list[ResultRow] = []
        with obs.tracer.span("cypher.slice"):
            obs.metrics.inc("cypher.slices")
            self.context.begin_slice()
            try:
                while not self.done and (
                    max_rows is None or len(rows) < max_rows
                ):
                    row = self.root.next()
                    if row is None:
                        self.done = True
                        break
                    rows.append(ResultRow(row))
            except QuantumExhausted:
                obs.metrics.inc("cypher.suspended")
        return rows

    def fetch(self, count: int) -> list[ResultRow]:
        """Rows until ``count`` are gathered or the query is exhausted."""
        rows: list[ResultRow] = []
        while len(rows) < count and not self.done:
            rows.extend(self.step(max_rows=count - len(rows)))
        return rows

    def run_to_completion(self) -> list[ResultRow]:
        rows: list[ResultRow] = []
        while not self.done:
            rows.extend(self.step())
        return rows

    def save(self) -> dict | None:
        """JSON-safe continuation, or ``None`` once exhausted."""
        if self.done:
            return None
        return {
            "v": CONTINUATION_VERSION,
            "plan": self.plan.signature(),
            "state": self.root.save(),
        }

    def load(self, continuation: dict) -> None:
        if (
            continuation.get("v") != CONTINUATION_VERSION
            or continuation.get("plan") != self.plan.signature()
        ):
            raise CypherRuntimeError(
                "continuation does not match this query's plan"
            )
        try:
            self.root.load(continuation["state"])
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            # a token that signs this plan but holds state no operator
            # could have saved: refuse it here, not mid-query
            raise CypherRuntimeError("malformed continuation") from None


__all__ = [
    "CypherAnalysisError",
    "CypherEngine",
    "CypherPage",
    "CypherRuntimeError",
    "CypherSyntaxError",
    "PREPARED_CAP",
    "QueryTask",
    "ResultRow",
]
