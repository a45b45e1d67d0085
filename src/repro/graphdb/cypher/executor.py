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

The expression evaluator lives in module-level functions shared by the
operators and the tests' brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.graphdb.cypher import ast
from repro.graphdb.cypher.lexer import CypherSyntaxError
from repro.graphdb.cypher.parser import parse
from repro.graphdb.store import Edge, Node, PropertyGraph
from repro.obs import NO_OBS, Obs
from repro.runtime.clock import Clock, REAL_CLOCK

if TYPE_CHECKING:
    from repro.graphdb.wal import Transaction


class CypherRuntimeError(ValueError):
    """Semantic error discovered during execution."""


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


Bindings = dict[str, object]


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


class CypherEngine:
    """Execute parsed Cypher against a property graph."""

    def __init__(
        self,
        graph: PropertyGraph,
        strict: bool = True,
        obs: Obs = NO_OBS,
        clock: Clock | None = None,
        database_for=None,
    ):
        self.graph = graph
        #: ``CreateQuery -> GraphDatabase``: the store that journals a
        #: CREATE.  Without one the engine sits on a bare, unjournaled
        #: graph and writes to it directly.
        self._database_for = database_for
        #: default-on semantic analysis: queries with ERROR-severity
        #: findings raise :class:`CypherAnalysisError` before execution
        self.strict = strict
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
        self._schema_cache: tuple[tuple[int, int], object] | None = None

    # -- public API -----------------------------------------------------

    def run(self, query: str, strict: bool | None = None) -> list[ResultRow]:
        """Parse, analyze (in strict mode) and execute.

        Returns result rows (empty for CREATE).  ``strict=None`` uses
        the engine default; pass ``strict=False`` for exploratory
        queries that intentionally probe labels the graph lacks.
        ``EXPLAIN``-prefixed queries return the physical plan as one
        ``plan`` row per operator instead of executing.
        ``PROFILE``-prefixed queries execute with instrumentation and
        return the data rows (row-identical to the plain query); reach
        the operator counters through :meth:`profile`.
        """
        return self.execute(self._parse(query, strict))

    def execute(self, parsed: ast.Query) -> list[ResultRow]:
        """Execute an already-parsed (and already-analyzed) query.

        A MATCH is planned and drained as one :class:`QueryTask` slice
        with no quantum.
        """
        if isinstance(parsed, ast.CreateQuery):
            self._execute_create(parsed)
            # CREATE changes the schema; drop the cached analyzer view.
            self._schema_cache = None
            return []
        if parsed.explain:
            return self.explain_rows(parsed)
        if parsed.profile:
            return self.profile_parsed(parsed).rows
        return self._task(parsed).run_to_completion()

    def plan(self, parsed: ast.MatchQuery):
        """Lower an analyzed MATCH query into a physical plan."""
        with self.obs.tracer.span("cypher.plan"):
            return build_plan(parsed, self.graph)

    def explain_rows(self, parsed: ast.MatchQuery) -> list[ResultRow]:
        """The physical plan as result rows (one ``plan`` line each)."""
        plan = self.plan(parsed)
        return [ResultRow({"plan": line}) for line in plan.explain_lines()]

    def profile(
        self,
        query: str,
        strict: bool | None = None,
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
        parsed = self._parse(query, strict)
        if not isinstance(parsed, ast.MatchQuery):
            raise CypherRuntimeError("PROFILE applies to MATCH queries only")
        return self.profile_parsed(parsed, step_cost=step_cost)

    def profile_parsed(
        self, parsed: ast.MatchQuery, step_cost: float = 0.0
    ) -> QueryProfile:
        """Profile an already-parsed (and already-analyzed) MATCH query."""
        task = self._task(
            replace(parsed, profile=True),
            ExecutionContext(clock=self.clock, step_cost=step_cost),
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
        strict: bool | None = None,
    ) -> CypherPage:
        """Execute returning at most ``page_size`` rows.

        The returned continuation resumes exactly after the last row of
        this page; feeding every page's continuation back in yields the
        same rows, in the same order, as :meth:`run`.
        """
        if page_size < 1:
            raise CypherRuntimeError("page_size must be >= 1")
        parsed = self._parse(query, strict)
        if not _is_plain_match(parsed):
            # CREATE / EXPLAIN / PROFILE: one full response, no
            # continuation -- profile counters only mean anything once
            # the query has finished
            return CypherPage(rows=self.execute(parsed))
        task = self._task(parsed)
        if continuation is not None:
            task.load(continuation)
        rows = task.fetch(page_size)
        return CypherPage(rows=rows, continuation=task.save())

    def task(
        self,
        query: str,
        context=None,
        strict: bool | None = None,
    ) -> "QueryTask":
        """A suspendable query execution for a slice-at-a-time driver.

        ``context`` is an
        :class:`~repro.graphdb.cypher.iterators.ExecutionContext`
        carrying the quantum/clock; each :meth:`QueryTask.step` runs
        one slice and the task suspends when the quantum expires.
        """
        parsed = self._parse(query, strict)
        if not _is_plain_match(parsed):
            raise CypherRuntimeError(
                "only MATCH queries can run as preemptable tasks"
            )
        return self._task(parsed, context)

    def _parse(self, query: str, strict: bool | None) -> ast.Query:
        """The entry preamble: parse, then analyze in strict mode."""
        parsed = parse(query)
        if self.strict if strict is None else strict:
            self._check(parsed, query)
        return parsed

    def _task(self, parsed: ast.MatchQuery, context=None) -> "QueryTask":
        return QueryTask(self, parsed, context or ExecutionContext())

    def analyze(self, query: str | ast.Query, source: str = ""):
        """Diagnostics for a query against this graph's schema."""
        # Imported lazily: repro.analysis.cypher_check imports the
        # parser from this package.
        from repro.analysis.cypher_check import CypherAnalyzer, schema_for

        key = (self.graph.node_count, self.graph.edge_count)
        if self._schema_cache is None or self._schema_cache[0] != key:
            self._schema_cache = (key, schema_for(self.graph))
        return CypherAnalyzer(self._schema_cache[1]).analyze(query, source)

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
        tx = self._database_for(query).begin()
        self._write_create(query, tx)
        tx.commit()

    @staticmethod
    def _write_create(
        query: ast.CreateQuery, target: "PropertyGraph | Transaction"
    ) -> None:
        """Walk the CREATE paths, creating each node once per variable."""
        bound: dict[str, int] = {}
        for path in query.paths:
            previous: int | None = None
            for index, pattern in enumerate(path.nodes):
                node = bound.get(pattern.variable) if pattern.variable else None
                if node is None:
                    created = target.create_node(
                        pattern.label or "Node", dict(pattern.properties)
                    )
                    # a graph hands back the node, a transaction the
                    # placeholder id its commit resolves
                    node = created.node_id if isinstance(created, Node) else created
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
    """One query execution: planned once, run slice by slice.

    Every MATCH runs through here.  Each :meth:`step` runs one time
    slice under the context's quantum and returns the rows produced
    before suspension; with no quantum a single slice drains the query
    (:meth:`run_to_completion`, the path behind ``CypherEngine.run``).
    :meth:`save` / :meth:`load` round-trip the whole execution state as
    a JSON-safe continuation, so a task can be resumed in a later
    request (the pagination path) or interleaved with other tasks (the
    E22 storm).  A ``PROFILE`` query builds the same plan with every
    operator instrumented (:attr:`profilers`, root-first).
    """

    def __init__(self, engine: CypherEngine, parsed: ast.MatchQuery, context):
        self.engine = engine
        self.query = parsed
        self.context = context
        self.plan = engine.plan(parsed)
        if parsed.profile:
            self.root, self.profilers = self.plan.build_profiled(
                engine.graph, context
            )
        else:
            self.root = self.plan.build(engine.graph, context)
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
            "v": 1,
            "plan": self.plan.signature(),
            "state": self.root.save(),
        }

    def load(self, continuation: dict) -> None:
        if continuation.get("plan") != self.plan.signature():
            raise CypherRuntimeError(
                "continuation does not match this query's plan"
            )
        self.root.load(continuation["state"])


# -- shared evaluator ---------------------------------------------------------
#
# Module-level so the iterator operators and the tests' oracle evaluate
# expressions identically.


def eval_expr(expr: ast.Expr, bindings: Bindings) -> object:
    # property and variable reads are nearly every evaluation: test first
    if isinstance(expr, ast.Property):
        value = bindings.get(expr.variable)
        if value is None:
            raise CypherRuntimeError(f"unbound variable {expr.variable!r}")
        if isinstance(value, (Node, Edge)):
            return value.properties.get(expr.key)
        raise CypherRuntimeError(
            f"{expr.variable!r} is not a node or relationship"
        )
    if isinstance(expr, ast.Variable):
        if expr.name not in bindings:
            raise CypherRuntimeError(f"unbound variable {expr.name!r}")
        return bindings[expr.name]
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.ListLiteral):
        return [eval_expr(item, bindings) for item in expr.items]
    if isinstance(expr, ast.And):
        return _truthy(eval_expr(expr.left, bindings)) and _truthy(
            eval_expr(expr.right, bindings)
        )
    if isinstance(expr, ast.Or):
        return _truthy(eval_expr(expr.left, bindings)) or _truthy(
            eval_expr(expr.right, bindings)
        )
    if isinstance(expr, ast.Not):
        return not _truthy(eval_expr(expr.operand, bindings))
    if isinstance(expr, ast.Compare):
        return eval_compare(expr, bindings)
    if isinstance(expr, (ast.Count, ast.Collect, ast.NumAgg)):
        raise CypherRuntimeError("aggregates are only allowed in RETURN")
    raise CypherRuntimeError(f"cannot evaluate {expr!r}")


def eval_compare(expr: ast.Compare, bindings: Bindings) -> bool:
    left = eval_expr(expr.left, bindings)
    if expr.op == "IS NULL":
        return left is None
    if expr.op == "IS NOT NULL":
        return left is not None
    right = eval_expr(expr.right, bindings)
    if expr.op == "=":
        return left == right
    if expr.op == "<>":
        return left != right
    if expr.op == "IN":
        return left in (right or [])
    if left is None or right is None:
        return False
    if expr.op == "CONTAINS":
        return str(right) in str(left)
    if expr.op == "STARTS WITH":
        return str(left).startswith(str(right))
    if expr.op == "ENDS WITH":
        return str(left).endswith(str(right))
    try:
        if expr.op == "<":
            return left < right
        if expr.op == ">":
            return left > right
        if expr.op == "<=":
            return left <= right
        if expr.op == ">=":
            return left >= right
    except TypeError as error:
        raise CypherRuntimeError(str(error)) from None
    raise CypherRuntimeError(f"unknown operator {expr.op!r}")


def eval_projected(expr: ast.Expr, row: ResultRow) -> object:
    """Evaluate an ORDER BY expression against a projected row.

    ORDER BY may reference return aliases or projected variables.
    """
    if isinstance(expr, ast.Variable) and expr.name in row.values:
        return row.values[expr.name]
    if isinstance(expr, ast.Property):
        base = row.values.get(expr.variable)
        if isinstance(base, (Node, Edge)):
            return base.properties.get(expr.key)
        alias = f"{expr.variable}.{expr.key}"
        if alias in row.values:
            return row.values[alias]
    if isinstance(expr, ast.Count):
        return row.values.get("count")
    if isinstance(expr, ast.NumAgg):
        return row.values.get(expr.func)
    if isinstance(expr, ast.Literal):
        return expr.value
    raise CypherRuntimeError(
        "ORDER BY expressions must reference returned values"
    )


def bind_node(pattern: ast.NodePattern, node: Node, bindings: Bindings) -> bool:
    """Check a node against a pattern, binding its variable on success."""
    if pattern.label and node.label != pattern.label:
        return False
    for key, value in pattern.properties:
        if node.properties.get(key) != value:
            return False
    if pattern.variable:
        existing = bindings.get(pattern.variable)
        if existing is not None:
            return isinstance(existing, Node) and existing.node_id == node.node_id
        bindings[pattern.variable] = node
    return True


def bind_rel(pattern: ast.RelPattern, edge: Edge, bindings: Bindings) -> bool:
    if pattern.rel_type and edge.type != pattern.rel_type:
        return False
    if pattern.variable:
        existing = bindings.get(pattern.variable)
        if existing is not None:
            return isinstance(existing, Edge) and existing.edge_id == edge.edge_id
        bindings[pattern.variable] = edge
    return True


# -- helpers ------------------------------------------------------------------


def _truthy(value: object) -> bool:
    return bool(value)


def reduce_collect(values: list[object], distinct: bool) -> list[object]:
    """collect() over already-evaluated values: None-skipping, optional
    dedup."""
    out: list[object] = []
    seen: list[object] = []
    for value in values:
        if value is None:
            continue
        if distinct:
            key = _hashable(value)
            if key in seen:
                continue
            seen.append(key)
        out.append(value)
    return out


def reduce_count(values: list[object], distinct: bool) -> int:
    return len(reduce_collect(values, distinct))


def reduce_numeric(func: str, values: list[object], distinct: bool) -> object:
    """avg/min/max/sum over already-evaluated values.

    ``sum([])`` is 0; the others are null on empty input.  Non-numeric
    operands surface as :class:`CypherRuntimeError`.
    """
    vals = reduce_collect(values, distinct)
    try:
        if func == "sum":
            return sum(vals)
        if not vals:
            return None
        if func == "min":
            return min(vals)
        if func == "max":
            return max(vals)
        if func == "avg":
            return sum(vals) / len(vals)
    except TypeError as error:
        raise CypherRuntimeError(str(error)) from None
    raise CypherRuntimeError(f"unknown aggregate function {func!r}")


def _contains_count(expr: ast.Expr) -> bool:
    """Whether an expression contains an aggregate."""
    if isinstance(expr, (ast.Count, ast.Collect, ast.NumAgg)):
        return True
    if isinstance(expr, (ast.And, ast.Or)):
        return _contains_count(expr.left) or _contains_count(expr.right)
    if isinstance(expr, ast.Not):
        return _contains_count(expr.operand)
    if isinstance(expr, ast.Compare):
        return _contains_count(expr.left) or (
            expr.right is not None and _contains_count(expr.right)
        )
    return False


def _hashable(value: object) -> object:
    """Grouping / DISTINCT identity of a result value.

    Nodes are the same value when their ``(label, merge_key)`` agree --
    the connector keeps that pair unique within a partition, and an
    entity that relations pulled onto several partitions must still
    group as one -- falling back to the node id without a merge key.
    """
    if isinstance(value, Node):
        merge = value.properties.get("merge_key")
        if isinstance(merge, str):
            return ("__node__", value.label, merge)
        return ("__node__", value.node_id)
    if isinstance(value, Edge):
        return ("__edge__", value.edge_id)
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    return value


def _sort_key(value: object):
    # None sorts first; ints and floats compare as numbers; everything
    # else, and any mix of types, sorts by type name then value string.
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (True, "int", value, "")
    return (value is not None, type(value).__name__, 0, str(value))


# Imported last: the planner imports the iterators, and both import the
# evaluator above (the package __init__ always loads this module first).
from repro.graphdb.cypher.iterators import (  # noqa: E402
    ExecutionContext,
    QuantumExhausted,
)
from repro.graphdb.cypher.planner import build_plan  # noqa: E402

__all__ = [
    "CypherAnalysisError",
    "CypherEngine",
    "CypherPage",
    "CypherRuntimeError",
    "CypherSyntaxError",
    "QueryTask",
    "ResultRow",
    "bind_node",
    "bind_rel",
    "eval_compare",
    "eval_expr",
    "eval_projected",
    "reduce_collect",
    "reduce_count",
    "reduce_numeric",
]
