"""Scatter-gather Cypher execution over N graph partitions.

The :class:`ShardedCypherEngine` keeps the single-engine contract --
``run(query, strict=None)`` returning :class:`ResultRow` lists with the
same DISTINCT / ORDER BY / SKIP / LIMIT semantics -- but executes in
three phases:

1. **Analyze once** against the *union* schema of every partition (plus
   the ontology), so strict mode sees the same vocabulary a
   single-partition deployment would.
2. **Scatter**: the parsed query runs on every partition with the
   gather-owned clauses stripped (ORDER BY / DISTINCT / SKIP; LIMIT is
   pushed down only when no reordering can change which rows survive).
   Aggregates are rewritten into mergeable per-partition partials:
   counts and sums stay as-is (they sum), ``avg`` becomes a
   (sum, count) partial pair, ``min``/``max`` merge directly, and
   DISTINCT aggregates -- ``count(DISTINCT ...)``, ``avg(DISTINCT
   ...)`` etc. -- ship their ``collect(DISTINCT ...)`` value sets so
   the gather side can dedupe across partitions before reducing.
3. **Gather** with canonical ordering: partition results concatenate in
   partition order, aggregate partials merge by group key and are
   finalized back to the requested aliases, then ORDER BY / DISTINCT /
   SKIP / LIMIT apply once, globally.  Seeded virtual-clock runs
   therefore produce byte-identical results.

Cross-partition entity identity: the same logical entity (one
``merge_key``) may exist on several partitions when relations pulled it
into records anchored elsewhere.  Gather-side grouping and DISTINCT
treat nodes with equal ``(label, merge_key)`` as the same value, so
entity-keyed results match the single-partition answer.

Pagination (:meth:`ShardedCypherEngine.run_paginated`) serves
streaming queries (no aggregate / ORDER BY / DISTINCT) partition by
partition with each partition's scan suspended via its preemptable
:class:`~repro.graphdb.cypher.executor.QueryTask` continuation;
blocking queries fall back to a gather-then-offset continuation.
"""

from __future__ import annotations

from dataclasses import replace

from repro.graphdb.cypher import ast
from repro.graphdb.cypher.executor import (
    CypherAnalysisError,
    CypherEngine,
    CypherPage,
    CypherRuntimeError,
    QueryProfile,
    QueryTask,
    ResultRow,
    _contains_count,
    _is_plain_match,
    _sort_key,
    eval_projected,
    reduce_numeric,
)
from repro.graphdb.cypher.iterators import ExecutionContext
from repro.graphdb.cypher.parser import parse
from repro.graphdb.store import Edge, Node
from repro.sharding.router import ShardRouter


def _gather_key(value: object) -> object:
    """Partition-independent identity for gather-side grouping.

    Nodes compare by ``(label, merge_key)`` when a merge key exists (the
    connector stamps one on every entity node), falling back to the
    globally-unique node id; everything else matches the single-engine
    ``_hashable`` semantics.
    """
    if isinstance(value, Node):
        merge = value.properties.get("merge_key")
        if isinstance(merge, str):
            return ("__node__", value.label, merge)
        return ("__node__", value.node_id)
    if isinstance(value, Edge):
        return ("__edge__", value.edge_id)
    if isinstance(value, list):
        return tuple(_gather_key(v) for v in value)
    return value


def _dedupe(values: list[object]) -> list[object]:
    """Order-preserving dedup by gather key (collect(DISTINCT ...))."""
    seen: list[object] = []
    out: list[object] = []
    for value in values:
        key = _gather_key(value)
        if key in seen:
            continue
        seen.append(key)
        out.append(value)
    return out


def _localize_returns(
    returns: list[ast.ReturnItem],
) -> tuple[list[ast.ReturnItem], list[tuple[str, ast.ReturnItem, list[tuple[str, str]]]]]:
    """Rewrite RETURN items into mergeable per-partition partials.

    Returns ``(local_items, specs)``: the items each partition
    evaluates, and per original item a ``(kind, item, partials)`` spec
    where ``partials`` lists ``(local_alias, merge_op)`` pairs driving
    the gather-side merge.  Partial-only aliases are ``#``-prefixed so
    they can never collide with parsed aliases.
    """
    local_items: list[ast.ReturnItem] = []
    specs: list[tuple[str, ast.ReturnItem, list[tuple[str, str]]]] = []
    for item in returns:
        expr = item.expr
        if not _contains_count(expr):
            local_items.append(item)
            specs.append(("group", item, []))
        elif isinstance(expr, ast.Count) and expr.distinct and expr.operand is not None:
            # partitions may have seen overlapping values: ship the
            # distinct value sets and dedupe across partitions
            local_items.append(
                ast.ReturnItem(ast.Collect(expr.operand, distinct=True), item.alias)
            )
            specs.append(("count_distinct", item, [(item.alias, "concat")]))
        elif isinstance(expr, ast.Count):
            local_items.append(item)
            specs.append(("passthrough", item, [(item.alias, "sum")]))
        elif isinstance(expr, ast.Collect):
            local_items.append(item)
            specs.append(("collect", item, [(item.alias, "concat")]))
        elif isinstance(expr, ast.NumAgg) and expr.distinct:
            local_items.append(
                ast.ReturnItem(ast.Collect(expr.operand, distinct=True), item.alias)
            )
            specs.append(("numagg_distinct", item, [(item.alias, "concat")]))
        elif isinstance(expr, ast.NumAgg) and expr.func == "avg":
            sum_alias = f"#{item.alias}#sum"
            n_alias = f"#{item.alias}#n"
            local_items.append(
                ast.ReturnItem(ast.NumAgg("sum", expr.operand), sum_alias)
            )
            local_items.append(ast.ReturnItem(ast.Count(expr.operand), n_alias))
            specs.append(("avg", item, [(sum_alias, "sum"), (n_alias, "sum")]))
        elif isinstance(expr, ast.NumAgg) and expr.func in ("min", "max"):
            local_items.append(item)
            specs.append(("passthrough", item, [(item.alias, expr.func)]))
        elif isinstance(expr, ast.NumAgg) and expr.func == "sum":
            local_items.append(item)
            specs.append(("passthrough", item, [(item.alias, "sum")]))
        else:
            raise CypherRuntimeError(f"unsupported aggregate expression: {expr}")
    return local_items, specs


def _execute_local(_index, engine: CypherEngine, local: ast.MatchQuery):
    return engine.execute(local)


class ShardedCypherEngine:
    """The Cypher facade over several partitions.

    Holds one per-partition :class:`CypherEngine` (strictness disabled
    on the partitions -- analysis happens once here, against the union
    schema).  Scatter-gather is the only path here; a single-partition
    :class:`~repro.sharding.shards.ShardSet` answers from its
    partition's own engine instead (``ShardSet.cypher``).
    """

    def __init__(self, engines: list[CypherEngine], strict: bool = True):
        if not engines:
            raise ValueError("at least one partition engine is required")
        self._engines = list(engines)
        self.strict = strict
        self._schema_cache: tuple[tuple, object] | None = None

    # -- analysis ------------------------------------------------------

    def analyze(self, query: str | ast.Query, source: str = ""):
        """Diagnostics against the union of every partition's schema."""
        from repro.analysis.cypher_check import (
            CypherAnalyzer,
            graph_schema,
            ontology_schema,
        )

        key = tuple(
            (engine.graph.node_count, engine.graph.edge_count)
            for engine in self._engines
        )
        if self._schema_cache is None or self._schema_cache[0] != key:
            schema = ontology_schema()
            for engine in self._engines:
                schema = schema.merged_with(graph_schema(engine.graph))
            self._schema_cache = (key, schema)
        return CypherAnalyzer(self._schema_cache[1]).analyze(query, source)

    def _check(self, parsed: ast.Query, source: str) -> None:
        from repro.analysis.diagnostics import errors

        failures = errors(self.analyze(parsed, source))
        if failures:
            raise CypherAnalysisError(failures, source)

    # -- execution -----------------------------------------------------

    def run(self, query: str, strict: bool | None = None) -> list[ResultRow]:
        return self._execute(self._parse(query, strict))

    def _parse(self, query: str, strict: bool | None) -> ast.Query:
        """The entry preamble: parse, then analyze in strict mode."""
        parsed = parse(query)
        if self.strict if strict is None else strict:
            self._check(parsed, query)
        return parsed

    def _execute(self, parsed: ast.Query) -> list[ResultRow]:
        if isinstance(parsed, ast.CreateQuery):
            return self._engines[self._create_target(parsed)].execute(parsed)
        if parsed.explain:
            # plan shapes agree across partitions (estimates may not);
            # partition 0's plan stands for the scatter
            return self._engines[0].explain_rows(parsed)
        if parsed.profile:
            return self._profile_parsed(parsed).rows
        return self._scatter_match(parsed)

    def profile(
        self,
        query: str,
        strict: bool | None = None,
        step_cost: float = 0.0,
    ) -> QueryProfile:
        """Profile a MATCH query across every partition.

        Each partition executes its localized query under per-operator
        instrumentation (the per-partition operator trees land in
        :attr:`QueryProfile.partitions`) and the gather side reports as
        a synthetic ``Gather`` root whose self time is the merge /
        sort / dedup work done here.
        """
        parsed = self._parse(query, strict)
        if not isinstance(parsed, ast.MatchQuery):
            raise CypherRuntimeError("PROFILE applies to MATCH queries only")
        return self._profile_parsed(parsed, step_cost=step_cost)

    def _profile_parsed(
        self, parsed: ast.MatchQuery, step_cost: float = 0.0
    ) -> QueryProfile:
        subprofiles: dict[str, list[dict]] = {}

        def profiled_execute(index, engine, local):
            sub = engine.profile_parsed(local, step_cost=step_cost)
            subprofiles[str(index)] = sub.operators
            return sub.rows

        clock = self._engines[0].clock
        started = clock.now()
        rows = self._scatter_match(parsed, execute=profiled_execute)
        elapsed = max(0.0, clock.now() - started)
        scatter_s = sum(
            ops[0]["cumulative_s"] for ops in subprofiles.values() if ops
        )
        gather = {
            "operator": "Gather",
            "detail": f"{len(self._engines)} partitions",
            "rows": len(rows),
            "calls": len(self._engines),
            "cumulative_s": elapsed,
            "self_s": max(0.0, elapsed - scatter_s),
        }
        return QueryProfile(
            rows=rows, operators=[gather], partitions=subprofiles
        )

    def run_paginated(
        self,
        query: str,
        page_size: int,
        continuation: dict | None = None,
        strict: bool | None = None,
    ) -> CypherPage:
        """Preemptable, paged execution across every partition.

        Streaming queries (no aggregate, ORDER BY or DISTINCT) are
        served partition by partition: the active partition's scan is a
        :class:`QueryTask` whose save/load continuation rides inside
        this engine's continuation, so no partition scans past the
        requested page.  Blocking queries gather once per page and
        resume by offset.
        """
        if page_size < 1:
            raise CypherRuntimeError("page_size must be >= 1")
        parsed = self._parse(query, strict)
        if not _is_plain_match(parsed):
            # CREATE / EXPLAIN / PROFILE: one full response, no continuation
            return CypherPage(rows=self._execute(parsed))
        has_aggregate = any(
            _contains_count(item.expr) for item in parsed.returns
        )
        if has_aggregate or parsed.order_by or parsed.distinct:
            return self._paginate_blocking(parsed, page_size, continuation)
        return self._paginate_streaming(parsed, page_size, continuation)

    def _paginate_blocking(
        self, parsed: ast.MatchQuery, page_size: int, continuation: dict | None
    ) -> CypherPage:
        state = continuation or {"mode": "offset", "offset": 0}
        if state.get("mode") != "offset":
            raise CypherRuntimeError(
                "continuation does not match this query's execution mode"
            )
        offset = int(state["offset"])
        rows = self._scatter_match(parsed)
        page = rows[offset : offset + page_size]
        end = offset + len(page)
        return CypherPage(
            rows=page,
            continuation=(
                {"mode": "offset", "offset": end} if end < len(rows) else None
            ),
        )

    def _paginate_streaming(
        self, parsed: ast.MatchQuery, page_size: int, continuation: dict | None
    ) -> CypherPage:
        state = continuation or {
            "mode": "scan", "part": 0, "cont": None, "skipped": 0, "emitted": 0,
        }
        if state.get("mode") != "scan":
            raise CypherRuntimeError(
                "continuation does not match this query's execution mode"
            )
        # SKIP/LIMIT are global: strip them from the per-partition scan
        # and account across partitions via continuation counters.
        local = replace(
            parsed, skip=None, limit=None, explain=False, profile=False
        )
        part = int(state["part"])
        cont = state["cont"]
        skipped = int(state["skipped"])
        emitted = int(state["emitted"])
        to_skip = max((parsed.skip or 0) - skipped, 0)
        rows: list[ResultRow] = []
        while part < len(self._engines) and len(rows) < page_size:
            if parsed.limit is not None and emitted >= parsed.limit:
                break
            want = page_size - len(rows)
            if parsed.limit is not None:
                want = min(want, parsed.limit - emitted)
            task = QueryTask(self._engines[part], local, ExecutionContext())
            if cont is not None:
                task.load(cont)
            fetched = task.fetch(want + to_skip)
            if to_skip:
                dropped = min(to_skip, len(fetched))
                fetched = fetched[dropped:]
                to_skip -= dropped
                skipped += dropped
            rows.extend(fetched)
            emitted += len(fetched)
            cont = task.save()
            if cont is None:
                part += 1
        done = part >= len(self._engines) or (
            parsed.limit is not None and emitted >= parsed.limit
        )
        return CypherPage(
            rows=rows,
            continuation=None if done else {
                "mode": "scan",
                "part": part,
                "cont": cont,
                "skipped": skipped,
                "emitted": emitted,
            },
        )

    def _create_target(self, parsed: ast.CreateQuery) -> int:
        """Route a CREATE to the partition owning its first node's
        entity key (deterministic; partition 0 when nameless)."""
        router = ShardRouter(len(self._engines))
        first = parsed.paths[0].nodes[0]
        props = dict(first.properties)
        name = props.get("name") or props.get("merge_key")
        if isinstance(name, str) and name:
            return router.partition_for_entity(first.label or "Node", name)
        return 0

    def _scatter_match(
        self, query: ast.MatchQuery, execute=_execute_local
    ) -> list[ResultRow]:
        """Scatter ``query`` and gather with canonical ordering.

        ``execute(index, engine, local)`` runs the localized query on
        one partition and returns its rows; the PROFILE path injects an
        instrumented executor that also collects per-partition operator
        counters.
        """
        has_aggregate = any(_contains_count(item.expr) for item in query.returns)
        local_limit = None
        if (
            not has_aggregate
            and not query.order_by
            and not query.distinct
            and query.limit is not None
        ):
            # no reordering/dedup downstream: each partition can stop
            # after the rows that could possibly survive skip+limit
            local_limit = (query.skip or 0) + query.limit
        if has_aggregate:
            local_returns, specs = _localize_returns(query.returns)
            local = replace(
                query,
                returns=local_returns,
                distinct=False,
                order_by=[],
                skip=None,
                limit=None,
                profile=False,
            )
            per_partition = [
                execute(index, engine, local)
                for index, engine in enumerate(self._engines)
            ]
            rows = self._merge_aggregates(specs, per_partition)
        else:
            local = replace(
                query,
                distinct=False,
                order_by=[],
                skip=None,
                limit=local_limit,
                profile=False,
            )
            per_partition = [
                execute(index, engine, local)
                for index, engine in enumerate(self._engines)
            ]
            rows = [row for partial in per_partition for row in partial]

        for expr, ascending in reversed(query.order_by):
            # gather-side ordering resolves against projected values
            # only (per-partition bindings are gone); eval_projected
            # raises the canonical "must reference returned values"
            # error otherwise
            rows.sort(
                key=lambda row: _sort_key(eval_projected(expr, row)),
                reverse=not ascending,
            )
        if query.distinct:
            rows = self._distinct(rows)
        if query.skip:
            rows = rows[query.skip :]
        if query.limit is not None:
            rows = rows[: query.limit]
        return rows

    def _merge_aggregates(
        self,
        specs: list[tuple[str, ast.ReturnItem, list[tuple[str, str]]]],
        per_partition: list[list[ResultRow]],
    ) -> list[ResultRow]:
        """Merge per-partition aggregate partials by group key.

        Counts and sums add (a source row contributes to exactly one
        partition's partial), min/max fold, collects concatenate in
        partition order, and group values keep the first partition's
        representative.  DISTINCT aggregates arrive as per-partition
        distinct value lists; finalization dedupes them across
        partitions by gather key before reducing.
        """
        group_aliases = [
            item.alias for kind, item, _p in specs if kind == "group"
        ]
        mergers = [
            (alias, op) for _kind, _item, partials in specs
            for alias, op in partials
        ]
        merged: dict[tuple, dict] = {}
        for partial in per_partition:
            for row in partial:
                key = tuple(
                    _gather_key(row.values[alias]) for alias in group_aliases
                )
                base = merged.get(key)
                if base is None:
                    merged[key] = dict(row.values)
                    continue
                for alias, op in mergers:
                    if op == "sum":
                        base[alias] = (base[alias] or 0) + (
                            row.values[alias] or 0
                        )
                    elif op == "concat":
                        base[alias] = list(base[alias]) + list(
                            row.values[alias]
                        )
                    else:  # min / max, None-skipping
                        folded = [
                            v
                            for v in (base[alias], row.values[alias])
                            if v is not None
                        ]
                        base[alias] = (
                            (min(folded) if op == "min" else max(folded))
                            if folded
                            else None
                        )
        return [self._finalize(values, specs) for values in merged.values()]

    @staticmethod
    def _finalize(
        values: dict,
        specs: list[tuple[str, ast.ReturnItem, list[tuple[str, str]]]],
    ) -> ResultRow:
        """Merged partials back to the requested aliases, in order."""
        out: dict[str, object] = {}
        for kind, item, partials in specs:
            alias = item.alias
            if kind in ("group", "passthrough"):
                out[alias] = values[alias]
            elif kind == "count_distinct":
                out[alias] = len(_dedupe(values[alias]))
            elif kind == "collect":
                merged = values[alias]
                out[alias] = (
                    _dedupe(merged) if item.expr.distinct else merged
                )
            elif kind == "numagg_distinct":
                out[alias] = reduce_numeric(
                    item.expr.func, _dedupe(values[alias]), False
                )
            else:  # avg: sum partial / count partial
                total = values[partials[0][0]]
                count = values[partials[1][0]]
                out[alias] = (total / count) if count else None
        return ResultRow(out)

    @staticmethod
    def _distinct(rows: list[ResultRow]) -> list[ResultRow]:
        seen: list[object] = []
        out: list[ResultRow] = []
        for row in rows:
            key = tuple(
                sorted((k, _gather_key(v)) for k, v in row.values.items())
            )
            if key in seen:
                continue
            seen.append(key)
            out.append(row)
        return out


__all__ = ["ShardedCypherEngine"]
