"""Cost-based lowering of MATCH queries into physical operator plans.

The planner turns an analyzed :class:`~repro.graphdb.cypher.ast.MatchQuery`
into a tree of the resumable operators in
:mod:`repro.graphdb.cypher.iterators`:

* **Access-path selection** -- each path pattern is anchored at its
  cheapest node pattern under store-backed cardinality estimates:
  a (label, key, value) index bucket beats a label scan beats a full
  scan, and a variable already bound by an earlier path is free.
* **Join reordering** -- path patterns execute connected-first and
  cheapest-first rather than in query order (results are re-ordered by
  ORDER BY or treated as multisets, matching Cypher's unordered
  semantics).
* **Filter pushdown** -- WHERE splits into conjuncts, each evaluated at
  the earliest operator where all its variables are bound.
* **Limit pushdown** -- the lazy pull pipeline stops producing once
  LIMIT is satisfied, so upstream scans never run to completion.
* **Count pushdown** -- a path's last hop whose far endpoint (and
  relationship variable) nothing reads but a non-``DISTINCT`` count is
  counted per row (``ExpandCount``), not enumerated row by row: the
  aggregate adds the count instead of folding that many equal rows.
  Among anchors of equal cost the one that leaves such a hop wins.
* **Compilation** -- every pattern test, WHERE conjunct, RETURN item,
  aggregate and ORDER BY key is lowered to a closure
  (:mod:`repro.graphdb.cypher.compiler`) here, once; instantiating the
  plan for an execution compiles nothing.

``EXPLAIN <query>`` surfaces :meth:`PhysicalPlan.explain_lines`; the
plan :meth:`~PhysicalPlan.signature` (structure only, estimates
excluded) is embedded in pagination continuations so a token minted
against one plan shape is rejected instead of silently resuming a
different one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from operator import itemgetter

from repro.graphdb.cypher import ast
from repro.graphdb.cypher.compiler import (
    AGGREGATES,
    CypherRuntimeError,
    compile_aggregate,
    compile_expr,
    compile_node_match,
    compile_order_key,
    compile_predicate,
    contains_aggregate,
)
from repro.graphdb.cypher.iterators import (
    AggregateOp,
    DistinctOp,
    ExecutionContext,
    ExpandCountOp,
    ExpandOp,
    ExpandVarOp,
    FilterOp,
    LimitOp,
    OrderByOp,
    PreemptableIterator,
    ProfiledOp,
    ProjectOp,
    ScanOp,
    SingletonOp,
    SkipOp,
)
from repro.graphdb.store import INDEXED_PROPERTIES, PropertyGraph


# -- rendering ---------------------------------------------------------------


def render_expr(expr: ast.Expr) -> str:
    """Compact source-like rendering for EXPLAIN output."""
    if isinstance(expr, ast.Literal):
        return repr(expr.value)
    if isinstance(expr, ast.ListLiteral):
        return "[" + ", ".join(render_expr(item) for item in expr.items) + "]"
    if isinstance(expr, ast.Variable):
        return expr.name
    if isinstance(expr, ast.Property):
        return f"{expr.variable}.{expr.key}"
    if isinstance(expr, ast.Compare):
        if expr.right is None:
            return f"{render_expr(expr.left)} {expr.op}"
        return f"{render_expr(expr.left)} {expr.op} {render_expr(expr.right)}"
    if isinstance(expr, ast.And):
        return f"({render_expr(expr.left)} AND {render_expr(expr.right)})"
    if isinstance(expr, ast.Or):
        return f"({render_expr(expr.left)} OR {render_expr(expr.right)})"
    if isinstance(expr, ast.Not):
        return f"NOT ({render_expr(expr.operand)})"
    if isinstance(expr, ast.Count):
        inner = "*" if expr.operand is None else render_expr(expr.operand)
        return f"count({'DISTINCT ' if expr.distinct else ''}{inner})"
    if isinstance(expr, ast.Collect):
        return (
            f"collect({'DISTINCT ' if expr.distinct else ''}"
            f"{render_expr(expr.operand)})"
        )
    if isinstance(expr, ast.NumAgg):
        return (
            f"{expr.func}({'DISTINCT ' if expr.distinct else ''}"
            f"{render_expr(expr.operand)})"
        )
    return repr(expr)


def _render_node(pattern: ast.NodePattern) -> str:
    var = pattern.variable or ""
    label = f":{pattern.label}" if pattern.label else ""
    props = ""
    if pattern.properties:
        inner = ", ".join(f"{k}: {v!r}" for k, v in pattern.properties)
        props = " {" + inner + "}"
    return f"({var}{label}{props})"


def _render_rel(rel: ast.RelPattern, forward: bool) -> str:
    rtype = f":{rel.rel_type}" if rel.rel_type else ""
    hops = ""
    if rel.is_variable_length:
        hops = f"*{rel.min_hops}..{rel.max_hops}"
    body = f"-[{rel.variable or ''}{rtype}{hops}]-"
    direction = rel.direction
    if not forward:
        direction = {"out": "in", "in": "out"}.get(direction, "any")
    if direction == "out":
        return body + ">"
    if direction == "in":
        return "<" + body
    return body


# -- free variables ----------------------------------------------------------


def free_vars(expr: ast.Expr) -> set[str]:
    if isinstance(expr, ast.Variable):
        return {expr.name}
    if isinstance(expr, ast.Property):
        return {expr.variable}
    if isinstance(expr, ast.ListLiteral):
        out: set[str] = set()
        for item in expr.items:
            out |= free_vars(item)
        return out
    if isinstance(expr, (ast.And, ast.Or)):
        return free_vars(expr.left) | free_vars(expr.right)
    if isinstance(expr, ast.Not):
        return free_vars(expr.operand)
    if isinstance(expr, ast.Compare):
        out = free_vars(expr.left)
        if expr.right is not None:
            out |= free_vars(expr.right)
        return out
    if isinstance(expr, AGGREGATES):
        operand = expr.operand
        return free_vars(operand) if operand is not None else set()
    return set()


def _conjuncts(expr: ast.Expr | None) -> list[ast.Expr]:
    if expr is None:
        return []
    if isinstance(expr, ast.And):
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


# -- plan nodes --------------------------------------------------------------


_SCAN_KINDS = ("IndexScan", "LabelScan", "AllNodesScan")


@dataclass
class PlanNode:
    """One physical operator: build parameters, display info on demand."""

    kind: str
    params: dict
    child: "PlanNode | None" = None
    estimate: float | None = None

    @property
    def detail(self) -> str:
        """Source-like operand text, rendered only when something reads
        it (EXPLAIN, PROFILE, a continuation's plan signature) -- a
        plain run never does."""
        kind, p = self.kind, self.params
        if kind in _SCAN_KINDS:
            return _render_node(p["pattern"])
        if kind in ("ExpandEdge", "ExpandCount", "ExpandVar"):
            source = p["source_var"]
            return (
                f"({'' if source.startswith('#') else source})"
                f"{_render_rel(p['rel'], p['forward'])}"
                f"{_render_node(p['target'])}"
            )
        if kind == "Filter":
            return " AND ".join(render_expr(c) for c in p["exprs"])
        if kind in ("Project", "Aggregate"):
            return ", ".join(
                f"{render_expr(i.expr)} AS {i.alias}" for i in p["returns"]
            )
        if kind == "OrderBy":
            return ", ".join(
                f"{render_expr(expr)} {'ASC' if asc else 'DESC'}"
                for expr, asc in p["order_by"]
            )
        if kind in ("Skip", "Limit"):
            return str(p["count"])
        return ""

    def line(self, with_estimate: bool = True) -> str:
        text = f"{self.kind} {self.detail}".rstrip()
        if with_estimate and self.estimate is not None:
            text += f"  (est {self.estimate:g} rows)"
        return text


@dataclass
class PhysicalPlan:
    """A built plan: explainable, hashable, instantiable."""

    root: PlanNode
    query: ast.MatchQuery = field(repr=False, default=None)
    #: memo of :meth:`signature`: a kept plan signs every page it serves
    _signature: str | None = field(repr=False, compare=False, default=None)

    def _nodes(self) -> list[PlanNode]:
        out: list[PlanNode] = []
        node: PlanNode | None = self.root
        while node is not None:
            out.append(node)
            node = node.child
        return out

    def explain_lines(self) -> list[str]:
        lines: list[str] = []
        for depth, node in enumerate(self._nodes()):
            lines.append("  " * depth + node.line())
        return lines

    def signature(self) -> str:
        """Structure-only fingerprint (estimates excluded): embedded in
        continuations so a token only resumes the plan it was minted
        against."""
        if self._signature is None:
            payload = "\n".join(
                node.line(with_estimate=False) for node in self._nodes()
            )
            self._signature = hashlib.sha1(
                payload.encode("utf-8")
            ).hexdigest()[:16]
        return self._signature

    def build(
        self, graph: PropertyGraph, context: ExecutionContext
    ) -> PreemptableIterator:
        return self._build(graph, context, None)

    def build_profiled(
        self, graph: PropertyGraph, context: ExecutionContext
    ) -> tuple[PreemptableIterator, list[ProfiledOp]]:
        """Instantiate with every operator wrapped in a
        :class:`~repro.graphdb.cypher.iterators.ProfiledOp`.

        Returns the (wrapped) root and the wrappers in root-first
        order, aligned with :meth:`explain_lines`, so the PROFILE
        renderer can zip plan lines with runtime counters.
        """
        profilers: list[ProfiledOp] = []
        root = self._build(graph, context, profilers)
        profilers.reverse()  # built child-first; report root-first
        return root, profilers

    def _build(
        self,
        graph: PropertyGraph,
        context: ExecutionContext,
        profilers: "list[ProfiledOp] | None",
    ) -> PreemptableIterator:
        op: PreemptableIterator | None = None
        for node in reversed(self._nodes()):
            op = self._instantiate(node, graph, context, op)
            if profilers is not None:
                op = ProfiledOp(op, context, node.kind, node.detail)
                profilers.append(op)
        return op

    def _instantiate(
        self,
        node: PlanNode,
        graph: PropertyGraph,
        context: ExecutionContext,
        child: PreemptableIterator | None,
    ) -> PreemptableIterator:
        p = node.params
        if node.kind == "Init":
            return SingletonOp()
        if node.kind in _SCAN_KINDS:
            return ScanOp(
                graph, context, child, p["matches"], p["variable"], p["source"]
            )
        if node.kind == "ExpandEdge":
            return ExpandOp(
                graph, context, child, p["source_var"], p["rel"],
                p["matches"], p["target_var"], p["forward"],
            )
        if node.kind == "ExpandCount":
            return ExpandCountOp(
                graph, context, child, p["source_var"], p["rel"],
                p["matches"], p["forward"],
            )
        if node.kind == "ExpandVar":
            return ExpandVarOp(
                graph, context, child, p["source_var"], p["rel"],
                p["matches"], p["target_var"], p["forward"],
            )
        if node.kind == "Filter":
            return FilterOp(child, p["predicate"])
        if node.kind == "Project":
            return ProjectOp(child, p["columns"], p["order_keys"])
        if node.kind == "Aggregate":
            return AggregateOp(
                graph, child, p["group_columns"], p["aggregates"],
                p["order_keys"],
            )
        if node.kind == "OrderBy":
            return OrderByOp(
                graph, child, [asc for _expr, asc in p["order_by"]]
            )
        if node.kind == "Distinct":
            return DistinctOp(child)
        if node.kind == "Skip":
            return SkipOp(child, p["count"])
        if node.kind == "Limit":
            return LimitOp(child, p["count"])
        raise CypherRuntimeError(f"unknown plan operator {node.kind!r}")


# -- planning ----------------------------------------------------------------


def _filter_node(exprs: list[ast.Expr]) -> PlanNode:
    return PlanNode(
        "Filter", {"exprs": exprs, "predicate": compile_predicate(exprs)}
    )


def _pattern_vars(path: ast.PathPattern) -> set[str]:
    out: set[str] = set()
    for node in path.nodes:
        if node.variable:
            out.add(node.variable)
    for rel in path.rels:
        if rel.variable:
            out.add(rel.variable)
    return out


def _where_equalities(
    conjuncts: list[tuple[set[str], ast.Expr]],
) -> dict[str, list[tuple[str, object]]]:
    """var -> [(key, literal)] for sargable WHERE conjuncts.

    A top-level ``n.key = literal`` (either orientation) can be served
    by the same property index as an inline ``{key: literal}`` pattern;
    the conjunct still runs as a Filter, so the index is purely an
    access-path choice.
    """
    out: dict[str, list[tuple[str, object]]] = {}
    for _needs, conjunct in conjuncts:
        if not isinstance(conjunct, ast.Compare) or conjunct.op != "=":
            continue
        for prop, lit in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if (
                isinstance(prop, ast.Property)
                and isinstance(lit, ast.Literal)
                and isinstance(lit.value, (str, int, float, bool))
            ):
                out.setdefault(prop.variable, []).append((prop.key, lit.value))
    return out


def _count_only(query: ast.MatchQuery) -> set[str] | None:
    """Pattern variables a plan may count instead of binding.

    ``None`` unless every RETURN aggregate is a non-``DISTINCT``
    ``count(*)`` or ``count(v)`` of a variable every matched row binds
    (so each row adds one, and only the number of rows matters).  Then
    a variable qualifies when it occurs once among the patterns and
    nowhere else -- no WHERE conjunct, grouping key or ORDER BY
    expression reads it -- except as such a count's operand.  The set
    may be empty: an anonymous endpoint and relationship need no name.
    """
    occurrences: dict[str, int] = {}
    binding: set[str] = set()
    for path in query.paths:
        for node in path.nodes:
            if node.variable:
                occurrences[node.variable] = occurrences.get(node.variable, 0) + 1
                binding.add(node.variable)
        for rel in path.rels:
            if rel.variable:
                occurrences[rel.variable] = occurrences.get(rel.variable, 0) + 1
                if not rel.is_variable_length:
                    binding.add(rel.variable)
    read = free_vars(query.where) if query.where is not None else set()
    counts = False
    for item in query.returns:
        expr = item.expr
        if isinstance(expr, AGGREGATES):
            if not isinstance(expr, ast.Count) or expr.distinct:
                return None
            operand = expr.operand
            if operand is not None and not (
                isinstance(operand, ast.Variable) and operand.name in binding
            ):
                return None
            counts = True
        elif contains_aggregate(expr):
            return None
        else:
            read |= free_vars(expr)
    if not counts:
        return None
    for expr, _asc in query.order_by:
        read |= free_vars(expr)
    return {
        name for name, seen in occurrences.items()
        if seen == 1 and name not in read
    }


def _counted_hops(
    path: ast.PathPattern, anchor: int, count_only: set[str]
) -> set[int]:
    """Endpoints of ``path`` anchored at ``anchor`` whose hop is counted:
    the last one each way, when it is a single hop and neither the
    endpoint's variable nor the relationship's is read elsewhere."""
    last = len(path.nodes) - 1
    ends = []
    if anchor < last:
        ends.append((last, path.rels[-1]))
    if anchor > 0:
        ends.append((0, path.rels[0]))
    return {
        end for end, rel in ends
        if not rel.is_variable_length
        and {rel.variable, path.nodes[end].variable} - {None} <= count_only
    }


def _anchor_cost(
    graph: PropertyGraph,
    pattern: ast.NodePattern,
    bound: set[str],
    extra_props: list[tuple[str, object]] = (),
) -> tuple[float, tuple]:
    """(estimated candidate rows, scan source) for one node pattern."""
    if pattern.variable and pattern.variable in bound:
        return 0.0, ("bound",)
    props = list(pattern.properties) + list(extra_props)
    if pattern.label and props:
        buckets = [
            (graph.index_size(pattern.label, key, value), key, value)
            for key, value in props
            if key in INDEXED_PROPERTIES
            and isinstance(value, (str, int, float, bool))
        ]
        if buckets:
            size, key, value = min(buckets, key=itemgetter(0))
            return float(size), ("index", pattern.label, key, value)
        # unindexed property filter still narrows the label scan
        return (
            max(graph.label_count(pattern.label) * 0.5, 0.0),
            ("label", pattern.label),
        )
    if pattern.label:
        return float(graph.label_count(pattern.label)), ("label", pattern.label)
    if props:
        return max(graph.node_count * 0.5, 0.0), ("all",)
    return float(graph.node_count), ("all",)


def build_plan(query: ast.MatchQuery, graph: PropertyGraph) -> PhysicalPlan:
    """Lower a MATCH query into a physical plan against ``graph``."""
    # Hidden variables for anonymous pattern nodes, so expansion can
    # continue from them; '#'-prefixed names can never collide with
    # parsed variables and are stripped before projection.
    names: dict[tuple[int, int], str] = {}
    for p_index, path in enumerate(query.paths):
        for n_index, pattern in enumerate(path.nodes):
            names[(p_index, n_index)] = (
                pattern.variable or f"#p{p_index}n{n_index}"
            )

    conjuncts = [(free_vars(c), c) for c in _conjuncts(query.where)]
    equalities = _where_equalities(conjuncts)
    placed = [False] * len(conjuncts)
    bound: set[str] = set()
    chain: list[PlanNode] = [PlanNode("Init", {})]
    count_only = _count_only(query)
    counts_hops = False

    def flush_filters() -> None:
        ready = []
        for index, (needs, conjunct) in enumerate(conjuncts):
            if not placed[index] and needs <= bound:
                placed[index] = True
                ready.append(conjunct)
        if ready:
            chain.append(_filter_node(ready))

    # join reordering: connected-first, then the path holding the
    # cheapest anchor (ties go to the anchor leaving more hops to count,
    # then keep query order); the winning anchor's cost and scan source
    # are reused, so each pattern is costed once per round
    remaining = list(range(len(query.paths)))
    planned_vars: set[str] = set()
    while remaining:
        connected = [
            i for i in remaining
            if planned_vars and _pattern_vars(query.paths[i]) & planned_vars
        ]
        best: tuple | None = None
        for p_index in connected or remaining:
            path = query.paths[p_index]
            for n_index, pattern in enumerate(path.nodes):
                cost, source = _anchor_cost(
                    graph,
                    pattern,
                    bound,
                    equalities.get(pattern.variable or "", ()),
                )
                counted = (
                    _counted_hops(path, n_index, count_only)
                    if count_only is not None else set()
                )
                if best is None or (cost, -len(counted)) < (
                    best[0], -len(best[4])
                ):
                    best = (cost, source, p_index, n_index, counted)
        cost, source, p_index, anchor, counted = best
        remaining.remove(p_index)
        path = query.paths[p_index]
        planned_vars |= _pattern_vars(path)

        pattern = path.nodes[anchor]
        if source[0] == "bound":
            # joined from an earlier path: the scan degrades to a check
            source = ("label", pattern.label) if pattern.label else ("all",)
        kind = {"index": "IndexScan", "label": "LabelScan"}.get(
            source[0], "AllNodesScan"
        )
        variable = names[(p_index, anchor)]
        chain.append(
            PlanNode(
                kind,
                {
                    "pattern": pattern,
                    "matches": compile_node_match(pattern, variable in bound),
                    "variable": variable,
                    "source": source,
                },
                estimate=cost if cost else None,
            )
        )
        bound.add(variable)
        flush_filters()
        # grow outward from the anchor: rightwards, then leftwards
        steps = [
            (index, index + 1, path.rels[index])
            for index in range(anchor, len(path.nodes) - 1)
        ] + [
            (index, index - 1, path.rels[index - 1])
            for index in range(anchor, 0, -1)
        ]
        # a counted hop runs after the path's other hops (stable sort)
        steps.sort(key=lambda step: step[1] in counted)
        for src, dst, rel in steps:
            if dst in counted:
                chain.append(
                    PlanNode(
                        "ExpandCount",
                        {
                            "source_var": names[(p_index, src)],
                            "rel": rel,
                            "target": path.nodes[dst],
                            "matches": compile_node_match(path.nodes[dst], False),
                            "forward": dst > src,
                        },
                    )
                )
                counts_hops = True
                continue
            target_var = names[(p_index, dst)]
            chain.append(
                PlanNode(
                    "ExpandVar" if rel.is_variable_length else "ExpandEdge",
                    {
                        "source_var": names[(p_index, src)],
                        "rel": rel,
                        "target": path.nodes[dst],
                        "matches": compile_node_match(
                            path.nodes[dst], target_var in bound
                        ),
                        "target_var": target_var,
                        "forward": dst > src,
                    },
                )
            )
            bound.add(target_var)
            if rel.variable and not rel.is_variable_length:
                bound.add(rel.variable)
            flush_filters()

    # any conjunct left references unbound variables; evaluating it at
    # the top raises "unbound variable" on the first row that reaches it
    residual = [c for index, (_needs, c) in enumerate(conjuncts)
                if not placed[index]]
    if residual:
        chain.append(_filter_node(residual))

    returns = list(query.returns)
    aliases = frozenset(item.alias for item in returns)
    grouped = any(contains_aggregate(item.expr) for item in returns)
    order_keys = [
        (f"#o{index}", compile_order_key(expr, aliases, not grouped))
        for index, (expr, _asc) in enumerate(query.order_by)
    ]
    if grouped:
        group_columns = []
        aggregates = []
        for item in returns:
            if not contains_aggregate(item.expr):
                group_columns.append((item.alias, compile_expr(item.expr)))
            elif isinstance(item.expr, AGGREGATES):
                aggregates.append(
                    (item.alias, compile_aggregate(item.expr, counts_hops))
                )
            else:
                raise CypherRuntimeError(
                    f"unsupported aggregate expression: {item.expr}"
                )
        chain.append(
            PlanNode(
                "Aggregate",
                {
                    "returns": returns,
                    "group_columns": group_columns,
                    "aggregates": aggregates,
                    "order_keys": order_keys,
                },
            )
        )
    else:
        chain.append(
            PlanNode(
                "Project",
                {
                    "returns": returns,
                    "columns": [
                        (item.alias, compile_expr(item.expr)) for item in returns
                    ],
                    "order_keys": order_keys,
                },
            )
        )

    if query.order_by:
        chain.append(PlanNode("OrderBy", {"order_by": query.order_by}))
    if query.distinct:
        chain.append(PlanNode("Distinct", {}))
    if query.skip:
        chain.append(PlanNode("Skip", {"count": query.skip}))
    if query.limit is not None:
        chain.append(PlanNode("Limit", {"count": query.limit}))

    # chain is source-first; link into a root-first tree
    root = chain[-1]
    for index in range(len(chain) - 1, 0, -1):
        chain[index].child = chain[index - 1]
    return PhysicalPlan(root=root, query=query)


__all__ = [
    "PhysicalPlan",
    "PlanNode",
    "build_plan",
    "free_vars",
    "render_expr",
]
