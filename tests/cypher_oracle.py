"""Brute-force MATCH evaluator: the reference the engine is tested against.

Independent of the engine on purpose: every pattern element loops over
*all* nodes or *all* edges, in query order -- no anchor choice, no
index, no pushdown -- and expressions and aggregates are evaluated by
the AST interpreter below (``eval_expr`` / ``reduce_*``), which walks
the tree per row and reduces a group's collected values at the end,
where the engine runs compiled closures over running state.  Nothing
but the parser and the error type is shared.  Small graphs only.
Cypher fixes row order only by ORDER BY, and only up to rows tying on
every sort key, so :func:`check` compares row multisets plus the
*sequence of sort keys* (natural order, null first).
"""

from collections import Counter

from repro.graphdb.cypher import ast
from repro.graphdb.cypher.executor import CypherRuntimeError
from repro.graphdb.cypher.parser import parse
from repro.graphdb.store import Edge, Node

AGGREGATES = (ast.Count, ast.Collect, ast.NumAgg)


# -- the reference evaluator --------------------------------------------------


def eval_expr(expr, bindings):
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
        return bool(eval_expr(expr.left, bindings)) and bool(
            eval_expr(expr.right, bindings)
        )
    if isinstance(expr, ast.Or):
        return bool(eval_expr(expr.left, bindings)) or bool(
            eval_expr(expr.right, bindings)
        )
    if isinstance(expr, ast.Not):
        return not bool(eval_expr(expr.operand, bindings))
    if isinstance(expr, ast.Compare):
        return eval_compare(expr, bindings)
    if isinstance(expr, AGGREGATES):
        raise CypherRuntimeError("aggregates are only allowed in RETURN")
    raise CypherRuntimeError(f"cannot evaluate {expr!r}")


def eval_compare(expr, bindings):
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


def reduce_collect(values, distinct):
    """collect() over already-evaluated values: None-skipping, optional
    dedup."""
    out = []
    seen = []
    for value in values:
        if value is None:
            continue
        if distinct:
            key = _fp(value)
            if key in seen:
                continue
            seen.append(key)
        out.append(value)
    return out


def reduce_count(values, distinct):
    return len(reduce_collect(values, distinct))


def reduce_numeric(func, values, distinct):
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


# -- matching -----------------------------------------------------------------


def _fp(value):
    """Hashable fingerprint of a result value.

    Nodes with the same ``(label, merge_key)`` are one value: a
    partitioned store keeps a copy of an entity on every partition whose
    reports relate to it, and grouping / DISTINCT / row comparison must
    see the entity, not the copies.  Pattern *matching* is by id
    (:func:`_same`) -- each copy carries its own edges.
    """
    if isinstance(value, Node):
        merge = value.properties.get("merge_key")
        if isinstance(merge, str):
            return ("node", value.label, merge)
        return ("node", value.node_id)
    if isinstance(value, Edge):
        return ("edge", value.edge_id)
    if isinstance(value, (list, tuple)):
        return tuple(_fp(v) for v in value)
    return value


def _row_fp(row: dict):
    """Fingerprint of a result row.  A list cell is a ``collect()``: its
    element order is the order the matches were found in, which Cypher
    leaves open and the planner's choice of anchor decides, so it
    compares as a multiset."""
    return tuple(
        (alias, tuple(sorted(_fp(value), key=repr)))
        if isinstance(value, list)
        else (alias, _fp(value))
        for alias, value in sorted(row.items())
    )


def _same(bound, element):
    """Whether a bound variable holds this very node / edge."""
    if isinstance(element, Node):
        return isinstance(bound, Node) and bound.node_id == element.node_id
    return isinstance(bound, Edge) and bound.edge_id == element.edge_id


def _node_ok(pattern, node, bindings):
    bound = bindings.get(pattern.variable)
    return (
        (not pattern.label or node.label == pattern.label)
        and all(node.properties.get(k) == v for k, v in pattern.properties)
        and (bound is None or _same(bound, node))
    )


def _steps(graph, node, rel):
    """``(edge | None, endpoint)`` one relationship element from ``node``."""

    def hop(current):
        for edge in graph.edges():
            if rel.rel_type and edge.type != rel.rel_type:
                continue
            if rel.direction in ("out", "any") and edge.src == current.node_id:
                yield edge, graph.node(edge.dst)
            if rel.direction in ("in", "any") and edge.dst == current.node_id:
                yield edge, graph.node(edge.src)

    if not rel.is_variable_length:
        return list(hop(node))
    # ``*m..n``: every node whose shortest hop distance lies in [m, n]
    distance = {node.node_id: 0}
    for depth in range(1, rel.max_hops + 1):
        for node_id in [i for i, d in distance.items() if d == depth - 1]:
            for _edge, reached in hop(graph.node(node_id)):
                distance.setdefault(reached.node_id, depth)
    return [
        (None, graph.node(node_id))
        for node_id, hops in distance.items()
        if rel.min_hops <= hops <= rel.max_hops
    ]


def _extend(graph, path, index, node, bindings):
    """Assignments of ``path`` after node element ``index`` (-1: none yet)."""
    if index == len(path.nodes) - 1:
        yield bindings
        return
    rel = path.rels[index] if index >= 0 else None
    target = path.nodes[index + 1]
    steps = _steps(graph, node, rel) if rel else [(None, n) for n in graph.nodes()]
    for edge, reached in steps:
        new = dict(bindings)
        if not _node_ok(target, reached, new) or (
            edge is not None
            and rel.variable
            and not _same(new.setdefault(rel.variable, edge), edge)
        ):
            continue
        if target.variable:
            new[target.variable] = reached
        yield from _extend(graph, path, index + 1, reached, new)


def _value(expr, members):
    """A RETURN item over one group (a single binding when ungrouped)."""
    if not isinstance(expr, AGGREGATES):
        return eval_expr(expr, members[0])
    if expr.operand is None:
        return len(members)
    operands = [eval_expr(expr.operand, b) for b in members]
    if isinstance(expr, ast.NumAgg):
        return reduce_numeric(expr.func, operands, expr.distinct)
    reducer = reduce_count if isinstance(expr, ast.Count) else reduce_collect
    return reducer(operands, expr.distinct)


def evaluate(graph, query):
    """``[(row, sort key)]`` fingerprints in order, before SKIP / LIMIT."""
    assignments = [{}]
    for path in query.paths:
        assignments = [
            a for b in assignments for a in _extend(graph, path, -1, None, b)
        ]
    if query.where is not None:
        assignments = [b for b in assignments if eval_expr(query.where, b)]
    plain = [i for i in query.returns if not isinstance(i.expr, AGGREGATES)]
    grouped = len(plain) < len(query.returns)
    # a global aggregate over nothing is still one row
    groups = {(): []} if grouped and not plain and not assignments else {}
    for number, bindings in enumerate(assignments):
        key = _fp([eval_expr(i.expr, bindings) for i in plain])
        groups.setdefault(key if grouped else number, []).append(bindings)
    keyed = []
    for members in groups.values():
        row = {i.alias: _value(i.expr, members) for i in query.returns}
        # ORDER BY sees the returned aliases first, then the bindings
        scope = {**(members[0] if members else {}), **row}
        keyed.append((row, [eval_expr(e, scope) for e, _asc in query.order_by]))
    for index in reversed(range(len(query.order_by))):
        keyed.sort(
            key=lambda pair: (pair[1][index] is not None, pair[1][index]),
            reverse=not query.order_by[index][1],
        )
    keyed = [(_row_fp(row), _fp(key)) for row, key in keyed]
    if query.distinct:  # after the sort; the first occurrence wins
        seen = set()
        keyed = [p for p in keyed if not (p[0] in seen or seen.add(p[0]))]
    return keyed


def check(engine_rows, graph, text):
    """Assert ``engine_rows`` is a correct answer to ``text`` on ``graph``."""
    query = parse(text)
    keyed = evaluate(graph, query)
    expected = keyed[query.skip or 0:][:query.limit]
    got = [_row_fp(row.values) for row in engine_rows]
    assert len(got) == len(expected), (len(got), len(expected))
    spurious = Counter(got) - Counter(row for row, _key in keyed)
    assert not spurious, f"rows the oracle does not produce: {spurious}"
    pairs = set(keyed)
    for position, (row, (_row, key)) in enumerate(zip(got, expected)):
        assert (row, key) in pairs, f"row {position} out of order: {row}"
