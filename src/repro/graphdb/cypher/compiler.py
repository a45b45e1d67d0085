"""Expressions, patterns and aggregates lowered to closures.

The planner calls these once, when it builds a plan; the operators in
:mod:`repro.graphdb.cypher.iterators` then call plain functions per row
instead of walking the AST.  This is the engine's only evaluator: the
AST interpreter it replaced lives on in ``tests/cypher_oracle.py`` as
the reference the engine is tested against.

A closure computes what that interpreter computes and raises the same
:class:`CypherRuntimeError` texts -- when a row reaches it, never at
compile time, so a query whose bad expression no row reaches still
answers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

from repro.graphdb.cypher import ast
from repro.graphdb.store import Edge, Node


class CypherRuntimeError(ValueError):
    """Semantic error discovered during execution."""


Bindings = dict[str, object]
#: a compiled expression: bindings -> value
Evaluator = Callable[[Bindings], object]

AGGREGATES = (ast.Count, ast.Collect, ast.NumAgg)
_ELEMENT = (Node, Edge)
_ORDERING = {
    "<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge,
}


# -- values -------------------------------------------------------------------


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


# -- expressions --------------------------------------------------------------


def _raising(message: str) -> Evaluator:
    def fail(_bindings):
        raise CypherRuntimeError(message)

    return fail


def compile_expr(expr: ast.Expr) -> Evaluator:
    """Lower one expression to a ``bindings -> value`` closure."""
    if isinstance(expr, ast.Property):
        return _compile_property(expr.variable, expr.key)
    if isinstance(expr, ast.Variable):
        return _compile_variable(expr.name)
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda _bindings: value
    if isinstance(expr, ast.ListLiteral):
        items = [compile_expr(item) for item in expr.items]
        return lambda bindings: [item(bindings) for item in items]
    if isinstance(expr, (ast.And, ast.Or)):
        left, right = compile_expr(expr.left), compile_expr(expr.right)
        if isinstance(expr, ast.And):
            return lambda bindings: bool(left(bindings)) and bool(right(bindings))
        return lambda bindings: bool(left(bindings)) or bool(right(bindings))
    if isinstance(expr, ast.Not):
        operand = compile_expr(expr.operand)
        return lambda bindings: not operand(bindings)
    if isinstance(expr, ast.Compare):
        return _compile_compare(expr)
    if isinstance(expr, AGGREGATES):
        return _raising("aggregates are only allowed in RETURN")
    return _raising(f"cannot evaluate {expr!r}")


def _compile_property(variable: str, key: str) -> Evaluator:
    def read(bindings):
        value = bindings.get(variable)
        if isinstance(value, _ELEMENT):
            return value.properties.get(key)
        if value is None:
            raise CypherRuntimeError(f"unbound variable {variable!r}")
        raise CypherRuntimeError(f"{variable!r} is not a node or relationship")

    return read


def _compile_variable(name: str) -> Evaluator:
    def read(bindings):
        try:
            return bindings[name]
        except KeyError:
            raise CypherRuntimeError(f"unbound variable {name!r}") from None

    return read


def _compile_compare(expr: ast.Compare) -> Evaluator:
    op = expr.op
    left = compile_expr(expr.left)
    if op == "IS NULL":
        return lambda bindings: left(bindings) is None
    if op == "IS NOT NULL":
        return lambda bindings: left(bindings) is not None
    right = compile_expr(expr.right)
    if op == "=":
        return lambda bindings: left(bindings) == right(bindings)
    if op == "<>":
        return lambda bindings: left(bindings) != right(bindings)
    if op == "IN":
        return lambda bindings: left(bindings) in (right(bindings) or [])
    if op in _ORDERING:
        return _null_is_false(left, right, _ORDERING[op])
    if op == "CONTAINS":
        return _null_is_false(left, right, lambda a, b: str(b) in str(a))
    if op == "STARTS WITH":
        return _null_is_false(left, right, lambda a, b: str(a).startswith(str(b)))
    if op == "ENDS WITH":
        return _null_is_false(left, right, lambda a, b: str(a).endswith(str(b)))

    def unknown(_a, _b):
        raise CypherRuntimeError(f"unknown operator {op!r}")

    return _null_is_false(left, right, unknown)


def _null_is_false(left: Evaluator, right: Evaluator, test) -> Evaluator:
    """A comparison that is false as soon as either side is null; only
    the ordering operators can meet operands they cannot compare."""

    def compare(bindings):
        a, b = left(bindings), right(bindings)
        if a is None or b is None:
            return False
        try:
            return test(a, b)
        except TypeError as error:
            raise CypherRuntimeError(str(error)) from None

    return compare


def compile_predicate(exprs: list[ast.Expr]) -> Evaluator:
    """WHERE conjuncts as one closure: truthy when every one is, tested
    in order and no further than the first that is not."""
    tests = [compile_expr(expr) for expr in exprs]
    if len(tests) == 1:
        return tests[0]

    def conjunction(bindings):
        for test in tests:
            if not test(bindings):
                return False
        return True

    return conjunction


def compile_order_key(
    expr: ast.Expr, aliases: frozenset[str], from_bindings: bool
) -> Callable[[dict, Bindings | None], object]:
    """Lower an ORDER BY expression to ``(row, bindings) -> value``.

    It is resolved against the projected row first -- a return alias, a
    returned node's property, an aggregate's default column -- and which
    of those apply is known from the aliases alone.  What the row cannot
    answer falls back to the source bindings when there are any
    (``from_bindings``: a plain projection can sort on a value it does
    not return); a grouped row has no single source, so there it raises.
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda _row, _bindings: value
    if isinstance(expr, ast.Count):
        return lambda row, _bindings: row.get("count")
    if isinstance(expr, ast.NumAgg):
        func = expr.func
        return lambda row, _bindings: row.get(func)
    unresolved = (
        compile_expr(expr)
        if from_bindings
        else _raising("ORDER BY expressions must reference returned values")
    )
    if isinstance(expr, ast.Variable) and expr.name in aliases:
        name = expr.name
        return lambda row, _bindings: row[name]
    if isinstance(expr, ast.Property):
        variable, key = expr.variable, expr.key
        alias = f"{variable}.{key}"
        returned, aliased = variable in aliases, alias in aliases

        def read(row, bindings):
            if returned:
                base = row[variable]
                if isinstance(base, _ELEMENT):
                    return base.properties.get(key)
            if aliased:
                return row[alias]
            return unresolved(bindings)

        if returned or aliased:
            return read
    return lambda _row, bindings: unresolved(bindings)


# -- patterns -----------------------------------------------------------------


def compile_node_match(
    pattern: ast.NodePattern, joined: bool
) -> Callable[[Node, Bindings], bool] | None:
    """``(node, bindings) -> bool``: whether the node fits the pattern's
    label and property map and, when an earlier operator already bound
    the pattern's variable (``joined``), is that very node.  ``None``
    for a pattern every node fits.  Tested before a candidate's bindings
    are copied, so a rejected candidate allocates nothing."""
    label, properties = pattern.label, pattern.properties
    variable = pattern.variable if joined else None
    if not (label or properties or variable):
        return None

    def matches(node, bindings):
        if label and node.label != label:
            return False
        for key, value in properties:
            if node.properties.get(key) != value:
                return False
        if variable:
            existing = bindings.get(variable)
            if existing is not None:
                return isinstance(existing, Node) and existing.node_id == node.node_id
        return True

    return matches


def rel_matches(variable: str, edge: Edge, bindings: Bindings) -> bool:
    """Whether ``edge`` may bind a relationship variable: free, or
    already holding this very edge (its type is the adjacency lookup's
    business)."""
    existing = bindings.get(variable)
    if existing is None:
        return True
    return isinstance(existing, Edge) and existing.edge_id == edge.edge_id


# -- aggregates ---------------------------------------------------------------


def _numeric(step):
    def guarded(state, value):
        try:
            return step(state, value)
        except TypeError as error:
            raise CypherRuntimeError(str(error)) from None

    return guarded


def _identity(state):
    return state


def _collect(state: list, value: object) -> list:
    state.append(value)
    return state


def _average(state: list, value: object) -> list:
    state[0] = state[0] + value
    state[1] += 1
    return state


#: func -> (init, step, final).  sum() and avg() add left to right from
#: 0 and min() / max() keep the first of equals, as the builtins do over
#: a list of the values.
_NUMERIC = {
    "sum": (lambda: 0, _numeric(operator.add), _identity),
    "min": (
        lambda: None,
        _numeric(lambda s, v: v if s is None or v < s else s),
        _identity,
    ),
    "max": (
        lambda: None,
        _numeric(lambda s, v: v if s is None or v > s else s),
        _identity,
    ),
    "avg": (
        lambda: [0, 0],
        _numeric(_average),
        lambda s: s[0] / s[1] if s[1] else None,
    ),
}


@dataclass(frozen=True)
class Aggregate:
    """One aggregate of a RETURN, as running state per group.

    ``step`` folds one non-null operand value into a group's state and
    returns the new state; ``final`` reads the result off it.  The state
    is O(1) -- a count, a total, a ``[total, n]`` pair, the current
    extreme -- except for ``collect``, whose result *is* the values.
    It is built from ints, lists and result values only, so the
    continuation codec for values serialises it as it stands.

    With ``distinct`` the operator keeps the identities already folded
    beside the state and never steps on a value it has seen.
    """

    operand: Evaluator
    distinct: bool
    init: Callable[[], object]
    step: Callable[[object, object], object]
    final: Callable[[object], object]


def compile_aggregate(expr: ast.Expr) -> Aggregate:
    """Lower ``count`` / ``collect`` / ``sum`` / ``min`` / ``max`` /
    ``avg``.  Every one of them skips nulls; ``count(*)`` counts rows."""
    if isinstance(expr, ast.Count):
        operand = (
            (lambda _bindings: True)
            if expr.operand is None
            else compile_expr(expr.operand)
        )
        return Aggregate(
            operand, expr.distinct, int, lambda state, _value: state + 1, _identity
        )
    if isinstance(expr, ast.Collect):
        return Aggregate(
            compile_expr(expr.operand), expr.distinct, list, _collect, _identity
        )
    if expr.func not in _NUMERIC:
        raise CypherRuntimeError(f"unknown aggregate function {expr.func!r}")
    return Aggregate(
        compile_expr(expr.operand), expr.distinct, *_NUMERIC[expr.func]
    )


def contains_aggregate(expr: ast.Expr) -> bool:
    """Whether an expression contains an aggregate."""
    if isinstance(expr, AGGREGATES):
        return True
    if isinstance(expr, (ast.And, ast.Or)):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, ast.Not):
        return contains_aggregate(expr.operand)
    if isinstance(expr, ast.Compare):
        return contains_aggregate(expr.left) or (
            expr.right is not None and contains_aggregate(expr.right)
        )
    return False


__all__ = [
    "AGGREGATES",
    "Aggregate",
    "Bindings",
    "CypherRuntimeError",
    "Evaluator",
    "compile_aggregate",
    "compile_expr",
    "compile_node_match",
    "compile_order_key",
    "compile_predicate",
    "contains_aggregate",
    "rel_matches",
]
