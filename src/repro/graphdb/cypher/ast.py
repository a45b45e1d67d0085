"""Cypher abstract syntax tree.

Nodes carry optional source positions (character offsets into the
query string, ``-1`` when unknown).  Position fields are excluded from
equality so hand-built ASTs still compare equal to parsed ones; they
exist solely so the semantic analyzer (:mod:`repro.analysis`) can
point diagnostics at the offending token.

Every node is frozen, the two query forms included: a parsed query is
kept and shared by every later execution of the same text.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# -- expressions ------------------------------------------------------------


class Expr:
    """Marker base class for expressions."""


@dataclass(frozen=True)
class Literal(Expr):
    value: object


@dataclass(frozen=True)
class Variable(Expr):
    name: str
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Property(Expr):
    variable: str
    key: str
    pos: int = field(default=-1, compare=False)
    key_pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Compare(Expr):
    op: str  # '=', '<>', '<', '>', '<=', '>=', 'IN', 'CONTAINS',
    #          'STARTS WITH', 'ENDS WITH', 'IS NULL', 'IS NOT NULL'
    left: Expr
    right: Expr | None  # None for IS [NOT] NULL
    op_pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr


@dataclass(frozen=True)
class Count(Expr):
    """count(*) when operand is None, else count(expr)."""

    operand: Expr | None
    distinct: bool = False


@dataclass(frozen=True)
class Collect(Expr):
    """collect(expr): aggregate values into a list."""

    operand: Expr
    distinct: bool = False


@dataclass(frozen=True)
class NumAgg(Expr):
    """Numeric aggregate: avg/min/max/sum over an expression.

    ``sum`` of an empty group is 0; ``avg``/``min``/``max`` of an
    empty group are null.  ``distinct`` dedupes values before
    aggregating, matching count/collect semantics.
    """

    func: str  # 'avg', 'min', 'max', 'sum'
    operand: Expr
    distinct: bool = False


@dataclass(frozen=True)
class ListLiteral(Expr):
    items: tuple[Expr, ...]


# -- patterns ------------------------------------------------------------------


@dataclass(frozen=True)
class NodePattern:
    variable: str | None
    label: str | None
    properties: tuple[tuple[str, object], ...] = ()
    pos: int = field(default=-1, compare=False)  # '(' of the pattern
    label_pos: int = field(default=-1, compare=False)
    #: positions of the property-map keys, parallel to ``properties``
    property_positions: tuple[int, ...] = field(default=(), compare=False)


@dataclass(frozen=True)
class RelPattern:
    variable: str | None
    rel_type: str | None
    direction: str  # 'out', 'in', 'any'
    #: variable-length bounds; (1, 1) is a plain single-hop pattern
    min_hops: int = 1
    max_hops: int = 1
    #: False when the upper bound came from the parser's default cap
    #: (``*`` or ``*1..`` with no explicit maximum)
    explicit_max: bool = field(default=True, compare=False)
    type_pos: int = field(default=-1, compare=False)
    star_pos: int = field(default=-1, compare=False)

    @property
    def is_variable_length(self) -> bool:
        return (self.min_hops, self.max_hops) != (1, 1)


@dataclass(frozen=True)
class PathPattern:
    nodes: tuple[NodePattern, ...]
    rels: tuple[RelPattern, ...]  # len(rels) == len(nodes) - 1


# -- query forms ----------------------------------------------------------------


@dataclass(frozen=True)
class ReturnItem:
    expr: Expr
    alias: str


@dataclass(frozen=True)
class MatchQuery:
    paths: tuple[PathPattern, ...]
    where: Expr | None = None
    returns: tuple[ReturnItem, ...] = ()
    distinct: bool = False
    order_by: tuple[tuple[Expr, bool], ...] = ()  # (expr, asc)
    skip: int | None = None
    limit: int | None = None
    #: EXPLAIN-prefixed query: plan and describe instead of executing
    explain: bool = False
    #: PROFILE-prefixed query: execute with per-operator instrumentation
    profile: bool = False


@dataclass(frozen=True)
class CreateQuery:
    paths: tuple[PathPattern, ...]


Query = MatchQuery | CreateQuery

__all__ = [
    "And",
    "Collect",
    "Compare",
    "Count",
    "CreateQuery",
    "Expr",
    "ListLiteral",
    "Literal",
    "MatchQuery",
    "NodePattern",
    "Not",
    "NumAgg",
    "Or",
    "PathPattern",
    "Property",
    "Query",
    "RelPattern",
    "ReturnItem",
    "Variable",
]
