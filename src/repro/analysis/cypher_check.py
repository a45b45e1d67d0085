"""Cypher semantic analyzer.

A static pass over the parsed AST of :mod:`repro.graphdb.cypher` that
catches the queries which would otherwise fail *silently* -- a typo'd
label (``MATCH (m:Malwear)``) matches nothing and returns zero rows,
which in a threat-intel UI is indistinguishable from "no such malware".
The analyzer checks a query against a :class:`QuerySchema` built from
the security ontology (:mod:`repro.ontology`) plus whatever labels,
relationship types and property keys actually exist in the graph, and
reports positioned :class:`~repro.analysis.diagnostics.Diagnostic`\\ s.

Rules
-----

=============================  ========  ==================================
``cypher/unknown-label``       error*    node label absent from ontology
                                         and graph (warning in CREATE)
``cypher/unknown-rel-type``    error*    relationship type absent from
                                         ontology and graph (warning in
                                         CREATE)
``cypher/unbound-variable``    error     WHERE/RETURN/ORDER BY references
                                         a variable no pattern binds
``cypher/unknown-property``    warning   property key never seen in the
                                         ontology or the graph
``cypher/type-mismatch``       error/w   ordering comparison between
                                         incompatible types
``cypher/aggregate-in-where``  error     count()/collect()/avg()/min()/
                                         max()/sum() inside WHERE
``cypher/unbounded-path``      warning   variable-length pattern with no
                                         explicit upper bound
``cypher/cartesian-product``   warning   MATCH paths sharing no variable
``cypher/duplicate-alias``     warning   two RETURN items with one alias
=============================  ========  ==================================
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic, Severity, Span
from repro.graphdb.cypher import ast
from repro.graphdb.cypher.parser import parse
from repro.ontology.entities import EntityType
from repro.ontology.relations import RelationType

#: Property keys the storage stage itself writes, known even before any
#: graph is populated (node bookkeeping + edge provenance).
BASE_PROPERTY_KEYS: frozenset[str] = frozenset(
    {
        "name",
        "merge_key",
        "weight",
        "reports",
        "sentence",
        "report_id",
        "source",
        "url",
        "title",
    }
)


@dataclass(frozen=True)
class QuerySchema:
    """What the analyzer validates queries against.

    ``property_types`` maps a property key to the set of python type
    names observed for it (used by the type-compatibility rule); keys
    with no observations simply skip that rule.

    ``closed_labels`` / ``closed_rel_types`` declare the respective
    vocabulary authoritative: a MATCH against an unknown name is then an
    error rather than a warning.  A populated graph closes its own
    vocabularies; an empty one provides no evidence, so misses stay
    advisory.
    """

    labels: frozenset[str] = frozenset()
    rel_types: frozenset[str] = frozenset()
    property_keys: frozenset[str] = frozenset()
    property_types: dict[str, frozenset[str]] = field(default_factory=dict)
    closed_labels: bool = False
    closed_rel_types: bool = False

    def merged_with(self, other: "QuerySchema") -> "QuerySchema":
        types = {key: set(value) for key, value in self.property_types.items()}
        for key, value in other.property_types.items():
            types.setdefault(key, set()).update(value)
        return QuerySchema(
            labels=self.labels | other.labels,
            rel_types=self.rel_types | other.rel_types,
            property_keys=self.property_keys | other.property_keys,
            property_types={k: frozenset(v) for k, v in types.items()},
            closed_labels=self.closed_labels or other.closed_labels,
            closed_rel_types=self.closed_rel_types or other.closed_rel_types,
        )


def ontology_schema() -> QuerySchema:
    """The vocabulary of the security ontology, left open: runtime
    analysis lets the graph close the vocabularies."""
    return QuerySchema(
        labels=frozenset(entity.value for entity in EntityType),
        rel_types=frozenset(relation.value for relation in RelationType),
        property_keys=BASE_PROPERTY_KEYS,
    )


def graph_schema(graph) -> QuerySchema:
    """Labels, relationship types and property keys present in a graph.

    Read from the graph's incremental ``label_counts`` /
    ``edge_type_counts`` / ``property_schema`` indexes (a
    :class:`~repro.graphdb.store.PropertyGraph` or the union view of
    several).
    """
    labels = frozenset(graph.label_counts())
    rel_types = frozenset(graph.edge_type_counts())
    property_types: dict[str, frozenset[str]] = dict(graph.property_schema())
    return QuerySchema(
        labels=labels,
        rel_types=rel_types,
        property_keys=frozenset(property_types),
        property_types=property_types,
        closed_labels=bool(labels),
        closed_rel_types=bool(rel_types),
    )


def schema_for(graph) -> QuerySchema:
    """Ontology vocabulary extended with what the graph contains."""
    return ontology_schema().merged_with(graph_schema(graph))


# -- type grouping for the comparison rule ---------------------------------

_TYPE_GROUPS = {
    "int": "number",
    "float": "number",
    "bool": "number",
    "str": "string",
    "list": "list",
    "tuple": "list",
    "NoneType": "null",
}


def _group_of(value: object) -> str | None:
    return _TYPE_GROUPS.get(type(value).__name__)


_ORDERING_OPS = frozenset({"<", ">", "<=", ">="})
_EQUALITY_OPS = frozenset({"=", "<>"})


class CypherAnalyzer:
    """Analyze parsed queries against a :class:`QuerySchema`."""

    def __init__(self, schema: QuerySchema | None = None):
        self.schema = schema if schema is not None else ontology_schema()

    # -- entry points ------------------------------------------------------

    def analyze(
        self, query: str | ast.Query, source: str = ""
    ) -> list[Diagnostic]:
        """All diagnostics for one query (parses strings first).

        Raises :class:`~repro.graphdb.cypher.lexer.CypherSyntaxError`
        for unparseable input; semantic findings are *returned*, never
        raised -- policy (strict vs advisory) belongs to the caller.
        """
        if isinstance(query, str):
            source = query
            query = parse(query)
        out: list[Diagnostic] = []
        if isinstance(query, ast.MatchQuery):
            self._analyze_match(query, out)
        elif isinstance(query, ast.CreateQuery):
            self._analyze_create(query, out)
        return sorted(out, key=lambda d: (d.span.start if d.span else -1))

    # -- MATCH ------------------------------------------------------------

    def _analyze_match(self, query: ast.MatchQuery, out: list[Diagnostic]) -> None:
        declared: set[str] = set()
        for path in query.paths:
            declared.update(_path_variables(path))
        for path in query.paths:
            self._check_path(path, out, create=False)
        self._check_connectivity(query.paths, out)

        if query.where is not None:
            self._check_expr(query.where, declared, out, clause="WHERE")

        aliases: set[str] = set()
        for item in query.returns:
            self._check_expr(item.expr, declared, out, clause="RETURN")
            if item.alias in aliases:
                out.append(
                    Diagnostic(
                        rule="cypher/duplicate-alias",
                        severity=Severity.WARNING,
                        message=(
                            f"duplicate RETURN alias {item.alias!r}; "
                            "later items overwrite earlier ones"
                        ),
                    )
                )
            aliases.add(item.alias)

        for expr, _ascending in query.order_by:
            # ORDER BY may also reference RETURN aliases.
            self._check_expr(expr, declared | aliases, out, clause="ORDER BY")

    def _analyze_create(self, query: ast.CreateQuery, out: list[Diagnostic]) -> None:
        for path in query.paths:
            self._check_path(path, out, create=True)

    # -- patterns ----------------------------------------------------------

    def _check_path(
        self, path: ast.PathPattern, out: list[Diagnostic], create: bool
    ) -> None:
        # CREATE legitimately introduces new labels/types, so vocabulary
        # misses are advisory there; in MATCH against a closed vocabulary
        # they guarantee zero rows and are errors.
        label_severity = (
            Severity.ERROR
            if not create and self.schema.closed_labels
            else Severity.WARNING
        )
        rel_severity = (
            Severity.ERROR
            if not create and self.schema.closed_rel_types
            else Severity.WARNING
        )
        for node in path.nodes:
            if node.label is not None and node.label not in self.schema.labels:
                out.append(
                    Diagnostic(
                        rule="cypher/unknown-label",
                        severity=label_severity,
                        message=f"unknown node label {node.label!r}",
                        span=_span_at(node.label_pos, node.label),
                        suggestion=_closest(node.label, self.schema.labels),
                    )
                )
            for (key, _value), pos in zip(
                node.properties, node.property_positions
            ):
                self._check_property_key(key, pos, out)
        for rel in path.rels:
            if (
                rel.rel_type is not None
                and rel.rel_type not in self.schema.rel_types
            ):
                out.append(
                    Diagnostic(
                        rule="cypher/unknown-rel-type",
                        severity=rel_severity,
                        message=f"unknown relationship type {rel.rel_type!r}",
                        span=_span_at(rel.type_pos, rel.rel_type),
                        suggestion=_closest(rel.rel_type, self.schema.rel_types),
                    )
                )
            if rel.is_variable_length and not rel.explicit_max:
                out.append(
                    Diagnostic(
                        rule="cypher/unbounded-path",
                        severity=Severity.WARNING,
                        message=(
                            "variable-length pattern has no upper bound; "
                            "the engine caps it at 5 hops -- write an "
                            "explicit bound like *1..3"
                        ),
                        span=_span_at(rel.star_pos, "*"),
                    )
                )

    def _check_connectivity(
        self, paths: list[ast.PathPattern], out: list[Diagnostic]
    ) -> None:
        """Warn when MATCH paths share no variables (cartesian product)."""
        if len(paths) < 2:
            return
        components: list[set[str]] = []
        disconnected = 0
        for path in paths:
            variables = _path_variables(path)
            merged = False
            for component in components:
                if component & variables:
                    component.update(variables)
                    merged = True
                    break
            if not merged:
                components.append(set(variables))
                if len(components) > 1:
                    disconnected += 1
        if disconnected:
            first = paths[0].nodes[0]
            out.append(
                Diagnostic(
                    rule="cypher/cartesian-product",
                    severity=Severity.WARNING,
                    message=(
                        "MATCH contains disconnected patterns; the result "
                        "is a cartesian product over their matches"
                    ),
                    span=_span_at(first.pos, "("),
                )
            )

    # -- expressions -------------------------------------------------------

    def _check_expr(
        self,
        expr: ast.Expr,
        declared: set[str],
        out: list[Diagnostic],
        clause: str,
    ) -> None:
        if isinstance(expr, ast.Variable):
            self._check_bound(expr.name, expr.pos, declared, out, clause)
        elif isinstance(expr, ast.Property):
            self._check_bound(expr.variable, expr.pos, declared, out, clause)
            self._check_property_key(expr.key, expr.key_pos, out)
        elif isinstance(expr, (ast.And, ast.Or)):
            self._check_expr(expr.left, declared, out, clause)
            self._check_expr(expr.right, declared, out, clause)
        elif isinstance(expr, ast.Not):
            self._check_expr(expr.operand, declared, out, clause)
        elif isinstance(expr, ast.Compare):
            self._check_expr(expr.left, declared, out, clause)
            if expr.right is not None:
                self._check_expr(expr.right, declared, out, clause)
            self._check_compare_types(expr, out)
        elif isinstance(expr, (ast.Count, ast.Collect, ast.NumAgg)):
            if clause == "WHERE":
                if isinstance(expr, ast.NumAgg):
                    name = expr.func
                else:
                    name = "count" if isinstance(expr, ast.Count) else "collect"
                out.append(
                    Diagnostic(
                        rule="cypher/aggregate-in-where",
                        severity=Severity.ERROR,
                        message=f"{name}() is an aggregate and cannot "
                        "be used in WHERE; aggregates belong in RETURN",
                    )
                )
            if expr.operand is not None:
                self._check_expr(expr.operand, declared, out, clause)
        elif isinstance(expr, ast.ListLiteral):
            for item in expr.items:
                self._check_expr(item, declared, out, clause)

    def _check_bound(
        self,
        name: str,
        pos: int,
        declared: set[str],
        out: list[Diagnostic],
        clause: str,
    ) -> None:
        if name in declared:
            return
        out.append(
            Diagnostic(
                rule="cypher/unbound-variable",
                severity=Severity.ERROR,
                message=(
                    f"variable {name!r} in {clause} is not bound by any "
                    "MATCH pattern"
                ),
                span=_span_at(pos, name),
                suggestion=_closest(name, declared),
            )
        )

    def _check_property_key(
        self, key: str, pos: int, out: list[Diagnostic]
    ) -> None:
        if key in self.schema.property_keys:
            return
        out.append(
            Diagnostic(
                rule="cypher/unknown-property",
                severity=Severity.WARNING,
                message=f"property key {key!r} never occurs in the graph "
                "or ontology; the comparison will always be null",
                span=_span_at(pos, key),
                suggestion=_closest(key, self.schema.property_keys),
            )
        )

    def _check_compare_types(self, expr: ast.Compare, out: list[Diagnostic]) -> None:
        if expr.op in _ORDERING_OPS:
            self._check_ordering(expr, out)
        elif expr.op in _EQUALITY_OPS:
            self._check_equality(expr, out)

    def _check_ordering(self, expr: ast.Compare, out: list[Diagnostic]) -> None:
        left, right = expr.left, expr.right
        if isinstance(left, ast.Literal) and isinstance(right, ast.Literal):
            lg, rg = _group_of(left.value), _group_of(right.value)
            if lg and rg and lg != rg:
                out.append(
                    Diagnostic(
                        rule="cypher/type-mismatch",
                        severity=Severity.ERROR,
                        message=f"cannot order-compare {lg} with {rg}",
                        span=_span_at(expr.op_pos, expr.op),
                    )
                )
            return
        for prop, literal in ((left, right), (right, left)):
            if isinstance(prop, ast.Property) and isinstance(literal, ast.Literal):
                self._check_property_literal(prop, literal, expr, out)

    def _check_equality(self, expr: ast.Compare, out: list[Diagnostic]) -> None:
        left, right = expr.left, expr.right
        for prop, literal in ((left, right), (right, left)):
            if isinstance(prop, ast.Property) and isinstance(literal, ast.Literal):
                self._check_property_literal(prop, literal, expr, out)

    def _check_property_literal(
        self,
        prop: ast.Property,
        literal: ast.Literal,
        expr: ast.Compare,
        out: list[Diagnostic],
    ) -> None:
        observed = self.schema.property_types.get(prop.key)
        if not observed:
            return  # no evidence either way
        literal_group = _group_of(literal.value)
        if literal_group in (None, "null"):
            return
        observed_groups = {
            _TYPE_GROUPS.get(type_name) for type_name in observed
        } - {None}
        if observed_groups and literal_group not in observed_groups:
            kinds = "/".join(sorted(observed_groups))
            out.append(
                Diagnostic(
                    rule="cypher/type-mismatch",
                    severity=Severity.WARNING,
                    message=(
                        f"property {prop.key!r} holds {kinds} values but is "
                        f"compared with a {literal_group} literal"
                    ),
                    span=_span_at(expr.op_pos, expr.op),
                )
            )


# -- helpers ----------------------------------------------------------------


def _path_variables(path: ast.PathPattern) -> set[str]:
    names = {node.variable for node in path.nodes if node.variable}
    names.update(rel.variable for rel in path.rels if rel.variable)
    return names


def _span_at(pos: int, token: str | None) -> Span | None:
    if pos < 0:
        return None
    return Span(pos, pos + len(token or " "))


def _closest(name: str, candidates) -> str | None:
    matches = difflib.get_close_matches(name, list(candidates), n=1, cutoff=0.6)
    return matches[0] if matches else None


__all__ = [
    "BASE_PROPERTY_KEYS",
    "CypherAnalyzer",
    "QuerySchema",
    "graph_schema",
    "ontology_schema",
    "schema_for",
]
