"""Recursive-descent parser for the Cypher subset.

Grammar (informal)::

    query      := match_query | create_query
    match_query:= MATCH pattern (WHERE expr)? RETURN (DISTINCT)? items
                  (ORDER BY order_items)? (SKIP n)? (LIMIT n)?
    create_query := CREATE pattern   (directed single-hop rels only)
    pattern    := path (',' path)*
    path       := node (rel node)*
    node       := '(' IDENT? (':' IDENT)? props? ')'
    rel        := '-[' IDENT? (':' IDENT)? ']->' | '<-[' ... ']-' | '-[' ... ']-'
    props      := '{' IDENT ':' literal (',' IDENT ':' literal)* '}'
    expr       := or_expr;  standard precedence OR < AND < NOT < cmp
    cmp        := sum (('='|'<>'|'<'|'>'|'<='|'>='|IN|CONTAINS|
                        STARTS WITH|ENDS WITH) sum)?
                | sum IS (NOT)? NULL
    primary    := literal | list | count | property | variable | '(' expr ')'
"""

from __future__ import annotations

from repro.graphdb.cypher import ast
from repro.graphdb.cypher.lexer import (
    CypherSyntaxError,
    Token,
    TokenType,
    tokenize,
)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        #: inside a CREATE: a relationship is written, not matched
        self.creating = False

    # -- token helpers ------------------------------------------------

    def peek(self) -> Token:
        # never past the end: EOF is the last token and nothing advances
        # over it except the final ``expect(EOF)``
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def check(self, token_type: TokenType, value: str | None = None) -> bool:
        token = self.tokens[self.pos]
        if token.type is not token_type:
            return False
        return value is None or token.value == value

    def accept(self, token_type: TokenType, value: str | None = None) -> Token | None:
        token = self.tokens[self.pos]
        if token.type is token_type and (value is None or token.value == value):
            self.pos += 1
            return token
        return None

    def expect(self, token_type: TokenType, value: str | None = None) -> Token:
        token = self.accept(token_type, value)
        if token is None:
            actual = self.peek()
            wanted = value or token_type.value
            raise CypherSyntaxError(
                f"expected {wanted!r} at offset {actual.position}, "
                f"found {actual.value!r}"
            )
        return token

    # -- entry ------------------------------------------------------------

    def parse(self) -> ast.Query:
        explain = self.accept(TokenType.KEYWORD, "EXPLAIN") is not None
        profile = self.accept(TokenType.KEYWORD, "PROFILE") is not None
        if explain and profile:
            raise CypherSyntaxError("EXPLAIN and PROFILE cannot be combined")
        if self.check(TokenType.KEYWORD, "MATCH"):
            query = self.match_query(explain, profile)
        elif self.check(TokenType.KEYWORD, "CREATE"):
            if explain:
                raise CypherSyntaxError("EXPLAIN applies to MATCH queries only")
            if profile:
                raise CypherSyntaxError("PROFILE applies to MATCH queries only")
            query = self.create_query()
        else:
            raise CypherSyntaxError("query must start with MATCH or CREATE")
        self.expect(TokenType.EOF)
        return query

    def match_query(self, explain: bool, profile: bool) -> ast.MatchQuery:
        self.expect(TokenType.KEYWORD, "MATCH")
        paths = self.pattern()
        where = None
        if self.accept(TokenType.KEYWORD, "WHERE"):
            where = self.expression()
        self.expect(TokenType.KEYWORD, "RETURN")
        distinct = self.accept(TokenType.KEYWORD, "DISTINCT") is not None
        returns = self.return_items()
        order_by: list[tuple[ast.Expr, bool]] = []
        if self.accept(TokenType.KEYWORD, "ORDER"):
            self.expect(TokenType.KEYWORD, "BY")
            while True:
                expr = self.expression()
                ascending = True
                if self.accept(TokenType.KEYWORD, "DESC"):
                    ascending = False
                else:
                    self.accept(TokenType.KEYWORD, "ASC")
                order_by.append((expr, ascending))
                if not self.accept(TokenType.SYMBOL, ","):
                    break
        skip = limit = None
        if self.accept(TokenType.KEYWORD, "SKIP"):
            skip = int(self.expect(TokenType.NUMBER).value)
        if self.accept(TokenType.KEYWORD, "LIMIT"):
            limit = int(self.expect(TokenType.NUMBER).value)
        return ast.MatchQuery(
            paths=paths,
            where=where,
            returns=returns,
            distinct=distinct,
            order_by=tuple(order_by),
            skip=skip,
            limit=limit,
            explain=explain,
            profile=profile,
        )

    def create_query(self) -> ast.CreateQuery:
        self.expect(TokenType.KEYWORD, "CREATE")
        self.creating = True
        return ast.CreateQuery(paths=self.pattern())

    # -- patterns --------------------------------------------------------------

    def pattern(self) -> tuple[ast.PathPattern, ...]:
        paths = [self.path()]
        while self.accept(TokenType.SYMBOL, ","):
            paths.append(self.path())
        return tuple(paths)

    def path(self) -> ast.PathPattern:
        nodes = [self.node_pattern()]
        rels: list[ast.RelPattern] = []
        while self.check(TokenType.SYMBOL, "-") or self.check(
            TokenType.SYMBOL, "<-"
        ):
            rels.append(self.rel_pattern())
            nodes.append(self.node_pattern())
        return ast.PathPattern(nodes=tuple(nodes), rels=tuple(rels))

    def node_pattern(self) -> ast.NodePattern:
        open_token = self.expect(TokenType.SYMBOL, "(")
        variable = None
        label = None
        label_pos = -1
        token = self.accept(TokenType.IDENT)
        if token is not None:
            variable = token.value
        if self.accept(TokenType.SYMBOL, ":"):
            label_token = self._name_token()
            label = label_token.value
            label_pos = label_token.position
        properties: tuple[tuple[str, object], ...] = ()
        property_positions: tuple[int, ...] = ()
        if self.check(TokenType.SYMBOL, "{"):
            properties, property_positions = self.property_map()
        self.expect(TokenType.SYMBOL, ")")
        return ast.NodePattern(
            variable=variable,
            label=label,
            properties=properties,
            pos=open_token.position,
            label_pos=label_pos,
            property_positions=property_positions,
        )

    def _name(self) -> str:
        return self._name_token().value

    def _name_token(self) -> Token:
        token = self.peek()
        if token.type in (TokenType.IDENT, TokenType.KEYWORD):
            self.advance()
            return token
        raise CypherSyntaxError(
            f"expected a name at offset {token.position}, found {token.value!r}"
        )

    def rel_pattern(self) -> ast.RelPattern:
        direction = "any"
        start = self.peek().position
        if self.accept(TokenType.SYMBOL, "<-"):
            direction = "in"
        else:
            self.expect(TokenType.SYMBOL, "-")
        variable = None
        rel_type = None
        type_pos = star_pos = -1
        min_hops = max_hops = 1
        explicit_max = True
        if self.accept(TokenType.SYMBOL, "["):
            token = self.accept(TokenType.IDENT)
            if token is not None:
                variable = token.value
            if self.accept(TokenType.SYMBOL, ":"):
                type_token = self._name_token()
                rel_type = type_token.value
                type_pos = type_token.position
            star = self.accept(TokenType.SYMBOL, "*")
            if star is not None:
                star_pos = star.position
                min_hops, max_hops, explicit_max = self._hop_range()
            self.expect(TokenType.SYMBOL, "]")
        if self.accept(TokenType.SYMBOL, "->"):
            if direction == "in":
                raise CypherSyntaxError("relationship cannot point both ways")
            direction = "out"
        else:
            self.expect(TokenType.SYMBOL, "-")
        if (min_hops, max_hops) != (1, 1) and variable is not None:
            raise CypherSyntaxError(
                "variable-length relationships cannot bind a variable"
            )
        if self.creating:
            # one edge, one way: anything else would be written as
            # something the query did not say
            if star_pos >= 0:
                raise CypherSyntaxError(
                    "CREATE cannot write a variable-length relationship "
                    f"at offset {star_pos}"
                )
            if direction == "any":
                raise CypherSyntaxError(
                    f"CREATE needs a directed relationship at offset {start}"
                )
        return ast.RelPattern(
            variable=variable,
            rel_type=rel_type,
            direction=direction,
            min_hops=min_hops,
            max_hops=max_hops,
            explicit_max=explicit_max,
            type_pos=type_pos,
            star_pos=star_pos,
        )

    #: upper bound for an unbounded ``*`` (keeps traversal finite).
    DEFAULT_MAX_HOPS = 5

    def _hop_range(self) -> tuple[int, int, bool]:
        """Parse the range after ``*``: ``*``, ``*n``, ``*n..m``, ``*..m``.

        The third element reports whether the upper bound was written
        explicitly (``False`` means it came from ``DEFAULT_MAX_HOPS``).
        """
        low = None
        explicit = True
        token = self.accept(TokenType.NUMBER)
        if token is not None:
            low = int(token.value)
        if self.accept(TokenType.SYMBOL, "."):
            self.expect(TokenType.SYMBOL, ".")
            token = self.accept(TokenType.NUMBER)
            if token is not None:
                high = int(token.value)
            else:
                high = self.DEFAULT_MAX_HOPS
                explicit = False
            low = 1 if low is None else low
        elif low is not None:
            high = low  # '*n' means exactly n hops
        else:
            low, high = 1, self.DEFAULT_MAX_HOPS  # bare '*'
            explicit = False
        if low < 0 or high < low:
            raise CypherSyntaxError(f"invalid hop range *{low}..{high}")
        return low, high, explicit

    def property_map(self) -> tuple[tuple[tuple[str, object], ...], tuple[int, ...]]:
        self.expect(TokenType.SYMBOL, "{")
        pairs: list[tuple[str, object]] = []
        positions: list[int] = []
        if not self.check(TokenType.SYMBOL, "}"):
            while True:
                key_token = self._name_token()
                self.expect(TokenType.SYMBOL, ":")
                pairs.append((key_token.value, self._literal_value()))
                positions.append(key_token.position)
                if not self.accept(TokenType.SYMBOL, ","):
                    break
        self.expect(TokenType.SYMBOL, "}")
        return tuple(pairs), tuple(positions)

    def _literal_value(self) -> object:
        token = self.peek()
        if token.type is TokenType.STRING:
            self.advance()
            return token.value
        if token.type is TokenType.NUMBER:
            self.advance()
            return float(token.value) if "." in token.value else int(token.value)
        if token.type is TokenType.KEYWORD and token.value in ("TRUE", "FALSE"):
            self.advance()
            return token.value == "TRUE"
        if token.type is TokenType.KEYWORD and token.value == "NULL":
            self.advance()
            return None
        raise CypherSyntaxError(
            f"expected a literal at offset {token.position}, found {token.value!r}"
        )

    # -- RETURN ------------------------------------------------------------------

    def return_items(self) -> tuple[ast.ReturnItem, ...]:
        items = [self.return_item()]
        while self.accept(TokenType.SYMBOL, ","):
            items.append(self.return_item())
        return tuple(items)

    def return_item(self) -> ast.ReturnItem:
        expr = self.expression()
        alias = None
        if self.accept(TokenType.KEYWORD, "AS"):
            alias = self._name()
        if alias is None:
            alias = _default_alias(expr)
        return ast.ReturnItem(expr=expr, alias=alias)

    # -- expressions ----------------------------------------------------------------

    def expression(self) -> ast.Expr:
        return self.or_expr()

    def or_expr(self) -> ast.Expr:
        left = self.and_expr()
        while self.accept(TokenType.KEYWORD, "OR"):
            left = ast.Or(left, self.and_expr())
        return left

    def and_expr(self) -> ast.Expr:
        left = self.not_expr()
        while self.accept(TokenType.KEYWORD, "AND"):
            left = ast.And(left, self.not_expr())
        return left

    def not_expr(self) -> ast.Expr:
        if self.accept(TokenType.KEYWORD, "NOT"):
            return ast.Not(self.not_expr())
        return self.comparison()

    def comparison(self) -> ast.Expr:
        left = self.primary()
        token = self.peek()
        pos = token.position
        if token.type is TokenType.SYMBOL and token.value in (
            "=",
            "<>",
            "<",
            ">",
            "<=",
            ">=",
        ):
            self.advance()
            return ast.Compare(token.value, left, self.primary(), op_pos=pos)
        if token.type is TokenType.KEYWORD and token.value == "IN":
            self.advance()
            return ast.Compare("IN", left, self.primary(), op_pos=pos)
        if token.type is TokenType.KEYWORD and token.value == "CONTAINS":
            self.advance()
            return ast.Compare("CONTAINS", left, self.primary(), op_pos=pos)
        if token.type is TokenType.KEYWORD and token.value == "STARTS":
            self.advance()
            self.expect(TokenType.KEYWORD, "WITH")
            return ast.Compare("STARTS WITH", left, self.primary(), op_pos=pos)
        if token.type is TokenType.KEYWORD and token.value == "ENDS":
            self.advance()
            self.expect(TokenType.KEYWORD, "WITH")
            return ast.Compare("ENDS WITH", left, self.primary(), op_pos=pos)
        if token.type is TokenType.KEYWORD and token.value == "IS":
            self.advance()
            if self.accept(TokenType.KEYWORD, "NOT"):
                self.expect(TokenType.KEYWORD, "NULL")
                return ast.Compare("IS NOT NULL", left, None, op_pos=pos)
            self.expect(TokenType.KEYWORD, "NULL")
            return ast.Compare("IS NULL", left, None, op_pos=pos)
        return left

    def primary(self) -> ast.Expr:
        token = self.peek()
        if token.type is TokenType.STRING:
            self.advance()
            return ast.Literal(token.value)
        if token.type is TokenType.NUMBER:
            self.advance()
            value = float(token.value) if "." in token.value else int(token.value)
            return ast.Literal(value)
        if token.type is TokenType.KEYWORD and token.value in ("TRUE", "FALSE"):
            self.advance()
            return ast.Literal(token.value == "TRUE")
        if token.type is TokenType.KEYWORD and token.value == "NULL":
            self.advance()
            return ast.Literal(None)
        if token.type is TokenType.KEYWORD and token.value == "COUNT":
            self.advance()
            self.expect(TokenType.SYMBOL, "(")
            if self.accept(TokenType.SYMBOL, "*"):
                self.expect(TokenType.SYMBOL, ")")
                return ast.Count(None)
            distinct = self.accept(TokenType.KEYWORD, "DISTINCT") is not None
            operand = self.expression()
            self.expect(TokenType.SYMBOL, ")")
            return ast.Count(operand, distinct=distinct)
        if token.type is TokenType.KEYWORD and token.value == "COLLECT":
            self.advance()
            self.expect(TokenType.SYMBOL, "(")
            distinct = self.accept(TokenType.KEYWORD, "DISTINCT") is not None
            operand = self.expression()
            self.expect(TokenType.SYMBOL, ")")
            return ast.Collect(operand, distinct=distinct)
        if (
            token.type is TokenType.KEYWORD
            and token.value in ("AVG", "MIN", "MAX", "SUM")
            # a keyword is never the last token (EOF is), so +1 exists
            and self.tokens[self.pos + 1].type is TokenType.SYMBOL
            and self.tokens[self.pos + 1].value == "("
        ):
            self.advance()
            self.expect(TokenType.SYMBOL, "(")
            distinct = self.accept(TokenType.KEYWORD, "DISTINCT") is not None
            operand = self.expression()
            self.expect(TokenType.SYMBOL, ")")
            return ast.NumAgg(token.value.lower(), operand, distinct=distinct)
        if token.type is TokenType.SYMBOL and token.value == "[":
            self.advance()
            items: list[ast.Expr] = []
            if not self.check(TokenType.SYMBOL, "]"):
                while True:
                    items.append(self.expression())
                    if not self.accept(TokenType.SYMBOL, ","):
                        break
            self.expect(TokenType.SYMBOL, "]")
            return ast.ListLiteral(tuple(items))
        if token.type is TokenType.SYMBOL and token.value == "(":
            self.advance()
            expr = self.expression()
            self.expect(TokenType.SYMBOL, ")")
            return expr
        if token.type is TokenType.IDENT:
            self.advance()
            if self.accept(TokenType.SYMBOL, "."):
                key_token = self._name_token()
                return ast.Property(
                    token.value,
                    key_token.value,
                    pos=token.position,
                    key_pos=key_token.position,
                )
            return ast.Variable(token.value, pos=token.position)
        raise CypherSyntaxError(
            f"unexpected token {token.value!r} at offset {token.position}"
        )


def _default_alias(expr: ast.Expr) -> str:
    if isinstance(expr, ast.Variable):
        return expr.name
    if isinstance(expr, ast.Property):
        return f"{expr.variable}.{expr.key}"
    if isinstance(expr, ast.Count):
        return "count"
    if isinstance(expr, ast.Collect):
        return "collect"
    if isinstance(expr, ast.NumAgg):
        return expr.func
    return "expr"


def parse(query: str) -> ast.Query:
    """Parse a Cypher query string into an AST."""
    return _Parser(tokenize(query)).parse()


__all__ = ["parse"]
