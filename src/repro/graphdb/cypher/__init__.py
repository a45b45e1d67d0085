"""Cypher-subset query engine (lexer, parser, planner, executor).

One execution path: `planner` lowers every MATCH into the resumable
operators of `iterators`, with every expression, pattern test and
aggregate compiled to a closure by `compiler` (the one evaluator), and
the engine drains that tree -- in one slice for `run`, a page at a time
for `run_paginated`, a quantum at a time for `task`.  The engine keeps
what it prepared per query text, so a repeated query is parsed once and
analysed and planned once per graph version.
"""

from repro.graphdb.cypher.executor import (
    CypherAnalysisError,
    CypherEngine,
    CypherPage,
    CypherRuntimeError,
    QueryProfile,
    QueryTask,
    ResultRow,
)
from repro.graphdb.cypher.iterators import ExecutionContext, QuantumExhausted
from repro.graphdb.cypher.lexer import CypherSyntaxError, tokenize
from repro.graphdb.cypher.parser import parse
from repro.graphdb.cypher.planner import PhysicalPlan, build_plan

__all__ = [
    "CypherAnalysisError",
    "CypherEngine",
    "CypherPage",
    "CypherRuntimeError",
    "CypherSyntaxError",
    "ExecutionContext",
    "PhysicalPlan",
    "QuantumExhausted",
    "QueryProfile",
    "QueryTask",
    "ResultRow",
    "build_plan",
    "tokenize",
    "parse",
]
