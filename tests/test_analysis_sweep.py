"""Sweep: every Cypher string shipped in the repo passes analysis.

Walks ``src/repro/apps``, ``examples/`` and ``benchmarks/``, extracts
every string literal (including f-strings, with interpolations replaced
by a placeholder) that looks like a Cypher query, and asserts the
semantic analyzer finds no errors against the closed ontology schema.
A failure here means we ship a query that strict mode would reject.
"""

import ast
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.cypher_check import CypherAnalyzer, ontology_schema

#: the ontology taken as authoritative: a shipped query naming a label
#: or type outside it is an error, graph or no graph
CLOSED = replace(ontology_schema(), closed_labels=True, closed_rel_types=True)
from repro.analysis.diagnostics import errors
from repro.graphdb.cypher.parser import parse

REPO = Path(__file__).resolve().parents[1]
SWEEP_ROOTS = [
    REPO / "src" / "repro" / "apps",
    REPO / "examples",
    REPO / "benchmarks",
]

_QUERY_RE = re.compile(
    r"^\s*(explain\s+)?(match|create)\s*\(", re.IGNORECASE
)


def _string_value(node: ast.expr) -> str | None:
    """The text of a string literal; f-string slots become ``"x"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts = []
        for piece in node.values:
            if isinstance(piece, ast.Constant):
                parts.append(str(piece.value))
            else:  # FormattedValue: substitute a neutral placeholder
                parts.append("x")
        return "".join(parts)
    return None


def shipped_queries() -> list[tuple[str, str]]:
    """(location, query) for every Cypher-looking string literal."""
    found: list[tuple[str, str]] = []
    for root in SWEEP_ROOTS:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            # constants inside an f-string are fragments, not queries
            fragments = {
                id(piece)
                for node in ast.walk(tree)
                if isinstance(node, ast.JoinedStr)
                for piece in node.values
            }
            for node in ast.walk(tree):
                if id(node) in fragments:
                    continue
                text = _string_value(node)
                if text is None or not _QUERY_RE.match(text):
                    continue
                location = f"{path.relative_to(REPO)}:{node.lineno}"
                found.append((location, text))
    return found


QUERIES = shipped_queries()


def test_sweep_found_the_known_call_sites():
    # guard against the extractor silently going blind
    assert len(QUERIES) >= 8
    files = {location.split(":")[0] for location, _ in QUERIES}
    assert any("threat_search" in f for f in files)
    assert any("quickstart" in f for f in files)
    assert any("test_bench_search" in f for f in files)


@pytest.mark.parametrize(
    "location,query", QUERIES, ids=[location for location, _ in QUERIES]
)
def test_shipped_query_passes_analysis(location, query):
    parsed = parse(query)  # must at least be parseable
    diagnostics = CypherAnalyzer(CLOSED).analyze(
        parsed, query
    )
    hard = errors(diagnostics)
    assert not hard, f"{location}: " + "; ".join(d.format(query) for d in hard)
