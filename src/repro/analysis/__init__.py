"""Static analysis for the reproduction: query checking and repo lint.

Two analyzers share one diagnostics core (:mod:`.diagnostics`):

* :mod:`.cypher_check` -- semantic analysis of parsed Cypher queries
  against the ontology/graph schema (unknown labels, unbound
  variables, type mismatches, ...).
* :mod:`.lint` -- an ``ast`` pass over ``src/repro`` enforcing the
  determinism/concurrency invariants from the ROADMAP.
* :mod:`.concurrency` -- the interprocedural concurrency analyzer
  behind the ``conc/*`` lint rules: project-wide call graph with
  thread-root discovery, lock-set analysis per ``named_lock`` site,
  the static lock-acquisition-order hierarchy (``concurrency.json``)
  that the runtime :class:`repro.runtime.LockOrderWitness` validates
  under pytest, and blocking-under-lock detection.

Only the diagnostics core is imported eagerly; the analyzers are
exposed lazily (PEP 562) so that :mod:`repro.graphdb` can import this
package without creating an import cycle.
"""

from __future__ import annotations

from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    Span,
    caret_block,
    errors,
    render,
)

_LAZY = {
    "CypherAnalyzer": "repro.analysis.cypher_check",
    "QuerySchema": "repro.analysis.cypher_check",
    "ontology_schema": "repro.analysis.cypher_check",
    "graph_schema": "repro.analysis.cypher_check",
    "schema_for": "repro.analysis.cypher_check",
    "lint_paths": "repro.analysis.lint",
    "concurrency_findings": "repro.analysis.lint",
    "ConcurrencyModel": "repro.analysis.concurrency",
    "analyze_package": "repro.analysis.concurrency",
    "analyze_paths": "repro.analysis.concurrency",
    "cypher_check": "repro.analysis.cypher_check",
    "lint": "repro.analysis.lint",
    "concurrency": "repro.analysis.concurrency",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    if name in ("cypher_check", "lint", "concurrency"):
        return module
    return getattr(module, name)


__all__ = [
    "ConcurrencyModel",
    "CypherAnalyzer",
    "Diagnostic",
    "QuerySchema",
    "Severity",
    "Span",
    "analyze_package",
    "analyze_paths",
    "caret_block",
    "concurrency_findings",
    "errors",
    "graph_schema",
    "lint_paths",
    "ontology_schema",
    "render",
    "schema_for",
]
