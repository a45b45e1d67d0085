"""Repo invariant lint.

An :mod:`ast` pass over ``src/repro`` enforcing the determinism and
concurrency invariants the deterministic-replay pipeline depends on
(ROADMAP north star).

A call rule is a table row, not a walk of its own.  One resolver turns
every callee into the dotted name the file's imports bind it to:
``time()`` after ``from time import time`` is ``time.time``, and
``dt.date.today()`` after ``import datetime as dt`` is
``datetime.date.today``.  Four module tables then decide:
``_BANNED_CALLS`` (dotted call -> rule), ``_REQUIRED_KEYWORDS`` (callee
-> the keywords one of which it must pass), ``_EXEMPT`` (rule -> the
files it spares) and ``_MESSAGES`` (rule -> message).
``Path.replace(target)`` is the one call matched by its shape instead
of its name.  A file's findings come out in ``(line, col, rule)``
order.  Rules:

``det/global-random``
    Direct calls into the global :mod:`random` module (``random.random()``,
    ``from random import randint``).  All randomness must flow through
    seeded ``random.Random`` instances derived via :mod:`repro.websim.rnd`
    (constructing ``random.Random(seed)`` is fine).
``det/wall-clock``
    ``time.time()`` / ``time.time_ns()`` / ``datetime.now()`` /
    ``datetime.utcnow()`` / ``datetime.today()`` / ``date.today()``
    reads.  Wall-clock reads make
    replays diverge; timestamps must come from the injected
    :class:`repro.runtime.Clock`.
``det/raw-sleep``
    Direct ``time.sleep()`` / ``time.monotonic()`` calls outside
    ``repro/runtime/clock.py`` (the clock implementations themselves).
    Sleeping or measuring elapsed time must go through the injected
    clock, or virtual-time runs silently burn real seconds.
``det/unseeded-solver``
    An iterative eigen/SVD solver (``svds`` / ``eigsh`` / ``eigs`` /
    ``lobpcg``) called without a start vector or seed keyword (``v0=`` /
    ``X=`` / ``random_state=`` / ``rng=``).  ARPACK then draws its start
    vector from numpy's *global* RNG -- randomness ``det/global-random``
    cannot see, because no ``random`` call appears in the source.
``conc/inconsistent-guard``
    (interprocedural, :mod:`repro.analysis.concurrency`) a field written
    both under and outside its guarding lock on a thread-reachable
    path.  Supersedes the old per-file ``conc/unlocked-shared-write``
    rule repo-wide: the guard map is inferred from every
    ``named_lock`` site, not two hand-listed files.
``conc/lock-order-cycle``
    (interprocedural) a cycle in the static lock-acquisition-order
    graph built from nested ``with <lock>:`` blocks across call-graph
    edges.  The same hierarchy feeds the runtime
    :class:`repro.runtime.LockOrderWitness` under pytest.
``conc/blocking-under-lock``
    (interprocedural) a blocking operation -- clock sleep/wait,
    fetcher/transport I/O, fsync -- while holding a lock.  Journal and
    checkpoint I/O under ``repro/storage/`` is sanctioned: write-ahead
    durability under the engine lock is the design.
``conc/unnamed-thread``
    a ``threading.Thread(...)`` spawned without ``name=``, or a
    ``ThreadPoolExecutor(...)`` built without ``thread_name_prefix=``.
    Witness reports, traces and the SLO alerter attribute events by
    thread name; anonymous ``Thread-12`` /
    ``ThreadPoolExecutor-0_3`` labels make them unreadable.
``err/bare-except``
    ``except:`` with no exception type.
``err/silent-swallow``
    ``except Exception: pass`` (or ``BaseException``) -- a handler that
    catches everything and does nothing.
``ser/unserializable-field``
    Dataclass fields in ``ontology/intermediate.py`` (the pipelined
    hand-off records) whose annotated type is not JSON-safe.
``obs/untraced-stage``
    In ``core/pipeline.py``: a pipeline stage invocation (a call of
    ``fn``, a name or a ``.fn`` attribute) not lexically inside a
    ``with ...span...:`` block.  Every stage must run under a tracer
    span -- the no-op tracer makes the span free, so there is no
    fast-path excuse -- or operators lose the per-stage timing the
    observability layer promises (OBSERVABILITY.md).
``store/raw-atomic-write``
    File renames outside ``repro/storage/`` -- ``Path.replace(target)``,
    ``os.replace`` / ``os.rename``, ``shutil.move``.  A bare
    write-then-rename is atomic but not durable (no fsync of the file
    or its directory) and ``with_suffix(".tmp")`` collides for dotted
    filenames; persistence must go through
    :func:`repro.storage.atomic_write_bytes` and friends.

Findings can be suppressed with a ``# repro: allow[rule]`` comment on
the offending line or the line above; ``rule`` is the full id
(``det/wall-clock``) or its leaf (``wall-clock``).  That comment is the
only exemption: every other finding fails the run.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import sys
from operator import attrgetter
from pathlib import Path
from typing import Iterable, TextIO

from dataclasses import replace

from repro.analysis.concurrency import (
    ConcurrencyModel,
    analyze_paths,
    collect_files,
    is_dataclass_def,
    leaf_name,
)
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.storage.atomic import atomic_write_text

#: Root the default scan covers: the installed ``repro`` package source.
DEFAULT_ROOT = Path(__file__).resolve().parents[1]

#: Files whose dataclasses must stay JSON-serialisable (pipeline hand-offs).
SERIALIZABLE_SUFFIXES = ("ontology/intermediate.py",)
#: Files whose stage invocations must run under a tracer span.
OBS_STAGE_SUFFIXES = ("core/pipeline.py",)

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]+)\]")

#: resolved dotted call -> the rule it breaks.  A row covers the name
#: and every attribute under it, the longest covering row decides, and a
#: ``None`` rule lets the call through: every ``random`` call is banned
#: except ``random.Random``, the seeded generator
_BANNED_CALLS: dict[str, str | None] = {
    "random": "det/global-random",
    "random.Random": None,
    "time.time": "det/wall-clock",
    "time.time_ns": "det/wall-clock",
    "datetime.datetime.now": "det/wall-clock",
    "datetime.datetime.utcnow": "det/wall-clock",
    "datetime.datetime.today": "det/wall-clock",
    "datetime.date.today": "det/wall-clock",
    "time.sleep": "det/raw-sleep",
    "time.monotonic": "det/raw-sleep",
    "os.replace": "store/raw-atomic-write",
    "os.rename": "store/raw-atomic-write",
    "shutil.move": "store/raw-atomic-write",
}
_SOLVER_SEEDS = ("v0", "X", "random_state", "rng")
#: callee -> (rule, the keywords one of which every call must pass)
_REQUIRED_KEYWORDS: dict[str, tuple[str, tuple[str, ...]]] = {
    "svds": ("det/unseeded-solver", _SOLVER_SEEDS),
    "eigsh": ("det/unseeded-solver", _SOLVER_SEEDS),
    "eigs": ("det/unseeded-solver", _SOLVER_SEEDS),
    "lobpcg": ("det/unseeded-solver", _SOLVER_SEEDS),
    "Thread": ("conc/unnamed-thread", ("name",)),
    "ThreadPoolExecutor": ("conc/unnamed-thread", ("thread_name_prefix",)),
}
#: rule -> path fragments of the files it does not apply to: the seeded
#: RNG home, the clock implementations, the atomic-write helpers
_EXEMPT: dict[str, tuple[str, ...]] = {
    "det/global-random": ("websim/rnd.py",),
    "det/wall-clock": ("websim/rnd.py",),
    "det/unseeded-solver": ("websim/rnd.py",),
    "det/raw-sleep": ("runtime/clock.py",),
    "store/raw-atomic-write": ("repro/storage/",),
}
#: rule -> message; ``{callee}`` is the call as resolved and
#: ``{keywords}`` the keywords it must pass one of
_MESSAGES = {
    "det/global-random": (
        "{callee}() uses the shared global RNG; derive a seeded "
        "random.Random via repro.websim.rnd instead"
    ),
    "det/wall-clock": (
        "{callee}() reads the wall clock, which breaks deterministic "
        "replay; thread a timestamp in from the caller or use the "
        "injected repro.runtime clock"
    ),
    "det/raw-sleep": (
        "{callee}() bypasses the injected repro.runtime clock; sleep "
        "and measure elapsed time through a Clock so virtual-time "
        "runs stay instant"
    ),
    "det/unseeded-solver": (
        "{callee}() without {keywords} starts from numpy's global "
        "RNG, so the result differs run to run; pass a seeded start "
        "vector by keyword"
    ),
    "store/raw-atomic-write": (
        "{callee}(...) renames a file without fsync, so the data can "
        "vanish on a host crash; persist through the "
        "repro.storage.atomic_write_* helpers"
    ),
    "conc/unnamed-thread": (
        "{callee} created without {keywords}; witness reports, "
        "traces and health alerts attribute events by thread name"
    ),
    "err/bare-except": (
        "bare 'except:' catches SystemExit/KeyboardInterrupt; "
        "name the exception type"
    ),
    "err/silent-swallow": (
        "handler catches Exception and does nothing, hiding "
        "failures; log or re-raise"
    ),
    "ser/unserializable-field": (
        "field {field!r} of dataclass {cls!r} has a "
        "non-JSON-serialisable type annotation; pipeline hand-off "
        "records must round-trip through JSON"
    ),
    "obs/untraced-stage": (
        "pipeline stage runs outside a tracer span; wrap the "
        "fn(...) call in 'with obs.tracer.span(name):' so "
        "per-stage timing reaches the trace"
    ),
}


def _has_suffix(path: Path, suffixes: tuple[str, ...]) -> bool:
    posix = path.as_posix()
    return any(posix.endswith(suffix) for suffix in suffixes)


def _suppressed(lines: list[str], lineno: int, rule: str) -> bool:
    """Whether ``# repro: allow[rule]`` covers 1-based line ``lineno``."""
    leaf = rule.rsplit("/", 1)[-1]
    for index in (lineno - 1, lineno - 2):
        if 0 <= index < len(lines):
            for match in _ALLOW_RE.finditer(lines[index]):
                allowed = {part.strip() for part in match.group(1).split(",")}
                if rule in allowed or leaf in allowed:
                    return True
    return False


def _import_origins(tree: ast.Module) -> dict[str, str]:
    """Local name -> the dotted name a file's absolute imports bind it to."""
    origins: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                origins[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                origins[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return origins


def _banned_rule(dotted: str | None) -> str | None:
    """The rule of the longest ``_BANNED_CALLS`` row covering ``dotted``."""
    while dotted:
        if dotted in _BANNED_CALLS:
            return _BANNED_CALLS[dotted]
        dotted = dotted.rpartition(".")[0]
    return None


def _resolve(func: ast.expr, origins: dict[str, str]) -> str | None:
    """The dotted name an ``a.b.c`` callee reaches through the imports."""
    attrs: list[str] = []
    while isinstance(func, ast.Attribute):
        attrs.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name) or func.id not in origins:
        return None
    return ".".join([origins[func.id], *reversed(attrs)])


class _FileLint:
    """Collects diagnostics for one python source file."""

    def __init__(self, path: Path, source: str):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        try:
            self.display = os.path.relpath(path)
        except ValueError:  # different drive on windows
            self.display = str(path)
        posix = path.resolve().as_posix()
        self.exempt = {
            rule
            for rule, parts in _EXEMPT.items()
            if any(part in posix for part in parts)
        }
        self.findings: list[Diagnostic] = []

    def add(self, rule: str, node: ast.AST, **fields: str) -> None:
        lineno = getattr(node, "lineno", 0)
        if rule in self.exempt or _suppressed(self.lines, lineno, rule):
            return
        self.findings.append(
            Diagnostic(
                rule=rule,
                severity=Severity.ERROR,
                message=_MESSAGES[rule].format(**fields),
                path=self.display,
                line=lineno,
                col=getattr(node, "col_offset", 0),
            )
        )

    def run(self) -> list[Diagnostic]:
        """Findings in ``(line, col, rule)`` order."""
        try:
            tree = ast.parse(self.source)
        except SyntaxError as error:
            return [
                Diagnostic(
                    rule="lint/syntax-error",
                    severity=Severity.ERROR,
                    message=f"cannot parse: {error.msg}",
                    path=self.display,
                    line=error.lineno or 0,
                    col=error.offset or 0,
                )
            ]
        self._check_calls(tree)
        self._check_exception_handling(tree)
        if _has_suffix(self.path, SERIALIZABLE_SUFFIXES):
            self._check_serializability(tree)
        if _has_suffix(self.path, OBS_STAGE_SUFFIXES):
            self._check_traced_stages(tree)
        return sorted(self.findings, key=attrgetter("line", "col", "rule"))

    # -- calls -------------------------------------------------------------

    def _check_calls(self, tree: ast.Module) -> None:
        """Resolve every call once and look it up in the call tables."""
        origins = _import_origins(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            dotted = _resolve(func, origins)
            rule = _banned_rule(dotted)
            if rule is not None:
                self.add(rule, node, callee=dotted)
            elif (
                # Path.replace(target): one positional argument, no keywords
                # (str.replace always takes two -- this cannot be it)
                isinstance(func, ast.Attribute)
                and func.attr == "replace"
                and len(node.args) == 1
                and not node.keywords
            ):
                self.add("store/raw-atomic-write", node, callee=".replace")
            callee = dotted.rpartition(".")[2] if dotted else leaf_name(func)
            rule, keywords = _REQUIRED_KEYWORDS.get(callee, (None, ()))
            if rule and not any(given.arg in keywords for given in node.keywords):
                self.add(
                    rule,
                    node,
                    callee=callee,
                    keywords=" / ".join(f"{keyword}=" for keyword in keywords),
                )

    # -- exception hygiene -------------------------------------------------

    def _check_exception_handling(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                self.add("err/bare-except", node)
                continue
            if self._catches_everything(node.type) and all(
                self._is_noop(stmt) for stmt in node.body
            ):
                self.add("err/silent-swallow", node)

    @staticmethod
    def _catches_everything(expr: ast.expr) -> bool:
        names: list[ast.expr] = (
            list(expr.elts) if isinstance(expr, ast.Tuple) else [expr]
        )
        for item in names:
            if isinstance(item, ast.Name) and item.id in (
                "Exception",
                "BaseException",
            ):
                return True
        return False

    @staticmethod
    def _is_noop(stmt: ast.stmt) -> bool:
        if isinstance(stmt, ast.Pass):
            return True
        return isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Constant
        )

    # -- observability -----------------------------------------------------

    def _check_traced_stages(self, tree: ast.Module) -> None:
        """Every ``fn(...)`` / ``stage.fn(...)`` call must sit under a span."""
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for stmt in node.body:
                    self._scan_trace_stmt(stmt, traced=False)

    def _scan_trace_stmt(self, node: ast.stmt, traced: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs are scanned as their own roots
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = traced or any(
                _mentions_span(item.context_expr) for item in node.items
            )
            for stmt in node.body:
                self._scan_trace_stmt(stmt, inner)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._scan_trace_stmt(child, traced)
            elif isinstance(child, ast.expr) and not traced:
                self._flag_untraced_fn_calls(child)

    def _flag_untraced_fn_calls(self, expr: ast.expr) -> None:
        for call in ast.walk(expr):
            if isinstance(call, ast.Call) and leaf_name(call.func) == "fn":
                self.add("obs/untraced-stage", call)

    # -- serializability ---------------------------------------------------

    def _check_serializability(self, tree: ast.Module) -> None:
        dataclasses = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and is_dataclass_def(node)
        ]
        same_module = {cls.name for cls in dataclasses}
        safe_names = (
            {
                "str",
                "int",
                "float",
                "bool",
                "None",
                "NoneType",
                "object",
                "EntityType",
                "RelationType",
            }
            | same_module
        )
        for cls in dataclasses:
            for stmt in cls.body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                if not isinstance(stmt.target, ast.Name):
                    continue
                if not self._json_safe(stmt.annotation, safe_names):
                    self.add(
                        "ser/unserializable-field",
                        stmt,
                        field=stmt.target.id,
                        cls=cls.name,
                    )

    def _json_safe(self, annotation: ast.expr, safe_names: set[str]) -> bool:
        if isinstance(annotation, ast.Constant):
            if annotation.value is None:
                return True
            if isinstance(annotation.value, str):
                try:
                    parsed = ast.parse(annotation.value, mode="eval").body
                except SyntaxError:
                    return False
                return self._json_safe(parsed, safe_names)
            return False
        if isinstance(annotation, (ast.Name, ast.Attribute)):
            return leaf_name(annotation) in safe_names
        if isinstance(annotation, ast.BinOp) and isinstance(
            annotation.op, ast.BitOr
        ):
            return self._json_safe(annotation.left, safe_names) and self._json_safe(
                annotation.right, safe_names
            )
        if isinstance(annotation, ast.Subscript):
            container_name = leaf_name(annotation.value)
            if container_name not in (
                "list",
                "List",
                "dict",
                "Dict",
                "tuple",
                "Tuple",
                "Optional",
                "Union",
                "Sequence",
                "Mapping",
            ):
                return False
            inner = annotation.slice
            items = list(inner.elts) if isinstance(inner, ast.Tuple) else [inner]
            if container_name in ("dict", "Dict", "Mapping") and items:
                key = items[0]
                if not (isinstance(key, ast.Name) and key.id == "str"):
                    return False
            return all(self._json_safe(item, safe_names) for item in items)
        return False


def _mentions_span(expr: ast.expr) -> bool:
    return any("span" in (leaf_name(node) or "").lower() for node in ast.walk(expr))


# -- driver -----------------------------------------------------------------


def lint_file(path: Path) -> list[Diagnostic]:
    """All findings for one file (suppressions applied)."""
    source = path.read_text(encoding="utf-8")
    return _FileLint(path, source).run()


def lint_paths(paths: Iterable[Path]) -> list[Diagnostic]:
    """Findings across files and directories (``.py`` files, recursively)."""
    return [
        finding for file in collect_files(paths) for finding in lint_file(file)
    ]


def concurrency_findings(
    paths: Iterable[Path], root: Path | None = None
) -> tuple[ConcurrencyModel, list[Diagnostic]]:
    """The cross-file concurrency pass, with suppressions applied.

    Returns the canonical lock-hierarchy model plus the interprocedural
    ``conc/*`` findings, with ``# repro: allow[...]`` comments honoured
    and paths rewritten relative to the working directory so they print
    like per-file findings.
    """
    base = Path(root).resolve() if root is not None else DEFAULT_ROOT
    model, diagnostics = analyze_paths(list(paths), root=base)
    kept: list[Diagnostic] = []
    for diagnostic in diagnostics:
        file_path = base / (diagnostic.path or "")
        try:
            lines = file_path.read_text(encoding="utf-8").splitlines()
        except OSError:
            lines = []
        if diagnostic.line and _suppressed(
            lines, diagnostic.line, diagnostic.rule
        ):
            continue
        try:
            display = os.path.relpath(file_path)
        except ValueError:  # different drive on windows
            display = str(file_path)
        kept.append(replace(diagnostic, path=display))
    return model, kept


# -- CLI --------------------------------------------------------------------


def main(argv: list[str] | None = None, out: TextIO | None = None) -> int:
    """``repro-lint`` / ``python -m repro lint`` entry point.

    Exits 0 when there are no findings, 1 otherwise.
    """
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="static lint of the repro determinism/concurrency invariants",
        allow_abbrev=False,
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help=f"files or directories to lint (default: {DEFAULT_ROOT})",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit findings as a JSON document instead of text lines",
    )
    parser.add_argument(
        "--concurrency-report",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write the canonical lock-hierarchy model "
        "(concurrency.json) to PATH",
    )
    args = parser.parse_args(argv)
    missing = [str(path) for path in args.paths if not path.exists()]
    if missing:
        parser.error(f"no such file or directory: {', '.join(missing)}")

    scan_paths = args.paths or [DEFAULT_ROOT]
    conc_root = DEFAULT_ROOT
    if args.paths:
        first = Path(args.paths[0]).resolve()
        if not first.is_relative_to(DEFAULT_ROOT):
            conc_root = first if first.is_dir() else first.parent
    findings = lint_paths(scan_paths)
    model, conc_findings = concurrency_findings(scan_paths, root=conc_root)
    findings = findings + conc_findings
    if args.concurrency_report is not None:
        atomic_write_text(args.concurrency_report, model.canonical_json())

    try:
        if args.json:
            payload = {
                "findings": [diagnostic.to_dict() for diagnostic in findings],
                "total": len(findings),
            }
            print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        else:
            for diagnostic in findings:
                print(diagnostic.format(), file=out)
            print(f"{len(findings)} finding{'s' if len(findings) != 1 else ''}", file=out)
        out.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): Python's SIGPIPE
        # recipe, so the flush at exit cannot raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
