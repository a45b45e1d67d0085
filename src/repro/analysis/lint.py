"""Repo invariant lint.

An :mod:`ast` pass over ``src/repro`` enforcing the determinism and
concurrency invariants the deterministic-replay pipeline depends on
(ROADMAP north star).  Rules:

``det/global-random``
    Direct calls into the global :mod:`random` module (``random.random()``,
    ``from random import randint``).  All randomness must flow through
    seeded ``random.Random`` instances derived via :mod:`repro.websim.rnd`
    (constructing ``random.Random(seed)`` is fine).
``det/wall-clock``
    ``time.time()`` / ``time.time_ns()`` / ``datetime.now()`` /
    ``datetime.utcnow()`` / ``date.today()`` reads.  Wall-clock reads make
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
from pathlib import Path
from typing import Iterable, TextIO

from dataclasses import replace

from repro.analysis.concurrency import ConcurrencyModel, analyze_paths
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.storage.atomic import atomic_write_text

#: Root the default scan covers: the installed ``repro`` package source.
DEFAULT_ROOT = Path(__file__).resolve().parents[1]

#: Modules allowed to touch global randomness / wall clocks.
SANCTIONED_SUFFIXES = ("websim/rnd.py",)
#: The clock implementations: the one sanctioned home of raw sleeps.
RAW_SLEEP_SANCTIONED = ("runtime/clock.py",)
#: Files whose dataclasses must stay JSON-serialisable (pipeline hand-offs).
SERIALIZABLE_SUFFIXES = ("ontology/intermediate.py",)
#: Files whose stage invocations must run under a tracer span.
OBS_STAGE_SUFFIXES = ("core/pipeline.py",)
#: The sanctioned home of raw file renames: the atomic-write helpers.
ATOMIC_WRITE_SANCTIONED = "repro/storage/"

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]+)\]")

_WALL_CLOCK_TIME = frozenset({"time", "time_ns"})
_WALL_CLOCK_DATETIME = frozenset({"now", "utcnow", "today"})
_RAW_SLEEP_TIME = frozenset({"sleep", "monotonic"})
_ITERATIVE_SOLVERS = frozenset({"svds", "eigsh", "eigs", "lobpcg"})
_SOLVER_SEED_KEYWORDS = frozenset({"v0", "X", "random_state", "rng"})
#: thread-spawning callable -> the keyword that names its threads
_THREAD_NAME_KEYWORD = {
    "Thread": "name",
    "ThreadPoolExecutor": "thread_name_prefix",
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
        self.findings: list[Diagnostic] = []
        self._flag_det = True
        self._flag_raw_sleep = True

    def add(self, rule: str, message: str, node: ast.AST) -> None:
        lineno = getattr(node, "lineno", 0)
        if _suppressed(self.lines, lineno, rule):
            return
        self.findings.append(
            Diagnostic(
                rule=rule,
                severity=Severity.ERROR,
                message=message,
                path=self.display,
                line=lineno,
                col=getattr(node, "col_offset", 0),
            )
        )

    def run(self) -> list[Diagnostic]:
        try:
            tree = ast.parse(self.source)
        except SyntaxError as error:
            self.findings.append(
                Diagnostic(
                    rule="lint/syntax-error",
                    severity=Severity.ERROR,
                    message=f"cannot parse: {error.msg}",
                    path=self.display,
                    line=error.lineno or 0,
                    col=error.offset or 0,
                )
            )
            return self.findings
        self._flag_det = not _has_suffix(self.path, SANCTIONED_SUFFIXES)
        self._flag_raw_sleep = not _has_suffix(
            self.path, RAW_SLEEP_SANCTIONED
        )
        if self._flag_det or self._flag_raw_sleep:
            self._check_determinism(tree)
        if self._flag_det:
            self._check_solvers(tree)
        if ATOMIC_WRITE_SANCTIONED not in self.path.resolve().as_posix():
            self._check_atomic_writes(tree)
        self._check_exception_handling(tree)
        self._check_threads(tree)
        if _has_suffix(self.path, SERIALIZABLE_SUFFIXES):
            self._check_serializability(tree)
        if _has_suffix(self.path, OBS_STAGE_SUFFIXES):
            self._check_traced_stages(tree)
        return self.findings

    # -- determinism -------------------------------------------------------

    def _check_determinism(self, tree: ast.Module) -> None:
        module_aliases: dict[str, str] = {}  # local name -> module
        from_imports: dict[str, tuple[str, str]] = {}  # local -> (mod, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in ("random", "time", "datetime"):
                        module_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module in (
                "random",
                "time",
                "datetime",
            ):
                for alias in node.names:
                    from_imports[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )

        if not module_aliases and not from_imports:
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                self._check_nondeterministic_call(
                    node, module_aliases, from_imports
                )

    def _check_nondeterministic_call(
        self,
        node: ast.Call,
        module_aliases: dict[str, str],
        from_imports: dict[str, tuple[str, str]],
    ) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            origin = from_imports.get(func.id)
            if origin is None:
                return
            module, name = origin
            if module == "random" and name not in ("Random",):
                self._flag_global_random(node, f"random.{name}")
            elif module == "time" and name in _WALL_CLOCK_TIME:
                self._flag_wall_clock(node, f"time.{name}")
            elif module == "time" and name in _RAW_SLEEP_TIME:
                self._flag_raw_sleep_call(node, f"time.{name}")
            return
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        if isinstance(base, ast.Name):
            module = module_aliases.get(base.id)
            if module == "random" and func.attr not in ("Random",):
                self._flag_global_random(node, f"random.{func.attr}")
                return
            if module == "time" and func.attr in _WALL_CLOCK_TIME:
                self._flag_wall_clock(node, f"time.{func.attr}")
                return
            if module == "time" and func.attr in _RAW_SLEEP_TIME:
                self._flag_raw_sleep_call(node, f"time.{func.attr}")
                return
            # from datetime import datetime/date; datetime.now()
            origin = from_imports.get(base.id)
            if (
                origin is not None
                and origin[0] == "datetime"
                and origin[1] in ("datetime", "date")
                and func.attr in _WALL_CLOCK_DATETIME
            ):
                self._flag_wall_clock(node, f"{origin[1]}.{func.attr}")
            return
        # import datetime; datetime.datetime.now()
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and module_aliases.get(base.value.id) == "datetime"
            and base.attr in ("datetime", "date")
            and func.attr in _WALL_CLOCK_DATETIME
        ):
            self._flag_wall_clock(node, f"datetime.{base.attr}.{func.attr}")

    def _flag_global_random(self, node: ast.Call, what: str) -> None:
        if not self._flag_det:
            return
        self.add(
            "det/global-random",
            f"{what}() uses the shared global RNG; derive a seeded "
            "random.Random via repro.websim.rnd instead",
            node,
        )

    def _flag_wall_clock(self, node: ast.Call, what: str) -> None:
        if not self._flag_det:
            return
        self.add(
            "det/wall-clock",
            f"{what}() reads the wall clock, which breaks deterministic "
            "replay; thread a timestamp in from the caller or use the "
            "injected repro.runtime clock",
            node,
        )

    def _flag_raw_sleep_call(self, node: ast.Call, what: str) -> None:
        if not self._flag_raw_sleep:
            return
        self.add(
            "det/raw-sleep",
            f"{what}() bypasses the injected repro.runtime clock; sleep "
            "and measure elapsed time through a Clock so virtual-time "
            "runs stay instant",
            node,
        )

    def _check_solvers(self, tree: ast.Module) -> None:
        """Iterative solvers must be handed their start vector or seed."""
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            if name not in _ITERATIVE_SOLVERS:
                continue
            if any(keyword.arg in _SOLVER_SEED_KEYWORDS for keyword in node.keywords):
                continue
            self.add(
                "det/unseeded-solver",
                f"{name}() without v0= / X= / random_state= / rng= starts "
                "from numpy's global RNG, so the result differs run to "
                "run; pass a seeded start vector by keyword",
                node,
            )

    # -- atomic writes -----------------------------------------------------

    def _check_atomic_writes(self, tree: ast.Module) -> None:
        module_aliases: dict[str, str] = {}  # local name -> module
        from_imports: dict[str, str] = {}  # local name -> "mod.attr"
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in ("os", "shutil"):
                        module_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module in (
                "os",
                "shutil",
            ):
                for alias in node.names:
                    if alias.name in ("replace", "rename", "move"):
                        from_imports[alias.asname or alias.name] = (
                            f"{node.module}.{alias.name}"
                        )
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                what = from_imports.get(func.id)
                if what is not None:
                    self._flag_raw_rename(node, what)
                continue
            if not isinstance(func, ast.Attribute):
                continue
            base = func.value
            if isinstance(base, ast.Name) and base.id in module_aliases:
                module = module_aliases[base.id]
                if (module == "os" and func.attr in ("replace", "rename")) or (
                    module == "shutil" and func.attr == "move"
                ):
                    self._flag_raw_rename(node, f"{module}.{func.attr}")
                continue
            # Path.replace(target): one positional argument, no keywords
            # (str.replace always takes two -- this cannot be it)
            if (
                func.attr == "replace"
                and len(node.args) == 1
                and not node.keywords
            ):
                self._flag_raw_rename(node, ".replace")

    def _flag_raw_rename(self, node: ast.Call, what: str) -> None:
        self.add(
            "store/raw-atomic-write",
            f"{what}(...) renames a file without fsync, so the data can "
            "vanish on a host crash; persist through the "
            "repro.storage.atomic_write_* helpers",
            node,
        )

    # -- exception hygiene -------------------------------------------------

    def _check_exception_handling(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                self.add(
                    "err/bare-except",
                    "bare 'except:' catches SystemExit/KeyboardInterrupt; "
                    "name the exception type",
                    node,
                )
                continue
            if self._catches_everything(node.type) and all(
                self._is_noop(stmt) for stmt in node.body
            ):
                self.add(
                    "err/silent-swallow",
                    "handler catches Exception and does nothing, hiding "
                    "failures; log or re-raise",
                    node,
                )

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

    # -- concurrency -------------------------------------------------------

    def _check_threads(self, tree: ast.Module) -> None:
        """Every spawned thread or thread pool must carry a name."""
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = getattr(func, "id", None) or getattr(func, "attr", None)
            keyword = _THREAD_NAME_KEYWORD.get(callee)
            if keyword is None:
                continue
            if any(given.arg == keyword for given in node.keywords):
                continue
            self.add(
                "conc/unnamed-thread",
                f"{callee} created without {keyword}=; witness reports, "
                "traces and health alerts attribute events by thread name",
                node,
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
            if isinstance(call, ast.Call) and (
                getattr(call.func, "attr", None) == "fn"
                or getattr(call.func, "id", None) == "fn"
            ):
                self.add(
                    "obs/untraced-stage",
                    "pipeline stage runs outside a tracer span; wrap the "
                    "fn(...) call in 'with obs.tracer.span(name):' so "
                    "per-stage timing reaches the trace",
                    call,
                )

    # -- serializability ---------------------------------------------------

    def _check_serializability(self, tree: ast.Module) -> None:
        dataclasses = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)
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
                        f"field {stmt.target.id!r} of dataclass "
                        f"{cls.name!r} has a non-JSON-serialisable type "
                        f"annotation; pipeline hand-off records must "
                        "round-trip through JSON",
                        stmt,
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
        if isinstance(annotation, ast.Name):
            return annotation.id in safe_names
        if isinstance(annotation, ast.Attribute):
            return annotation.attr in safe_names
        if isinstance(annotation, ast.BinOp) and isinstance(
            annotation.op, ast.BitOr
        ):
            return self._json_safe(annotation.left, safe_names) and self._json_safe(
                annotation.right, safe_names
            )
        if isinstance(annotation, ast.Subscript):
            container = annotation.value
            container_name = (
                container.id
                if isinstance(container, ast.Name)
                else container.attr
                if isinstance(container, ast.Attribute)
                else None
            )
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


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = (
            target.id
            if isinstance(target, ast.Name)
            else target.attr
            if isinstance(target, ast.Attribute)
            else None
        )
        if name == "dataclass":
            return True
    return False


def _mentions_span(expr: ast.expr) -> bool:
    for node in ast.walk(expr):
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None and "span" in name.lower():
            return True
    return False


# -- driver -----------------------------------------------------------------


def lint_file(path: Path) -> list[Diagnostic]:
    """All findings for one file (suppressions applied)."""
    source = path.read_text(encoding="utf-8")
    return _FileLint(path, source).run()


def lint_paths(paths: Iterable[Path]) -> list[Diagnostic]:
    """Findings across files and directories (``.py`` files, recursively)."""
    findings: list[Diagnostic] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                findings.extend(lint_file(file))
        else:
            findings.extend(lint_file(path))
    return findings


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
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
