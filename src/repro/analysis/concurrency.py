"""Interprocedural concurrency analysis over the repro package.

The sharding arc (ROADMAP item 1) multiplies today's ~20 lock sites
into N-way cross-shard acquisition patterns, so the repo needs a
static gate strong enough that a lock-order cycle or an unguarded
shared write *anywhere* in ``src/repro`` fails CI.  This module is
that gate.  It builds, from the ASTs of every analysed file:

1. A project index -- classes, methods, functions, closures and
   lambdas, with lightweight type inference (parameter annotations,
   ``self.x = Cls(...)`` in ``__init__``, dataclass field annotations,
   branch unions, module constants) good enough to resolve the
   receiver chains the lock-owning code actually uses.
2. A call graph with *thread-root discovery*: every
   ``threading.Thread(target=...)``, every ``do_*`` handler of a
   ``BaseHTTPRequestHandler`` subclass, and -- generalising both --
   every bare function/method reference passed as a call argument
   (``Stage(fn=...)``, ``JobSpec(run=...)``, ``on_finish`` hooks).
   Reading a ``@property`` is a call of its getter.
3. Lock identity from :func:`repro.runtime.named_lock` string
   literals, with alias sets for locks shared across components
   (``CrawlState._lock = engine.lock`` *is* ``storage.engine``).
4. Must/may entry lock sets per function (intersection/union over
   call sites, fixpoint), a transitive ``acquires`` set, and from
   these the four rules:

``conc/inconsistent-guard``
    A field written both under and outside its guarding lock on a
    thread-reachable path (supersedes ``conc/unlocked-shared-write``
    repo-wide).
``conc/lock-order-cycle``
    A cycle in the static lock-acquisition-order graph built from
    nested ``with <lock>:`` blocks across call-graph edges.
``conc/blocking-under-lock``
    A blocking operation (clock sleep/wait, fetcher/transport I/O,
    fsync or atomic file write) performed while holding a lock.
    Journal/checkpoint I/O under ``repro/storage/`` is sanctioned --
    write-ahead durability under the engine lock *is* the design.
``conc/unnamed-thread``
    (checked in :mod:`repro.analysis.lint`) every spawned thread must
    pass ``name=``, every thread pool ``thread_name_prefix=``, so
    witness reports and traces can attribute lock events.

The resulting :class:`ConcurrencyModel` serialises to a canonical,
byte-stable ``concurrency.json`` (lock hierarchy + per-field guard
map) and feeds the runtime :class:`repro.runtime.LockOrderWitness`,
which asserts on every test run that observed acquisition orders are
a subgraph of the static hierarchy.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.analysis.diagnostics import Diagnostic, Severity

#: The lock/clock implementations themselves: exempt from the pass.
SANCTIONED_SUFFIXES = ("runtime/clock.py", "runtime/locks.py")
#: Path fragment under which io-class blocking under a lock is the
#: durability design (journal fsync, checkpoint atomic writes).
IO_SANCTIONED_PART = "repro/storage/"

_MUTATORS = frozenset(
    {"append", "extend", "insert", "remove", "clear", "update",
     "setdefault", "popitem", "pop", "discard", "add_all"}
)
_SLEEP_METHODS = frozenset({"sleep", "wait_for"})
_WAIT_METHODS = frozenset({"wait", "join"})
_FETCH_RECEIVERS = ("transport", "fetcher")
_FSYNC_NAMES = frozenset({"fsync", "fsync_directory"})
_INIT_METHODS = frozenset({"__init__", "__post_init__"})


# ---------------------------------------------------------------------------
# model records


@dataclass
class LockRef:
    """One lock value: the dotted names it may answer to."""

    identities: frozenset[str]
    reentrant: bool = False

    def merged(self, other: "LockRef") -> "LockRef":
        return LockRef(
            self.identities | other.identities,
            self.reentrant or other.reentrant,
        )


@dataclass
class ClassInfo:
    name: str
    module: str  # display path
    bases: list[str] = field(default_factory=list)
    methods: dict[str, str] = field(default_factory=dict)  # name -> func key
    attr_types: dict[str, frozenset[str]] = field(default_factory=dict)
    #: element type of container-typed attrs (dict values, list items)
    attr_elem_types: dict[str, frozenset[str]] = field(default_factory=dict)
    lock_attrs: dict[str, LockRef] = field(default_factory=dict)
    #: condition attrs -> identities of the lock they were built on
    cond_attrs: dict[str, frozenset[str]] = field(default_factory=dict)
    is_protocol: bool = False


@dataclass
class FuncInfo:
    key: str
    qualname: str
    module: str  # display path
    node: ast.AST  # FunctionDef | AsyncFunctionDef | Lambda
    cls: str | None = None
    parent: str | None = None
    scope_types: dict[str, frozenset[str]] = field(default_factory=dict)
    scope_locks: dict[str, LockRef] = field(default_factory=dict)
    scope_elem_types: dict[str, frozenset[str]] = field(default_factory=dict)
    scope_callables: dict[str, frozenset[str]] = field(default_factory=dict)
    local_names: set[str] = field(default_factory=set)


@dataclass
class _Acquire:
    func: str
    lock: LockRef
    held: frozenset[str]
    line: int


@dataclass
class _CallRec:
    caller: str
    callee: str
    held: frozenset[str]
    line: int


@dataclass
class _WriteRec:
    func: str
    kind: str  # 'self' | 'root'
    owner: str  # class name, or module display path
    name: str  # field / root name
    held: frozenset[str]
    line: int
    col: int
    in_init: bool


@dataclass
class _BlockRec:
    func: str
    what: str
    held: frozenset[str]
    exempt: frozenset[str]
    line: int
    col: int


# ---------------------------------------------------------------------------
# annotation helpers


def _ann_names(node: ast.expr | None) -> frozenset[str]:
    """Class names mentioned by a type annotation (None/Optional dropped)."""
    if node is None:
        return frozenset()
    if isinstance(node, ast.Constant):
        if isinstance(node.value, str):
            try:
                return _ann_names(ast.parse(node.value, mode="eval").body)
            except SyntaxError:
                return frozenset()
        return frozenset()
    if isinstance(node, ast.Name):
        return frozenset() if node.id in ("None", "NoneType") else frozenset({node.id})
    if isinstance(node, ast.Attribute):
        return frozenset({node.attr})
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _ann_names(node.left) | _ann_names(node.right)
    if isinstance(node, ast.Subscript):
        base = node.value
        base_name = (
            base.id if isinstance(base, ast.Name)
            else base.attr if isinstance(base, ast.Attribute) else None
        )
        if base_name == "Optional":
            return _ann_names(node.slice)
        return frozenset()
    return frozenset()


_CONTAINER_DICTS = frozenset({"dict", "Dict", "Mapping", "MutableMapping"})
_CONTAINER_SEQS = frozenset(
    {"list", "List", "set", "Set", "frozenset", "tuple", "Tuple",
     "Sequence", "Iterable", "Iterator", "Collection"}
)


def _ann_elem_names(node: ast.expr | None) -> frozenset[str]:
    """Element/value class names of a container annotation."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return _ann_elem_names(ast.parse(node.value, mode="eval").body)
        except SyntaxError:
            return frozenset()
    if not isinstance(node, ast.Subscript):
        return frozenset()
    base = node.value
    base_name = (
        base.id if isinstance(base, ast.Name)
        else base.attr if isinstance(base, ast.Attribute) else None
    )
    if base_name in _CONTAINER_DICTS:
        if isinstance(node.slice, ast.Tuple) and len(node.slice.elts) == 2:
            return _ann_names(node.slice.elts[1])
        return frozenset()
    if base_name in _CONTAINER_SEQS:
        inner = node.slice
        if isinstance(inner, ast.Tuple) and inner.elts:
            return _ann_names(inner.elts[0])
        return _ann_names(inner)
    return frozenset()


def _lock_name_literal(node: ast.expr) -> str | None:
    """The lock name at a ``named_lock`` call site.

    Plain string literals are taken verbatim.  F-strings yield the
    family's canonical wildcard name -- every interpolated piece
    becomes ``*`` -- so ``named_lock(f"shard.{index}.stats")`` enters
    the model as ``shard.*.stats``, the same name the runtime witness
    canonicalizes instance names to.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts: list[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            elif isinstance(value, ast.FormattedValue):
                parts.append("*")
            else:
                return None
        return "".join(parts)
    return None


def _named_lock_call(node: ast.expr) -> LockRef | None:
    """``named_lock("x"[, reentrant=True])`` -> LockRef, else None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = (
        func.id if isinstance(func, ast.Name)
        else func.attr if isinstance(func, ast.Attribute) else None
    )
    if name != "named_lock" or not node.args:
        return None
    lock_name = _lock_name_literal(node.args[0])
    if lock_name is None:
        return None
    reentrant = any(
        kw.arg == "reentrant"
        and isinstance(kw.value, ast.Constant)
        and bool(kw.value.value)
        for kw in node.keywords
    )
    return LockRef(frozenset({lock_name}), reentrant)


def _lock_in_field_default(node: ast.expr) -> LockRef | None:
    """``field(default_factory=lambda: named_lock("x"))`` -> LockRef."""
    if not isinstance(node, ast.Call):
        return None
    for kw in node.keywords:
        if kw.arg != "default_factory":
            continue
        value = kw.value
        if isinstance(value, ast.Lambda):
            return _named_lock_call(value.body)
    return None


def _is_decorated(node: ast.AST, names: tuple[str, ...]) -> bool:
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    for dec in node.decorator_list:
        name = (
            dec.id if isinstance(dec, ast.Name)
            else dec.attr if isinstance(dec, ast.Attribute) else None
        )
        if name in names:
            return True
    return False


def _is_contextmanager(node: ast.AST) -> bool:
    return _is_decorated(node, ("contextmanager", "asynccontextmanager"))


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = (
            target.id if isinstance(target, ast.Name)
            else target.attr if isinstance(target, ast.Attribute) else None
        )
        if name == "dataclass":
            return True
    return False


def _shallow_walk(body: list[ast.stmt]) -> Iterable[ast.AST]:
    """Walk statements without descending into nested defs/classes."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _target_names(target: ast.expr) -> set[str]:
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: set[str] = set()
        for element in target.elts:
            names |= _target_names(element)
        return names
    return set()


def _local_names(fn: ast.AST) -> set[str]:
    """Names bound by assignment inside ``fn`` (params excluded)."""
    names: set[str] = set()
    body = fn.body if isinstance(fn.body, list) else []
    for node in _shallow_walk(body):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                names |= _target_names(target)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            names |= _target_names(node.target)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            names |= _target_names(node.target)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    names |= _target_names(item.optional_vars)
        elif isinstance(node, ast.comprehension):
            names |= _target_names(node.target)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
    return names


# ---------------------------------------------------------------------------
# the analyzer


class _Analyzer:
    def __init__(self, files: list[Path], root: Path):
        self.files = files
        self.root = root
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FuncInfo] = {}
        self.module_funcs: dict[tuple[str, str], str] = {}
        self.module_consts: dict[str, frozenset[str]] = {}
        self.attr_callables: dict[tuple[str, str], set[str]] = {}
        self.roots: set[str] = set()
        self.acquires: list[_Acquire] = []
        self.calls: list[_CallRec] = []
        self.writes: list[_WriteRec] = []
        self.blockers: list[_BlockRec] = []
        self.lock_sites: dict[str, list[tuple[str, int]]] = {}
        self.lock_reentrant: dict[str, bool] = {}
        #: ``@contextmanager`` func key -> identity sets held at every
        #: ``yield`` (must-holds); the previous scan pass's view is in
        #: ``cm_holds`` so ``with cm():`` bodies extend their held set.
        self.cm_holds: dict[str, frozenset[frozenset[str]]] = {}
        self._yield_holds: dict[str, frozenset[frozenset[str]]] = {}
        self._protocol_impls: dict[str, frozenset[str]] = {}
        self._trees: dict[str, ast.Module] = {}
        self._lambda_counter = 0

    # -- utilities -------------------------------------------------------

    def _display(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root).as_posix()
        except ValueError:
            return path.name

    def _sanctioned(self, display: str) -> bool:
        return any(display.endswith(suffix) for suffix in SANCTIONED_SUFFIXES)

    # -- phase 1: index --------------------------------------------------

    def index(self) -> None:
        for path in self.files:
            display = self._display(path)
            if self._sanctioned(display):
                continue
            try:
                tree = ast.parse(path.read_text(encoding="utf-8"))
            except (OSError, SyntaxError):
                continue
            self._trees[display] = tree
            self._index_module(tree, display)

    def _index_module(self, tree: ast.Module, display: str) -> None:
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                value = stmt.value
                if (
                    isinstance(target, ast.Name)
                    and isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                ):
                    self.module_consts.setdefault(
                        target.id, frozenset({value.func.id})
                    )
        self._index_body(tree.body, display, cls=None, parent=None, prefix="")

    def _index_body(
        self,
        body: list[ast.stmt],
        display: str,
        cls: str | None,
        parent: str | None,
        prefix: str,
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(stmt, display, cls, parent, prefix)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(stmt, display, prefix)

    def _index_class(
        self, node: ast.ClassDef, display: str, prefix: str
    ) -> None:
        info = self.classes.get(node.name)
        if info is None:
            info = ClassInfo(name=node.name, module=display)
            self.classes[node.name] = info
        for base in node.bases:
            name = (
                base.id if isinstance(base, ast.Name)
                else base.attr if isinstance(base, ast.Attribute) else None
            )
            if name is not None and name not in info.bases:
                info.bases.append(name)
        if "Protocol" in info.bases:
            info.is_protocol = True
        is_dc = _is_dataclass(node)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = self._index_function(
                    stmt, display, node.name, None, f"{prefix}{node.name}."
                )
                info.methods[stmt.name] = key
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(stmt, display, f"{prefix}{node.name}.")
            elif is_dc and isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                attr = stmt.target.id
                lock = (
                    _lock_in_field_default(stmt.value)
                    if stmt.value is not None
                    else None
                )
                if lock is not None:
                    self._register_lock(lock, display, stmt.lineno)
                    info.lock_attrs[attr] = lock
                else:
                    types = _ann_names(stmt.annotation)
                    if types:
                        info.attr_types[attr] = (
                            info.attr_types.get(attr, frozenset()) | types
                        )
                    elems = _ann_elem_names(stmt.annotation)
                    if elems:
                        info.attr_elem_types[attr] = (
                            info.attr_elem_types.get(attr, frozenset()) | elems
                        )

    def _index_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        display: str,
        cls: str | None,
        parent: str | None,
        prefix: str,
    ) -> str:
        qualname = f"{prefix}{node.name}"
        key = f"{display}::{qualname}"
        self.functions[key] = FuncInfo(
            key=key, qualname=qualname, module=display, node=node,
            cls=cls, parent=parent,
        )
        if cls is None and parent is None:
            self.module_funcs[(display, node.name)] = key
        # nested defs keep the class context: ``self`` is a closure
        # capture of the enclosing method's receiver
        self._index_body(
            node.body, display, cls=cls, parent=key, prefix=f"{qualname}."
        )
        return key

    def _index_lambda(self, node: ast.Lambda, owner: FuncInfo) -> str:
        self._lambda_counter += 1
        qualname = f"{owner.qualname}.<lambda:{node.lineno}>"
        key = f"{owner.module}::{qualname}#{self._lambda_counter}"
        info = FuncInfo(
            key=key, qualname=qualname, module=owner.module, node=node,
            cls=owner.cls, parent=owner.key,
        )
        self.functions[key] = info
        return key

    def _register_lock(self, lock: LockRef, display: str, line: int) -> None:
        for identity in lock.identities:
            sites = self.lock_sites.setdefault(identity, [])
            if (display, line) not in sites:
                sites.append((display, line))
            self.lock_reentrant[identity] = (
                self.lock_reentrant.get(identity, False) or lock.reentrant
            )

    # -- phase 2: class attribute / lock typing --------------------------

    def infer_class_attrs(self) -> None:
        for _ in range(4):
            for info in self.functions.values():
                if info.cls is None or isinstance(info.node, ast.Lambda):
                    continue
                self._scan_self_assigns(info)

    def _scan_self_assigns(self, fn: FuncInfo) -> None:
        cls = self.classes.get(fn.cls or "")
        if cls is None:
            return
        param_types = self._param_types(fn)
        for node in _shallow_walk(fn.node.body):
            if isinstance(node, ast.AnnAssign):
                target = node.target
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    types = _ann_names(node.annotation)
                    if types:
                        cls.attr_types[target.attr] = (
                            cls.attr_types.get(target.attr, frozenset()) | types
                        )
                    elems = _ann_elem_names(node.annotation)
                    if elems:
                        cls.attr_elem_types[target.attr] = (
                            cls.attr_elem_types.get(target.attr, frozenset())
                            | elems
                        )
                continue
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr, value = target.attr, node.value
            lock = _named_lock_call(value)
            if lock is not None:
                self._register_lock(lock, fn.module, node.lineno)
                existing = cls.lock_attrs.get(attr)
                cls.lock_attrs[attr] = (
                    lock if existing is None else existing.merged(lock)
                )
                continue
            # alias: self._lock = engine.lock
            alias = self._resolve_lock_expr(value, fn, param_types)
            if alias is not None:
                existing = cls.lock_attrs.get(attr)
                cls.lock_attrs[attr] = (
                    alias if existing is None else existing.merged(alias)
                )
                continue
            # condition built on a lock: self._cv = clock.condition(lock)
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "condition"
                and value.args
            ):
                built_on = self._resolve_lock_expr(
                    value.args[0], fn, param_types
                )
                if built_on is not None:
                    cls.cond_attrs[attr] = built_on.identities
                    continue
            types = self._infer_expr_types(value, fn, param_types)
            if types:
                cls.attr_types[attr] = cls.attr_types.get(attr, frozenset()) | types

    def _param_types(self, fn: FuncInfo) -> dict[str, frozenset[str]]:
        if isinstance(fn.node, ast.Lambda):
            return {}
        types: dict[str, frozenset[str]] = {}
        args = fn.node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            names = _ann_names(arg.annotation)
            if names:
                types[arg.arg] = names
        return types

    # -- expression typing -----------------------------------------------

    def _infer_expr_types(
        self,
        node: ast.expr,
        fn: FuncInfo,
        param_types: dict[str, frozenset[str]] | None = None,
    ) -> frozenset[str]:
        params = param_types if param_types is not None else self._param_types(fn)
        return self._infer(node, fn, params)

    def _infer(
        self, node: ast.expr, fn: FuncInfo, params: dict[str, frozenset[str]]
    ) -> frozenset[str]:
        if isinstance(node, ast.Name):
            if node.id == "self" and fn.cls is not None:
                return frozenset({fn.cls})
            for source in (fn.scope_types, params):
                if node.id in source:
                    return source[node.id]
            if node.id in self.module_consts:
                return self.module_consts[node.id]
            return frozenset()
        if isinstance(node, ast.Attribute):
            out: set[str] = set()
            for cls_name in self._expand_types(self._infer(node.value, fn, params)):
                for owner in self._mro(cls_name):
                    info = self.classes.get(owner)
                    if info is not None and node.attr in info.attr_types:
                        out |= info.attr_types[node.attr]
                        break
            return frozenset(out)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in self.classes:
                return frozenset({func.id})
            if isinstance(func, ast.Attribute) and func.attr == "get":
                elems = self._elem_types(func.value, fn, params)
                if elems:
                    return elems
            # return-annotation resolution
            out = set()
            for callee in self._resolve_call_targets(node, fn, params):
                callee_info = self.functions.get(callee)
                if callee_info is None or isinstance(callee_info.node, ast.Lambda):
                    continue
                out |= _ann_names(callee_info.node.returns)
            return frozenset(out)
        if isinstance(node, ast.IfExp):
            return self._infer(node.body, fn, params) | self._infer(
                node.orelse, fn, params
            )
        if isinstance(node, ast.BoolOp):
            out = set()
            for value in node.values:
                out |= self._infer(value, fn, params)
            return frozenset(out)
        if isinstance(node, ast.Subscript):
            return self._elem_types(node.value, fn, params)
        return frozenset()

    def _elem_types(
        self, node: ast.expr, fn: FuncInfo, params: dict[str, frozenset[str]]
    ) -> frozenset[str]:
        """Element/value types of a container expression."""
        if isinstance(node, ast.Name):
            return fn.scope_elem_types.get(node.id, frozenset())
        if isinstance(node, ast.Attribute):
            out: set[str] = set()
            for cls_name in self._infer(node.value, fn, params):
                for owner in self._mro(cls_name):
                    info = self.classes.get(owner)
                    if info is not None and node.attr in info.attr_elem_types:
                        out |= info.attr_elem_types[node.attr]
                        break
            return frozenset(out)
        return frozenset()

    def _expand_types(self, types: frozenset[str]) -> frozenset[str]:
        """Virtual dispatch: add subclasses, and for Protocols every
        structural implementation."""
        out = set(types)
        for name in types:
            out |= self._impls(name)
        return frozenset(out)

    def _impls(self, name: str) -> frozenset[str]:
        cached = self._protocol_impls.get(name)
        if cached is not None:
            return cached
        info = self.classes.get(name)
        impls: set[str] = set()
        if info is not None:
            if info.is_protocol:
                required = set(info.methods) - {"__init__"}
                if required:
                    impls = {
                        other.name
                        for other in self.classes.values()
                        if not other.is_protocol
                        and other.name != name
                        and required <= set(other.methods)
                    }
            else:
                impls = {
                    other.name
                    for other in self.classes.values()
                    if other.name != name and name in self._mro(other.name)
                }
        self._protocol_impls[name] = frozenset(impls)
        return self._protocol_impls[name]

    def _mro(self, cls_name: str) -> list[str]:
        seen: list[str] = []
        frontier = [cls_name]
        while frontier:
            name = frontier.pop(0)
            if name in seen:
                continue
            seen.append(name)
            info = self.classes.get(name)
            if info is not None:
                frontier.extend(info.bases)
        return seen

    # -- lock / callable resolution --------------------------------------

    def _resolve_lock_expr(
        self,
        node: ast.expr,
        fn: FuncInfo,
        params: dict[str, frozenset[str]] | None = None,
    ) -> LockRef | None:
        if isinstance(node, ast.Name):
            return fn.scope_locks.get(node.id)
        if isinstance(node, ast.Attribute):
            if params is None:
                params = self._param_types(fn)
            for cls_name in self._infer(node.value, fn, params):
                for owner in self._mro(cls_name):
                    info = self.classes.get(owner)
                    if info is not None and node.attr in info.lock_attrs:
                        return info.lock_attrs[node.attr]
        return None

    def _resolve_cond_expr(
        self, node: ast.expr, fn: FuncInfo, params: dict[str, frozenset[str]]
    ) -> frozenset[str] | None:
        """Identities of the lock a condition attr was built on."""
        if not isinstance(node, ast.Attribute):
            return None
        for cls_name in self._infer(node.value, fn, params):
            for owner in self._mro(cls_name):
                info = self.classes.get(owner)
                if info is not None and node.attr in info.cond_attrs:
                    return info.cond_attrs[node.attr]
        return None

    def _resolve_func_ref(
        self, node: ast.expr, fn: FuncInfo, params: dict[str, frozenset[str]]
    ) -> set[str]:
        """Function keys a bare (uncalled) reference points at."""
        if isinstance(node, ast.Name):
            if node.id in fn.scope_callables:
                return set(fn.scope_callables[node.id])
            scope: FuncInfo | None = fn
            while scope is not None:
                key = f"{scope.module}::{scope.qualname}.{node.id}"
                if key in self.functions:
                    return {key}
                scope = (
                    self.functions.get(scope.parent)
                    if scope.parent is not None
                    else None
                )
            key = self.module_funcs.get((fn.module, node.id))
            return {key} if key is not None else set()
        if isinstance(node, ast.Attribute):
            out: set[str] = set()
            recv_types = self._expand_types(
                self._infer(node.value, fn, params)
            )
            for cls_name in recv_types:
                for owner in self._mro(cls_name):
                    info = self.classes.get(owner)
                    if info is not None and node.attr in info.methods:
                        out.add(info.methods[node.attr])
                        break
                else:
                    continue
            # callable attributes bound elsewhere (on_finish hooks)
            for cls_name in recv_types:
                out |= self.attr_callables.get((cls_name, node.attr), set())
            return out
        return set()

    def _resolve_call_targets(
        self, call: ast.Call, fn: FuncInfo, params: dict[str, frozenset[str]]
    ) -> set[str]:
        func = call.func
        if isinstance(func, ast.Name) and func.id in self.classes:
            info = self.classes[func.id]
            for owner in self._mro(func.id):
                owner_info = self.classes.get(owner)
                if owner_info is not None and "__init__" in owner_info.methods:
                    return {owner_info.methods["__init__"]}
            return set()
        return self._resolve_func_ref(func, fn, params)

    # -- phase 3: lexical scan -------------------------------------------

    def scan(self) -> None:
        """Two passes so callable-attr bindings resolve everywhere."""
        for _ in range(2):
            self.roots.clear()
            self.acquires.clear()
            self.calls.clear()
            self.writes.clear()
            self.blockers.clear()
            self.cm_holds = self._yield_holds
            self._yield_holds = {}
            ordered = list(self.functions.values())
            for info in ordered:
                self._prepare_scopes(info)
            for info in ordered:
                self._scan_function(info)
            self._discover_handler_roots()

    def _discover_handler_roots(self) -> None:
        for info in self.classes.values():
            if "BaseHTTPRequestHandler" not in self._mro(info.name) and (
                "BaseHTTPRequestHandler" not in info.bases
            ):
                continue
            for name, key in info.methods.items():
                if name.startswith("do_"):
                    self.roots.add(key)

    def _prepare_scopes(self, fn: FuncInfo) -> None:
        parent = self.functions.get(fn.parent) if fn.parent else None
        fn.scope_types = dict(parent.scope_types) if parent else {}
        fn.scope_locks = dict(parent.scope_locks) if parent else {}
        fn.scope_elem_types = dict(parent.scope_elem_types) if parent else {}
        fn.scope_callables = dict(parent.scope_callables) if parent else {}
        fn.local_names = (
            _local_names(fn.node)
            if not isinstance(fn.node, ast.Lambda)
            else set()
        )
        params = self._param_types(fn)
        for name, types in params.items():
            fn.scope_types[name] = types
        # parameter defaults (closure idiom: worker(lock=lock, ...))
        if not isinstance(fn.node, ast.Lambda):
            args = fn.node.args
            positional = args.posonlyargs + args.args
            defaults = args.defaults
            for arg, default in zip(positional[len(positional) - len(defaults):], defaults):
                self._bind_local(fn, arg.arg, default)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    self._bind_local(fn, arg.arg, default)
            for node in _shallow_walk(fn.node.body):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        self._bind_local(fn, target.id, node.value)
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    self._bind_loop_target(fn, node.target, node.iter)

    def _bind_loop_target(
        self, fn: FuncInfo, target: ast.expr, it: ast.expr
    ) -> None:
        """Type loop variables from the container being iterated.

        ``for x in xs:`` and ``for x in d.values():`` bind ``x`` to the
        container's element type; ``for k, v in d.items():`` binds the
        value side of the unpacking.
        """
        params = self._param_types(fn)
        source = it
        value_target = target
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute):
            if it.func.attr in ("values", "items"):
                source = it.func.value
                if it.func.attr == "items":
                    if not (
                        isinstance(target, (ast.Tuple, ast.List))
                        and len(target.elts) == 2
                    ):
                        return
                    value_target = target.elts[1]
            else:
                return
        elems = self._elem_types(source, fn, params)
        if elems and isinstance(value_target, ast.Name):
            existing = fn.scope_types.get(value_target.id, frozenset())
            fn.scope_types[value_target.id] = existing | elems

    def _bind_local(self, fn: FuncInfo, name: str, value: ast.expr) -> None:
        lock = _named_lock_call(value)
        if lock is None:
            lock = self._resolve_lock_expr(value, fn)
        if lock is not None:
            if isinstance(value, ast.Call) and _named_lock_call(value):
                self._register_lock(lock, fn.module, value.lineno)
            fn.scope_locks[name] = lock
            return
        refs = self._resolve_func_ref(value, fn, self._param_types(fn))
        if refs and not isinstance(value, ast.Call):
            fn.scope_callables[name] = frozenset(refs)
            return
        types = self._infer_expr_types(value, fn)
        if types:
            fn.scope_types[name] = types
        if isinstance(value, ast.ListComp) and isinstance(value.elt, ast.Call):
            elt_func = value.elt.func
            if isinstance(elt_func, ast.Name) and elt_func.id in self.classes:
                fn.scope_elem_types[name] = frozenset({elt_func.id})
        if isinstance(value, ast.List):
            elems: set[str] = set()
            for item in value.elts:
                if (
                    isinstance(item, ast.Call)
                    and isinstance(item.func, ast.Name)
                    and item.func.id in self.classes
                ):
                    elems.add(item.func.id)
            if elems:
                fn.scope_elem_types[name] = frozenset(elems)

    # -- the walk ---------------------------------------------------------

    def _scan_function(self, fn: FuncInfo) -> None:
        params = self._param_types(fn)
        if isinstance(fn.node, ast.Lambda):
            self._scan_expr(fn.node.body, fn, params, ())
            return
        for stmt in fn.node.body:
            self._scan_stmt(stmt, fn, params, ())

    @staticmethod
    def _flatten(held: tuple[frozenset[str], ...]) -> frozenset[str]:
        out: set[str] = set()
        for ids in held:
            out |= ids
        return frozenset(out)

    def _scan_stmt(
        self,
        node: ast.stmt,
        fn: FuncInfo,
        params: dict[str, frozenset[str]],
        held: tuple[frozenset[str], ...],
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs are scanned as their own functions
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held
            for item in node.items:
                inner = self._enter_context(item.context_expr, fn, params, inner)
            for stmt in node.body:
                self._scan_stmt(stmt, fn, params, inner)
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                self._record_write(target, fn, held)
            # callable-attr binding: obj.attr = <method ref>
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                self._record_attr_binding(node, fn, params)
            if node.value is not None:
                self._scan_expr(node.value, fn, params, held)
            return
        self._scan_children(node, fn, params, held)

    def _scan_children(
        self,
        node: ast.AST,
        fn: FuncInfo,
        params: dict[str, frozenset[str]],
        held: tuple[frozenset[str], ...],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._scan_stmt(child, fn, params, held)
            elif isinstance(child, ast.expr):
                self._scan_expr(child, fn, params, held)
            else:  # ExceptHandler, match_case, ...
                self._scan_children(child, fn, params, held)

    def _enter_context(
        self,
        ctx: ast.expr,
        fn: FuncInfo,
        params: dict[str, frozenset[str]],
        held: tuple[frozenset[str], ...],
    ) -> tuple[frozenset[str], ...]:
        lock = _named_lock_call(ctx) or self._resolve_lock_expr(ctx, fn, params)
        if lock is not None:
            if lock.identities in held:  # re-entrant hold: no new info
                return held
            self.acquires.append(
                _Acquire(fn.key, lock, self._flatten(held), ctx.lineno)
            )
            return held + (lock.identities,)
        # context manager that is not a lock: record call edges, and --
        # when the value's type is known -- edges to __enter__/__exit__.
        self._scan_expr(ctx, fn, params, held)
        inner = held
        if isinstance(ctx, ast.Call):
            # a @contextmanager holding locks at its yield keeps them
            # held for the entire with-body at every call site
            for target in sorted(self._resolve_call_targets(ctx, fn, params)):
                for ids in sorted(
                    self.cm_holds.get(target, frozenset()), key=sorted
                ):
                    if ids in inner:  # re-entrant hold: no new info
                        continue
                    reentrant = any(
                        self.lock_reentrant.get(i, False) for i in ids
                    )
                    self.acquires.append(
                        _Acquire(
                            fn.key,
                            LockRef(ids, reentrant),
                            self._flatten(inner),
                            ctx.lineno,
                        )
                    )
                    inner = inner + (ids,)
        types = self._infer_expr_types(ctx, fn, params)
        flat = self._flatten(held)
        for cls_name in types:
            for owner in self._mro(cls_name):
                info = self.classes.get(owner)
                if info is None:
                    continue
                for dunder in ("__enter__", "__exit__"):
                    if dunder in info.methods:
                        self.calls.append(
                            _CallRec(
                                fn.key, info.methods[dunder], flat, ctx.lineno
                            )
                        )
        return inner

    def _record_attr_binding(
        self, node: ast.Assign, fn: FuncInfo, params: dict[str, frozenset[str]]
    ) -> None:
        target = node.targets[0]
        if not isinstance(target, ast.Attribute):
            return
        refs = self._resolve_func_ref(node.value, fn, params)
        if not refs or isinstance(node.value, ast.Call):
            return
        for cls_name in self._infer(target.value, fn, params):
            self.attr_callables.setdefault((cls_name, target.attr), set()).update(
                refs
            )

    def _record_write(
        self,
        target: ast.expr,
        fn: FuncInfo,
        held: tuple[frozenset[str], ...],
        mutator: bool = False,
    ) -> None:
        node = target
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Name):
            if node is target and not mutator:  # plain local rebind: x = ...
                return
            self._add_root_write(node.id, fn, held, target)
            return
        if not isinstance(node, ast.Attribute):
            return
        # walk to the chain root: self.a.b -> root self, first attr a
        chain: list[str] = []
        cursor: ast.expr = node
        while isinstance(cursor, (ast.Attribute, ast.Subscript)):
            if isinstance(cursor, ast.Attribute):
                chain.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return
        first_attr = chain[-1]
        if cursor.id == "self" and fn.cls is not None:
            self._add_self_write(first_attr, fn, held, target)
        elif cursor.id not in ("self", "cls"):
            self._add_root_write(cursor.id, fn, held, target)

    def _add_self_write(
        self,
        attr: str,
        fn: FuncInfo,
        held: tuple[frozenset[str], ...],
        node: ast.AST,
    ) -> None:
        cls = self.classes.get(fn.cls or "")
        if cls is None or attr in cls.lock_attrs or attr in cls.cond_attrs:
            return
        method_name = (
            fn.node.name
            if isinstance(fn.node, (ast.FunctionDef, ast.AsyncFunctionDef))
            else ""
        )
        self.writes.append(
            _WriteRec(
                func=fn.key, kind="self", owner=fn.cls or "", name=attr,
                held=self._flatten(held),
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                in_init=method_name in _INIT_METHODS and fn.parent is None,
            )
        )

    def _add_root_write(
        self,
        root: str,
        fn: FuncInfo,
        held: tuple[frozenset[str], ...],
        node: ast.AST,
    ) -> None:
        if root in fn.local_names or root in fn.scope_locks:
            return
        self.writes.append(
            _WriteRec(
                func=fn.key, kind="root", owner=fn.module, name=root,
                held=self._flatten(held),
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                in_init=False,
            )
        )

    # -- expressions ------------------------------------------------------

    def _scan_expr(
        self,
        node: ast.expr,
        fn: FuncInfo,
        params: dict[str, frozenset[str]],
        held: tuple[frozenset[str], ...],
    ) -> None:
        stack: list[ast.AST] = [node]
        while stack:
            sub = stack.pop()
            if isinstance(sub, ast.Lambda):
                # scanned as its own function; roots marked at call args
                self._find_or_index_lambda(sub, fn)
                continue
            if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                self._record_yield(fn, held)
            if isinstance(sub, ast.Call):
                self._scan_call(sub, fn, params, held)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                # reading a property runs its getter (and takes its locks)
                for target in self._resolve_func_ref(sub, fn, params):
                    if _is_decorated(self.functions[target].node, ("property",)):
                        self.calls.append(
                            _CallRec(
                                fn.key, target, self._flatten(held), sub.lineno
                            )
                        )
            stack.extend(ast.iter_child_nodes(sub))

    def _record_yield(
        self, fn: FuncInfo, held: tuple[frozenset[str], ...]
    ) -> None:
        """Locks held at a ``@contextmanager``'s yield guard its body."""
        if not _is_contextmanager(fn.node):
            return
        current = frozenset(held)
        previous = self._yield_holds.get(fn.key)
        self._yield_holds[fn.key] = (
            current if previous is None else previous & current
        )

    def _find_or_index_lambda(self, node: ast.Lambda, fn: FuncInfo) -> str:
        for key, info in self.functions.items():
            if info.node is node:
                return key
        key = self._index_lambda(node, fn)
        info = self.functions[key]
        self._prepare_scopes(info)
        self._scan_function(info)
        return key

    def _scan_call(
        self,
        call: ast.Call,
        fn: FuncInfo,
        params: dict[str, frozenset[str]],
        held: tuple[frozenset[str], ...],
    ) -> None:
        flat = self._flatten(held)
        targets = self._resolve_call_targets(call, fn, params)
        for target in targets:
            self.calls.append(_CallRec(fn.key, target, flat, call.lineno))
        self._classify_blocking(call, fn, params, flat)
        # mutator methods count as writes to their receiver
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _MUTATORS
            and not (
                isinstance(call.func.value, ast.Name)
                and call.func.value.id in ("self", "cls")
            )
        ):
            self._record_write(call.func.value, fn, held, mutator=True)
        # thread-root discovery: bare function/method refs as arguments
        arg_values = list(call.args) + [kw.value for kw in call.keywords]
        for value in arg_values:
            if isinstance(value, ast.Lambda):
                self.roots.add(self._find_or_index_lambda(value, fn))
                continue
            if isinstance(value, ast.Call):
                continue
            refs = self._resolve_func_ref(value, fn, params)
            self.roots.update(refs)

    def _classify_blocking(
        self,
        call: ast.Call,
        fn: FuncInfo,
        params: dict[str, frozenset[str]],
        held: frozenset[str],
    ) -> None:
        func = call.func
        sanctioned_io = IO_SANCTIONED_PART in fn.module or fn.module.startswith(
            "storage/"
        )
        if isinstance(func, ast.Name):
            if func.id in _FSYNC_NAMES or func.id.startswith("atomic_write"):
                if not sanctioned_io:
                    self.blockers.append(
                        _BlockRec(
                            fn.key, f"{func.id}()", held, frozenset(),
                            call.lineno, call.col_offset,
                        )
                    )
            return
        if not isinstance(func, ast.Attribute):
            return
        attr = func.attr
        recv = func.value
        recv_text = recv.attr if isinstance(recv, ast.Attribute) else (
            recv.id if isinstance(recv, ast.Name) else ""
        )
        if attr == "fsync" and recv_text == "os":
            if not sanctioned_io:
                self.blockers.append(
                    _BlockRec(
                        fn.key, "os.fsync()", held, frozenset(),
                        call.lineno, call.col_offset,
                    )
                )
            return
        recv_types = self._infer(recv, fn, params)
        recv_lower = recv_text.lower()
        if attr in _SLEEP_METHODS and (
            "clock" in recv_lower or recv_types & {"Clock", "RealClock", "VirtualClock"}
        ):
            self.blockers.append(
                _BlockRec(
                    fn.key, f"{recv_text or '<clock>'}.{attr}()", held,
                    frozenset(), call.lineno, call.col_offset,
                )
            )
            return
        if attr == "join":
            # only thread joins block; str.join is everywhere
            if "Thread" in recv_types or any(
                part in recv_lower for part in ("thread", "worker")
            ):
                self.blockers.append(
                    _BlockRec(
                        fn.key, f"{recv_text or '<thread>'}.join()", held,
                        frozenset(), call.lineno, call.col_offset,
                    )
                )
            return
        if attr == "wait":
            if isinstance(recv, ast.Constant):
                return
            exempt = self._resolve_cond_expr(recv, fn, params) or frozenset()
            self.blockers.append(
                _BlockRec(
                    fn.key, f"{recv_text or '<obj>'}.wait()", held, exempt,
                    call.lineno, call.col_offset,
                )
            )
            return
        if attr == "fetch" and (
            any(part in recv_lower for part in _FETCH_RECEIVERS)
            or recv_types & {"SimulatedTransport", "Fetcher"}
        ):
            self.blockers.append(
                _BlockRec(
                    fn.key, f"{recv_text or '<transport>'}.fetch()", held,
                    frozenset(), call.lineno, call.col_offset,
                )
            )


    # -- phase 4: fixpoints ----------------------------------------------

    def fixpoints(self) -> None:
        callees: dict[str, set[str]] = {}
        for rec in self.calls:
            callees.setdefault(rec.caller, set()).add(rec.callee)
        # thread-reachable = BFS from roots
        self.reachable: set[str] = set()
        frontier = list(self.roots)
        while frontier:
            func = frontier.pop()
            if func in self.reachable:
                continue
            self.reachable.add(func)
            frontier.extend(callees.get(func, ()))
        # must-entry (intersection over call sites; roots enter lock-free)
        top = None  # "never called": everything is possible
        must: dict[str, frozenset[str] | None] = {
            key: (frozenset() if key in self.roots else top)
            for key in self.functions
        }
        may: dict[str, frozenset[str]] = {
            key: frozenset() for key in self.functions
        }
        changed = True
        while changed:
            changed = False
            for rec in self.calls:
                if rec.callee not in must:
                    continue
                caller_must = must.get(rec.caller, top)
                if caller_must is not None:
                    inflow = caller_must | rec.held
                    current = must[rec.callee]
                    merged = inflow if current is None else current & inflow
                    if merged != current:
                        must[rec.callee] = merged
                        changed = True
                inflow_may = may.get(rec.caller, frozenset()) | rec.held
                if not inflow_may <= may[rec.callee]:
                    may[rec.callee] |= inflow_may
                    changed = True
        self.must_entry: dict[str, frozenset[str]] = {
            key: (value if value is not None else frozenset())
            for key, value in must.items()
        }
        self.may_entry = may
        # acquires*: locks a call to F may take, transitively
        acq: dict[str, frozenset[str]] = {
            key: frozenset() for key in self.functions
        }
        for acquire in self.acquires:
            acq[acquire.func] |= acquire.lock.identities
        changed = True
        while changed:
            changed = False
            for rec in self.calls:
                if rec.caller not in acq:
                    continue
                merged = acq[rec.caller] | acq.get(rec.callee, frozenset())
                if merged != acq[rec.caller]:
                    acq[rec.caller] = merged
                    changed = True
        self.acquires_star = acq
        # construction-confined methods: every call site is the owning
        # class's __init__ chain, so the object has not escaped to
        # other threads yet and its writes need no guard
        callers: dict[str, set[str]] = {}
        for rec in self.calls:
            callers.setdefault(rec.callee, set()).add(rec.caller)
        confined = {
            key
            for key, info in self.functions.items()
            if info.cls is not None
            and isinstance(info.node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and info.node.name not in _INIT_METHODS
        }
        changed = True
        while changed:
            changed = False
            for key in sorted(confined):
                info = self.functions[key]
                sources = callers.get(key, set())
                ok = bool(sources)
                for caller in sources:
                    caller_info = self.functions.get(caller)
                    if caller_info is None or caller_info.cls != info.cls:
                        ok = False
                        break
                    node = caller_info.node
                    is_init = (
                        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and node.name in _INIT_METHODS
                        and caller_info.parent is None
                    )
                    if not is_init and caller not in confined:
                        ok = False
                        break
                if not ok:
                    confined.discard(key)
                    changed = True
        self.confined = confined

    # -- phase 5: findings -----------------------------------------------

    def order_edges(self) -> dict[tuple[str, str], set[str]]:
        edges: dict[tuple[str, str], set[str]] = {}

        def add(src: str, dst: str, module: str, line: int) -> None:
            edges.setdefault((src, dst), set()).add(f"{module}:{line}")

        for acquire in self.acquires:
            module = self.functions[acquire.func].module
            for held_id in acquire.held:
                for taken in acquire.lock.identities:
                    if taken != held_id and taken not in acquire.held:
                        add(held_id, taken, module, acquire.line)
        for rec in self.calls:
            if not rec.held:
                continue
            downstream = self.acquires_star.get(rec.callee, frozenset())
            downstream = downstream - rec.held
            if not downstream:
                continue
            module = self.functions[rec.caller].module
            for held_id in rec.held:
                for taken in downstream:
                    if taken != held_id:
                        add(held_id, taken, module, rec.line)
        return edges

    def guard_findings(
        self, edges: dict[tuple[str, str], set[str]]
    ) -> tuple[dict[str, dict[str, list[str]]], list[Diagnostic]]:
        guards: dict[str, dict[str, list[str]]] = {}
        diagnostics: list[Diagnostic] = []
        # component A: self-field writes vs. the owning class's locks
        by_class: dict[str, list[_WriteRec]] = {}
        for write in self.writes:
            if (
                write.kind == "self"
                and not write.in_init
                and write.func not in self.confined
            ):
                by_class.setdefault(write.owner, []).append(write)
        for cls_name, writes in sorted(by_class.items()):
            info = self.classes.get(cls_name)
            if info is None or not info.lock_attrs:
                continue
            class_locks: set[str] = set()
            for lock in info.lock_attrs.values():
                class_locks |= lock.identities
            by_field: dict[str, list[_WriteRec]] = {}
            for write in writes:
                by_field.setdefault(write.name, []).append(write)
            for field_name, field_writes in sorted(by_field.items()):
                guard: frozenset[str] | None = None
                for write in field_writes:
                    must_held = write.held | self.must_entry.get(
                        write.func, frozenset()
                    )
                    evidence = frozenset(must_held & class_locks)
                    if evidence:
                        guard = evidence if guard is None else guard & evidence
                if not guard:
                    continue
                guards.setdefault(cls_name, {})[field_name] = sorted(guard)
                for write in field_writes:
                    if write.func not in self.reachable:
                        continue
                    may_held = write.held | self.may_entry.get(
                        write.func, frozenset()
                    )
                    if may_held & guard:
                        continue
                    diagnostics.append(
                        Diagnostic(
                            rule="conc/inconsistent-guard",
                            severity=Severity.ERROR,
                            message=(
                                f"field '{field_name}' of {cls_name} is "
                                f"written without {'/'.join(sorted(guard))} "
                                "held, but guarded by it elsewhere; "
                                "thread-reachable via "
                                + self.functions[write.func].qualname
                            ),
                            path=self.functions[write.func].module,
                            line=write.line,
                            col=write.col,
                        )
                    )
        # component B: shared (non-local) roots written with and without
        # locks in the same module -- the "inconsistent" requirement
        # keeps confined objects quiet.
        by_root: dict[tuple[str, str], list[_WriteRec]] = {}
        for write in self.writes:
            if write.kind == "root" and write.func not in self.confined:
                by_root.setdefault((write.owner, write.name), []).append(write)
        for (module, root), writes in sorted(by_root.items()):
            guarded = any(
                write.held | self.must_entry.get(write.func, frozenset())
                for write in writes
            )
            if not guarded:
                continue
            for write in writes:
                if write.func not in self.reachable:
                    continue
                may_held = write.held | self.may_entry.get(
                    write.func, frozenset()
                )
                if may_held:
                    continue
                diagnostics.append(
                    Diagnostic(
                        rule="conc/inconsistent-guard",
                        severity=Severity.ERROR,
                        message=(
                            f"shared object '{root}' is written lock-free "
                            "here but under a lock elsewhere in this "
                            "module; thread-reachable via "
                            + self.functions[write.func].qualname
                        ),
                        path=module,
                        line=write.line,
                        col=write.col,
                    )
                )
        return guards, diagnostics

    def blocking_findings(self) -> list[Diagnostic]:
        diagnostics = []
        for blocker in self.blockers:
            effective = blocker.held | self.may_entry.get(
                blocker.func, frozenset()
            )
            offending = effective - blocker.exempt
            if not offending:
                continue
            diagnostics.append(
                Diagnostic(
                    rule="conc/blocking-under-lock",
                    severity=Severity.ERROR,
                    message=(
                        f"blocking call {blocker.what} while holding "
                        + "/".join(sorted(offending))
                        + f" (in {self.functions[blocker.func].qualname})"
                    ),
                    path=self.functions[blocker.func].module,
                    line=blocker.line,
                    col=blocker.col,
                )
            )
        return diagnostics


def _cycle_findings(
    edges: dict[tuple[str, str], set[str]]
) -> list[Diagnostic]:
    nodes = sorted({n for edge in edges for n in edge})
    succ: dict[str, set[str]] = {n: set() for n in nodes}
    for src, dst in edges:
        succ[src].add(dst)
    reach: dict[str, set[str]] = {}
    for node in nodes:
        seen: set[str] = set()
        frontier = list(succ[node])
        while frontier:
            nxt = frontier.pop()
            if nxt in seen:
                continue
            seen.add(nxt)
            frontier.extend(succ.get(nxt, ()))
        reach[node] = seen
    in_cycle = sorted(n for n in nodes if n in reach[n])
    # group into strongly connected components
    components: list[list[str]] = []
    assigned: set[str] = set()
    for node in in_cycle:
        if node in assigned:
            continue
        component = sorted(
            other
            for other in in_cycle
            if other == node
            or (other in reach[node] and node in reach[other])
        )
        assigned.update(component)
        components.append(component)
    diagnostics = []
    for component in components:
        sites: set[str] = set()
        for edge, edge_sites in edges.items():
            if edge[0] in component and edge[1] in component:
                sites |= edge_sites
        where = sorted(sites)[0] if sites else ":0"
        path, _, line = where.rpartition(":")
        diagnostics.append(
            Diagnostic(
                rule="conc/lock-order-cycle",
                severity=Severity.ERROR,
                message=(
                    "lock-order cycle: "
                    + " -> ".join(component + component[:1])
                    + "; acquisition sites: "
                    + ", ".join(sorted(sites)[:6])
                ),
                path=path or None,
                line=int(line) if line.isdigit() else None,
                col=0,
            )
        )
    return diagnostics


# ---------------------------------------------------------------------------
# the public model


@dataclass
class ConcurrencyModel:
    """Canonical lock hierarchy + guard map for the analysed tree."""

    locks: dict[str, dict]
    order: list[dict]
    guards: dict[str, dict[str, list[str]]]
    roots: list[str]

    def lock_names(self) -> list[str]:
        return sorted(self.locks)

    def edge_pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset((edge["from"], edge["to"]) for edge in self.order)

    def closure(self) -> frozenset[tuple[str, str]]:
        """Transitive closure of the acquisition-order relation."""
        pairs = set(self.edge_pairs())
        changed = True
        while changed:
            changed = False
            for a, b in list(pairs):
                for c, d in list(pairs):
                    if b == c and (a, d) not in pairs and a != d:
                        pairs.add((a, d))
                        changed = True
        return frozenset(pairs)

    def report(self) -> dict:
        return {
            "version": 1,
            "locks": self.locks,
            "order": self.order,
            "guards": self.guards,
            "thread_roots": self.roots,
        }

    def canonical_json(self) -> str:
        """Byte-stable serialisation (sorted keys, sorted site lists)."""
        return json.dumps(self.report(), sort_keys=True, indent=2) + "\n"

    def hierarchy_lines(self) -> list[str]:
        """``a -> b  (site, ...)`` rows for the generated docs table."""
        rows = []
        for edge in self.order:
            sites = ", ".join(edge["sites"])
            rows.append(f"| `{edge['from']}` | `{edge['to']}` | {sites} |")
        return rows


DEFAULT_ROOT = Path(__file__).resolve().parents[1]


def collect_files(paths: Iterable[Path | str]) -> list[Path]:
    files: set[Path] = set()
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def analyze_paths(
    paths: Iterable[Path | str], root: Path | str | None = None
) -> tuple[ConcurrencyModel, list[Diagnostic]]:
    """Run the full concurrency analysis over ``paths``.

    Returns the canonical :class:`ConcurrencyModel` plus the
    diagnostics for the three interprocedural rules
    (``conc/inconsistent-guard``, ``conc/lock-order-cycle``,
    ``conc/blocking-under-lock``).  ``conc/unnamed-thread`` is lexical
    and lives in :mod:`repro.analysis.lint`.
    """
    base = Path(root).resolve() if root is not None else DEFAULT_ROOT
    analyzer = _Analyzer(collect_files(paths), base)
    analyzer.index()
    analyzer.infer_class_attrs()
    analyzer.scan()
    analyzer.fixpoints()

    edges = analyzer.order_edges()
    guards, guard_diags = analyzer.guard_findings(edges)
    diagnostics = list(guard_diags)
    diagnostics.extend(_cycle_findings(edges))
    diagnostics.extend(analyzer.blocking_findings())
    diagnostics.sort(
        key=lambda d: (d.path or "", d.line or 0, d.col or 0, d.rule)
    )

    locks = {
        name: {
            "reentrant": analyzer.lock_reentrant.get(name, False),
            "sites": sorted(f"{module}:{line}" for module, line in sites),
        }
        for name, sites in analyzer.lock_sites.items()
    }
    order = [
        {"from": src, "to": dst, "sites": sorted(sites)[:3]}
        for (src, dst), sites in sorted(edges.items())
    ]
    roots = sorted(
        {key.partition("#")[0] for key in analyzer.roots & set(analyzer.functions)}
    )
    model = ConcurrencyModel(
        locks=locks, order=order, guards=guards, roots=roots
    )
    return model, diagnostics


_PACKAGE_CACHE: dict[str, tuple[ConcurrencyModel, list[Diagnostic]]] = {}


def analyze_package(
    root: Path | str | None = None,
) -> tuple[ConcurrencyModel, list[Diagnostic]]:
    """Analyse (and memoise) the whole ``src/repro`` tree."""
    base = Path(root).resolve() if root is not None else DEFAULT_ROOT
    key = str(base)
    if key not in _PACKAGE_CACHE:
        _PACKAGE_CACHE[key] = analyze_paths([base], root=base)
    return _PACKAGE_CACHE[key]


__all__ = [
    "ConcurrencyModel",
    "LockRef",
    "analyze_package",
    "analyze_paths",
    "collect_files",
]
