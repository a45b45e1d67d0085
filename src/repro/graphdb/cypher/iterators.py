"""Resumable physical operators: the one way a MATCH executes.

The web-preemption model (SaGe): a query runs as a tree of pull-based
iterators, each of which can be suspended at any safe point and
serialised to a JSON-safe continuation dict.  The driver grants the
tree a time quantum on the injected :class:`~repro.runtime.clock.Clock`
(or a deterministic step budget in tests); when it expires the current
``next()`` raises :class:`QuantumExhausted`, the driver drains the
rows produced so far, and ``save()`` captures exactly where the scan
stood.  ``load()`` on a freshly-planned tree resumes without
re-delivering or skipping a row, so results are byte-identical whether
the query ran in one slice or fifty.

Safe-point discipline: operators call ``context.tick()`` *before*
consuming a candidate or advancing a cursor, never after, so a raise
leaves the operator positioned to re-attempt the same candidate on
resume.  Blocking operators (Aggregate, OrderBy) let the exception
propagate from their child between rows; their accumulators only ever
contain fully-consumed rows and are serialised alongside the cursors.

Operators exchange *bindings* dicts (variable -> Node/Edge/value);
the projection operators turn them into result-row dicts.  Anonymous
pattern nodes get planner-assigned hidden variables (``#``-prefixed)
so expansion can continue from them; hidden keys never appear in
result rows.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.graphdb.cypher import ast
from repro.graphdb.cypher.compiler import (
    MULTIPLICITY,
    Aggregate,
    Bindings,
    Evaluator,
    _hashable,
    _sort_key,
    rel_matches,
)
from repro.graphdb.store import Edge, Node, PropertyGraph
from repro.runtime.clock import Clock, REAL_CLOCK


class QuantumExhausted(Exception):
    """The current time slice is over; save() and resume later."""


@dataclass
class ExecutionContext:
    """Shared per-query execution state: the quantum and its clock.

    ``quantum`` seconds per slice on ``clock`` (``None`` = never
    preempt); ``steps_per_slice`` preempts after a fixed number of
    safe-point ticks instead, which is what the determinism tests use
    to slice a plan at every possible suspension point.  ``step_cost``
    charges virtual seconds per tick via ``clock.sleep`` so
    virtual-clock benchmarks model query CPU time deterministically.
    """

    clock: Clock = REAL_CLOCK
    quantum: float | None = None
    steps_per_slice: int | None = None
    step_cost: float = 0.0
    _deadline: float | None = field(default=None, repr=False)
    _steps: int = field(default=0, repr=False)
    _unbudgeted: bool = field(default=False, repr=False)

    def begin_slice(self) -> None:
        self._steps = 0
        self._deadline = (
            None if self.quantum is None else self.clock.now() + self.quantum
        )
        # a run to completion ticks once per candidate too: settle here,
        # once per slice, whether any tick can charge or suspend
        self._unbudgeted = (
            self.quantum is None
            and self.steps_per_slice is None
            and not self.step_cost
        )

    def tick(self) -> None:
        """One unit of work at a safe suspension point.

        Charges ``step_cost`` to the clock first (time advances even on
        the tick that suspends), then raises when the slice budget --
        steps or quantum -- is spent.
        """
        if self._unbudgeted:
            return
        self._steps += 1
        if self.step_cost:
            self.clock.sleep(self.step_cost)
        if self.steps_per_slice is not None and self._steps > self.steps_per_slice:
            raise QuantumExhausted()
        if self._deadline is not None and self.clock.now() >= self._deadline:
            raise QuantumExhausted()

    def ticks(self, count: int) -> int:
        """``count`` ticks charged as ``count`` calls of :meth:`tick`
        would charge them, without a call each in a run to completion.
        Returns how many passed: fewer than ``count`` means the one after
        them suspended the slice, and the caller records its progress and
        raises :class:`QuantumExhausted`."""
        if self._unbudgeted:
            return count
        for passed in range(count):
            try:
                self.tick()
            except QuantumExhausted:
                return passed
        return count


# -- continuation value encoding ---------------------------------------------


def encode_value(value: object) -> object:
    """Encode a bound value as JSON-safe data (graph refs by id)."""
    if isinstance(value, Node):
        return {"@n": value.node_id}
    if isinstance(value, Edge):
        return {"@e": value.edge_id}
    if isinstance(value, (list, tuple)):
        return {"@l": [encode_value(v) for v in value]}
    return value


def decode_value(graph: PropertyGraph, value: object) -> object:
    if isinstance(value, dict):
        if "@n" in value:
            return graph.node(value["@n"])
        if "@e" in value:
            return graph.edge(value["@e"])
        if "@l" in value:
            return [decode_value(graph, v) for v in value["@l"]]
    return value


def encode_bindings(bindings: Bindings | None) -> dict | None:
    if bindings is None:
        return None
    return {key: encode_value(value) for key, value in bindings.items()}


def decode_bindings(graph: PropertyGraph, data: dict | None) -> Bindings | None:
    if data is None:
        return None
    bindings = {key: decode_value(graph, value) for key, value in data.items()}
    if MULTIPLICITY in bindings and _position(bindings[MULTIPLICITY]) < 1:
        raise ValueError("a counted row stands for at least one row")
    return bindings


def _position(value: object) -> int:
    """A cursor, count or id read back from a continuation: a
    non-negative int, or ``ValueError`` -- which ``QueryTask.load``
    reports as a malformed continuation instead of a later crash."""
    if type(value) is not int or value < 0:
        raise ValueError(f"not a position: {value!r}")
    return value


def _freeze(value: object) -> object:
    """JSON list-trees back to the hashable tuples ``_hashable`` made."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value: object) -> object:
    """Hashable tuple-trees to JSON-safe nested lists."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


# -- operator protocol --------------------------------------------------------


class PreemptableIterator:
    """Pull-based operator: ``next()`` a row or ``None`` when done;
    ``save()``/``load()`` round-trip position as JSON-safe data."""

    def next(self) -> dict | None:  # pragma: no cover - interface
        raise NotImplementedError

    def save(self) -> dict:  # pragma: no cover - interface
        raise NotImplementedError

    def load(self, state: dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class SingletonOp(PreemptableIterator):
    """Emits one empty bindings row: the seed under the first scan."""

    def __init__(self) -> None:
        self._done = False

    def next(self) -> Bindings | None:
        if self._done:
            return None
        self._done = True
        return {}

    def save(self) -> dict:
        return {"done": self._done}

    def load(self, state: dict) -> None:
        self._done = bool(state["done"])


class ScanOp(PreemptableIterator):
    """Anchor scan: per input row, candidates for one node pattern.

    ``source`` picks the candidate id list -- ``("index", label, key,
    value)`` for an index bucket, ``("label", label)`` or ``("all",)``
    for scans.  Ids are consumed in ascending order and the
    continuation records the last id consumed, so a resume filters
    ``> last`` and is robust to inserts between slices.  When the
    pattern variable is already bound upstream the scan degrades to a
    consistency check.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        context: ExecutionContext,
        child: PreemptableIterator,
        matches,
        variable: str,
        source: tuple,
    ):
        self.graph = graph
        self.context = context
        self.child = child
        #: the pattern's compiled ``(node, bindings) -> bool`` test;
        #: ``None`` when every node passes
        self.matches = matches
        self.variable = variable
        self.source = source
        self._input: Bindings | None = None
        self._after: int | None = None
        self._ids: list[int] | None = None
        self._pos = 0

    def _candidate_ids(self) -> list[int]:
        kind = self.source[0]
        if kind == "index":
            _, label, key, value = self.source
            return self.graph.index_lookup_ids(label, key, value)
        if kind == "label":
            return self.graph.node_ids(self.source[1])
        return self.graph.node_ids(None)

    def next(self) -> Bindings | None:
        while True:
            if self._input is None:
                parent = self.child.next()
                if parent is None:
                    return None
                self._input = parent
                self._after = None
                self._ids = None
                self._pos = 0
            bindings = self._input
            matches = self.matches
            bound = bindings.get(self.variable)
            if isinstance(bound, Node):
                # variable joined from an earlier path: check, emit once
                self.context.tick()
                self._input = None
                if matches is None or matches(bound, bindings):
                    return dict(bindings)
                continue
            if self._ids is None:
                self._ids = self._candidate_ids()
                self._pos = (
                    0
                    if self._after is None
                    else bisect.bisect_right(self._ids, self._after)
                )
            while self._pos < len(self._ids):
                self.context.tick()
                node_id = self._ids[self._pos]
                self._pos += 1
                self._after = node_id
                if not self.graph.has_node(node_id):
                    continue
                node = self.graph.node(node_id)
                if matches is None or matches(node, bindings):
                    out = dict(bindings)
                    out[self.variable] = node
                    return out
            self._input = None

    def save(self) -> dict:
        return {
            "child": self.child.save(),
            "input": encode_bindings(self._input),
            "after": self._after,
        }

    def load(self, state: dict) -> None:
        self.child.load(state["child"])
        self._input = decode_bindings(self.graph, state["input"])
        after = state["after"]
        self._after = None if after is None else _position(after)
        self._ids = None
        self._pos = 0


def _direction(rel: ast.RelPattern, forward: bool) -> str:
    """The pattern's direction as seen from the node expanded from, in
    the store's words: ``"out"``, ``"in"`` or ``"both"``."""
    if rel.direction == "any":
        return "both"
    if forward:
        return rel.direction
    return "in" if rel.direction == "out" else "out"


def _adjacent(
    graph: PropertyGraph, node: Node, rel: ast.RelPattern, forward: bool
) -> list[tuple[Edge, Node]]:
    """Pattern-consistent single-hop neighbours, in stable edge order.

    An Expand continuation records a position in this list.  That
    position stays valid only while no edge of the node is deleted
    between two slices: ``delete_edge`` removes from the adjacency lists
    and ``merge_nodes`` moves edges.  How a continuation notices such a
    change (the graph's ``version``) is ROADMAP item 4's rule.
    """
    direction = _direction(rel, forward)
    result: list[tuple[Edge, Node]] = []
    if direction in ("out", "both"):
        for edge in graph.out_edges(node.node_id, rel.rel_type):
            result.append((edge, graph.node(edge.dst)))
    if direction in ("in", "both"):
        for edge in graph.in_edges(node.node_id, rel.rel_type):
            result.append((edge, graph.node(edge.src)))
    return result


class ExpandOp(PreemptableIterator):
    """Single-hop expansion from a bound node along a rel pattern."""

    def __init__(
        self,
        graph: PropertyGraph,
        context: ExecutionContext,
        child: PreemptableIterator,
        source_var: str,
        rel: ast.RelPattern,
        matches,
        target_var: str,
        forward: bool,
    ):
        self.graph = graph
        self.context = context
        self.child = child
        self.source_var = source_var
        self.rel = rel
        #: the target pattern's compiled ``(node, bindings) -> bool``
        #: test; ``None`` when every node passes
        self.matches = matches
        self.target_var = target_var
        self.forward = forward
        self._input: Bindings | None = None
        self._neighbours: list[tuple[Edge, Node]] | None = None
        self._pos = 0

    def next(self) -> Bindings | None:
        while True:
            if self._input is None:
                parent = self.child.next()
                if parent is None:
                    return None
                self._input = parent
                self._neighbours = None
                self._pos = 0
            if self._neighbours is None:
                source = self._input[self.source_var]
                self._neighbours = _adjacent(
                    self.graph, source, self.rel, self.forward
                )
            neighbours = self._neighbours
            bindings = self._input
            matches = self.matches
            rel_var = self.rel.variable
            while self._pos < len(neighbours):
                self.context.tick()
                edge, neighbour = neighbours[self._pos]
                self._pos += 1
                # test first, copy after: a rejected candidate costs no
                # dict (_adjacent already filtered on the relationship type)
                if matches is not None and not matches(neighbour, bindings):
                    continue
                if rel_var and not rel_matches(rel_var, edge, bindings):
                    continue
                out = dict(bindings)
                out[self.target_var] = neighbour
                if rel_var:
                    out[rel_var] = edge
                return out
            self._input = None

    def save(self) -> dict:
        return {
            "child": self.child.save(),
            "input": encode_bindings(self._input),
            "pos": self._pos,
        }

    def load(self, state: dict) -> None:
        self.child.load(state["child"])
        self._input = decode_bindings(self.graph, state["input"])
        self._neighbours = None
        self._pos = _position(state["pos"])


class ExpandCountOp(PreemptableIterator):
    """A single hop counted instead of enumerated.

    The planner lowers a pattern's last hop to this when its far
    endpoint (and relationship variable) is read by nothing but a
    non-``DISTINCT`` count.  Per input row it counts the neighbours
    :class:`ExpandOp` would emit -- ``_adjacent`` plus the target's
    compiled test, or just the store's typed degree without a test --
    and passes the row up once with that count multiplied into its
    :data:`~repro.graphdb.cypher.compiler.MULTIPLICITY`; a row with no
    neighbour is dropped, as :class:`ExpandOp` would drop it.

    It ticks once per neighbour examined, as :class:`ExpandOp` does,
    but through :meth:`ExecutionContext.ticks`, so a step budget
    suspends at the same neighbour and an unbudgeted run pays no call
    per neighbour.  The continuation holds the input row, the position
    and the partial count.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        context: ExecutionContext,
        child: PreemptableIterator,
        source_var: str,
        rel: ast.RelPattern,
        matches,
        forward: bool,
    ):
        self.graph = graph
        self.context = context
        self.child = child
        self.source_var = source_var
        self.rel = rel
        #: the target pattern's compiled test; ``None`` counts the degree
        self.matches = matches
        self.forward = forward
        #: the direction ``_adjacent`` reads; under ``"both"`` an
        #: undirected self-loop counts twice, as ``_adjacent`` lists it twice
        self._direction = _direction(rel, forward)
        self._input: Bindings | None = None
        #: neighbours of the input row, listed only when there is a test
        self._neighbours: list[tuple[Edge, Node]] | None = None
        self._total: int | None = None
        self._pos = 0
        self._count = 0

    def next(self) -> Bindings | None:
        matches = self.matches
        while True:
            if self._input is None:
                parent = self.child.next()
                if parent is None:
                    return None
                self._input = parent
                self._total = None
                self._pos = 0
                self._count = 0
            bindings = self._input
            if self._total is None:
                source = bindings[self.source_var]
                if matches is None:
                    self._total = self.graph.degree(
                        source.node_id, self.rel.rel_type, self._direction
                    )
                else:
                    self._neighbours = _adjacent(
                        self.graph, source, self.rel, self.forward
                    )
                    self._total = len(self._neighbours)
            start = self._pos
            wanted = max(0, self._total - start)
            passed = self.context.ticks(wanted)
            self._pos = start + passed
            if matches is None:
                self._count += passed
            else:
                for _edge, neighbour in self._neighbours[start:self._pos]:
                    if matches(neighbour, bindings):
                        self._count += 1
            if passed < wanted:
                raise QuantumExhausted()
            self._input = None
            if self._count:
                out = dict(bindings)
                out[MULTIPLICITY] = self._count * bindings.get(MULTIPLICITY, 1)
                return out

    def save(self) -> dict:
        return {
            "child": self.child.save(),
            "input": encode_bindings(self._input),
            "pos": self._pos,
            "count": self._count,
        }

    def load(self, state: dict) -> None:
        self.child.load(state["child"])
        self._input = decode_bindings(self.graph, state["input"])
        self._total = None
        self._pos = _position(state["pos"])
        self._count = _position(state["count"])


class ExpandVarOp(PreemptableIterator):
    """Variable-length expansion (``*m..n``) from a bound node.

    The BFS over node-distinct paths is recomputed per input row (it is
    deterministic given the adjacency lists); the continuation records
    only the emission position within its result.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        context: ExecutionContext,
        child: PreemptableIterator,
        source_var: str,
        rel: ast.RelPattern,
        matches,
        target_var: str,
        forward: bool,
    ):
        self.graph = graph
        self.context = context
        self.child = child
        self.source_var = source_var
        self.rel = rel
        self.matches = matches
        self.target_var = target_var
        self.forward = forward
        self._input: Bindings | None = None
        self._endpoints: list[Node] | None = None
        self._pos = 0

    def _reachable(self, node: Node) -> list[Node]:
        endpoints: list[Node] = []
        seen: set[int] = {node.node_id}
        frontier: list[Node] = [node]
        if self.rel.min_hops == 0:
            endpoints.append(node)
        for depth in range(1, self.rel.max_hops + 1):
            next_frontier: list[Node] = []
            for current in frontier:
                for _edge, neighbour in _adjacent(
                    self.graph, current, self.rel, self.forward
                ):
                    if neighbour.node_id in seen:
                        continue
                    seen.add(neighbour.node_id)
                    next_frontier.append(neighbour)
                    if depth >= self.rel.min_hops:
                        endpoints.append(neighbour)
            frontier = next_frontier
            if not frontier:
                break
        return endpoints

    def next(self) -> Bindings | None:
        while True:
            if self._input is None:
                # No tick of our own before pulling: the child ticks per
                # candidate, and a second tick here would deadlock a
                # one-step slice (two ticks needed, budget of one, no
                # durable progress in between).
                parent = self.child.next()
                if parent is None:
                    return None
                self._input = parent
                self._endpoints = None
                self._pos = 0
            if self._endpoints is None:
                # BFS cost is attributed to the per-emission ticks.
                self._endpoints = self._reachable(self._input[self.source_var])
            while self._pos < len(self._endpoints):
                self.context.tick()
                neighbour = self._endpoints[self._pos]
                self._pos += 1
                if self.matches is not None and not self.matches(
                    neighbour, self._input
                ):
                    continue
                out = dict(self._input)
                out[self.target_var] = neighbour
                return out
            self._input = None

    def save(self) -> dict:
        return {
            "child": self.child.save(),
            "input": encode_bindings(self._input),
            "pos": self._pos,
        }

    def load(self, state: dict) -> None:
        self.child.load(state["child"])
        self._input = decode_bindings(self.graph, state["input"])
        self._endpoints = None
        self._pos = _position(state["pos"])


class FilterOp(PreemptableIterator):
    """WHERE conjuncts whose variables the child has already bound,
    compiled into one ``bindings -> truthy`` predicate."""

    def __init__(self, child: PreemptableIterator, predicate: Evaluator):
        self.child = child
        self.predicate = predicate

    def next(self) -> Bindings | None:
        while True:
            bindings = self.child.next()
            if bindings is None:
                return None
            if self.predicate(bindings):
                return bindings

    def save(self) -> dict:
        return {"child": self.child.save()}

    def load(self, state: dict) -> None:
        self.child.load(state["child"])


class ProjectOp(PreemptableIterator):
    """Non-aggregate RETURN projection, bindings -> row dict.

    ORDER BY expressions are evaluated here -- against the projected
    row first (aliases win), falling back to the source bindings so a
    query can sort on a value it does not return -- into hidden ``#oN``
    keys that :class:`OrderByOp` sorts on and strips.
    """

    def __init__(
        self,
        child: PreemptableIterator,
        columns: list[tuple[str, Evaluator]],
        order_keys: list[tuple[str, object]],
    ):
        self.child = child
        #: ``(alias, bindings -> value)`` per RETURN item
        self.columns = columns
        #: ``("#oN", (row, bindings) -> value)`` per ORDER BY expression
        self.order_keys = order_keys

    def next(self) -> dict | None:
        bindings = self.child.next()
        if bindings is None:
            return None
        row = {alias: value(bindings) for alias, value in self.columns}
        for hidden, key in self.order_keys:
            row[hidden] = key(row, bindings)
        return row

    def save(self) -> dict:
        return {"child": self.child.save()}

    def load(self, state: dict) -> None:
        self.child.load(state["child"])


#: types whose values are their own grouping identity
_PLAIN = frozenset({str, int, float, bool, type(None)})


def _group_key(reps: list) -> tuple:
    """``_hashable`` of each value, skipping the call for the scalars
    nearly every group key is made of."""
    return tuple(
        [rep if type(rep) in _PLAIN else _hashable(rep) for rep in reps]
    )


class AggregateOp(PreemptableIterator):
    """Grouping aggregation; blocking, with serialisable accumulators.

    Consume phase drains the child, keeping per group the
    representative values of the group expressions and one running
    state per aggregate (:class:`~repro.graphdb.cypher.compiler.Aggregate`):
    O(1) for ``count`` / ``sum`` / ``min`` / ``max`` / ``avg``, the
    values themselves only for ``collect``, and for ``DISTINCT`` the
    identities already folded, in a dict (O(1) membership, and the
    insertion order ``save()`` writes).  So a continuation taken
    mid-consume is O(groups), not O(rows consumed).  A quantum expiring
    mid-consume propagates from the child with the accumulators intact.
    Emit phase walks groups in first-seen order.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        child: PreemptableIterator,
        group_columns: list[tuple[str, Evaluator]],
        aggregates: list[tuple[str, Aggregate]],
        order_keys: list[tuple[str, object]],
    ):
        self.graph = graph
        self.child = child
        self.group_columns = group_columns
        self.aggregates = aggregates
        self.order_keys = order_keys
        self._group_values = [value for _alias, value in group_columns]
        #: per aggregate, what the per-row loop needs of it
        self._folds = [
            (slot, aggregate.operand, aggregate.step)
            for slot, (_alias, aggregate) in enumerate(aggregates)
        ]
        #: group key -> (representative values, one state per aggregate,
        #: and per DISTINCT aggregate the identities already folded --
        #: ``None`` for the others)
        self._groups: dict[tuple, tuple[list, list, list]] = {}
        self._consumed = False
        #: groups in first-seen order, materialised once the child is drained
        self._emit_order: list[tuple[list, list, list]] | None = None
        self._pos = 0

    def _new_group(self, reps: list) -> tuple[list, list, list]:
        return (
            reps,
            [aggregate.init() for _alias, aggregate in self.aggregates],
            [
                {} if aggregate.distinct else None
                for _alias, aggregate in self.aggregates
            ],
        )

    def _accumulate(self, bindings: Bindings) -> None:
        reps = [value(bindings) for value in self._group_values]
        key = _group_key(reps)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = self._new_group(reps)
        _reps, states, seen = group
        for slot, operand, step in self._folds:
            value = operand(bindings)
            if value is None:
                continue
            folded = seen[slot]
            if folded is not None:
                identity = _hashable(value)
                if identity in folded:
                    continue
                folded[identity] = None
            states[slot] = step(states[slot], value)

    def _emit(self, group: tuple[list, list, list]) -> dict:
        reps, states, _seen = group
        row: dict[str, object] = {}
        for (alias, _value), rep in zip(self.group_columns, reps):
            row[alias] = rep
        for (alias, aggregate), state in zip(self.aggregates, states):
            row[alias] = aggregate.final(state)
        for hidden, key in self.order_keys:
            row[hidden] = key(row, None)
        return row

    def next(self) -> dict | None:
        if not self._consumed:
            while True:
                bindings = self.child.next()
                if bindings is None:
                    break
                self._accumulate(bindings)
            self._consumed = True
        groups = self._emit_order
        if groups is None:
            if not self.group_columns and not self._groups:
                # global aggregate over an empty match: one zero/null row
                self._groups[()] = self._new_group([])
            groups = self._emit_order = list(self._groups.values())
        if self._pos >= len(groups):
            return None
        group = groups[self._pos]
        self._pos += 1
        return self._emit(group)

    def save(self) -> dict:
        return {
            "child": self.child.save(),
            "consumed": self._consumed,
            "pos": self._pos,
            "groups": [
                {
                    "reps": [encode_value(v) for v in reps],
                    "aggs": [encode_value(state) for state in states],
                    "seen": [
                        None if folded is None else _thaw(tuple(folded))
                        for folded in seen
                    ],
                }
                for reps, states, seen in self._groups.values()
            ],
        }

    def load(self, state: dict) -> None:
        self.child.load(state["child"])
        self._consumed = bool(state["consumed"])
        self._pos = _position(state["pos"])
        self._emit_order = None
        self._groups = {}
        aggregates = [aggregate for _alias, aggregate in self.aggregates]
        for entry in state["groups"]:
            reps = [decode_value(self.graph, v) for v in entry["reps"]]
            states = [decode_value(self.graph, saved) for saved in entry["aggs"]]
            seen = [
                None if folded is None else dict.fromkeys(_freeze(folded))
                for folded in entry["seen"]
            ]
            if len(reps) != len(self.group_columns) or not (
                len(states) == len(seen) == len(aggregates)
                and all(
                    aggregate.valid(saved) and (folded is None) != aggregate.distinct
                    for aggregate, saved, folded in zip(aggregates, states, seen)
                )
            ):
                raise ValueError("group state does not fit its aggregates")
            self._groups[_group_key(reps)] = (reps, states, seen)


class OrderByOp(PreemptableIterator):
    """Blocking sort on the hidden ``#oN`` keys, stripped on emit.

    Sorting runs as reversed stable passes (last key first), so rows
    that tie on every key keep the order the child produced them in.
    """

    def __init__(self, graph: PropertyGraph, child: PreemptableIterator,
                 ascending: list[bool]):
        self.graph = graph
        self.child = child
        self.ascending = ascending
        self._keys = [f"#o{index}" for index in range(len(ascending))]
        self._rows: list[dict] = []
        self._sorted = False
        self._pos = 0

    def next(self) -> dict | None:
        if not self._sorted:
            while True:
                row = self.child.next()
                if row is None:
                    break
                self._rows.append(row)
            # reversed stable passes: the last key sorts first
            for key, asc in zip(reversed(self._keys), reversed(self.ascending)):
                self._rows.sort(
                    key=lambda row: _sort_key(row[key]), reverse=not asc
                )
            self._sorted = True
        if self._pos >= len(self._rows):
            return None
        row = self._rows[self._pos]
        self._pos += 1
        return {k: v for k, v in row.items() if k not in self._keys}

    def save(self) -> dict:
        return {
            "child": self.child.save(),
            "sorted": self._sorted,
            "pos": self._pos,
            "rows": [
                {k: encode_value(v) for k, v in row.items()}
                for row in self._rows
            ],
        }

    def load(self, state: dict) -> None:
        self.child.load(state["child"])
        self._sorted = bool(state["sorted"])
        self._pos = _position(state["pos"])
        self._rows = [
            {k: decode_value(self.graph, v) for k, v in row.items()}
            for row in state["rows"]
        ]


class DistinctOp(PreemptableIterator):
    """Streaming DISTINCT over row dicts (first occurrence wins)."""

    def __init__(self, child: PreemptableIterator):
        self.child = child
        #: row keys already emitted; a dict for O(1) membership *and* the
        #: insertion order save() writes
        self._seen: dict[tuple, None] = {}

    def next(self) -> dict | None:
        while True:
            row = self.child.next()
            if row is None:
                return None
            key = tuple(sorted((k, _hashable(v)) for k, v in row.items()))
            if key in self._seen:
                continue
            self._seen[key] = None
            return row

    def save(self) -> dict:
        return {"child": self.child.save(), "seen": _thaw(tuple(self._seen))}

    def load(self, state: dict) -> None:
        self.child.load(state["child"])
        self._seen = dict.fromkeys(_freeze(state["seen"]))


class SkipOp(PreemptableIterator):
    def __init__(self, child: PreemptableIterator, count: int):
        self.child = child
        self.count = count
        self._skipped = 0

    def next(self) -> dict | None:
        while self._skipped < self.count:
            row = self.child.next()
            if row is None:
                return None
            self._skipped += 1
        return self.child.next()

    def save(self) -> dict:
        return {"child": self.child.save(), "skipped": self._skipped}

    def load(self, state: dict) -> None:
        self.child.load(state["child"])
        self._skipped = _position(state["skipped"])


class LimitOp(PreemptableIterator):
    """Stops pulling once the limit is reached: pushdown for free."""

    def __init__(self, child: PreemptableIterator, count: int):
        self.child = child
        self.count = count
        self._emitted = 0

    def next(self) -> dict | None:
        if self._emitted >= self.count:
            return None
        row = self.child.next()
        if row is None:
            return None
        self._emitted += 1
        return row

    def save(self) -> dict:
        return {"child": self.child.save(), "emitted": self._emitted}

    def load(self, state: dict) -> None:
        self.child.load(state["child"])
        self._emitted = _position(state["emitted"])


class ProfiledOp(PreemptableIterator):
    """Transparent instrumentation shim around one operator.

    Counts ``next()`` calls and rows produced, and accumulates the
    wall (clock) seconds spent inside the wrapped operator --
    *cumulative* time, i.e. including the children it pulls from,
    since each child is itself wrapped the per-operator self time
    falls out as ``cumulative - sum(child cumulatives)`` at render
    time.  Timing reads the injected clock, so a virtual-clock profile
    (optionally charged via ``step_cost``) is deterministic.

    The shim is also save/load-transparent: continuations nest the
    wrapped operator's state beside the counters, so a PROFILE query
    can still be sliced and resumed.
    """

    def __init__(
        self,
        inner: PreemptableIterator,
        context: ExecutionContext,
        kind: str,
        detail: str = "",
    ):
        self.inner = inner
        self.context = context
        self.kind = kind
        self.detail = detail
        self.calls = 0
        self.rows = 0
        self.seconds = 0.0

    def next(self) -> dict | None:
        self.calls += 1
        started = self.context.clock.now()
        try:
            row = self.inner.next()
        finally:
            self.seconds += max(0.0, self.context.clock.now() - started)
        if row is not None:
            self.rows += 1
        return row

    def save(self) -> dict:
        return {
            "inner": self.inner.save(),
            "calls": self.calls,
            "rows": self.rows,
            "s": self.seconds,
        }

    def load(self, state: dict) -> None:
        self.inner.load(state["inner"])
        self.calls = state["calls"]
        self.rows = state["rows"]
        self.seconds = state["s"]

    def stats(self) -> dict:
        """JSON-safe counters for :class:`QueryProfile`."""
        return {
            "operator": self.kind,
            "detail": self.detail,
            "rows": self.rows,
            "calls": self.calls,
            "cumulative_s": self.seconds,
        }


__all__ = [
    "AggregateOp",
    "DistinctOp",
    "ExecutionContext",
    "ExpandCountOp",
    "ExpandOp",
    "ExpandVarOp",
    "FilterOp",
    "LimitOp",
    "OrderByOp",
    "PreemptableIterator",
    "ProfiledOp",
    "ProjectOp",
    "QuantumExhausted",
    "ScanOp",
    "SingletonOp",
    "SkipOp",
    "decode_bindings",
    "decode_value",
    "encode_bindings",
    "encode_value",
]
