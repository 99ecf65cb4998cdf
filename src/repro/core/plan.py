"""Task plan: the Window → Filter → GroupBy → Aggregator DAG (paper §4.1.2).

All metrics of one task are compiled into a DAG whose prefix paths are
shared: metrics with the same window share the Window operator (and its
reservoir iterators), metrics that additionally share a filter share the
Filter operator, and so on. Every time the plan advances (a new event
arrives), each Window operator produces the events that *arrive* and
*expire* and pushes them down the DAG; the leaves (Aggregator operators)
read-modify-write per-entity aggregation state in the state store — one
state-store key per DAG leaf per touched entity, as in §4.1.3.

Iterator sharing (§4.1.1 / Fig 5): window heads are keyed by the window's
delay (two sliding windows with the same delay share the head iterator
regardless of size); tails are keyed by (kind, size, delay). §5.2(b)
forces misalignment through distinct sizes *and* delays, giving
2 × #windows iterators.
"""
from __future__ import annotations

from typing import Any, Callable, Iterable

from .aggregators import make_aggregator
from .language import MetricSpec, Statement
from .reservoir import Event, EventReservoir, ReservoirIterator
from .statestore import StateStore
from .windows import WindowSpec


class AggregatorLeaf:
    """One metric's Aggregator operator: per-entity state in the store."""

    def __init__(self, metric: MetricSpec, metric_id: int, store: StateStore):
        self.metric = metric
        self.mid = metric_id
        self.store = store
        self.cf = f"m{metric_id}"
        self.aux_cf = f"m{metric_id}:distinct"  # countDistinct multiplicities
        # hot-path caches: metric.name is a computed property; the group-by
        # and field lookups run hundreds of times per event in wide plans
        self.name = metric.name
        self._agg_name = metric.agg
        self._gb = metric.group_by
        self._gb1 = metric.group_by[0] if len(metric.group_by) == 1 else None
        self._field_name = None if metric.agg_field == "*" else metric.agg_field
        self._empty_value = make_aggregator(metric.agg).value()

    def _field(self, e: Event) -> Any:
        f = self._field_name
        return 1 if f is None else e.get(f)

    def _key(self, e: Event) -> Any:
        if self._gb1 is not None:
            return e.get(self._gb1)
        return tuple(e.get(g) for g in self._gb)

    def apply(self, arrivals: list[Event], evictions: list[Event]) -> None:
        """Update every entity touched by this batch (one RMW per entity)."""
        if self._agg_name == "countDistinct":
            self._apply_distinct(arrivals, evictions)
            return
        store, cf = self.store, self.cf
        if len(arrivals) == 1 and not evictions:
            # the common steady-state shape: one arriving event
            e = arrivals[0]
            key = self._key(e)
            agg = store.get(key, cf)
            if agg is None:
                agg = make_aggregator(self._agg_name)
            agg.add(e["seq"], self._field(e))
            store.put(key, agg, cf)
            return
        by_key: dict[Any, tuple[list, list]] = {}
        for e in evictions:
            k = self._key(e)
            r = by_key.get(k)
            if r is None:
                r = by_key[k] = ([], [])
            r[1].append(e)
        for e in arrivals:
            k = self._key(e)
            r = by_key.get(k)
            if r is None:
                r = by_key[k] = ([], [])
            r[0].append(e)
        for key, (adds, evicts) in by_key.items():
            agg = store.get(key, cf)
            if agg is None:
                agg = make_aggregator(self._agg_name)
            # arrivals first: one batch can both add and expire an event
            for e in adds:
                agg.add(e["seq"], self._field(e))
            for e in evicts:
                agg.evict(e["seq"], self._field(e))
            store.put(key, agg, cf)

    def _apply_distinct(self, arrivals: list[Event], evictions: list[Event]) -> None:
        # distinct counts live in a dedicated column family (paper §4.1.3):
        # aux key (entity, value) -> multiplicity; main key entity -> #distinct.
        touched: dict[Any, int] = {}
        for e in arrivals:
            key, val = self._key(e), self._field(e)
            m = self.store.get((key, val), self.aux_cf) or 0
            if m == 0:
                touched[key] = touched.get(key, self._size(key)) + 1
            self.store.put((key, val), m + 1, self.aux_cf)
        for e in evictions:
            key, val = self._key(e), self._field(e)
            m = (self.store.get((key, val), self.aux_cf) or 0) - 1
            if m <= 0:
                self.store.delete((key, val), self.aux_cf)
                touched[key] = touched.get(key, self._size(key)) - 1
            else:
                self.store.put((key, val), m, self.aux_cf)
        for key, size in touched.items():
            self.store.put(key, size, self.cf)

    def _size(self, key: Any) -> int:
        return self.store.get(key, self.cf) or 0

    def value_for(self, event: Event) -> Any:
        key = self._key(event)
        if self._agg_name == "countDistinct":
            return self._size(key)
        agg = self.store.get(key, self.cf)
        return self._empty_value if agg is None else agg.value()


class GroupByNode:
    def __init__(self, fields: tuple[str, ...]):
        self.fields = fields
        self.leaves: list[AggregatorLeaf] = []

    def apply(self, arrivals: list[Event], evictions: list[Event]) -> None:
        for leaf in self.leaves:
            leaf.apply(arrivals, evictions)


class FilterNode:
    def __init__(self, predicate: Callable[[Event], bool] | None):
        self.predicate = predicate
        self.group_bys: dict[tuple[str, ...], GroupByNode] = {}

    def apply(self, arrivals: list[Event], evictions: list[Event]) -> None:
        if self.predicate is not None:
            arrivals = [e for e in arrivals if self.predicate(e)]
            evictions = [e for e in evictions if self.predicate(e)]
        if not arrivals and not evictions:
            return
        for gb in self.group_bys.values():
            gb.apply(arrivals, evictions)


class WindowNode:
    """Window operator: advances head/tail iterators, emits arrive/expire."""

    def __init__(
        self,
        spec: WindowSpec,
        head: ReservoirIterator,
        tail: ReservoirIterator | None,
    ):
        self.spec = spec
        self.head = head
        self.tail = tail  # None for infinite windows (events never expire)
        self.filters: dict[str | None, FilterNode] = {}

    def advance(self, t_eval: int, arrivals: list[Event],
                late_event: Event | None = None) -> None:
        """Push precomputed head arrivals + own tail expirations downstream.

        ``arrivals`` comes from the (possibly shared) head iterator, which
        the plan advances exactly once per unique head.
        """
        lo, hi = self.spec.bounds(t_eval)
        if late_event is not None:
            # The event was inserted behind this window's head cursor (the
            # plan checked positions *before* advancing the head); the head
            # will never yield it, so apply it manually if it is inside the
            # current window bounds.
            if lo < late_event["ts"] <= hi:
                arrivals = arrivals + [late_event]
        evictions: list[Event] = []
        if self.tail is not None:
            self.tail.advance_until(lo, evictions)
        if arrivals or evictions:
            for f in self.filters.values():
                f.apply(arrivals, evictions)


class TaskPlan:
    """The compiled DAG for one task, over one reservoir + state store."""

    def __init__(
        self,
        statements: Iterable[Statement],
        reservoir: EventReservoir,
        store: StateStore,
    ):
        self.reservoir = reservoir
        self.store = store
        self.windows: dict[WindowSpec, WindowNode] = {}
        self.leaves: list[AggregatorLeaf] = []
        heads: dict[int, ReservoirIterator] = {}
        tails: dict[tuple, ReservoirIterator] = {}
        mid = 0
        for stmt in statements:
            for metric in stmt.metrics:
                spec = metric.window
                wnode = self.windows.get(spec)
                if wnode is None:
                    head = heads.get(spec.delay_ms)
                    if head is None:
                        head = heads[spec.delay_ms] = reservoir.iterator()
                    tail = None
                    if spec.kind != "infinite":
                        tkey = (spec.kind, spec.size_ms, spec.delay_ms)
                        tail = tails.get(tkey)
                        if tail is None:
                            tail = tails[tkey] = reservoir.iterator()
                    wnode = self.windows[spec] = WindowNode(spec, head, tail)
                fnode = wnode.filters.get(metric.filter_sql)
                if fnode is None:
                    fnode = wnode.filters[metric.filter_sql] = FilterNode(stmt.filter)
                gbnode = fnode.group_bys.get(metric.group_by)
                if gbnode is None:
                    gbnode = fnode.group_bys[metric.group_by] = GroupByNode(metric.group_by)
                leaf = AggregatorLeaf(metric, mid, store)
                mid += 1
                gbnode.leaves.append(leaf)
                self.leaves.append(leaf)
        self._iterators = set(heads.values()) | set(tails.values())
        # Windows with the same delay share a head iterator; advance each
        # unique head once per event and fan its arrivals out.
        self._head_groups: dict[int, tuple[ReservoirIterator, list[WindowNode]]] = {}
        for spec, wnode in self.windows.items():
            entry = self._head_groups.get(spec.delay_ms)
            if entry is None:
                self._head_groups[spec.delay_ms] = (wnode.head, [wnode])
            else:
                entry[1].append(wnode)

    @property
    def iterator_count(self) -> int:
        """Unique reservoir iterators (the §5.2(b) x-axis)."""
        return len(self._iterators)

    def advance(self, t_eval: int, late_event: Event | None = None,
                late_pos: tuple[int, int] | None = None) -> None:
        for delay_ms, (head, wnodes) in self._head_groups.items():
            behind = late_pos is not None and late_pos < head.position()
            arrivals: list[Event] = []
            head.advance_until(t_eval - delay_ms, arrivals)
            manual = late_event if behind else None
            for wnode in wnodes:
                wnode.advance(t_eval, arrivals, manual)

    def answers(self, event: Event) -> dict[str, Any]:
        """Current aggregate values for the arriving event's entities."""
        return {leaf.name: leaf.value_for(event) for leaf in self.leaves}
