"""Task plan: the Window → Filter → GroupBy → Aggregator DAG (paper §4.1.2).

All metrics of one task are compiled into a DAG whose prefix paths are
shared: metrics with the same window share the Window operator (and its
reservoir iterators), metrics that additionally share a filter share the
Filter operator, and so on. Every time the plan advances (a new event
arrives), each Window operator produces the events that *arrive* and
*expire* and pushes them down the DAG. Each GroupBy operator keeps one
state-store record per entity in its own column family, one slot per
distinct state (§4.1.3; sum/avg and last/prev share): an advance costs one
read-modify-write per (GroupBy, touched entity), and the answer reuses the
record just written. A load over history seeks each head group to its
lowest window start, replays the windows' contents in chunk-sized steps
through the same add/evict, and still writes each touched record once.
A leaf (Aggregator operator) reads its slot.

Iterator sharing (§4.1.1 / Fig 5): window heads are keyed by the window's
delay (two sliding windows with the same delay share the head iterator
regardless of size); each finite window has its own tail. §5.2(b)
forces misalignment through distinct sizes *and* delays, giving
2 × #windows iterators.
"""
from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Iterable

from .aggregators import aggregator
from .language import MetricSpec, Statement
from .reservoir import Event, EventReservoir, ReservoirIterator
from .statestore import StateStore
from .windows import WindowSpec


class _Multiplicities:
    """countDistinct's value→multiplicity map of one entity, in its own cf."""

    def __init__(self, store: StateStore, cf: str, key: Any):
        self.store, self.cf, self.key = store, cf, key

    def get(self, value: Any, default: int) -> int:
        return self.store.get((self.key, value), self.cf) or default

    def __setitem__(self, value: Any, m: int) -> None:
        self.store.put((self.key, value), m, self.cf)

    def pop(self, value: Any, default: Any = None) -> None:
        self.store.delete((self.key, value), self.cf)


class AggregatorLeaf:
    """One metric's Aggregator operator: reads one slot of its GroupBy's record."""

    def __init__(self, metric: MetricSpec, metric_id: int):
        self.metric = metric
        self.name = metric.name  # a computed property
        self.agg = aggregator(metric.agg)
        self.field = None if metric.agg_field == "*" else metric.agg_field
        # countDistinct's slot is [n]; the multiplicities have their own cf
        self.aux_cf = f"m{metric_id}:distinct" if metric.agg == "countDistinct" else None
        self.slot = -1  # set by GroupByNode.add_leaf


class GroupByNode:
    """GroupBy operator: one store record per entity, in this node's own
    column family, holding one plain slot per distinct state: leaves whose
    ``new``/``add``/``evict`` and field agree share one (sum/avg, last/prev)."""

    def __init__(self, fields: tuple[str, ...], gid: int, store: StateStore):
        self.fields = fields
        self.cf = f"g{gid}"
        self.store = store
        self.leaves: list[AggregatorLeaf] = []
        self._slots: dict[tuple, int] = {}  # (new, add, evict, field, aux_cf) → slot
        # per slot, (add, field, slot, aux_cf) and (evict, field, slot, aux_cf)
        self._updates: tuple[list[tuple], list[tuple]] = ([], [])
        self.reads: list[tuple[str, Callable, int]] = []  # per leaf: (name, value, slot)
        # entity → record this node touched during the current advance,
        # put by ``flush``; between advances the plan is the only writer of
        # its column families
        self.written: dict[Any, list] = {}
        self.deferred = False  # during a load: flush once, after the last step
        self._gb1 = fields[0] if len(fields) == 1 else None

    def add_leaf(self, leaf: AggregatorLeaf) -> None:
        a = leaf.agg
        state = (a.new, a.add, a.evict, leaf.field, leaf.aux_cf)
        if state not in self._slots:
            slot = self._slots[state] = len(self._slots)
            for updates, fn in zip(self._updates, (a.add, a.evict)):
                updates.append((fn, leaf.field, slot, leaf.aux_cf))
        leaf.slot = self._slots[state]
        self.leaves.append(leaf)
        self.reads.append((leaf.name, a.value, leaf.slot))
        self.empty = self.new_record()

    def new_record(self) -> list:
        return [[0] if aux else new() for new, _, _, _, aux in self._slots]

    def key(self, e: Event) -> Any:
        if self._gb1 is not None:
            return e.get(self._gb1)
        return tuple(e.get(g) for g in self.fields)

    def apply(self, arrivals: list[Event], evictions: list[Event]) -> None:
        """Update the touched entities' records in ``written``, each read
        from the store on its first touch in the advance: every slot takes
        its arrivals, then its evictions (a step can add and expire one
        event). Then write them back, unless a load defers that to its
        last step; an advance applies once per GroupBy."""
        store, cf, key, recs = self.store, self.cf, self.key, self.written
        for events, updates in zip((arrivals, evictions), self._updates):
            for e in events:
                k = key(e)
                rec = recs.get(k)
                if rec is None:
                    rec = recs[k] = store.get(k, cf) or self.new_record()
                ts = e["ts"]
                for update, f, i, aux in updates:
                    v = 1 if f is None else e.get(f)
                    if aux is None:
                        update(rec[i], ts, v)
                    else:  # countDistinct: [n] plus the multiplicities' cf
                        st = [rec[i][0], _Multiplicities(store, aux, k)]
                        update(st, ts, v)
                        rec[i][0] = st[0]
        if not self.deferred:
            self.flush()

    def flush(self) -> None:
        """Write back each record of ``written`` once. A record whose every
        slot is empty again is deleted, so the store holds only entities
        inside some window."""
        store, cf, empty = self.store, self.cf, self.empty
        for k, rec in self.written.items():
            if rec == empty:
                store.delete(k, cf)
            else:
                store.put(k, rec, cf)


class FilterNode:
    def __init__(self, predicate: Callable[[Event], bool] | None):
        self.predicate = predicate
        self.group_bys: dict[tuple[str, ...], GroupByNode] = {}

    def apply(self, arrivals: list[Event], evictions: list[Event]) -> None:
        if self.predicate is not None:
            arrivals = [e for e in arrivals if self.predicate(e)]
            evictions = [e for e in evictions if self.predicate(e)]
        for gb in self.group_bys.values():
            gb.apply(arrivals, evictions)


class WindowNode:
    """Window operator: a head and a tail iterator; the plan advances them
    and pushes what they yield (arrivals, expirations) to the filters."""

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


class TaskPlan:
    """The compiled DAG for one task, over one reservoir + state store."""

    def __init__(
        self,
        statements: Iterable[Statement],
        reservoir: EventReservoir,
        store: StateStore,
    ):
        self.store = store
        self.windows: dict[WindowSpec, WindowNode] = {}
        self.leaves: list[AggregatorLeaf] = []
        self.groupbys: list[GroupByNode] = []
        # Windows with the same delay share a head iterator; advance each
        # unique head once per event and fan its arrivals out.
        self._head_groups: dict[int, tuple[ReservoirIterator, list[WindowNode]]] = {}
        for stmt in statements:
            for metric in stmt.metrics:
                spec = metric.window
                wnode = self.windows.get(spec)
                if wnode is None:
                    group = self._head_groups.get(spec.delay_ms)
                    if group is None:
                        group = self._head_groups[spec.delay_ms] = (reservoir.iterator(), [])
                    tail = None if spec.kind == "infinite" else reservoir.iterator()
                    wnode = self.windows[spec] = WindowNode(spec, group[0], tail)
                    group[1].append(wnode)
                fnode = wnode.filters.get(metric.filter_sql)
                if fnode is None:
                    fnode = wnode.filters[metric.filter_sql] = FilterNode(stmt.filter)
                gbnode = fnode.group_bys.get(metric.group_by)
                if gbnode is None:
                    gbnode = GroupByNode(metric.group_by, len(self.groupbys), store)
                    fnode.group_bys[metric.group_by] = gbnode
                    self.groupbys.append(gbnode)
                leaf = AggregatorLeaf(metric, len(self.leaves))
                gbnode.add_leaf(leaf)
                self.leaves.append(leaf)

    @property
    def iterator_count(self) -> int:
        """Unique reservoir iterators (the §5.2(b) x-axis)."""
        return len(self._head_groups) + sum(
            w.tail is not None for w in self.windows.values())

    def advance(self, t_eval: int) -> None:
        """Bring every window to its bounds at ``t_eval``: each then holds
        the events its head has yielded minus those its tail has yielded.
        A head shared by several windows advances once for all of them."""
        for gb in self.groupbys:
            gb.written.clear()
        for delay_ms, (head, wnodes) in self._head_groups.items():
            arrivals: list[Event] = []
            head.advance_until(t_eval - delay_ms, arrivals)
            for wnode in wnodes:
                evictions: list[Event] = []
                if wnode.tail is not None:
                    wnode.tail.advance_until(wnode.spec.bounds(t_eval)[0], evictions)
                if arrivals or evictions:
                    for f in wnode.filters.values():
                        f.apply(arrivals, evictions)

    def load(self, t_eval: int, stops: Iterable[int]) -> None:
        """Fill the windows at ``t_eval`` from stored history, into a store
        that holds none of it. Each head group's head and tails first seek
        to the lowest window start among its windows (an infinite window's
        is the start), so a load reads the windows' contents, not the whole
        history. Then they advance in steps: ``stops`` are ascending times,
        and at each stop every iterator moves to its bound at ``t_eval`` or
        to the stop, whichever is lower. A tail never passes its head, so
        an event is added before it is evicted. Each GroupBy writes each
        touched record once, after the last step, then drops them.

        The per-event path keeps its own loop in :meth:`advance`: the
        stop's ``min`` and the extra call cost it about 2 % per event."""
        for head, wnodes in self._head_groups.values():
            lo = min(w.spec.bounds(t_eval)[0] for w in wnodes)
            for it in (head, *(w.tail for w in wnodes if w.tail is not None)):
                it.seek_after(lo)
        for gb in self.groupbys:
            gb.written.clear()
            gb.deferred = True
        try:
            for stop in chain(stops, (t_eval,)):
                for delay_ms, (head, wnodes) in self._head_groups.items():
                    arrivals: list[Event] = []
                    head.advance_until(min(t_eval - delay_ms, stop), arrivals)
                    for wnode in wnodes:
                        evictions: list[Event] = []
                        if wnode.tail is not None:
                            wnode.tail.advance_until(
                                min(wnode.spec.bounds(t_eval)[0], stop), evictions)
                        if arrivals or evictions:
                            for f in wnode.filters.values():
                                f.apply(arrivals, evictions)
            for gb in self.groupbys:
                gb.flush()
        finally:
            for gb in self.groupbys:
                gb.written.clear()
                gb.deferred = False

    def seek(self, t_eval: int | None) -> None:
        """Seek every window's head and tail to its bounds at ``t_eval``,
        in any chunk, not by scanning: the windows' state was loaded, not
        built by advancing. ``None`` (an empty reservoir) moves nothing."""
        if t_eval is None:
            return
        for wnode in self.windows.values():
            lo, hi = wnode.spec.bounds(t_eval)
            wnode.head.seek_after(hi)
            if wnode.tail is not None:
                wnode.tail.seek_after(lo)

    def answers(self, event: Event) -> dict[str, Any]:
        """Current aggregate values for the arriving event's entities: one
        record per GroupBy, the one the last advance put if there is one."""
        out: dict[str, Any] = {}
        for gb in self.groupbys:
            k = gb.key(event)
            rec = gb.written.get(k) or self.store.get(k, gb.cf) or gb.empty
            for name, value, i in gb.reads:
                out[name] = value(rec[i])
        return out
