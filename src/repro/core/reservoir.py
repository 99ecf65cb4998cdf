"""The event reservoir (paper §4.1.1).

Stores *all* events of one task processor on local disk, while keeping
only a tiny, window-count-bound set of chunks in memory:

- Events are appended to an **open chunk** (a small in-memory list kept
  sorted by timestamp). When the chunk reaches ``chunk_events`` entries it
  is *closed*: optionally parked in a **transition** state for
  ``lateness_ms`` of event time (closed for recent events, still open for
  late ones — the paper's watermark-like knob), then *sealed*: serialized
  column-wise as one ``{field: column}`` dict over the sorted union of its
  events' keys, zlib-compressed, and appended to the reservoir's one
  append-only file. A chunk describes itself, so it decodes after the
  event schema changes with no state outside it; a field an event lacked
  reads back as ``None`` when another event of its chunk has it.
- An in-memory index of ``(first_ts, last_ts, offset, length)`` per sealed
  chunk, in chunk order, supports random reads (needed when a new
  window/metric is added).
- **Iterators** read the reservoir in timestamp order. Each iterator holds
  the chunk it is in, whether open, in transition or sealed: the open
  list is the same object that later becomes the sealed chunk, so an
  iterator keeps it across the seal. When it finishes a chunk it takes
  the next one from the shared **prefetch cache** if present, otherwise it
  performs a *synchronous* demand load (read + decompress on the critical
  path — exactly the §5.2(b) cache-miss tail-latency story). The paper
  prefetches asynchronously; here prefetch runs inline and is part of the
  measured service (``repro.bench`` calibrates what a load would cost on
  the paper's hardware from ``demand_loads``). After moving
  into a sealed chunk, the iterator eagerly prefetches the next one; if
  that one was still open, its seal stages it in the cache instead, one
  reservation per iterator holding the chunk before it. The cache is
  LRU-evicting: with more concurrent iterators than cache slots, staged
  chunks are evicted before use and every advance becomes a paid miss —
  the Fig 9b cliff.
- Out-of-order events are accepted while their chunk is open or in
  transition; afterwards they are dropped or timestamp-rewritten to the
  open chunk's first timestamp, per configuration. Events are deduplicated
  by ``id`` against the in-memory (open + transition) chunks. No other
  module knows an event was late: every iterator yields each stored event
  with ``ts <= bound`` exactly once, one stored behind its cursor ahead of
  the cursor's own events.
"""
from __future__ import annotations

import bisect
import os
import pickle
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from operator import itemgetter
from typing import Any

Event = dict  # {'id': ..., 'ts': int epoch-ms, <payload fields>}
_ts = itemgetter("ts")


@dataclass
class ChunkRef:
    """Index entry for one sealed chunk; its position in the index is its id."""

    first_ts: int
    last_ts: int
    offset: int
    length: int


class _PrefetchCache:
    """LRU cache of decompressed chunks, shared by all iterators.

    Prefetch loads and seals insert, one reservation per future reader;
    demand loads are handed straight to the requesting iterator.
    ``capacity`` is the paper's "chunk elements in cache" knob (220 in
    §5.2(b)).
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._d: OrderedDict[int, list[Event]] = OrderedDict()
        self._pending: dict[int, int] = {}  # outstanding reservations
        self.hits = 0
        self.evictions = 0

    def reserve(self, chunk_id: int) -> bool:
        """Piggyback on an already-prefetched chunk (no extra slot/load).

        Returns False when absent — the caller must load and ``put``.
        """
        if chunk_id in self._d:
            self._pending[chunk_id] += 1
            self._d.move_to_end(chunk_id)
            return True
        return False

    def take(self, chunk_id: int) -> list[Event] | None:
        """Consume one reservation; the chunk is dropped when none remain."""
        ev = self._d.get(chunk_id)
        if ev is not None:
            self.hits += 1
            self.release(chunk_id)
        return ev

    def release(self, chunk_id: int) -> None:
        """Drop one reservation, e.g. of a reader that seeks away."""
        if chunk_id in self._d:
            self._pending[chunk_id] -= 1
            if self._pending[chunk_id] <= 0:
                del self._d[chunk_id]
                del self._pending[chunk_id]

    def put(self, chunk_id: int, events: list[Event]) -> None:
        if chunk_id in self._d:
            self._pending[chunk_id] += 1
            self._d.move_to_end(chunk_id)
            return
        while len(self._d) >= self.capacity:
            old, _ = self._d.popitem(last=False)
            self._pending.pop(old, None)
            self.evictions += 1
        self._d[chunk_id] = events
        self._pending[chunk_id] = 1


class ReservoirIterator:
    """Timestamp-ordered cursor over the reservoir (a window head or tail).

    Position is ``(chunk_id, idx)``; ``advance_until`` yields every event
    with ``ts <= bound`` not yet yielded, loading chunks as needed.
    ``_current`` is the chunk at ``chunk_id`` once resolved, in any state;
    ``_late`` holds the events stored behind the cursor, sorted by ts.
    """

    def __init__(self, reservoir: "EventReservoir", chunk_id: int, idx: int):
        self.r = reservoir
        self.chunk_id = chunk_id
        self.idx = idx
        self._current: list[Event] | None = None
        self._reserved = False  # holds a cache reservation on chunk_id + 1
        self._late: list[Event] = []
        reservoir._iterators.append(self)

    def close(self) -> None:
        self._release()
        self.r._iterators.remove(self)
        self._current = None

    def _release(self) -> None:
        if self._reserved:
            self.r.cache.release(self.chunk_id + 1)
            self._reserved = False

    def _enter(self) -> list[Event]:
        r = self.r
        if self.chunk_id == r._open_id:
            return r._open
        if self.chunk_id >= len(r._index):
            return next(e for cid, e, _ in r._transition if cid == self.chunk_id)
        events = r._fetch_sealed(self.chunk_id)
        self._reserved = r._prefetch(self.chunk_id + 1)
        return events

    def advance_until(self, bound_ts: int, out: list[Event]) -> None:
        """Append to ``out`` all not-yet-yielded events with ts <= bound:
        first those stored behind the cursor, then the cursor's own."""
        late = self._late
        if late and late[0]["ts"] <= bound_ts:
            n = bisect.bisect_right(late, bound_ts, key=_ts)
            out += late[:n]
            del late[:n]
        r = self.r
        while True:
            events = self._current
            if events is None:
                events = self._current = self._enter()
            n = len(events)
            while self.idx < n and events[self.idx]["ts"] <= bound_ts:
                out.append(events[self.idx])
                self.idx += 1
            if self.idx < n or self.chunk_id >= r._open_id:
                return  # blocked on bound, or caught up with the head
            self.chunk_id += 1
            self.idx = 0
            self._current = None
            self._reserved = False  # the take on entering consumes it

    def seek_after(self, bound_ts: int) -> None:
        """Position the cursor just past every event with ts <= bound.

        Uses the in-memory ts index (a random read, §4.1.1) instead of
        scanning — how a recovering or newly-added window attaches.
        """
        r = self.r
        self._release()
        self._current = None
        self._late.clear()
        firsts = [c.first_ts for c in r._index]
        lo = bisect.bisect_right(firsts, bound_ts) - 1
        if lo < 0:
            self.chunk_id, self.idx = 0, 0
            return
        ref = r._index[lo]
        if bound_ts >= ref.last_ts:
            self.chunk_id, self.idx = lo + 1, 0
            return
        events = r._fetch_sealed(lo)
        self.idx = bisect.bisect_right(events, bound_ts, key=_ts)
        self.chunk_id = lo
        self._current = events


class EventReservoir:
    """Disk-backed, chunked store of one task's events (paper §4.1.1)."""

    def __init__(
        self,
        data_dir: str,
        *,
        chunk_events: int = 512,
        cache_chunks: int = 128,
        out_of_order: str = "drop",  # or "rewrite"
        lateness_ms: int = 0,
    ) -> None:
        if out_of_order not in ("drop", "rewrite"):
            raise ValueError("out_of_order must be 'drop' or 'rewrite'")
        os.makedirs(data_dir, exist_ok=True)
        self.path = os.path.join(data_dir, "reservoir.bin")
        self.chunk_events = chunk_events
        self.out_of_order = out_of_order
        self.lateness_ms = lateness_ms
        self.cache = _PrefetchCache(cache_chunks)
        self.recent_hits = 0  # iterators that kept their chunk across its seal

        self._index: list[ChunkRef] = []  # sealed chunks, position == chunk_id
        self._transition: list[tuple[int, list[Event], int]] = []  # (cid, evs, close_ts)
        self._open: list[Event] = []
        self._open_id = 0
        self._dedup: set[Any] = set()  # ids of the events in memory (open + transition)
        self._iterators: list[ReservoirIterator] = []
        self._fh = None  # the file, opened on first use for appends and preads
        self._last_closed_ts: int | None = None  # max ts at chunk *closure*
        self.watermark: int | None = None  # highest stored ts
        self.total_events = 0
        self.dropped_late = 0
        self.rewritten_late = 0
        self.dropped_dups = 0
        self.demand_loads = 0
        self.prefetch_loads = 0
        self._prefetch_s = 0.0  # time spent in prefetch loads, see take_costs

    def _file(self):
        if self._fh is None:
            self._fh = open(self.path, "a+b")
        return self._fh

    # -- append path --------------------------------------------------------

    def append(self, event: Event) -> str:
        """Store one event; return ``"ok"``, ``"late-rewritten"``, ``"dup"``
        or ``"late-dropped"``. An event stored behind an iterator's cursor
        is handed to that iterator, which yields it once its bound
        reaches the event's ts.
        """
        eid = event.get("id")
        if eid is not None and eid in self._dedup:
            self.dropped_dups += 1
            return "dup"
        ts = event["ts"]
        status = "ok"
        self._seal_expired_transitions(ts)
        if self._last_closed_ts is not None and ts <= self._last_closed_ts:
            tchunk = self._find_transition(ts)
            if tchunk is None:
                if self.out_of_order == "drop":
                    self.dropped_late += 1
                    return "late-dropped"
                ts = self._open[0]["ts"] if self._open else self._last_closed_ts + 1
                event = dict(event, ts=ts)
                status = "late-rewritten"
                self.rewritten_late += 1
                target_id, target = self._open_id, self._open
            else:
                target_id, target = tchunk
        else:
            target_id, target = self._open_id, self._open

        self._sorted_insert(target_id, target, event)
        if eid is not None:
            self._dedup.add(eid)
        self.total_events += 1
        self.watermark = ts if self.watermark is None else max(self.watermark, ts)
        if target_id == self._open_id and len(self._open) >= self.chunk_events:
            self._close_open()
        return status

    def _sorted_insert(self, chunk_id: int, chunk: list[Event], event: Event) -> None:
        """Insert in ts order (ties in arrival order) and hand the event to
        every iterator already past the insert point."""
        ts = event["ts"]
        pos = len(chunk)
        if not chunk or chunk[-1]["ts"] <= ts:
            chunk.append(event)
            if chunk_id == self._open_id:
                return  # no cursor is past the end of the open chunk
        else:
            pos = bisect.bisect_right(chunk, ts, key=_ts)
            chunk.insert(pos, event)
        for it in self._iterators:
            if (it.chunk_id, it.idx) > (chunk_id, pos):
                it.idx += it.chunk_id == chunk_id
                bisect.insort(it._late, event, key=_ts)

    def _find_transition(self, ts: int) -> tuple[int, list[Event]] | None:
        # newest transition chunk whose range admits ts
        for cid, events, _close_ts in reversed(self._transition):
            if events and events[0]["ts"] <= ts:
                return (cid, events)
        return None

    def _close_open(self) -> None:
        if not self._open:
            return
        cid, events = self._open_id, self._open
        close_ts = events[-1]["ts"]
        self._open = []
        self._open_id = cid + 1
        self._last_closed_ts = close_ts
        if self.lateness_ms > 0:
            self._transition.append((cid, events, close_ts))
        else:
            self._seal(cid, events)

    def _seal_expired_transitions(self, now_ts: int) -> None:
        while self._transition and self._transition[0][2] + self.lateness_ms < now_ts:
            cid, events, _ = self._transition.pop(0)
            self._seal(cid, events)

    def _seal(self, chunk_id: int, events: list[Event]) -> None:
        assert chunk_id == len(self._index), "chunks seal in order"
        fields = sorted(set().union(*(e.keys() for e in events)))
        cols = {f: [e.get(f) for e in events] for f in fields}
        blob = zlib.compress(pickle.dumps(cols, protocol=pickle.HIGHEST_PROTOCOL), 6)
        fh = self._file()
        offset = fh.seek(0, os.SEEK_END)
        fh.write(blob)
        fh.flush()
        self._index.append(ChunkRef(events[0]["ts"], events[-1]["ts"], offset, len(blob)))
        # Iterators inside the chunk keep it. Those holding the chunk
        # before it get it staged: the prefetch they could not make while
        # it was open.
        for it in self._iterators:
            if it.chunk_id == chunk_id:
                it._current = events
                self.recent_hits += 1
            elif it.chunk_id == chunk_id - 1 and it._current is not None:
                self.cache.put(chunk_id, events)
                it._reserved = True
        self._dedup.difference_update(e.get("id") for e in events)

    # -- read path -----------------------------------------------------------

    def _load_sealed(self, chunk_id: int) -> list[Event]:
        ref = self._index[chunk_id]
        blob = os.pread(self._file().fileno(), ref.length, ref.offset)
        cols = pickle.loads(zlib.decompress(blob))
        return [dict(zip(cols, row)) for row in zip(*cols.values())]

    def _fetch_sealed(self, chunk_id: int) -> list[Event]:
        """Fetch a sealed chunk for iteration.

        Cache hit → free. Miss → *demand load* on the critical path.
        """
        events = self.cache.take(chunk_id)
        if events is None:
            self.demand_loads += 1
            events = self._load_sealed(chunk_id)
        return events

    def _prefetch(self, chunk_id: int) -> bool:
        """Stage a chunk for its next reader, inline (async in the paper).

        If another iterator already staged it, just add a reservation —
        the loaded copy serves every reader (shared cache). Returns
        whether a reservation was made (False: not sealed yet).
        """
        if chunk_id >= len(self._index):
            return False
        if self.cache.reserve(chunk_id):
            return True
        t0 = time.perf_counter()
        self.cache.put(chunk_id, self._load_sealed(chunk_id))
        self.prefetch_loads += 1
        self._prefetch_s += time.perf_counter() - t0
        return True

    def iterator(self) -> ReservoirIterator:
        """Open a cursor at the start; ``seek_after`` repositions it."""
        return ReservoirIterator(self, 0, 0)

    # -- accounting / checkpoint ----------------------------------------------

    def reset_stats(self) -> None:
        """Zero the load/hit counters (to report steady state after warm-up)."""
        self.demand_loads = 0
        self.prefetch_loads = 0
        self.recent_hits = 0
        self.cache.hits = 0
        self.cache.evictions = 0

    def take_costs(self) -> tuple[float, float]:
        """Return and reset ``(0.0, seconds in prefetch loads)`` since the
        last call; external tracers read ``[1]``."""
        s, self._prefetch_s = self._prefetch_s, 0.0
        return 0.0, s

    def memory_events(self) -> int:
        """Events held in memory, counting each in-memory chunk once.

        A chunk can be open, in transition, cached and held by iterators
        at the same time; it is one list object in all of those places.
        """
        chunks = [self._open, *(e for _, e, _ in self._transition),
                  *self.cache._d.values(),
                  *(it._current for it in self._iterators if it._current is not None)]
        return sum(len(c) for c in {id(c): c for c in chunks}.values())

    def sealed_chunks(self) -> int:
        return len(self._index)

    def disk_bytes(self) -> int:
        return sum(c.length for c in self._index)

    def flush(self) -> None:
        """Seal everything in memory (used by checkpoints and shutdown)."""
        self._close_open()  # with lateness, parks it as the newest transition
        for cid, events, _ in self._transition:
            self._seal(cid, events)
        self._transition = []

    def checkpoint(self) -> dict:
        """Seal in-memory chunks and return restorable metadata."""
        self.flush()
        self._file()  # exists even when nothing was sealed, so it can be copied
        return {"index": list(self._index), "file": self.path,
                "total_events": self.total_events}

    def load(self, meta: dict) -> None:
        """Fill this empty reservoir from checkpoint metadata and a copy of
        the checkpointed file at ``path``; later seals append to it."""
        self._index = list(meta["index"])
        self._open_id = len(self._index)  # the checkpoint sealed every chunk
        self.total_events = meta["total_events"]
        if self._index:
            self._last_closed_ts = self.watermark = self._index[-1].last_ts

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
