"""The event reservoir (paper §4.1.1).

Stores *all* events of one task processor on local disk, while keeping
only a tiny, window-count-bound set of chunks in memory:

- Events are appended to an **open chunk** (a small in-memory list kept
  sorted by timestamp). When the chunk reaches ``chunk_events`` entries it
  is *closed*: optionally parked in a **transition** state for
  ``lateness_ms`` of event time (closed for recent events, still open for
  late ones — the paper's watermark-like knob), then *sealed*: its list
  of event dicts pickled as one object, compressed with zlib at level 1,
  and appended to the reservoir's one append-only file. A chunk describes
  itself, so it decodes after the event schema changes with no state
  outside it, and every event reads back with exactly the keys it was
  stored with (a stored ``None`` stays a present ``None``). A seal runs
  on the per-event path, so the format is the one cheapest to write and
  read back, at the cost of disk bytes, which are not on that path.
- The chunks in memory are one list, oldest first: the transition chunks
  (each with its close timestamp), then the open chunk, last. Chunk ids
  count sealed chunks first, so a chunk id at or above
  ``sealed_chunks()`` indexes that list.
- An in-memory index of sealed chunks, four int64 ``array('q')`` columns
  (first ts, last ts, file offset, length; position == chunk id), supports
  random reads (needed when a new window/metric is added) at 32 bytes per
  chunk, with no Python object per chunk.
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
- An event is *late* when its timestamp is below the last timestamp of
  the newest closed chunk; a tie is not late and joins the open chunk.
  Late events are accepted while their chunk is in transition;
  afterwards they are dropped or timestamp-rewritten to the open chunk's
  first timestamp (the newest close timestamp when the open chunk is
  empty), per configuration. Events are deduplicated
  by ``id`` against the in-memory (open + transition) chunks. No other
  module knows an event was late: every iterator yields each stored event
  with ``ts <= bound`` exactly once, one stored behind its cursor ahead of
  the cursor's own events.
- A **checkpoint** closes no chunk: it copies the index columns and the
  chunks in memory, so every copy of a task has the same chunk boundaries
  and accepts and drops the same late events.
"""
from __future__ import annotations

import bisect
import os
import pickle
import time
import zlib
from array import array
from collections import OrderedDict
from copy import copy
from itertools import chain
from operator import itemgetter
from typing import Any, Iterator

Event = dict  # {'id': ..., 'ts': int epoch-ms, <payload fields>}
_ts = itemgetter("ts")
# the sealed-chunk index columns, and what a checkpoint carries besides them
_INDEX = ("_first", "_last", "_offset", "_length")
_CHECKPOINTED = ("_close_ts", "_last_closed_ts", "_disk_bytes", "watermark",
                 "total_events", "dropped_late", "rewritten_late", "dropped_dups")


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
        if self.chunk_id >= len(r._first):
            return r._chunks[self.chunk_id - len(r._first)]
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
            if self.idx < n or events is r._chunks[-1]:
                return  # blocked on bound, or caught up with the head
            self.chunk_id += 1
            self.idx = 0
            self._current = None
            self._reserved = False  # the take on entering consumes it

    def seek_after(self, bound_ts: int) -> None:
        """Position the cursor just past every event with ts <= bound.

        A sealed chunk is found through the in-memory ts index (a random
        read, §4.1.1), one in memory by bisect; it prefetches nothing. How
        a recovering or newly-added window attaches. A cursor already at the
        chunk start it would land at keeps its chunk and the one staged next.
        """
        r = self.r
        self._late.clear()
        firsts = [c[0]["ts"] for c in r._chunks if c]  # only the open one can be empty
        m = bisect.bisect_right(firsts, bound_ts)
        if m:
            cid, events = len(r._first) + m - 1, r._chunks[m - 1]
            self._release()
        else:
            cid = bisect.bisect_right(r._first, bound_ts) - 1
            if cid < 0 or bound_ts >= r._last[cid]:
                if (self.chunk_id, self.idx) != (cid + 1, 0):
                    self._release()
                    self.chunk_id, self.idx, self._current = cid + 1, 0, None
                return
            self._release()
            events = r._fetch_sealed(cid)
        self.idx = bisect.bisect_right(events, bound_ts, key=_ts)
        self.chunk_id = cid
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

        # the sealed-chunk index, position == chunk_id
        self._first, self._last, self._offset, self._length = (array("q") for _ in _INDEX)
        self._disk_bytes = 0  # sum of the index's lengths
        self._chunks: list[list[Event]] = [[]]  # in memory: transition..., open
        self._close_ts: list[int] = []  # per transition chunk
        self._dedup: set[Any] = set()  # ids of the events in memory (open + transition)
        self._iterators: list[ReservoirIterator] = []
        self._fh = None  # the file, opened on first use for appends and preads
        self._last_closed_ts: int | None = None  # newest close ts; below it is late
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
        chunks = self._chunks
        i = last = len(chunks) - 1  # the open chunk
        if self._last_closed_ts is not None and ts < self._last_closed_ts:
            i -= 1  # the newest transition chunk whose range admits ts, if any
            while i >= 0 and chunks[i][0]["ts"] > ts:
                i -= 1
            if i < 0:
                if self.out_of_order == "drop":
                    self.dropped_late += 1
                    return "late-dropped"
                ts = chunks[last][0]["ts"] if chunks[last] else self._last_closed_ts
                event = dict(event, ts=ts)
                status = "late-rewritten"
                self.rewritten_late += 1
                i = last

        target = chunks[i]
        if i == last and (not target or target[-1]["ts"] <= ts):
            target.append(event)  # no cursor is past the end of the open chunk
        else:
            self._sorted_insert(len(self._first) + i, target, event)
        if eid is not None:
            self._dedup.add(eid)
        self.total_events += 1
        self.watermark = ts if self.watermark is None else max(self.watermark, ts)
        if i == last and len(target) >= self.chunk_events:
            self._close_open()
        return status

    def _sorted_insert(self, chunk_id: int, chunk: list[Event], event: Event) -> None:
        """Insert in ts order (ties in arrival order) and hand the event to
        every iterator already past the insert point."""
        ts = event["ts"]
        pos = bisect.bisect_right(chunk, ts, key=_ts)
        chunk.insert(pos, event)
        for it in self._iterators:
            if (it.chunk_id, it.idx) > (chunk_id, pos):
                it.idx += it.chunk_id == chunk_id
                bisect.insort(it._late, event, key=_ts)

    def _close_open(self) -> None:
        self._last_closed_ts = self._chunks[-1][-1]["ts"]
        self._chunks.append([])
        if self.lateness_ms > 0:
            self._close_ts.append(self._last_closed_ts)
        else:
            self._seal()

    def _seal_expired_transitions(self, now_ts: int) -> None:
        while self._close_ts and self._close_ts[0] + self.lateness_ms < now_ts:
            del self._close_ts[0]
            self._seal()

    def _seal(self) -> None:
        """Seal the oldest chunk in memory; it keeps its chunk id."""
        chunk_id, events = len(self._first), self._chunks.pop(0)
        blob = zlib.compress(pickle.dumps(events, protocol=pickle.HIGHEST_PROTOCOL), 1)
        fh = self._file()
        offset = fh.seek(0, os.SEEK_END)
        fh.write(blob)
        fh.flush()
        self._first.append(events[0]["ts"])
        self._last.append(events[-1]["ts"])
        self._offset.append(offset)
        self._length.append(len(blob))
        self._disk_bytes += len(blob)
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
        blob = os.pread(self._file().fileno(), self._length[chunk_id],
                        self._offset[chunk_id])
        return pickle.loads(zlib.decompress(blob))

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
        if chunk_id >= len(self._first):
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
        chunks = [*self._chunks, *self.cache._d.values(),
                  *(it._current for it in self._iterators if it._current is not None)]
        return sum(len(c) for c in {id(c): c for c in chunks}.values())

    def sealed_chunks(self) -> int:
        return len(self._first)

    def chunk_ends(self) -> Iterator[int]:
        """The last ts of every chunk holding an event, in chunk order, so
        ascending (ties repeat): the sealed index's, then those in memory."""
        return chain(self._last, (c[-1]["ts"] for c in self._chunks if c))

    def disk_bytes(self) -> int:
        return self._disk_bytes

    def checkpoint(self) -> dict:
        """Return restorable metadata: copies of the index columns and of
        the chunks in memory, the file, and the counters. Closes no chunk."""
        self._file()  # exists even when nothing was sealed, so it can be copied
        return {"file": self.path, "chunks": [list(c) for c in self._chunks],
                **{k: copy(getattr(self, k)) for k in _INDEX + _CHECKPOINTED}}

    def load(self, meta: dict) -> None:
        """Fill this empty reservoir from checkpoint metadata and a copy of
        the checkpointed file at ``path``; later seals append to it."""
        self._chunks = [list(c) for c in meta["chunks"]]
        for chunk in self._chunks:
            self._dedup.update(e.get("id") for e in chunk)
        for k in _INDEX + _CHECKPOINTED:
            setattr(self, k, copy(meta[k]))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
