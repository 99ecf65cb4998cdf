"""Tests for the event reservoir (paper §4.1.1)."""
import gc
import shutil
import tracemalloc

import pytest

from repro.core.reservoir import EventReservoir


def _ev(i, ts=None, **extra):
    return {"id": i, "ts": ts if ts is not None else i * 10, "v": float(i), **extra}


def make(tmp_path, **kw):
    kw.setdefault("chunk_events", 8)
    kw.setdefault("cache_chunks", 16)
    return EventReservoir(str(tmp_path / "res"), **kw)


def _fill(r, n, start=0):
    for i in range(start, start + n):
        assert r.append(_ev(i)) == "ok"


# -- chunking / persistence ---------------------------------------------------

def test_chunks_seal_at_capacity(tmp_path):
    r = make(tmp_path)
    _fill(r, 8)
    assert r.sealed_chunks() == 1
    assert r.total_events == 8
    _fill(r, 7, start=8)
    assert r.sealed_chunks() == 1  # second chunk still open


def test_iteration_roundtrip_all_events(tmp_path):
    r = make(tmp_path)
    _fill(r, 50)
    it = r.iterator()
    out = []
    it.advance_until(10**9, out)
    assert [e["id"] for e in out] == list(range(50))
    assert [e["v"] for e in out] == [float(i) for i in range(50)]


def test_iterator_advance_respects_bound(tmp_path):
    r = make(tmp_path)
    _fill(r, 50)
    it = r.iterator()
    out = []
    it.advance_until(195, out)  # events have ts = 10*i; 195 admits i<=19
    assert [e["id"] for e in out] == list(range(20))
    out2 = []
    it.advance_until(205, out2)
    assert [e["id"] for e in out2] == [20]


def test_iterator_interleaved_with_appends(tmp_path):
    """Head-iterator pattern: consume each event as it arrives."""
    r = make(tmp_path)
    it = r.iterator()
    seen = []
    for i in range(40):
        e = _ev(i)
        r.append(e)
        it.advance_until(e["ts"], seen)
    assert [e["id"] for e in seen] == list(range(40))


def test_two_iterators_are_independent(tmp_path):
    r = make(tmp_path)
    _fill(r, 32)
    a, b = r.iterator(), r.iterator()
    out_a, out_b = [], []
    a.advance_until(150, out_a)
    b.advance_until(75, out_b)
    assert len(out_a) == 16 and len(out_b) == 8


def test_random_read_via_ts_index(tmp_path):
    r = make(tmp_path)
    _fill(r, 64)
    it = r.iterator()
    it.seek_after(304)  # first event with ts > 304 is id 31
    out = []
    it.advance_until(345, out)
    assert [e["id"] for e in out] == [31, 32, 33, 34]


def test_seek_after_positions_past_bound(tmp_path):
    r = make(tmp_path)
    _fill(r, 64)
    it = r.iterator()
    it.seek_after(299)
    out = []
    it.advance_until(10**9, out)
    assert out[0]["id"] == 30  # ts 300 is the first > 299


def test_seek_after_into_chunks_in_memory(tmp_path):
    r = make(tmp_path, lateness_ms=100)
    _fill(r, 30)  # chunks 0, 1 sealed, 2 in transition, ids 24..29 open
    # two sealed chunks, one of 8 events in transition, 6 events open
    assert (r.sealed_chunks(), [len(c) for c in r._chunks]) == (2, [8, 6])
    for bound in (-1, 35, 79, 160, 235, 239, 250, 295, 10**9):
        it = r.iterator()
        it.seek_after(bound)
        out = []
        it.advance_until(10**9, out)
        assert [e["id"] for e in out] == [i for i in range(30) if i * 10 > bound]


def test_index_costs_at_most_40_bytes_per_sealed_chunk(tmp_path):
    """§4.1.1: the in-memory index is the only per-chunk cost of history."""
    r = make(tmp_path, chunk_events=1)
    r.append(_ev(-1))  # the file is open and the first chunk sealed
    n = 20_000
    tracemalloc.start()
    try:
        gc.collect()  # a full collection also empties the interpreter's free lists
        before = tracemalloc.get_traced_memory()[0]
        _fill(r, n)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert r.sealed_chunks() == n + 1
    assert grown <= 40 * n


def test_compression_on_disk(tmp_path):
    r = make(tmp_path, chunk_events=128)
    _fill(r, 1024)
    # each chunk's pickled list, zlib-compressed: far smaller than the raw pickle
    import pickle

    raw = len(pickle.dumps([_ev(i) for i in range(1024)]))
    assert r.disk_bytes() < raw / 2


# -- dedup / out-of-order -------------------------------------------------------

def test_duplicate_ids_dropped_against_in_memory_chunks(tmp_path):
    r = make(tmp_path)
    e = _ev(1)
    assert r.append(e) == "ok"
    assert r.append(dict(e)) == "dup"
    assert r.total_events == 1
    assert r.dropped_dups == 1


def test_late_event_dropped_by_policy(tmp_path):
    r = make(tmp_path, out_of_order="drop")
    _fill(r, 16)  # seals chunk 0 (ts 0..70), chunk 1 open (ts 80..150)
    late = {"id": "late", "ts": 5, "v": 99.0}
    assert r.append(late) == "late-dropped"
    assert r.dropped_late == 1


def test_late_event_rewritten_by_policy(tmp_path):
    r = make(tmp_path, out_of_order="rewrite")
    _fill(r, 12)  # chunk 0 sealed (ts 0..70); open chunk holds ts 80..110
    late = {"id": "late", "ts": 5, "v": 99.0}
    assert r.append(late) == "late-rewritten"
    assert r.rewritten_late == 1
    it = r.iterator()
    out = []
    it.advance_until(10**9, out)
    rewritten = [e for e in out if e["id"] == "late"][0]
    assert rewritten["ts"] == 80  # first timestamp of the open chunk


@pytest.mark.parametrize("policy", ["drop", "rewrite"])
def test_a_tie_with_a_closed_chunk_is_not_late(tmp_path, policy):
    """An event with the ts its predecessor closed a chunk at joins the
    open chunk, under either policy, and a rewrite into an empty open
    chunk takes that close ts."""
    r = make(tmp_path, chunk_events=2, out_of_order=policy)
    assert [r.append(_ev(i, ts=ts)) for i, ts in enumerate([10, 20, 20, 30])] == ["ok"] * 4
    # chunk 1 closed at 30 and the open chunk is empty
    assert r.append(_ev(4, ts=15)) == ("late-dropped" if policy == "drop" else "late-rewritten")
    assert r.append(_ev(5, ts=30)) == "ok"
    out = []
    r.iterator().advance_until(10**9, out)
    assert [(e["id"], e["ts"]) for e in out] == [
        (0, 10), (1, 20), (2, 20), (3, 30), *([(4, 30)] if policy == "rewrite" else []), (5, 30)]


def test_out_of_order_within_open_chunk_sorted_insert(tmp_path):
    r = make(tmp_path, chunk_events=64)
    for i, ts in enumerate([100, 200, 300]):
        r.append({"id": i, "ts": ts, "v": 0.0})
    assert r.append({"id": 9, "ts": 150, "v": 0.0}) == "ok"
    out = []
    r.iterator().advance_until(10**9, out)
    assert [e["ts"] for e in out] == [100, 150, 200, 300]


def test_out_of_order_insert_shifts_live_iterators(tmp_path):
    r = make(tmp_path, chunk_events=64)
    it = r.iterator()
    out = []
    for i, ts in enumerate([100, 200, 300]):
        r.append({"id": i, "ts": ts, "v": 0.0})
        it.advance_until(ts, out)
    assert len(out) == 3
    r.append({"id": 9, "ts": 150, "v": 0.0})
    # stored behind the cursor: yielded once, and 200/300 never again
    more = []
    it.advance_until(300, more)
    assert [e["ts"] for e in more] == [150]
    it.advance_until(10**9, more)
    assert [e["ts"] for e in more] == [150]


def test_late_append_behind_a_cursor_in_the_next_chunk(tmp_path):
    """An event appended to the end of transition chunk 0 is behind
    cursors parked at the start of chunk 1; each yields it once its bound
    reaches the event's ts, not earlier."""
    r = make(tmp_path, chunk_events=2, lateness_ms=3000)
    a, b = r.iterator(), r.iterator()
    seen_a, seen_b = [], []
    for i, ts in enumerate([2202, 1627, 4539, 3967]):
        r.append({"id": i, "ts": ts, "v": 0.0})
    a.advance_until(3500, seen_a)
    b.advance_until(3000, seen_b)
    assert (a.chunk_id, a.idx) == (b.chunk_id, b.idx) == (1, 0)
    assert r.append({"id": "late", "ts": 3018, "v": 0.0}) == "ok"
    assert r.sealed_chunks() == 0  # chunk 0 is in transition
    a.advance_until(3500, seen_a)
    b.advance_until(3000, seen_b)
    assert [e["ts"] for e in seen_a] == [1627, 2202, 3018]
    assert [e["ts"] for e in seen_b] == [1627, 2202]
    b.advance_until(3018, seen_b)
    assert [e["ts"] for e in seen_b] == [1627, 2202, 3018]
    for it, seen in ((a, seen_a), (b, seen_b)):
        it.advance_until(10**9, seen)
        assert [e["ts"] for e in seen] == [1627, 2202, 3018, 3967, 4539]


def test_lateness_transition_chunks_accept_late_events(tmp_path):
    r = make(tmp_path, lateness_ms=1000, chunk_events=4)
    for i in range(8):  # two chunks; first closes at ts 30 → transition
        r.append({"id": i, "ts": i * 10, "v": 0.0})
    assert r.sealed_chunks() == 0  # chunk 0 is in transition, not sealed
    assert r.append({"id": "late", "ts": 15, "v": 1.0}) == "ok"
    out = []
    r.iterator().advance_until(10**9, out)
    assert [e["ts"] for e in out] == [0, 10, 15, 20, 30, 40, 50, 60, 70]


def test_transition_chunks_seal_after_lateness_expires(tmp_path):
    r = make(tmp_path, lateness_ms=100, chunk_events=4)
    for i in range(8):
        r.append({"id": i, "ts": i * 10, "v": 0.0})
    assert r.sealed_chunks() == 0
    r.append({"id": 99, "ts": 500, "v": 0.0})  # advances event time
    assert r.sealed_chunks() >= 1  # chunk 0 (close_ts 30) sealed: 30+100 < 500


# -- prefetch cache --------------------------------------------------------------

def test_prefetch_makes_sequential_reads_cache_hits(tmp_path):
    r = make(tmp_path, cache_chunks=8)
    _fill(r, 8 * 10)
    it = r.iterator()
    out = []
    it.advance_until(10**9, out)
    assert len(out) == 80
    # chunk 0 is a demand load; chunks 1..9 come from prefetch
    assert r.demand_loads == 1
    assert r.cache.hits == 9


def test_cache_thrash_when_more_iterators_than_slots(tmp_path):
    """The Fig 9b cliff: iterators > cache slots ⇒ prefetches evicted ⇒ misses."""
    n_chunks, stride = 70, 6

    def run(cache_slots, n_iters):
        r = make(tmp_path / f"c{cache_slots}i{n_iters}", cache_chunks=cache_slots)
        _fill(r, 8 * n_chunks)
        # misaligned iterators (the Fig 9b setup): far apart in the
        # reservoir, like the tails of windows with very different sizes
        iters = []
        for j in range(n_iters):
            it = r.iterator()
            it.seek_after(j * stride * 80 - 5)
            iters.append(it)
        r.demand_loads = 0
        r.cache.hits = 0
        steps = n_chunks - stride * n_iters
        for step in range(1, steps):
            for j, it in enumerate(iters):
                sink = []
                it.advance_until((j * stride + step) * 80 - 5, sink)
        return r.demand_loads / max(1, r.demand_loads + r.cache.hits)

    miss_small = run(cache_slots=16, n_iters=4)
    miss_big = run(cache_slots=4, n_iters=8)
    assert miss_small < 0.3
    assert miss_big > 0.7


def test_memory_events_bounded_by_iterators_not_history(tmp_path):
    """§4.1.1: windows of years cost the same memory as windows of seconds."""
    r1 = make(tmp_path / "small", cache_chunks=4)
    _fill(r1, 8 * 20)
    r2 = make(tmp_path / "large", cache_chunks=4)
    _fill(r2, 8 * 200)  # 10x the history
    for r in (r1, r2):
        it = r.iterator()
        sink = []
        it.advance_until(50, sink)
    assert r2.memory_events() <= r1.memory_events() + 8 * 5


def test_memory_events_counts_a_shared_chunk_once(tmp_path):
    """Two iterators inside one sealed chunk hold one list, counted once."""
    r = make(tmp_path, chunk_events=4)
    a, b = r.iterator(), r.iterator()
    _fill(r, 2)
    for it in (a, b):
        it.advance_until(5, [])  # read event 0 while chunk 0 is open
    _fill(r, 8, start=2)  # chunks 0 and 1 seal; events 8, 9 stay open
    for it in (a, b):
        it.advance_until(15, [])  # still inside chunk 0
    assert r.sealed_chunks() == 2
    assert r.memory_events() == 10  # chunk 0 (held) + chunk 1 (staged) + 2 open
    assert r.demand_loads == r.prefetch_loads == 0


def test_iterator_keeps_an_open_chunk_across_its_seal(tmp_path):
    """A stalled iterator that read chunk 0 while it was open catches up
    through seven later seals without a demand load."""
    r = make(tmp_path, cache_chunks=4)
    it = r.iterator()
    _fill(r, 3)
    it.advance_until(15, [])  # events 0, 1 of the open chunk 0
    _fill(r, 8 * 8 - 3, start=3)  # chunks 0..7 seal
    assert r.sealed_chunks() == 8
    out = []
    it.advance_until(10**9, out)
    assert [e["id"] for e in out] == list(range(2, 64))
    assert r.demand_loads == 0


def test_seek_releases_the_chunk_staged_for_the_old_position(tmp_path):
    r = make(tmp_path, chunk_events=4)
    it = r.iterator()  # sits at chunk 0 while history is appended
    _fill(r, 4 * 6)
    assert set(r.cache._d) == {1}  # staged for it when chunk 1 sealed
    it.seek_after(125)  # into chunk 3
    assert not r.cache._d
    out = []
    it.advance_until(10**9, out)
    assert [e["id"] for e in out] == list(range(13, 24))


# -- self-describing chunks ---------------------------------------------------------

def test_schema_evolution_roundtrip(tmp_path):
    """A field first seen in a later chunk is stored with that chunk, and
    reads back from disk, after a checkpoint load too; events that lacked
    it read it as None."""
    r = make(tmp_path, chunk_events=4)
    for i in range(4):
        r.append({"id": i, "ts": i * 10, "v": float(i)})
    for i in range(4, 10):
        r.append({"id": i, "ts": i * 10, "v": float(i), "w": i * 2.0})
    meta = r.checkpoint()
    r2 = make(tmp_path, chunk_events=4)
    r2.load(meta)
    for res in (r, r2):
        out = []
        res.iterator().advance_until(10**9, out)
        assert [e["id"] for e in out] == list(range(10))
        assert [e.get("w") for e in out] == [None] * 4 + [i * 2.0 for i in range(4, 10)]
        assert res.demand_loads == 1  # chunk 0 came from disk, the rest prefetched


def test_sealed_events_read_back_with_their_own_keys(tmp_path):
    """An event reads back with exactly the keys it was appended with,
    whatever its chunk-mates hold; a stored None stays a present None."""
    events = [
        {"id": 0, "ts": 0, "v": 1.0},
        {"id": 1, "ts": 10, "w": 2.0},
        {"id": 2, "ts": 20, "v": None},
        {"id": 3, "ts": 30, "v": 3.0, "w": None},
        {"id": 4, "ts": 40},
        {"id": 5, "ts": 50, "x": "a"},
        {"id": 6, "ts": 60, "v": 6.0},
        {"id": 7, "ts": 70, "v": None, "x": None},
        *({"id": i, "ts": i * 10, "v": float(i)} for i in range(8, 12)),
        {"id": 12, "ts": 120, "w": 12.0},
        *({"id": i, "ts": i * 10, "v": float(i)} for i in range(13, 16)),
    ]
    r = make(tmp_path, chunk_events=4)
    for e in events:
        r.append(dict(e))
    assert r.sealed_chunks() == 4  # whole chunks: every event reads back from disk
    meta = r.checkpoint()
    r2 = make(tmp_path, chunk_events=4)
    r2.load(meta)
    for res in (r, r2):
        out = []
        res.iterator().advance_until(10**9, out)
        assert out == events


def test_events_with_keys_that_do_not_sort_read_back(tmp_path):
    """A chunk whose events' keys mix types (an int key beside the str
    ones) seals, and reads back equal from disk and after a load."""
    events = [{"id": 0, "ts": 0, "v": 1.0}, {"id": 1, "ts": 10, "v": 2.0, 7: "x"},
              {"id": 2, "ts": 20, "v": 3.0}, {"id": 3, "ts": 30, "v": 4.0}]
    r = make(tmp_path, chunk_events=2)
    assert [r.append(dict(e)) for e in events] == ["ok"] * 4
    assert r.sealed_chunks() == 2
    r2 = make(tmp_path, chunk_events=2)
    r2.load(r.checkpoint())
    for res in (r, r2):
        out = []
        res.iterator().advance_until(10**9, out)
        assert out == events


# -- checkpoint / restore -----------------------------------------------------------

def test_checkpoint_restore_roundtrip(tmp_path):
    r = make(tmp_path)
    _fill(r, 30)
    meta = r.checkpoint()
    assert r.sealed_chunks() == 3  # 30 events / 8 per chunk: 6 stay open
    r2 = make(tmp_path)
    r2.load(meta)
    out = []
    r2.iterator().advance_until(10**9, out)
    assert [e["id"] for e in out] == list(range(30))  # sealed and in memory
    # restored reservoir dedups the open chunk and fills it to a whole chunk
    assert r2.append(_ev(29)) == "dup"
    _fill(r2, 2, start=30)
    assert r2.total_events == 32 and r2.sealed_chunks() == 4


def _layout(r):
    return (r.sealed_chunks(), r.disk_bytes(), [list(c) for c in r._chunks],
            list(r._close_ts), [list(c) for c in (r._first, r._last, r._offset, r._length)],
            r._last_closed_ts, r.watermark, r.total_events, r.dropped_late)


def test_checkpoint_changes_nothing_and_load_restores_the_layout(tmp_path):
    """A checkpoint closes no chunk, and a loaded copy holds the same chunks
    in memory: it accepts, dedups and drops the next events like the
    original, and keeps its chunk boundaries."""
    r = make(tmp_path / "a", chunk_events=4, lateness_ms=100)
    _fill(r, 15)  # chunk 0 sealed, chunks 1 and 2 in transition, 3 open
    before = _layout(r)
    assert before[:2] == (1, r._length[0]) and [len(c) for c in before[2]] == [4, 4, 3]
    assert len(before[3]) == 2  # a close ts per transition chunk
    meta = r.checkpoint()
    assert _layout(r) == before
    r2 = make(tmp_path / "b", chunk_events=4, lateness_ms=100)
    shutil.copy(meta["file"], r2.path)
    r2.load(meta)
    assert _layout(r2) == before
    nxt = [_ev(100, ts=75), _ev(14), _ev(101, ts=5), _ev(12),
           *(_ev(i) for i in range(15, 30))]
    assert [r.append(dict(e)) for e in nxt] == [r2.append(dict(e)) for e in nxt] == [
        "ok", "dup", "late-dropped", "dup", *["ok"] * 15]
    assert _layout(r2) == _layout(r)


def test_costs_accounting(tmp_path):
    r = make(tmp_path, cache_chunks=8)
    _fill(r, 8 * 6)
    it = r.iterator()
    sink = []
    it.advance_until(10**9, sink)
    assert r.demand_loads == 1  # the first chunk; the rest were prefetched
    assert r.take_costs()[1] > 0  # prefetch time, the reading tracers take
    assert r.take_costs() == (0.0, 0.0)  # reset
