"""Tests for the task plan DAG (§4.1.2) and the task processor (§4.1).

Correctness reference: a brute-force recomputation over all events (and,
in test_sliding_oracle.py, the DuckDB oracle through the Spark path).
"""
import pickle

import numpy as np
import pytest

from repro.core.language import parse_statement
from repro.core.reservoir import ReservoirIterator
from repro.core.task import TaskProcessor
from repro.core.windows import MINUTE, SECOND

from .test_aggregators import _builtins_only


def _payments(n=300, seed=0, n_cards=5, gap_ms=700):
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.integers(1, gap_ms, n))
    return [
        {
            "id": i,
            "ts": int(ts[i]),
            "card_id": int(rng.integers(1, n_cards + 1)),
            "merchant_id": int(rng.integers(1, 3)),
            "amount": float(np.round(rng.uniform(1, 100), 2)),
        }
        for i in range(n)
    ]


def _brute(events, i, *, key, window_ms, field="amount", delay_ms=0, flt=None):
    """All field values of events[j<=i] in events[i]'s window for its key."""
    e = events[i]
    hi = e["ts"] - delay_ms
    lo = hi - window_ms
    return [
        x[field]
        for x in events[: i + 1]
        if x[key] == e[key] and lo < x["ts"] <= hi and (flt is None or flt(x))
    ]


def make_tp(tmp_path, sqls, **res_kw):
    res_kw.setdefault("chunk_events", 32)
    res_kw.setdefault("cache_chunks", 16)
    return TaskProcessor("t0", sqls, str(tmp_path / "tp"), reservoir_kwargs=res_kw)


def test_q1_sum_count_per_card(tmp_path):
    """Paper Example 1 Q1 over a real event trickle, checked per event."""
    tp = make_tp(
        tmp_path,
        ["SELECT sum(amount), count(amount) FROM payments "
         "GROUP BY card_id OVER sliding 1 minute"],
    )
    events = _payments()
    for i, e in enumerate(events):
        ans = tp.process(e)
        vals = _brute(events, i, key="card_id", window_ms=MINUTE)
        assert ans["sum(amount) by card_id over sliding 60000ms"] == pytest.approx(sum(vals))
        assert ans["count(amount) by card_id over sliding 60000ms"] == len(vals)


def test_multiple_windows_and_groupbys_shared_plan(tmp_path):
    """Q1+Q2 (two group-bys) + a second window size, all in one task."""
    tp = make_tp(
        tmp_path,
        [
            "SELECT sum(amount) FROM payments GROUP BY card_id OVER sliding 1 minute",
            "SELECT avg(amount) FROM payments GROUP BY merchant_id OVER sliding 1 minute",
            "SELECT count(amount) FROM payments GROUP BY card_id OVER sliding 10 seconds",
        ],
    )
    # same-delay windows share the head iterator: 1 head + 2 tails
    assert tp.plan.iterator_count == 3
    events = _payments(n=250)
    for i, e in enumerate(events):
        ans = tp.process(e)
        v1 = _brute(events, i, key="card_id", window_ms=MINUTE)
        v2 = _brute(events, i, key="merchant_id", window_ms=MINUTE)
        v3 = _brute(events, i, key="card_id", window_ms=10 * SECOND)
        assert ans["sum(amount) by card_id over sliding 60000ms"] == pytest.approx(sum(v1))
        assert ans["avg(amount) by merchant_id over sliding 60000ms"] == pytest.approx(
            np.mean(v2)
        )
        assert ans["count(amount) by card_id over sliding 10000ms"] == len(v3)


def test_filter_operator(tmp_path):
    tp = make_tp(
        tmp_path,
        ["SELECT count(amount) FROM payments WHERE amount > 50 "
         "GROUP BY card_id OVER sliding 1 minute"],
    )
    events = _payments(n=200)
    name = tp.plan.leaves[0].metric.name
    for i, e in enumerate(events):
        ans = tp.process(e)
        vals = _brute(
            events, i, key="card_id", window_ms=MINUTE, flt=lambda x: x["amount"] > 50
        )
        assert ans[name] == len(vals)


def test_delayed_window(tmp_path):
    tp = make_tp(
        tmp_path,
        ["SELECT count(amount) FROM payments GROUP BY card_id "
         "OVER sliding 30 seconds delayed by 10 seconds"],
    )
    events = _payments(n=200)
    name = tp.plan.leaves[0].metric.name
    for i, e in enumerate(events):
        ans = tp.process(e)
        vals = _brute(
            events, i, key="card_id", window_ms=30 * SECOND, delay_ms=10 * SECOND
        )
        assert ans[name] == len(vals)


def test_infinite_window(tmp_path):
    tp = make_tp(
        tmp_path,
        ["SELECT countDistinct(merchant_id), count(amount) FROM payments "
         "GROUP BY card_id OVER infinite"],
    )
    events = _payments(n=200)
    for i, e in enumerate(events):
        ans = tp.process(e)
        seen = [x for x in events[: i + 1] if x["card_id"] == e["card_id"]]
        assert ans["count(amount) by card_id over infinite"] == len(seen)
        assert ans["countDistinct(merchant_id) by card_id over infinite"] == len(
            {x["merchant_id"] for x in seen}
        )


def test_tumbling_window(tmp_path):
    tp = make_tp(
        tmp_path,
        ["SELECT sum(amount) FROM payments GROUP BY card_id OVER tumbling 20 seconds"],
    )
    events = _payments(n=200)
    name = tp.plan.leaves[0].metric.name
    w = 20 * SECOND
    for i, e in enumerate(events):
        ans = tp.process(e)
        bucket = (e["ts"] // w) * w
        vals = [
            x["amount"]
            for x in events[: i + 1]
            if x["card_id"] == e["card_id"] and bucket <= x["ts"] <= e["ts"]
        ]
        assert ans[name] == pytest.approx(sum(vals))


def test_min_max_stddev_over_window(tmp_path):
    tp = make_tp(
        tmp_path,
        ["SELECT min(amount), max(amount), stdDev(amount) FROM payments "
         "GROUP BY card_id OVER sliding 30 seconds"],
    )
    events = _payments(n=250, n_cards=3)
    for i, e in enumerate(events):
        ans = tp.process(e)
        vals = _brute(events, i, key="card_id", window_ms=30 * SECOND)
        assert ans["min(amount) by card_id over sliding 30000ms"] == pytest.approx(min(vals))
        assert ans["max(amount) by card_id over sliding 30000ms"] == pytest.approx(max(vals))
        expect_sd = np.std(vals, ddof=1) if len(vals) >= 2 else None
        got_sd = ans["stdDev(amount) by card_id over sliding 30000ms"]
        if expect_sd is None:
            assert got_sd is None
        else:
            assert got_sd == pytest.approx(expect_sd, rel=1e-6)


def test_duplicate_event_does_not_change_aggregates(tmp_path):
    tp = make_tp(
        tmp_path,
        ["SELECT count(amount) FROM payments GROUP BY card_id OVER sliding 1 minute"],
    )
    name = tp.plan.leaves[0].metric.name
    e = {"id": 1, "ts": 1000, "card_id": 1, "merchant_id": 1, "amount": 5.0}
    assert tp.process(e)[name] == 1
    assert tp.process(dict(e))[name] == 1  # dedup: unchanged, still answered


def test_late_event_rewrite_included_in_aggregate(tmp_path):
    tp = make_tp(
        tmp_path,
        ["SELECT count(amount) FROM payments GROUP BY card_id OVER sliding 1 minute"],
        chunk_events=4,
        out_of_order="rewrite",
    )
    name = tp.plan.leaves[0].metric.name
    for i in range(6):  # seals the first 4-event chunk
        tp.process({"id": i, "ts": 1000 * (i + 1), "card_id": 1,
                    "merchant_id": 1, "amount": 1.0})
    # late event: ts before the sealed chunk's end; rewritten into open chunk
    ans = tp.process({"id": "late", "ts": 1500, "card_id": 1,
                      "merchant_id": 1, "amount": 1.0})
    assert ans[name] == 7  # all 6 + the rewritten late event


def test_out_of_order_within_open_chunk_counted(tmp_path):
    tp = make_tp(
        tmp_path,
        ["SELECT count(amount) FROM payments GROUP BY card_id OVER sliding 1 minute"],
        chunk_events=64,
    )
    name = tp.plan.leaves[0].metric.name
    tp.process({"id": 0, "ts": 1000, "card_id": 1, "merchant_id": 1, "amount": 1.0})
    tp.process({"id": 1, "ts": 5000, "card_id": 1, "merchant_id": 1, "amount": 1.0})
    # out-of-order but within the open chunk: inserted behind the head cursor
    ans = tp.process({"id": 2, "ts": 3000, "card_id": 1,
                      "merchant_id": 1, "amount": 1.0})
    assert ans[name] == 3
    # and subsequent events still see it until it expires
    ans = tp.process({"id": 3, "ts": 6000, "card_id": 1,
                      "merchant_id": 1, "amount": 1.0})
    assert ans[name] == 4


DELAYED = "sliding 4 seconds delayed by 3 seconds"


def _at(*ts):
    return [(t, t / 1000) for t in ts]


@pytest.mark.parametrize("agg, window, stream, expect", [
    # a late event the tail has already passed is added and evicted at once
    ("count", "sliding 4 seconds", _at(1000, 2000, 9000, 1500, 100_000), [1, 2, 1, 1, 1]),
    ("count", DELAYED, _at(1000, 5000, 9000, 4000, 100_000), [0, 1, 1, 2, 0]),
    ("stdDev", DELAYED, _at(1000, 5000, 9000, 4000, 100_000, 104_000),
     [None, None, None, np.std([5.0, 4.0], ddof=1), None, None]),
    # a late maximum expires when its own ts leaves the window
    ("max", "sliding 4 seconds", [(1000, 1.0), (3000, 2.0), (1500, 9.0), (5200, 0.0),
                                  (5600, 0.0)], [1.0, 2.0, 9.0, 9.0, 2.0]),
], ids=["behind-the-tail", "delayed", "delayed-stdDev", "late-max"])
def test_late_events_answer_at_the_watermark(tmp_path, agg, window, stream, expect):
    """Windows are anchored at the highest stored ts: each answer is the
    window at that watermark, the late event counted only inside it."""
    tp = make_tp(tmp_path, [f"SELECT {agg}(amount) FROM payments "
                            f"GROUP BY card_id OVER {window}"])
    name = tp.plan.leaves[0].metric.name
    for (ts, v), want in zip(stream, expect):
        got = tp.process({"id": ts, "ts": ts, "card_id": 1, "merchant_id": 1, "amount": v})
        _assert_answer(got[name], want, (ts, agg))


def test_prefill_and_warm_up_give_live_tail(tmp_path):
    """§5.2(a) methodology: checkpoint-load history, then measure steady state."""
    tp = make_tp(
        tmp_path,
        ["SELECT count(amount) FROM payments GROUP BY card_id OVER sliding 1 minute"],
        chunk_events=16,
    )
    name = tp.plan.leaves[0].metric.name
    hist = [
        {"id": f"h{i}", "ts": i * 1000, "card_id": 1, "merchant_id": 1, "amount": 1.0}
        for i in range(100)
    ]
    tp.prefill(hist)
    tp.warm_up(hist[-1]["ts"])
    # window (40000, 100000] over card 1: history ts 41000..99000 = 59
    # events, plus the arriving one = 60
    ans = tp.process({"id": "x", "ts": 100_000, "card_id": 1,
                      "merchant_id": 1, "amount": 1.0})
    assert ans[name] == 60


def test_warm_up_past_the_watermark_raises_and_moves_nothing(tmp_path):
    """Advancing past the watermark would evict events still inside the
    window at the watermark; warm_up refuses before any iterator moves."""
    tp = make_tp(tmp_path, ["SELECT count(amount), sum(amount) FROM payments "
                            "GROUP BY card_id OVER sliding 10 seconds"],
                 chunk_events=4)
    count, total = (leaf.metric.name for leaf in tp.plan.leaves)
    tp.prefill({"id": f"h{i}", "ts": i * 1000, "card_id": 1, "merchant_id": 1,
                "amount": 1.0} for i in range(1, 11))
    with pytest.raises(ValueError):
        tp.warm_up(20_000)
    tp.warm_up(10_000)
    ans = tp.process({"id": "x", "ts": 10_500, "card_id": 1,
                      "merchant_id": 1, "amount": 1.0})
    assert (ans[count], ans[total]) == (11, 11.0)


def test_warm_up_holds_about_one_chunk_and_writes_each_record_once(tmp_path, monkeypatch):
    """warm_up over 50 chunks of history, a 4-chunk burst at one ts among
    them: no iterator call yields more than two chunks of events, leaving
    aside those tied with its last one, and each GroupBy reads and writes
    (puts or deletes) once each record with an event between its head
    group's lowest window start and its head's bound, and no other."""
    chunk = 8
    rng = np.random.default_rng(3)
    gaps = rng.integers(0, 1500, 50 * chunk)
    gaps[200:200 + 4 * chunk] = 0  # the burst
    ts = np.cumsum(gaps)
    hist = [{"id": i, "ts": int(t), "card_id": int(rng.integers(1, 20)),
             "merchant_id": int(rng.integers(1, 4)), "amount": float(rng.integers(1, 100))}
            for i, t in enumerate(ts)]
    windows = ("sliding 30 seconds", "sliding 20 seconds delayed by 10 seconds",
               "tumbling 45 seconds", "infinite")
    tp = make_tp(tmp_path, [
        f"SELECT sum(amount), max(amount), countDistinct(merchant_id), count(*) "
        f"FROM payments {where}GROUP BY card_id OVER {w}"
        for w in windows for where in ("", "WHERE amount > 50 ")], chunk_events=chunk)
    tp.prefill(hist)
    assert tp.reservoir.sealed_chunks() >= 40

    yields = []
    advance_until = ReservoirIterator.advance_until

    def recording(it, bound_ts, out):
        n = len(out)
        advance_until(it, bound_ts, out)
        yields.append(out[n:])

    touches = {gb.cf: [] for gb in tp.plan.groupbys}  # (op, key) per GroupBy cf

    def counting(op):
        call = getattr(tp.store, op)

        def counted(key, *args):
            cf = args[-1]
            if cf in touches:
                touches[cf].append((op, key))
            return call(key, *args)
        return counted

    monkeypatch.setattr(ReservoirIterator, "advance_until", recording)
    for op in ("get", "put", "delete"):
        monkeypatch.setattr(tp.store, op, counting(op))
    now = hist[-1]["ts"]
    tp.warm_up(now)
    monkeypatch.undo()

    assert sum(map(len, yields)) >= len(hist)  # the infinite window's head
    for got in yields:
        assert len([e for e in got if e["ts"] != got[-1]["ts"]]) <= 2 * chunk
    for gb in tp.plan.groupbys:
        delay = gb.leaves[0].metric.window.delay_ms
        lo = min(w.spec.bounds(now)[0] for w in tp.plan._head_groups[delay][1])
        cut = 50 if gb.leaves[0].metric.filter_sql else -1
        touched = {e["card_id"] for e in hist
                   if lo < e["ts"] <= now - delay and e["amount"] > cut}
        reads = [k for op, k in touches[gb.cf] if op == "get"]
        writes = [k for op, k in touches[gb.cf] if op != "get"]
        assert sorted(reads) == sorted(writes) == sorted(touched), gb.cf
        assert not gb.written  # the load keeps no second copy of its records


def test_warm_up_anchors_at_the_watermark(tmp_path):
    """prefill + warm_up at the history's last ts loads the windows where
    recover would resume them: every history event stays in the window.
    An empty history loads nothing and leaves the task loadable."""
    tp = make_tp(tmp_path, ["SELECT count(amount), sum(amount) FROM payments "
                            "GROUP BY card_id OVER sliding 10 seconds"],
                 chunk_events=4)
    count, total = (leaf.metric.name for leaf in tp.plan.leaves)
    assert tp.prefill([]) == 0
    tp.warm_up(0)
    assert len(tp.store) == 0
    hist = [{"id": f"h{i}", "ts": i * 1000, "card_id": 1, "merchant_id": 1,
             "amount": 1.0} for i in range(1, 11)]
    tp.prefill(hist)
    tp.warm_up(hist[-1]["ts"])
    ans = tp.process({"id": "x", "ts": 10_500, "card_id": 1,
                      "merchant_id": 1, "amount": 1.0})
    assert (ans[count], ans[total]) == (11, 11.0)


def test_warm_up_into_a_task_with_state_raises_and_moves_nothing(tmp_path):
    """A load over a stored record would count its events twice: warm_up
    refuses before the store or any iterator changes."""
    tp = make_tp(tmp_path, ["SELECT sum(amount) FROM payments GROUP BY card_id "
                            "OVER sliding 1 minute",
                            "SELECT count(*) FROM payments GROUP BY card_id "
                            "OVER sliding 30 seconds delayed by 5 seconds"],
                 chunk_events=4)
    events = _payments(n=40)
    tp.process(events[0])
    tp.prefill(events[1:])
    iterators = [tp.plan._head_groups[d][0] for d in tp.plan._head_groups]
    iterators += [w.tail for w in tp.plan.windows.values()]

    def state():
        records = {gb.cf: {k: tp.store.get(k, gb.cf) for k in tp.store.keys(gb.cf)}
                   for gb in tp.plan.groupbys}
        return (records, [(it.chunk_id, it.idx, it._current, list(it._late))
                               for it in iterators])

    before = state()
    assert any(before[0].values())
    with pytest.raises(ValueError, match="store"):
        tp.warm_up(events[-1]["ts"])
    assert state() == before


def test_warm_up_replays_only_the_windows(tmp_path, monkeypatch):
    """Over a history more than 10× the longest size + delay, each head
    group seeks to its lowest window start: no iterator yields more than
    its group's widest window plus two chunks, and the answers after the
    load are the brute-force ones."""
    chunk = 8
    rng = np.random.default_rng(7)
    events = [{"id": i, "ts": int(t), "card_id": int(rng.integers(1, 6)),
               "merchant_id": 1, "amount": float(rng.integers(1, 100))}
              for i, t in enumerate(np.cumsum(rng.integers(1, 1500, 60 * chunk + 40)))]
    hist = events[:60 * chunk]
    now = hist[-1]["ts"]
    windows = {"sliding 20 seconds": (20 * SECOND, 0),
               "sliding 30 seconds": (30 * SECOND, 0),
               "sliding 15 seconds delayed by 10 seconds": (15 * SECOND, 10 * SECOND)}
    assert now - hist[0]["ts"] > 10 * 30 * SECOND
    tp = make_tp(tmp_path, [f"SELECT sum(amount), max(amount), count(*) FROM payments "
                            f"GROUP BY card_id OVER {w}" for w in windows],
                 chunk_events=chunk)
    tp.prefill(hist)
    assert tp.reservoir.sealed_chunks() >= 40

    yields: dict[int, int] = {}
    advance_until = ReservoirIterator.advance_until

    def counting(it, bound_ts, out):
        n = len(out)
        advance_until(it, bound_ts, out)
        yields[id(it)] = yields.get(id(it), 0) + len(out) - n

    monkeypatch.setattr(ReservoirIterator, "advance_until", counting)
    tp.warm_up(now)
    monkeypatch.undo()

    for delay, (head, wnodes) in tp.plan._head_groups.items():
        lo = min(w.spec.bounds(now)[0] for w in wnodes)
        widest = sum(lo < e["ts"] <= now - delay for e in hist)
        for it in (head, *(w.tail for w in wnodes)):
            assert yields.get(id(it), 0) <= widest + 2 * chunk, (delay, widest)
    for i in range(len(hist), len(events)):
        ans = tp.process(events[i])
        for leaf in tp.plan.leaves:
            m = leaf.metric
            vals = _brute(events, i, key="card_id", window_ms=m.window.size_ms,
                          delay_ms=m.window.delay_ms)
            want = {"sum": sum(vals) if vals else None, "max": max(vals, default=None),
                    "count": len(vals)}[m.agg]
            _assert_answer(ans[m.name], want, (i, m.name))


def _reference(agg, vals):
    """Brute-force value of one aggregation over a window's values, in order."""
    if agg == "count":
        return len(vals)
    if agg == "countDistinct":
        return len(set(vals))
    if agg in ("stdDev", "prev"):
        if len(vals) < 2:
            return None
        return np.std(vals, ddof=1) if agg == "stdDev" else vals[-2]
    if not vals:
        return None
    return {"sum": sum, "avg": np.mean, "min": min, "max": max,
            "last": lambda v: v[-1]}[agg](vals)


def _assert_answer(got, expect, label):
    if expect is None:
        assert got is None, label
    else:
        assert got == pytest.approx(expect, rel=1e-9), label


def test_warm_up_matches_brute_force(tmp_path):
    """Chunked warm_up over a history many windows long, every aggregation.

    Within one step, a history event can both arrive in and expire from
    a window.
    """
    events = _payments(n=300, n_cards=3)
    hist = events[:200]
    now = hist[-1]["ts"]
    windows = ("sliding 5 seconds", "sliding 5 seconds delayed by 2 seconds")
    aggs = ("sum", "avg", "count", "min", "max", "stdDev", "last", "prev")
    select = ", ".join(f"{a}(amount)" for a in aggs) + ", countDistinct(merchant_id), count(*)"
    tp = make_tp(tmp_path, [f"SELECT {select} FROM payments GROUP BY card_id OVER {w}"
                            for w in windows])
    tp.prefill(hist)
    tp.warm_up(now)
    for i in range(len(hist), len(events)):
        ans = tp.process(events[i])
        for leaf in tp.plan.leaves:
            m = leaf.metric
            vals = _brute(events, i, key="card_id", window_ms=m.window.size_ms,
                          field="ts" if m.agg_field == "*" else m.agg_field,
                          delay_ms=m.window.delay_ms)
            _assert_answer(ans[m.name], _reference(m.agg, vals), (i, m.name))


ALL_AGGS = ("sum(amount), avg(amount), count(amount), stdDev(amount), max(amount), "
            "min(amount), last(amount), prev(amount), countDistinct(merchant_id)")


def test_one_record_per_entity_per_groupby(tmp_path):
    """An arrival without evictions costs one get and one put per GroupBy
    plus one multiplicity get/put per countDistinct leaf, and the answer
    reuses the records in hand; every stored value is plain built-ins."""
    tp = make_tp(tmp_path, [
        f"SELECT {ALL_AGGS} FROM payments GROUP BY card_id OVER sliding 1 hour",
        "SELECT sum(amount), countDistinct(card_id) FROM payments "
        "GROUP BY merchant_id OVER sliding 1 hour",
        "SELECT count(amount) FROM payments GROUP BY card_id, merchant_id OVER infinite",
        "SELECT max(amount) FROM payments GROUP BY card_id "
        "OVER sliding 1 hour delayed by 1 hour",
    ])
    store, plan = tp.store, tp.plan
    assert len(plan.groupbys) == 4
    per_event = 3 + 2  # undelayed GroupBys + countDistinct leaves
    stranger = {"card_id": -1, "merchant_id": -1}
    for e in _payments(n=150):  # < 1 minute: nothing is evicted
        g0, p0 = store.gets, store.puts
        tp.process(e)
        # the delayed GroupBy saw no arrival: its answer is the one read
        assert (store.gets - g0, store.puts - p0) == (per_event + 1, per_event)
        g1 = store.gets
        plan.answers(stranger)
        assert store.gets - g1 == len(plan.groupbys)
    cfs = [gb.cf for gb in plan.groupbys] + [
        leaf.aux_cf for leaf in plan.leaves if leaf.aux_cf]
    values = [store.get(k, cf) for cf in cfs for k in store.keys(cf)]
    assert len(values) == len(store) > 0
    assert all(_builtins_only(v) for v in values)


def test_leaves_with_one_state_share_a_slot(tmp_path):
    """Leaves whose aggregations keep the same state over the same field
    read one slot: sum/avg and last/prev; every other leaf has its own."""
    tp = make_tp(tmp_path, [
        f"SELECT {ALL_AGGS} FROM payments GROUP BY card_id OVER sliding 1 minute"])
    (gb,) = tp.plan.groupbys
    slots = {leaf.metric.agg: leaf.slot for leaf in gb.leaves}
    assert slots["sum"] == slots["avg"] and slots["last"] == slots["prev"]
    others = [slots[a] for a in ("sum", "count", "stdDev", "max", "min", "last",
                                 "countDistinct")]
    assert sorted(others) == list(range(7))
    events = _payments(n=150)
    for e in events:
        tp.process(e)
    records = [tp.store.get(k, gb.cf) for k in tp.store.keys(gb.cf)]
    assert records and all(len(rec) == 7 and _builtins_only(rec) for rec in records)


def test_last_prev_state_does_not_grow_with_the_window(tmp_path):
    """last/prev keep the newest two (ts, value) pairs per entity, so their
    stored record is as small under a 60 s window as under a 10 s one."""
    windows = (10 * SECOND, 60 * SECOND)
    tp = make_tp(tmp_path, [
        f"SELECT last(amount), prev(amount) FROM payments GROUP BY card_id "
        f"OVER sliding {w} ms" for w in windows])
    events = _payments(n=8_000, n_cards=10, gap_ms=20)  # ~80 s, ~100 ev/s
    for e in events:
        ans = tp.process(e)
    bytes_per_entity = []
    for gb in tp.plan.groupbys:
        blobs = [pickle.dumps(tp.store.get(k, gb.cf)) for k in tp.store.keys(gb.cf)]
        bytes_per_entity.append(sum(map(len, blobs)) / len(blobs))
    assert bytes_per_entity[1] <= bytes_per_entity[0] * 1.05
    assert bytes_per_entity[1] < 100
    for leaf in tp.plan.leaves:
        vals = _brute(events, len(events) - 1, key="card_id",
                      window_ms=leaf.metric.window.size_ms)
        assert ans[leaf.name] == vals[-1 if leaf.metric.agg == "last" else -2]


def test_state_drifts_to_empty_after_a_quiet_gap(tmp_path):
    """After a gap longer than every window + delay, the next event's
    entity is the only one left in the plan's column families."""
    tp = make_tp(tmp_path, [
        f"SELECT {ALL_AGGS} FROM payments GROUP BY card_id OVER {w}"
        for w in ("sliding 5 seconds", "sliding 4 seconds delayed by 3 seconds",
                  "tumbling 7 seconds")
    ] + ["SELECT count(amount) FROM payments GROUP BY merchant_id, card_id "
         "OVER sliding 9 seconds delayed by 1 second"])
    events = _payments(n=200, n_cards=6)
    for e in events:
        tp.process(e)
    assert len(tp.store) > 0
    last = dict(events[-1], id="after-gap", ts=events[-1]["ts"] + 20 * SECOND)
    tp.process(last)
    for gb in tp.plan.groupbys:
        assert set(tp.store.keys(gb.cf)) <= {gb.key(last)}
    for leaf in tp.plan.leaves:
        if leaf.aux_cf:
            assert {k for k, _ in tp.store.keys(leaf.aux_cf)} <= {last["card_id"]}
    assert len(tp.store) > 0


def _assert_recover_resumes_exactly(tmp_path, sqls, events, chunk_events, cut):
    tp = make_tp(tmp_path, sqls, chunk_events=chunk_events)
    for e in events[:cut]:
        tp.process(e)
    ckpt = tp.checkpoint()
    tp2 = TaskProcessor.recover(
        ckpt, sqls, str(tmp_path / "tp2"),
        reservoir_kwargs={"chunk_events": chunk_events, "cache_chunks": 16},
    )
    # both processors answer identically on the remaining stream
    for i, e in enumerate(events[cut:], cut):
        a1 = tp.process(e)
        a2 = tp2.process(e)
        assert a1 == a2, f"divergence at event {i}"


def test_checkpoint_recover_resumes_exactly(tmp_path):
    _assert_recover_resumes_exactly(
        tmp_path / "payments",
        ["SELECT sum(amount), count(amount) FROM payments "
         "GROUP BY card_id OVER sliding 1 minute"], _payments(n=200), 16, 120)
    # the schema evolves: ``c`` first appears in the second chunk, which
    # the recovered tail reads back from disk
    evolving = [{"id": i, "ts": i * SECOND, "card": 1 if i < 4 else 1 + i % 2,
                 **({"c": float(i)} if i >= 4 else {})} for i in range(40)]
    _assert_recover_resumes_exactly(
        tmp_path / "field-added-later",
        ["SELECT sum(c) FROM s WHERE card == 2 GROUP BY card OVER sliding 5 seconds"],
        evolving, 4, 12)
    # ... and a filter on the new field passes over the events without it
    _assert_recover_resumes_exactly(
        tmp_path / "filter-on-new-field",
        ["SELECT sum(c) FROM s WHERE c > 5 GROUP BY card OVER sliding 5 seconds"],
        evolving, 4, 12)


def test_stats_reporting(tmp_path):
    tp = make_tp(
        tmp_path,
        ["SELECT sum(amount) FROM payments GROUP BY card_id OVER sliding 1 minute"],
    )
    for e in _payments(n=100):
        tp.process(e)
    st = tp.stats()
    assert st["events"] == 100
    assert st["iterators"] == 2
    assert st["state_keys"] > 0
    assert st["sealed_chunks"] >= 2
