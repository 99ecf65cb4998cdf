"""Property-based tests (hypothesis) for the reservoir and the engine."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.aggregators import AGGREGATORS
from repro.core.reservoir import EventReservoir
from repro.core.task import TaskProcessor

from .test_plan_task import _reference


@st.composite
def event_stream(draw, max_n=120):
    """An in-order stream; a gap of 0 ties two timestamps. The schema
    evolves: a ``fee`` field first appears at a drawn index (never, when
    that index is ``n``), and is sometimes a stored ``None``."""
    n = draw(st.integers(1, max_n))
    gaps = draw(
        st.lists(st.integers(0, 5_000), min_size=n, max_size=n)
    )
    ts = np.cumsum(gaps)
    keys = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    fee_from = draw(st.integers(0, n))
    fee_none = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return [
        {"id": i, "ts": int(ts[i]), "card_id": keys[i], "amount": float(i % 7),
         **({"fee": None if fee_none[i] else i / 2} if i >= fee_from else {})}
        for i in range(n)
    ]


@st.composite
def arrivals(draw, max_n=80):
    """A stream in arrival order. Timestamps may be coarse (whole 2 s
    steps, so many tie), and with a late fraction some events arrive up
    to 6 s behind the stream; in-order input is one of the drawn cases."""
    events = draw(event_stream(max_n))
    unit = draw(st.sampled_from((1, 2000)))
    late = draw(st.sampled_from((0, 1, 3)))  # one event in late + 1 is late
    for e in events:
        e["ts"] -= e["ts"] % unit
        if late and draw(st.integers(0, late)) == 0:
            e["ts"] = max(0, e["ts"] - draw(st.integers(1, 6_000)))
    return events


POLICIES = st.sampled_from(({"out_of_order": "drop"}, {"out_of_order": "rewrite"},
                            {"out_of_order": "drop", "lateness_ms": 3_000},
                            {"out_of_order": "rewrite", "lateness_ms": 1_000}))


@settings(max_examples=40, deadline=None)
@given(events=event_stream(), chunk=st.integers(2, 32))
def test_reservoir_roundtrip_any_stream(tmp_path_factory, events, chunk):
    """The events read back equal the events appended, from disk and after
    a checkpoint load: the same keys (a missing field stays missing, a
    stored None stays present) and the same values."""
    path = str(tmp_path_factory.mktemp("res"))
    r = EventReservoir(path, chunk_events=chunk, cache_chunks=8)
    for e in events:
        assert r.append(dict(e)) == "ok"

    def read_back(res):
        out = []
        res.iterator().advance_until(1 << 60, out)
        return out

    assert read_back(r) == events
    r2 = EventReservoir(path, chunk_events=chunk, cache_chunks=8)
    r2.load(r.checkpoint())
    assert read_back(r2) == events
    assert r.total_events == r2.total_events == len(events)


@settings(max_examples=40, deadline=None)
@given(events=event_stream(), chunk=st.integers(2, 32), bound_idx=st.integers(0, 119))
def test_reservoir_iterator_bound_is_exact(tmp_path_factory, events, chunk, bound_idx):
    r = EventReservoir(
        str(tmp_path_factory.mktemp("res")), chunk_events=chunk, cache_chunks=8
    )
    for e in events:
        r.append(dict(e))
    bound = events[min(bound_idx, len(events) - 1)]["ts"]
    out = []
    r.iterator().advance_until(bound, out)
    assert [e["id"] for e in out] == [e["id"] for e in events if e["ts"] <= bound]


def _held_events(r):
    """Distinct event objects in the reservoir's in-memory holders."""
    holders = [*r._chunks, *r.cache._d.values(),
               *(it._current for it in r._iterators if it._current is not None)]
    return len({id(e) for chunk in holders for e in chunk})


@settings(max_examples=40, deadline=None)
@given(
    events=event_stream(),
    chunk=st.integers(2, 16),
    n_iters=st.integers(1, 6),
    spare_slots=st.integers(0, 2),
    data=st.data(),
)
def test_iterators_read_exactly_without_demand_loads(
    tmp_path_factory, events, chunk, n_iters, spare_slots, data
):
    """In-order appends interleaved with random-bound advances: every
    iterator yields the brute-force events in order, no chunk is demand
    loaded while the cache has a slot per iterator, memory_events()
    counts each event in memory once, and no reservation outlives its
    iterator."""
    r = EventReservoir(
        str(tmp_path_factory.mktemp("res")), chunk_events=chunk,
        cache_chunks=n_iters + spare_slots,
    )
    iters = [r.iterator() for _ in range(n_iters)]
    seen = [[] for _ in iters]
    for i, e in enumerate(events):
        r.append(dict(e))
        for j in data.draw(st.lists(st.integers(0, n_iters - 1), max_size=n_iters)):
            bound = data.draw(st.integers(0, e["ts"] + 5_000))
            before = len(seen[j])
            iters[j].advance_until(bound, seen[j])
            # a cursor never moves back: it has read every stored event up
            # to the highest bound so far
            upto = max(before, sum(x["ts"] <= bound for x in events[: i + 1]))
            assert [x["id"] for x in seen[j]] == [x["id"] for x in events[:upto]]
        assert r.memory_events() == _held_events(r)
    assert r.demand_loads == 0
    for it in iters:
        it.close()
    assert not r.cache._d  # every staged chunk had a reader


@settings(max_examples=25, deadline=None)
@given(events=event_stream(max_n=80), window_s=st.integers(1, 30))
def test_task_processor_count_matches_bruteforce(tmp_path_factory, events, window_s):
    w = window_s * 1000
    tp = TaskProcessor(
        "prop",
        [f"SELECT count(amount), sum(amount) FROM s GROUP BY card_id "
         f"OVER sliding {w} ms"],
        str(tmp_path_factory.mktemp("tp")),
        reservoir_kwargs={"chunk_events": 8, "cache_chunks": 8},
    )
    cname = f"count(amount) by card_id over sliding {w}ms"
    sname = f"sum(amount) by card_id over sliding {w}ms"
    for i, e in enumerate(events):
        ans = tp.process(e)
        in_w = [
            x for x in events[: i + 1]
            if x["card_id"] == e["card_id"] and e["ts"] - w < x["ts"] <= e["ts"]
        ]
        assert ans[cname] == len(in_w)
        assert ans[sname] == pytest.approx(sum(x["amount"] for x in in_w))


@settings(max_examples=25, deadline=None)
@given(events=arrivals(), policy=POLICIES, checkpoint_at=st.integers(5, 60))
@example(  # a late event after the cut that the open chunk still accepts
    events=[{"id": i, "ts": ts, "card_id": 1, "amount": 1.0}
            for i, ts in enumerate((1000, 2000, 3000, 4000, 5000, 500))],
    policy={"out_of_order": "drop"}, checkpoint_at=5,
)
def test_checkpoint_recovery_transparent(tmp_path_factory, events, policy, checkpoint_at):
    """Recovery at any point, out-of-order input included, yields a
    processor that answers identically, and so does the checkpointed one:
    both answer like a twin that was never checkpointed."""
    select = ("count(amount), max(amount), min(amount), stdDev(amount), "
              "countDistinct(amount)")
    sqls = [
        f"SELECT {select} FROM s GROUP BY card_id OVER sliding 20 seconds",
        f"SELECT {select} FROM s GROUP BY card_id "
        "OVER sliding 10 seconds delayed by 5 seconds",
    ]
    kw = {"chunk_events": 8, "cache_chunks": 8, **policy}
    tp, twin = (TaskProcessor("a", sqls, str(tmp_path_factory.mktemp(d)),
                              reservoir_kwargs=kw) for d in ("a", "twin"))
    cut = min(checkpoint_at, len(events) - 1)
    for e in events[:cut]:
        tp.process(e)
        twin.process(e)
    ckpt = tp.checkpoint()
    tp2 = TaskProcessor.recover(
        ckpt, sqls, str(tmp_path_factory.mktemp("b")), reservoir_kwargs=kw
    )
    for e in events[cut:]:
        assert tp.process(e) == tp2.process(e) == twin.process(e)


@st.composite
def window_text(draw):
    kind = draw(st.sampled_from(("sliding", "tumbling", "infinite")))
    text = kind if kind == "infinite" else f"{kind} {draw(st.integers(1, 40)) * 500} ms"
    delay = draw(st.sampled_from((0, 0, 1500, 7000)))
    return text + (f" delayed by {delay} ms" if delay else "")


@settings(max_examples=60, deadline=None)
@given(
    events=arrivals(),
    policy=POLICIES,
    chunk=st.integers(2, 8),
    windows=st.lists(window_text(), min_size=1, max_size=4),
    aggs=st.lists(st.sampled_from(sorted(AGGREGATORS)), min_size=1, max_size=9,
                  unique=True),
    group_by=st.sampled_from((("card_id",), ("card_id", "merchant"))),
)
def test_random_plans_match_brute_force(
    tmp_path_factory, events, policy, chunk, windows, aggs, group_by
):
    """Every per-event answer of a random plan equals the aggregation of
    its entity's events as stored (rewrite changes their ts) inside
    ``spec.bounds(W)``, W the highest stored ts, in (ts, arrival) order.
    After a quiet gap longer than every window + delay, a finite window
    holds nothing but the arriving event, and a delayed one nothing."""
    gap = dict(events[-1], id=len(events), ts=max(e["ts"] for e in events) + 60_000)
    events = [*events, gap]
    for e in events:
        e["merchant"] = e["id"] % 3
    select = ", ".join(f"{a}(amount)" for a in aggs)
    tp = TaskProcessor(
        "plans",
        [f"SELECT {select} FROM s GROUP BY {', '.join(group_by)} OVER {w}"
         for w in windows],
        str(tmp_path_factory.mktemp("tp")),
        reservoir_kwargs={"chunk_events": chunk, "cache_chunks": 8, **policy},
    )
    answers = [tp.process(e) for e in events]
    stored = []
    tp.reservoir.iterator().advance_until(1 << 60, stored)
    stored_ts = {x["id"]: x["ts"] for x in stored}
    assert len(stored_ts) == len(stored) == tp.reservoir.total_events
    for i, e in enumerate(events):
        seen = sorted((stored_ts[x["id"]], j, x) for j, x in enumerate(events[: i + 1])
                      if x["id"] in stored_ts)
        w = seen[-1][0]
        for leaf in tp.plan.leaves:
            m = leaf.metric
            lo, hi = m.window.bounds(w)
            vals = [x["amount"] for ts, _, x in seen
                    if lo < ts <= hi and all(x[g] == e[g] for g in group_by)]
            expect = _reference(m.agg, vals)
            if expect is None:
                assert answers[i][m.name] is None, (i, m.name)
            else:
                assert answers[i][m.name] == pytest.approx(expect, rel=1e-9, abs=1e-6), (
                    i, m.name)
    for wnode in tp.plan.windows.values():
        if wnode.spec.kind == "infinite":
            continue
        for gb in (gb for f in wnode.filters.values() for gb in f.group_bys.values()):
            left = set() if wnode.spec.delay_ms else {gb.key(gap)}
            assert set(tp.store.keys(gb.cf)) <= left
            for leaf in gb.leaves:
                if leaf.aux_cf:
                    assert {k for k, _ in tp.store.keys(leaf.aux_cf)} <= left


@st.composite
def loadable_history(draw):
    """(chunk_events, history, rest): an in-order history of at least ten
    chunks, with timestamps tied across chunk boundaries and one burst of
    several chunks inside 1 ms, then a few events to process live."""
    chunk = draw(st.integers(2, 16))
    n = draw(st.integers(10 * chunk, 12 * chunk))
    gaps = draw(st.lists(st.sampled_from((0, 0, 1, 250, 900, 2_500)),
                         min_size=n + 20, max_size=n + 20))
    burst = draw(st.integers(2 * chunk, 4 * chunk))
    at = draw(st.integers(0, n - burst))
    gaps[at + 1:at + burst] = [0] * (burst - 1)
    keys = draw(st.lists(st.integers(1, 4), min_size=n + 20, max_size=n + 20))
    amounts = draw(st.lists(st.integers(0, 99), min_size=n + 20, max_size=n + 20))
    events = [{"id": i, "ts": int(t), "card_id": k, "merchant": i % 3, "amount": float(a)}
              for i, (t, k, a) in enumerate(zip(np.cumsum(gaps), keys, amounts))]
    return chunk, events[:n], events[n:n + draw(st.integers(1, 20))]


def _close(a, b) -> bool:
    """Equal, floats within the tolerance of the brute-force checks."""
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_close, a, b))
    if isinstance(a, float):
        return b == pytest.approx(a, rel=1e-9, abs=1e-6)
    return a == b


def _store_records(tp) -> dict:
    plan = tp.plan
    cfs = [gb.cf for gb in plan.groupbys] + [leaf.aux_cf for leaf in plan.leaves if leaf.aux_cf]
    return {cf: {k: tp.store.get(k, cf) for k in tp.store.keys(cf)} for cf in cfs}


@settings(max_examples=30, deadline=None)
@given(
    loaded=loadable_history(),
    windows=st.lists(window_text(), min_size=1, max_size=3),
    aggs=st.lists(st.sampled_from([f"{a}(amount)" for a in sorted(AGGREGATORS)]
                                  + ["count(*)"]), min_size=1, max_size=10, unique=True),
    where=st.sampled_from(("", "WHERE amount > 40 ")),
)
def test_chunked_warm_up_equals_live_processing(tmp_path_factory, loaded, windows, aggs,
                                                where):
    """prefill(history) + warm_up(W) leaves the store as processing every
    history event live does, record by record, and both answer alike
    after it: the chunk-sized steps of a load add and evict the same
    events as the per-event path."""
    chunk, history, rest = loaded
    sqls = [f"SELECT {', '.join(aggs)} FROM s {where}GROUP BY card_id OVER {w}"
            for w in windows]
    live, loading = (
        TaskProcessor(d, sqls, str(tmp_path_factory.mktemp(d)),
                      reservoir_kwargs={"chunk_events": chunk, "cache_chunks": 8})
        for d in ("live", "loading"))
    for e in history:
        live.process(e)
    loading.prefill(history)
    assert loading.reservoir.sealed_chunks() >= 10
    loading.warm_up(history[-1]["ts"])
    want, got = _store_records(live), _store_records(loading)
    assert {cf: set(r) for cf, r in got.items()} == {cf: set(r) for cf, r in want.items()}
    for cf, records in want.items():
        for k, rec in records.items():
            assert _close(rec, got[cf][k]), (cf, k, rec, got[cf][k])
    for e in rest:
        a, b = live.process(e), loading.process(e)
        assert a.keys() == b.keys()
        for name in a:
            assert _close(a[name], b[name]), (e["id"], name, a[name], b[name])
