"""Property-based tests (hypothesis) for the reservoir and the engine."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregators import AGGREGATORS
from repro.core.reservoir import EventReservoir
from repro.core.task import TaskProcessor

from .test_plan_task import _reference


@st.composite
def event_stream(draw, max_n=120):
    """An in-order stream with occasional duplicate timestamps avoided."""
    n = draw(st.integers(1, max_n))
    gaps = draw(
        st.lists(st.integers(1, 5_000), min_size=n, max_size=n)
    )
    ts = np.cumsum(gaps)
    keys = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    return [
        {"id": i, "ts": int(ts[i]), "card_id": keys[i], "amount": float(i % 7)}
        for i in range(n)
    ]


@settings(max_examples=40, deadline=None)
@given(events=event_stream(), chunk=st.integers(2, 32))
def test_reservoir_roundtrip_any_stream(tmp_path_factory, events, chunk):
    r = EventReservoir(
        str(tmp_path_factory.mktemp("res")), chunk_events=chunk, cache_chunks=8
    )
    for i, e in enumerate(events):
        e = dict(e, seq=i)
        assert r.append(e)[0] == "ok"
    out = []
    r.iterator().advance_until(1 << 60, out)
    assert [e["id"] for e in out] == [e["id"] for e in events]
    assert r.total_events == len(events)


@settings(max_examples=40, deadline=None)
@given(events=event_stream(), chunk=st.integers(2, 32), bound_idx=st.integers(0, 119))
def test_reservoir_iterator_bound_is_exact(tmp_path_factory, events, chunk, bound_idx):
    r = EventReservoir(
        str(tmp_path_factory.mktemp("res")), chunk_events=chunk, cache_chunks=8
    )
    for i, e in enumerate(events):
        r.append(dict(e, seq=i))
    bound = events[min(bound_idx, len(events) - 1)]["ts"]
    out = []
    r.iterator().advance_until(bound, out)
    assert [e["id"] for e in out] == [e["id"] for e in events if e["ts"] <= bound]


def _held_events(r):
    """Distinct event objects in the reservoir's in-memory holders."""
    holders = [r._open, *(e for _, e, _ in r._transition), *r.cache._d.values(),
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
        r.append(dict(e, seq=i))
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
@given(
    events=event_stream(max_n=80),
    checkpoint_at=st.integers(5, 60),
)
def test_checkpoint_recovery_transparent(tmp_path_factory, events, checkpoint_at):
    """Recovery at any point yields a processor that answers identically."""
    select = ("count(amount), max(amount), min(amount), stdDev(amount), "
              "countDistinct(amount)")
    sqls = [
        f"SELECT {select} FROM s GROUP BY card_id OVER sliding 20 seconds",
        f"SELECT {select} FROM s GROUP BY card_id "
        "OVER sliding 10 seconds delayed by 5 seconds",
    ]
    kw = {"chunk_events": 8, "cache_chunks": 8}
    tp = TaskProcessor(
        "a", sqls, str(tmp_path_factory.mktemp("a")), reservoir_kwargs=kw
    )
    cut = min(checkpoint_at, len(events) - 1)
    for e in events[:cut]:
        tp.process(e)
    ckpt = tp.checkpoint()
    tp2 = TaskProcessor.recover(
        ckpt, sqls, str(tmp_path_factory.mktemp("b")), reservoir_kwargs=kw
    )
    for e in events[cut:]:
        assert tp.process(e) == tp2.process(e)


@st.composite
def window_text(draw):
    kind = draw(st.sampled_from(("sliding", "tumbling", "infinite")))
    text = kind if kind == "infinite" else f"{kind} {draw(st.integers(1, 40)) * 500} ms"
    delay = draw(st.sampled_from((0, 0, 1500, 7000)))
    return text + (f" delayed by {delay} ms" if delay else "")


@settings(max_examples=40, deadline=None)
@given(
    events=event_stream(max_n=80),
    windows=st.lists(window_text(), min_size=1, max_size=4),
    aggs=st.lists(st.sampled_from(sorted(AGGREGATORS)), min_size=1, max_size=9,
                  unique=True),
    group_by=st.sampled_from((("card_id",), ("card_id", "merchant"))),
)
def test_random_in_order_plans_match_brute_force(
    tmp_path_factory, events, windows, aggs, group_by
):
    """Every per-event answer of a random in-order plan equals the
    aggregation of the events inside ``spec.bounds(t)`` for its entity."""
    for e in events:
        e["merchant"] = e["id"] % 3
    select = ", ".join(f"{a}(amount)" for a in aggs)
    tp = TaskProcessor(
        "plans",
        [f"SELECT {select} FROM s GROUP BY {', '.join(group_by)} OVER {w}"
         for w in windows],
        str(tmp_path_factory.mktemp("tp")),
        reservoir_kwargs={"chunk_events": 8, "cache_chunks": 8},
    )
    for i, e in enumerate(events):
        ans = tp.process(e)
        for leaf in tp.plan.leaves:
            m = leaf.metric
            lo, hi = m.window.bounds(e["ts"])
            vals = [x["amount"] for x in events[: i + 1]
                    if lo < x["ts"] <= hi and all(x[g] == e[g] for g in group_by)]
            expect = _reference(m.agg, vals)
            if expect is None:
                assert ans[m.name] is None, (i, m.name)
            else:
                assert ans[m.name] == pytest.approx(expect, rel=1e-9, abs=1e-6), (i, m.name)
