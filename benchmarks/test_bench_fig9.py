"""T2/T3 benchmarks (paper Fig 9, §5.2): window size & window count.

``test_t2_fig9a_table`` and ``test_t3_fig9b_table`` regenerate the
tables (CSV under ``benchmarks/results/`` unless benchmarks are
disabled); the micro-benchmarks time the reservoir primitives (append,
sequential iteration with prefetch, demand load, chunk seal) that make
the window-size independence possible, and the plan layer's per-event
work over many windows.
"""
import itertools
import random

from repro.bench.fig9 import fig9_table, run_fig9a, run_fig9b
from repro.core.reservoir import EventReservoir
from repro.core.task import TaskProcessor

from . import save_table


def test_t2_fig9a_table(benchmark, tmp_path):
    """Regenerate T2: sliding window 5 min → 7 days, flat latency/memory."""
    results = benchmark.pedantic(
        lambda: run_fig9a(str(tmp_path), n_events=12_000), rounds=1, iterations=1
    )
    df = fig9_table(results)
    save_table(benchmark, df, "T2_fig9a.csv")
    benchmark.extra_info["table"] = df.to_dict("records")
    p999 = [r.percentiles["p99.9"] for r in results]
    assert max(p999) < min(p999) * 1.5  # independent of window size
    assert all(r.sustainable for r in results)
    mem = [r.extra["memory_events"] for r in results]
    assert max(mem) < min(mem) * 1.5


def test_t3_fig9b_table(benchmark, tmp_path):
    """Regenerate T3: 20→240 iterators against a 220-chunk cache."""
    results = benchmark.pedantic(
        lambda: run_fig9b(str(tmp_path), n_events=8_000), rounds=1, iterations=1
    )
    df = fig9_table(results)
    save_table(benchmark, df, "T3_fig9b.csv")
    benchmark.extra_info["table"] = df.to_dict("records")
    by_iters = {r.extra["iterators"]: r for r in results}
    # steady-state misses ~0 while iterators fit the cache...
    fitting = [by_iters[i] for i in (20, 80, 140, 210)]
    assert all(r.extra["cache_miss_rate"] < 0.1 for r in fitting)
    # ...and a cliff at 240 (> 220 slots): prefetches evicted before use,
    # demand loads (decompress + worst-case IO) land on the critical path
    assert by_iters[240].extra["cache_miss_rate"] > 0.3
    assert (
        by_iters[240].percentiles["p99"]
        > by_iters[210].percentiles["p99"] * 1.15
    )
    assert (
        by_iters[240].percentiles["p99.9"]
        > by_iters[210].percentiles["p99.9"] * 1.1
    )


def test_micro_reservoir_append(benchmark, tmp_path):
    r = EventReservoir(str(tmp_path), chunk_events=512, cache_chunks=64)
    counter = iter(range(100_000_000))

    def append_100():
        for _ in range(100):
            i = next(counter)
            r.append({"id": i, "ts": i * 2, "amount": 1.0})

    benchmark.pedantic(append_100, rounds=30, iterations=1, warmup_rounds=2)
    r.close()


def test_micro_reservoir_sequential_scan(benchmark, tmp_path):
    r = EventReservoir(str(tmp_path), chunk_events=512, cache_chunks=64)
    for i in range(512 * 40):
        r.append({"id": i, "ts": i * 2, "amount": 1.0})

    def scan():
        it = r.iterator()
        out = []
        it.advance_until(1 << 60, out)
        return len(out)

    assert scan() == 512 * 40
    benchmark.pedantic(scan, rounds=10, iterations=1, warmup_rounds=1)
    r.close()


def test_micro_chunk_demand_load(benchmark, tmp_path):
    """The §5.2(b) cache-miss penalty: read + decompress one chunk."""
    r = EventReservoir(str(tmp_path), chunk_events=256, cache_chunks=4)
    for i in range(256 * 10):
        r.append({"id": i, "ts": i * 2, "amount": 1.0})
    benchmark(lambda: r._load_sealed(3))
    r.close()


def test_micro_chunk_seal(benchmark, tmp_path):
    """The burst a full chunk puts on the per-event path: serialize,
    compress and append one 256-event chunk of 103-field events (5 numeric
    fields and 98 eight-hex-character strings)."""
    rng = random.Random(1)
    events = [
        {"id": i, "ts": i * 2, "card_id": rng.randrange(2_000),
         "merchant_id": rng.randrange(500), "amount": rng.randrange(1, 100_000),
         **{f"p{j:02d}": f"{rng.getrandbits(32):08x}" for j in range(98)}}
        for i in range(256)
    ]
    r = EventReservoir(str(tmp_path), chunk_events=256, cache_chunks=4)

    def stage():  # the chunk to seal is the oldest one in memory
        r._chunks.insert(0, list(events))

    benchmark.pedantic(r._seal, setup=stage, rounds=30, iterations=1, warmup_rounds=2)
    assert r._load_sealed(0) == events
    r.close()


def test_micro_plan_advance(benchmark, tmp_path):
    """The plan layer per event: ``process()`` on a warmed task with six
    misaligned windows x all nine aggregations by card, where each event
    arrives in every window and about one expires from each."""
    aggs = ("sum(amount), avg(amount), count(amount), stdDev(amount), max(amount), "
            "min(amount), last(amount), prev(amount), countDistinct(merchant_id)")
    tp = TaskProcessor("micro-plan", [
        f"SELECT {aggs} FROM payments GROUP BY card_id "
        f"OVER sliding {5 + 2 * i} seconds delayed by {i} seconds" for i in range(6)
    ], str(tmp_path), reservoir_kwargs={"chunk_events": 256, "cache_chunks": 64})
    rng = random.Random(3)
    ids = itertools.count()

    def batch():  # the next 100 events, at 100 ev/s over 50 cards
        return ([{"id": i, "ts": i * 10, "card_id": rng.randrange(50),
                  "merchant_id": rng.randrange(20), "amount": float(rng.randrange(1, 10_000))}
                 for i in itertools.islice(ids, 100)],), {}

    def process_all(events):
        return [tp.process(e) for e in events]

    for _ in range(25):  # 25 s of events: every window is full
        process_all(*batch()[0])
    answers = benchmark.pedantic(process_all, setup=batch, rounds=30, iterations=1,
                                 warmup_rounds=2)
    assert len(answers) == 100 and all(len(a) == 6 * 9 for a in answers)
    assert tp.stats()["iterators"] == 6 + 6  # one head per delay, one tail per window
    tp.close()
