"""T2/T3 benchmarks (paper Fig 9, §5.2): window size & window count.

``test_t2_fig9a_table`` and ``test_t3_fig9b_table`` regenerate the
tables (CSV under ``benchmarks/results/`` unless benchmarks are
disabled); the micro-benchmarks time the reservoir primitives (append,
sequential iteration with prefetch, demand load, chunk seal) that make
the window-size independence possible.
"""
import random
import tempfile

from repro.bench.fig9 import fig9_table, run_fig9a, run_fig9b
from repro.core.reservoir import EventReservoir

from . import save_table


def test_t2_fig9a_table(benchmark):
    """Regenerate T2: sliding window 5 min → 7 days, flat latency/memory."""
    tmp = tempfile.mkdtemp(prefix="bench-fig9a-")
    results = benchmark.pedantic(
        lambda: run_fig9a(tmp, n_events=12_000), rounds=1, iterations=1
    )
    df = fig9_table(results)
    save_table(benchmark, df, "T2_fig9a.csv")
    benchmark.extra_info["table"] = df.to_dict("records")
    p999 = [r.percentiles["p99.9"] for r in results]
    assert max(p999) < min(p999) * 1.5  # independent of window size
    assert all(r.sustainable for r in results)
    mem = [r.extra["memory_events"] for r in results]
    assert max(mem) < min(mem) * 1.5


def test_t3_fig9b_table(benchmark):
    """Regenerate T3: 20→240 iterators against a 220-chunk cache."""
    tmp = tempfile.mkdtemp(prefix="bench-fig9b-")
    results = benchmark.pedantic(
        lambda: run_fig9b(tmp, n_events=8_000), rounds=1, iterations=1
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


def test_micro_reservoir_append(benchmark):
    r = EventReservoir(tempfile.mkdtemp(), chunk_events=512, cache_chunks=64)
    counter = iter(range(100_000_000))

    def append_100():
        for _ in range(100):
            i = next(counter)
            r.append({"id": i, "ts": i * 2, "amount": 1.0})

    benchmark.pedantic(append_100, rounds=30, iterations=1, warmup_rounds=2)


def test_micro_reservoir_sequential_scan(benchmark):
    r = EventReservoir(tempfile.mkdtemp(), chunk_events=512, cache_chunks=64)
    for i in range(512 * 40):
        r.append({"id": i, "ts": i * 2, "amount": 1.0})

    def scan():
        it = r.iterator()
        out = []
        it.advance_until(1 << 60, out)
        return len(out)

    assert scan() == 512 * 40
    benchmark.pedantic(scan, rounds=10, iterations=1, warmup_rounds=1)


def test_micro_chunk_demand_load(benchmark):
    """The §5.2(b) cache-miss penalty: read + decompress one chunk."""
    r = EventReservoir(tempfile.mkdtemp(), chunk_events=256, cache_chunks=4)
    for i in range(256 * 10):
        r.append({"id": i, "ts": i * 2, "amount": 1.0})
    benchmark(lambda: r._load_sealed(3))


def test_micro_chunk_seal(benchmark):
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
    r = EventReservoir(tempfile.mkdtemp(), chunk_events=256, cache_chunks=4)

    def stage():  # the chunk to seal is the oldest one in memory
        r._chunks.insert(0, list(events))

    benchmark.pedantic(r._seal, setup=stage, rounds=30, iterations=1, warmup_rounds=2)
    assert r._load_sealed(0) == events
