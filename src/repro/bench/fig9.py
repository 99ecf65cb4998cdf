"""T2/T3 (paper Fig 9, §5.2): scaling window size and window count.

(a) Same metric as §5.1 but the sliding window size sweeps 5 min → 7 days,
    once per aggregation: sum, max and last of amount. Methodology per
    the paper: start *after a data checkpoint load* so the tail iterator
    is live from the first event — ``prefill`` stores the tail's
    traversal region, ``warm_up`` replays the window's contents at its
    last ts through the plan, and we then measure steady state.
    Expected: latency and memory independent of the window size (every
    window costs two iterators, period).

(b) Three metrics (sum/avg/count of amount by card) over N deliberately
    *misaligned* windows (distinct sizes and delays ⇒ no iterator
    sharing ⇒ 2N reservoir iterators) with a chunk cache of 220 slots.
    Expected: flat latency while iterators < cache slots; tail degradation
    once prefetches start getting evicted before use (~at capacity).
"""
from __future__ import annotations

import itertools
import os

import pandas as pd

from .. import synth_data
from ..core.task import TaskProcessor
from ..core.windows import DAY, HOUR, MINUTE, SECOND
from .harness import KafkaRTTModel, LatencyResult, io_cost_us, run_engine

RATE_HZ_A = 500.0   # §5.2(a): the paper's rate
# §5.2(b) rate, scaled for the substrate: the paper's JVM sustains
# 120 windows × 3 metrics (360 state updates/event) at 500 ev/s; our
# Python state updates are ~8× slower, so the rate is scaled to keep the
# base-work/budget ratio comparable (and off the utilization knife-edge,
# so run-to-run tails are stable). The measured quantity — the latency
# *cliff when iterators exceed the chunk cache* — is rate-independent.
RATE_HZ_B = 100.0
CACHE_CHUNKS = 220  # the paper's §5.2(b) cache size
CHUNK_EVENTS = 256
# worst-case demand load: prefetch defeated AND OS page cache missed →
# full (EBS-like) IO read; deterministic 1-in-3 of demand loads
# (``IO_SEEK_EVERY`` in bench/harness.py)
IO_SEEK_US = 10_000.0

WINDOW_SIZES = {
    "5min": 5 * MINUTE,
    "1h": HOUR,
    "6h": 6 * HOUR,
    "24h": 24 * HOUR,
    "7d": 7 * DAY,
}

T2_AGGS = ("sum", "max", "last")  # T2's aggregations, each of amount by card

# (label → number of misaligned windows); iterators = 2 × windows
WINDOW_COUNTS = {20: 10, 80: 40, 140: 70, 210: 105, 240: 120}


def _run_events(n_events: int, seed: int, rate_hz: float) -> pd.DataFrame:
    return synth_data.payments_pdf(
        n=n_events, rate_hz=rate_hz, n_cards=500, seed=seed
    )


def _tail_history(run_span_ms: int, offsets_ms: list[int], seed: int,
                  rate_hz: float) -> pd.DataFrame:
    """History covering every tail's traversal region during the run.

    A window with total offset ``o`` (size + delay) expires, during a run
    over [0, span], exactly the events in [-o, span - o] — so only those
    regions need prefilled events (the reservoir never touches the middle
    of a window: that is the §4.1.1 claim being measured). Regions are
    merged where they overlap.
    """
    spans = sorted((-o - 10 * SECOND, run_span_ms - o + SECOND) for o in offsets_ms)
    merged: list[list[int]] = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    frames = []
    for i, (lo, hi) in enumerate(merged):
        n = max(1, int(rate_hz * (hi - lo) / 1000))
        pdf = synth_data.payments_pdf(
            n=n, rate_hz=rate_hz, n_cards=500, seed=seed + 100 + i, start_ms=lo
        )
        pdf = pdf[pdf["ts"] < hi]
        frames.append(pdf)
    hist = pd.concat(frames, ignore_index=True).sort_values("ts")
    hist = hist[hist["ts"] < 0]
    hist["id"] = -1 - pd.RangeIndex(len(hist))  # unique negative ids
    return hist.reset_index(drop=True)


WARM_EVENTS = 1_200  # the paper discards a 5-min warm-up of each 35-min
# run; here a warm-up pass establishes the iterators' prefetch chains (the
# first chunk transition of every iterator after a checkpoint load is a
# cold demand miss) before the measured, virtual-time portion starts


def _run_case(
    data_dir: str, statements: list[str], offsets_ms: list[int],
    events: list[dict], *, name: str, rate_hz: float, seed: int,
    rtt: KafkaRTTModel, extra: dict,
) -> tuple[LatencyResult, dict]:
    """One T2/T3 row: load the tails' history into a fresh task, warm it
    up, then measure the rest of the run. Returns the result and the
    task's ``stats()`` after the run."""
    tp = TaskProcessor(
        "bench-task", statements, data_dir,
        reservoir_kwargs={"chunk_events": CHUNK_EVENTS, "cache_chunks": CACHE_CHUNKS},
    )
    try:
        hist = _tail_history(events[-1]["ts"], offsets_ms, seed, rate_hz)
        tp.prefill(hist.to_dict("records"))
        tp.warm_up(int(hist["ts"].iloc[-1]))
        for e in events[:WARM_EVENTS]:
            tp.process(e)
        tp.reservoir.reset_stats()
        res = run_engine(
            tp, name, events[WARM_EVENTS:], rate_hz=rate_hz, rtt=rtt, seed=seed,
            extra=extra, calibrated_us=io_cost_us(tp.reservoir, IO_SEEK_US),
        )
        return res, tp.stats()
    finally:
        tp.close()


def run_fig9a(
    data_dir: str,
    *,
    n_events: int = 20_000,
    seed: int = 9,
    rtt: KafkaRTTModel | None = None,
    sizes: dict[str, int] | None = None,
) -> list[LatencyResult]:
    """T2: one result per (aggregation, window size); memory/iterator
    stats attached."""
    rtt = rtt or KafkaRTTModel()
    sizes = sizes or WINDOW_SIZES
    events = _run_events(n_events, seed, RATE_HZ_A).to_dict("records")
    results = []
    for agg, (label, w) in itertools.product(T2_AGGS, sizes.items()):
        res, st = _run_case(
            os.path.join(data_dir, f"fig9a-{agg}-{label}"),
            [f"SELECT {agg}(amount) FROM payments GROUP BY card_id "
             f"OVER sliding {w} ms"],
            [w], events, name=f"railgun ({agg}, sliding {label})",
            rate_hz=RATE_HZ_A, seed=seed, rtt=rtt,
            extra={"agg": agg, "window": label},
        )
        res.extra.update(
            memory_events=st["memory_events"],
            iterators=st["iterators"],
            demand_loads=st["demand_loads"],
        )
        results.append(res)
    return results


def _fig9b_statements(n_windows: int) -> tuple[list[str], list[int]]:
    """N misaligned windows × 3 metrics; returns (statements, offsets)."""
    statements, offsets = [], []
    # spacing: a chunk spans 256 events / 100 ev/s = 2.56 s, so steps of
    # 16 s (size) and 8 s (delay) keep every iterator ≥ 3 chunks from its
    # neighbours — 2N genuinely distinct chunk streams, as in the paper
    for i in range(n_windows):
        size = 150 * SECOND + i * 16 * SECOND
        delay = i * 8 * SECOND
        statements.append(
            "SELECT sum(amount), avg(amount), count(amount) FROM payments "
            f"GROUP BY card_id OVER sliding {size} ms delayed by {delay} ms"
        )
        offsets.append(size + delay)
    return statements, offsets


def run_fig9b(
    data_dir: str,
    *,
    n_events: int = 10_000,
    seed: int = 10,
    rtt: KafkaRTTModel | None = None,
    counts: dict[int, int] | None = None,
) -> list[LatencyResult]:
    """T3: one result per iterator count (windows misaligned on purpose)."""
    rtt = rtt or KafkaRTTModel()
    counts = counts or WINDOW_COUNTS
    events = _run_events(n_events, seed, RATE_HZ_B).to_dict("records")
    results = []
    for n_iters, n_windows in counts.items():
        statements, offsets = _fig9b_statements(n_windows)
        res, st = _run_case(
            os.path.join(data_dir, f"fig9b-{n_iters}"), statements, offsets,
            events, name=f"railgun ({n_windows} windows, {n_iters} iterators)",
            rate_hz=RATE_HZ_B, seed=seed, rtt=rtt,
            extra={"windows": n_windows, "iterators": n_iters},
        )
        assert st["iterators"] == n_iters, (st["iterators"], n_iters)
        hits = st["cache_hits"]
        misses = st["demand_loads"]
        res.extra.update(
            cache_miss_rate=round(misses / max(1, hits + misses), 3),
            memory_events=st["memory_events"],
        )
        results.append(res)
    return results


def fig9_table(results: list[LatencyResult]) -> pd.DataFrame:
    return pd.DataFrame([r.row() for r in results])
