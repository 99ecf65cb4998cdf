"""Seeded input generation for the three workloads, numpy only.

Inputs are kept as compact numpy columns; event dicts are materialised
from them outside every timed region. Nothing here imports the system
under test, ``repro.synth_data``, pyspark or duckdb.

Timestamps are strictly increasing integer milliseconds of a Poisson
process, so every event arrives in order and no two share a timestamp.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

T0_MS = 1_600_000_000_000
PAD_FIELDS = tuple(f"p{j:02d}" for j in range(98))


def poisson_ts(rng: np.random.Generator, n: int, rate_hz: float, start_ms: int) -> np.ndarray:
    gaps = np.maximum(1, np.rint(rng.exponential(1000.0 / rate_hz, n))).astype(np.int64)
    return start_ms + np.cumsum(gaps)


def zipf_choice(rng: np.random.Generator, n: int, k: int, s: float) -> np.ndarray:
    p = 1.0 / np.arange(1, k + 1) ** s
    return rng.choice(k, n, p=p / p.sum()).astype(np.int64)


def amounts(rng: np.random.Generator, n: int) -> np.ndarray:
    """Integer cents, log-normal: sums stay exact in the engine's floats."""
    return np.maximum(1, np.rint(rng.lognormal(8.0, 1.2, n))).astype(np.int64)


_PAD_MUL = np.arange(len(PAD_FIELDS), dtype=np.uint64) * np.uint64(40503)
_HEX4 = [f"{i:04x}" for i in range(1 << 16)]


def pad(eid: int, j: int) -> str:
    """Pad field ``j`` of event ``eid``: derived, so it is never stored."""
    return f"{(eid * 2654435761 + j * 40503) & 0xFFFFFFFF:08x}"


def pads(lo: int, hi: int) -> list[list[str]]:
    """``pad(i, j)`` for every event ``i`` in ``lo..hi-1`` and every field
    ``j``, computed a batch at a time (formatting each alone dominated the
    time to materialise wide events)."""
    ids = np.arange(lo, hi, dtype=np.uint64)[:, None]
    v = (ids * np.uint64(2654435761) + _PAD_MUL) & np.uint64(0xFFFFFFFF)
    h = _HEX4
    return [[h[a] + h[b] for a, b in zip(row_hi, row_lo)]
            for row_hi, row_lo in zip((v >> np.uint64(16)).tolist(),
                                      (v & np.uint64(0xFFFF)).tolist())]


@dataclass
class Stream:
    """Column store of one workload's events, in arrival order."""

    ts: np.ndarray
    card: np.ndarray
    merchant: np.ndarray
    amount: np.ndarray

    def __len__(self) -> int:
        return len(self.ts)

    def events(self, lo: int, hi: int, *, wide: bool = False) -> list[dict]:
        """Materialise events ``lo..hi-1`` (ids are positions in the stream)."""
        ts = self.ts[lo:hi].tolist()
        card = self.card[lo:hi].tolist()
        merch = self.merchant[lo:hi].tolist()
        amt = self.amount[lo:hi].tolist()
        out = []
        wide_pads = pads(lo, hi) if wide else None
        for k, i in enumerate(range(lo, hi)):
            e = {"id": i, "ts": ts[k], "card_id": card[k],
                 "merchant_id": merch[k], "amount": amt[k]}
            if wide_pads:
                e.update(zip(PAD_FIELDS, wide_pads[k]))
            out.append(e)
        return out


def concat(a: Stream, b: Stream) -> Stream:
    return Stream(*(np.concatenate((x, y)) for x, y in
                    zip((a.ts, a.card, a.merchant, a.amount),
                        (b.ts, b.card, b.merchant, b.amount))))


def wide_plan_stream(seed: int, n: int) -> Stream:
    """100 ev/s; 500 Zipf(1.15) cards; 100 merchants."""
    rng = np.random.default_rng([seed, 1])
    return Stream(poisson_ts(rng, n, 100.0, T0_MS), zipf_choice(rng, n, 500, 1.15),
                  rng.integers(0, 100, n), amounts(rng, n))


def wide_records_streams(seed: int, n_measured: int, window_ms: int,
                         chunk_events: int) -> tuple[Stream, Stream]:
    """500 ev/s; 2000 uniform cards. The history sits one window before
    the measured events, so the tail iterator walks it while they run.

    History event ``j`` is measured event ``j``'s timestamp minus the
    window and 1 ms, so the tail moves into the next history chunk on
    every ``chunk_events``-th measured event; the history's length leaves
    half a chunk open, so chunk seals fall half a chunk from those moves
    for every seed. With independent timestamps the two drift into each
    other a seed-dependent number of times and p99 latency moves with it.
    """
    rng = np.random.default_rng([seed, 2])
    meas = Stream(poisson_ts(rng, n_measured, 500.0, T0_MS + window_ms),
                  rng.integers(0, 2000, n_measured), rng.integers(0, 1000, n_measured),
                  amounts(rng, n_measured))
    n_hist = n_measured + (chunk_events // 2 - n_measured) % chunk_events
    extra = poisson_ts(rng, n_hist - n_measured, 500.0, 0)
    hist_ts = meas.ts - window_ms - 1
    hist = Stream(np.concatenate((hist_ts, hist_ts[-1] + extra)), rng.integers(0, 2000, n_hist),
                  rng.integers(0, 1000, n_hist), amounts(rng, n_hist))
    if hist.ts[-1] >= meas.ts[0]:
        raise ValueError("history overlaps the measured events; shorten it")
    return hist, meas


def cluster_stream(seed: int, n: int) -> Stream:
    """500 ev/s; 2000 cards and 500 merchants, both uniform, so task sizes
    (and what a failover copies) do not hinge on where a seed puts its
    hottest merchant."""
    rng = np.random.default_rng([seed, 3])
    return Stream(poisson_ts(rng, n, 500.0, T0_MS), rng.integers(0, 2000, n),
                  rng.integers(0, 500, n), amounts(rng, n))
