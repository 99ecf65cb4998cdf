"""Brute-force reference answers, computed outside every timed region.

For one group-by key and one window, every answer is a range query over
the key's events in arrival order: the events with index in
``[lo, hi)`` (window bounds found by binary search on the strictly
increasing timestamps) restricted to the key. Sorting the events by
(key, index) makes each such set one contiguous slice, so

- count, sum and sum of squares come from prefix sums (exact int64),
- max comes from a sparse table,
- countDistinct counts the slice positions whose previous occurrence of
  the same value (same key) lies before the slice.

Amounts are integer cents, so sum, avg, count, max and countDistinct must
match the engine exactly. stdDev is computed exactly from integer moments
and compared within ``STD_ABS_TOL + STD_REL_TOL * |expected|``: the
engine's Welford add/evict updates drift by rounding, and when a window
shrinks to identical values the true value is 0 while the engine keeps a
residue of order sqrt(rounding error of M2).
"""
from __future__ import annotations

import math
from typing import Any

import numpy as np

STD_REL_TOL = 1e-9
STD_ABS_TOL = 0.05  # cents


class KeyedRanges:
    """Range-query index over one grouping of a stream's events."""

    def __init__(self, key: np.ndarray, amount: np.ndarray, distinct: np.ndarray | None = None):
        n = len(key)
        self.n = n
        pos = np.arange(n, dtype=np.int64)
        order = np.lexsort((pos, key))
        self.skey = key[order].astype(np.int64) * n + order
        amt = amount[order].astype(np.int64)
        self.sum = np.concatenate(([0], np.cumsum(amt)))
        self.sumsq = np.concatenate(([0], np.cumsum(amt * amt)))
        levels = [amt]
        while (1 << len(levels)) <= n:
            prev, h = levels[-1], 1 << (len(levels) - 1)
            levels.append(np.maximum(prev[:-h], prev[h:]))
        self.sparse = levels
        self.prev = None
        if distinct is not None:
            # previous sorted position with the same (key, value), else -1
            sk, sv = key[order], distinct[order]
            o2 = np.lexsort((np.arange(n), sv, sk))
            same = np.zeros(n, dtype=bool)
            same[1:] = (sk[o2][1:] == sk[o2][:-1]) & (sv[o2][1:] == sv[o2][:-1])
            prev = np.full(n, -1, dtype=np.int64)
            prev[o2[1:][same[1:]]] = o2[:-1][same[1:]]
            self.prev = prev

    def slices(self, qkey: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        base = qkey.astype(np.int64) * self.n
        return (np.searchsorted(self.skey, base + lo), np.searchsorted(self.skey, base + hi))

    def range_max(self, a: np.ndarray, b: np.ndarray) -> list[Any]:
        out: list[Any] = [None] * len(a)
        length = b - a
        nz = np.nonzero(length > 0)[0]
        if len(nz):
            k = np.floor(np.log2(length[nz])).astype(np.int64)
            vals = np.empty(len(nz), dtype=np.int64)
            for lvl in np.unique(k):
                m = k == lvl
                tab = self.sparse[lvl]
                aa, bb = a[nz][m], b[nz][m] - (1 << int(lvl))
                vals[m] = np.maximum(tab[aa], tab[bb])
            for i, v in zip(nz.tolist(), vals.tolist()):
                out[i] = v
        return out

    def distinct(self, a: np.ndarray, b: np.ndarray) -> list[int]:
        prev = self.prev
        return [int(np.count_nonzero(prev[x:y] < x)) for x, y in zip(a.tolist(), b.tolist())]


def window_bounds(ts: np.ndarray, q: np.ndarray, size_ms: int, delay_ms: int) -> tuple[np.ndarray, np.ndarray]:
    """Index range of the events inside (t - d - w, t - d] for each query."""
    hi_ts = ts[q] - delay_ms
    return (np.searchsorted(ts, hi_ts - size_ms, side="right"),
            np.searchsorted(ts, hi_ts, side="right"))


def expected(ranges: KeyedRanges, qkey: np.ndarray, lo: np.ndarray, hi: np.ndarray,
             aggs: list[str]) -> dict[str, list[Any]]:
    """Per query, the expected value of each aggregation in ``aggs``."""
    a, b = ranges.slices(qkey, lo, hi)
    n = (b - a).tolist()
    s = (ranges.sum[b] - ranges.sum[a]).tolist()
    out: dict[str, list[Any]] = {}
    for agg in aggs:
        if agg == "count":
            out[agg] = n
        elif agg == "sum":
            out[agg] = [float(x) if c else None for x, c in zip(s, n)]
        elif agg == "avg":
            out[agg] = [float(x) / c if c else None for x, c in zip(s, n)]
        elif agg == "stdDev":
            s2 = (ranges.sumsq[b] - ranges.sumsq[a]).tolist()
            out[agg] = [math.sqrt((c * q2 - x * x) / (c * (c - 1))) if c > 1 else None
                        for x, q2, c in zip(s, s2, n)]
        elif agg == "max":
            out[agg] = ranges.range_max(a, b)
        elif agg == "countDistinct":
            out[agg] = ranges.distinct(a, b)
        else:
            raise ValueError(f"no reference for {agg!r}")
    return out


def same(agg: str, got: Any, want: Any) -> bool:
    if want is None or got is None:
        return got is None and want is None
    if agg == "stdDev":
        return abs(got - want) <= STD_ABS_TOL + STD_REL_TOL * abs(want)
    return got == want


class Checker:
    """Expected answers of a list of measured events, metric by metric.

    ``metrics`` lists ``(answer name, aggregation, KeyedRanges, key column,
    size_ms, delay_ms)``; ``positions`` are the events' indices in the
    stream the ranges were built from.
    """

    def __init__(self, ts: np.ndarray, positions: np.ndarray, metrics: list[tuple]):
        self.positions = np.asarray(positions, dtype=np.int64)
        self.want: dict[str, tuple[str, list[Any]]] = {}
        by_window: dict[tuple, list[tuple[str, str]]] = {}
        spec: dict[tuple, tuple[KeyedRanges, np.ndarray]] = {}
        for name, agg, ranges, key, size_ms, delay_ms in metrics:
            w = (id(ranges), size_ms, delay_ms)
            by_window.setdefault(w, []).append((name, agg))
            spec[w] = (ranges, key)
        for w, names in by_window.items():
            ranges, key = spec[w]
            _, size_ms, delay_ms = w
            lo, hi = window_bounds(ts, self.positions, size_ms, delay_ms)
            vals = expected(ranges, key[self.positions], lo, hi, [agg for _, agg in names])
            for name, agg in names:
                self.want[name] = (agg, vals[agg])

    def mismatches(self, answers: list[dict | None]) -> list[int]:
        """Indices of answers that are missing or differ from the reference."""
        bad = []
        for i, ans in enumerate(answers):
            if ans is None or len(ans) != len(self.want):
                bad.append(i)
                continue
            for name, (agg, vals) in self.want.items():
                if name not in ans or not same(agg, ans[name], vals[i]):
                    bad.append(i)
                    break
        return bad
