"""Railgun aggregation operators (paper §3.4 grammar, §4.1.3 state layout).

Each aggregation is one stateless implementation over a plain state of
built-ins only, so the state store serializes a few scalars per entity,
as the paper's RocksDB store does: ``new()`` is an empty window's state,
``add(state, ts, value)`` / ``evict(state, ts, value)`` update it in
place as an event enters / leaves the window, and ``value(state)`` is the
aggregate. A state whose window emptied equals ``new()`` again. ``ts``
is the event's timestamp (its rank in ts order for the Spark references),
the key of the min/max monotonic queues (paper cites Knuth's deque [30])
and of the last/prev queues. A late key is inserted in order. Equal keys
need no tie-break: a window's tail evicts all events of one ts at once.

States: sum and avg ``[s, n]``; count ``[n]``; stdDev ``[n, mean, m2]``
(Welford's online algorithm, paper ref [50], evicted by the reverse
step); max and min a list of ``(ts, value)`` pairs; last and prev the
newest two, as a late event behind the tail is evicted in the batch that
adds it; countDistinct ``[n, counts]``, ``counts`` a value→multiplicity
mapping (the task plan passes in its dedicated column family, as in the paper).
"""
from __future__ import annotations

import bisect
import math
import operator
from typing import Any

_key = operator.itemgetter(0)


class Count:
    """count(field) — number of events in the window."""

    name = "count"

    @staticmethod
    def new() -> list:
        return [0]

    @staticmethod
    def add(st: list, ts: int, value: Any) -> None:
        st[0] += 1

    @staticmethod
    def evict(st: list, ts: int, value: Any) -> None:
        st[0] -= 1

    @staticmethod
    def value(st: list) -> int:
        return st[0]


class Sum:
    """sum(field) — the paper's Q1 scalar, plus the count that tells an
    empty window (no answer) from a zero sum."""

    name = "sum"

    @staticmethod
    def new() -> list:
        return [0.0, 0]

    @staticmethod
    def add(st: list, ts: int, value: Any) -> None:
        st[0] += value
        st[1] += 1

    @staticmethod
    def evict(st: list, ts: int, value: Any) -> None:
        st[1] -= 1
        st[0] = st[0] - value if st[1] else 0.0  # no drift once empty

    @staticmethod
    def value(st: list) -> float | None:
        return st[0] if st[1] else None


class Avg(Sum):
    """avg(field) — sum plus the auxiliary counter (§4.1.3)."""

    name = "avg"

    @staticmethod
    def value(st: list) -> float | None:
        return st[0] / st[1] if st[1] else None


class StdDev:
    """Sample standard deviation: the paper's "three parameters"
    ``[n, mean, m2]``, evicted with the inverse Welford step."""

    name = "stdDev"

    @staticmethod
    def new() -> list:
        return [0, 0.0, 0.0]

    @staticmethod
    def add(st: list, ts: int, value: Any) -> None:
        n, mean, m2 = st
        n += 1
        d = value - mean
        mean += d / n
        st[:] = n, mean, m2 + d * (value - mean)

    @staticmethod
    def evict(st: list, ts: int, value: Any) -> None:
        n, mean, m2 = st
        if n == 1:
            st[:] = 0, 0.0, 0.0
            return
        old_mean = (n * mean - value) / (n - 1)
        m2 -= (value - mean) * (value - old_mean)
        st[:] = n - 1, old_mean, max(m2, 0.0)  # guard FP drift

    @staticmethod
    def value(st: list) -> float | None:
        n = st[0]
        return math.sqrt(st[2] / (n - 1)) if n >= 2 else None


class _Queue:
    """A list of ``(ts, value)`` pairs in ts order, oldest first; ``evict``
    pops the front when the expiring event has its key."""

    @staticmethod
    def new() -> list:
        return []

    @staticmethod
    def evict(st: list, ts: int, value: Any) -> None:
        if st and st[0][0] == ts:
            del st[0]


class Max(_Queue):
    """Sliding-window extreme via a monotonic queue: the front is always
    the current extreme. A new key removes the older entries it dominates;
    a late one is dropped if a newer entry is at least as extreme."""

    name = "max"
    _keep = operator.gt  # keep(a, b): an entry of value a survives a newer b

    @classmethod
    def add(cls, st: list, ts: int, value: Any) -> None:
        keep = cls._keep
        i = p = len(st)
        if p and st[-1][0] > ts:  # late: goes after every key <= ts
            i = p = bisect.bisect_right(st, ts, key=_key)
            if not keep(value, st[p][1]):
                return
        while i and not keep(st[i - 1][1], value):
            i -= 1
        st[i:p] = [(ts, value)]

    @staticmethod
    def value(st: list) -> Any:
        return st[0][1] if st else None


class Min(Max):
    name = "min"
    _keep = operator.lt


class Last(_Queue):
    """last(field) — most recent value still in the window."""

    name = "last"

    @staticmethod
    def add(st: list, ts: int, value: Any) -> None:
        if st and st[-1][0] > ts:
            st.insert(bisect.bisect_right(st, ts, key=_key), (ts, value))
        else:
            st.append((ts, value))
        del st[:-2]

    @staticmethod
    def value(st: list) -> Any:
        return st[-1][1] if st else None


class Prev(Last):
    """prev(field) — second most recent value in the window."""

    name = "prev"

    @staticmethod
    def value(st: list) -> Any:
        return st[-2][1] if len(st) >= 2 else None


class CountDistinct:
    """countDistinct(field) — ``[n, counts]``: n distinct values and their
    value→multiplicity mapping (any object with ``get``, item assignment
    and ``pop``)."""

    name = "countDistinct"

    @staticmethod
    def new() -> list:
        return [0, {}]

    @staticmethod
    def add(st: list, ts: int, value: Any) -> None:
        counts = st[1]
        m = counts.get(value, 0)
        counts[value] = m + 1
        if not m:
            st[0] += 1

    @staticmethod
    def evict(st: list, ts: int, value: Any) -> None:
        counts = st[1]
        m = counts.get(value, 0) - 1
        if m > 0:
            counts[value] = m
        else:
            counts.pop(value, None)
            st[0] -= 1

    @staticmethod
    def value(st: list) -> int:
        return st[0]


AGGREGATORS: dict[str, type] = {
    a.name: a
    for a in (Count, Sum, Avg, StdDev, Max, Min, Last, Prev, CountDistinct)
}

# The state of a window of n values summing to s with squared deviation m2,
# for the aggregations a vectorized warm start can build from those moments.
FROM_MOMENTS = {
    "count": lambda n, s, m2: [n],
    "sum": lambda n, s, m2: [s, n],
    "avg": lambda n, s, m2: [s, n],
    "stdDev": lambda n, s, m2: [n, s / n, m2],
}


def aggregator(name: str) -> type:
    """The implementation of an aggregation, by its grammar name (Fig 4)."""
    try:
        return AGGREGATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown aggregation {name!r}; supported: {sorted(AGGREGATORS)}"
        ) from None
