"""Unit tests for the incremental aggregators (paper §3.4 / §4.1.3)."""
import math
import random

import numpy as np
import pytest

from repro.core.aggregators import AGGREGATORS, aggregator


def _reference(agg: str, values: list[float]) -> float | None:
    if agg == "count":
        return float(len(values))
    if agg == "countDistinct":
        return float(len(set(values)))
    if not values:
        return None
    if agg == "sum":
        return float(sum(values))
    if agg == "avg":
        return float(np.mean(values))
    if agg == "min":
        return float(min(values))
    if agg == "max":
        return float(max(values))
    if agg == "stdDev":
        return float(np.std(values, ddof=1)) if len(values) >= 2 else None
    if agg == "last":
        return values[-1]
    if agg == "prev":
        return values[-2] if len(values) >= 2 else None
    if agg == "countDistinct":
        return float(len(set(values)))
    raise AssertionError(agg)


def _run_window(agg: str, values: list[float], window: int) -> None:
    """Slide a count-based window over `values`; check every evaluation."""
    g = aggregator(agg)
    st = g.new()
    for i, v in enumerate(values):
        g.add(st, i, v)
        if i >= window:
            g.evict(st, i - window, values[i - window])
        expect = _reference(agg, values[max(0, i - window + 1): i + 1])
        got = g.value(st)
        if expect is None:
            assert got is None, f"{agg}@{i}: {got} != None"
        else:
            assert got == pytest.approx(float(expect), rel=1e-9, abs=1e-9), f"{agg}@{i}"


@pytest.mark.parametrize("agg", sorted(AGGREGATORS))
@pytest.mark.parametrize("window", [1, 2, 5, 17])
def test_sliding_correctness_random(agg, window):
    rng = random.Random(window * 1000 + len(agg))
    values = [round(rng.uniform(-50, 50), 2) for _ in range(200)]
    _run_window(agg, values, window)


@pytest.mark.parametrize("agg", sorted(AGGREGATORS))
def test_sliding_correctness_duplicates(agg):
    """Repeated values exercise min/max deque ties and distinct counts."""
    rng = random.Random(42)
    values = [float(rng.choice([1, 1, 2, 3, 3, 3, 7])) for _ in range(300)]
    _run_window(agg, values, 9)


@pytest.mark.parametrize("agg", sorted(AGGREGATORS))
def test_empty_window_values(agg):
    g = aggregator(agg)
    if agg in ("count", "countDistinct"):
        assert g.value(g.new()) == 0
    else:
        assert g.value(g.new()) is None


@pytest.mark.parametrize("agg", sorted(AGGREGATORS))
def test_add_then_full_evict_returns_to_empty(agg):
    g = aggregator(agg)
    st = g.new()
    vals = [3.0, -1.0, 3.0, 8.5]
    for i, v in enumerate(vals):
        g.add(st, i, v)
    for i, v in enumerate(vals):
        g.evict(st, i, v)
    assert st == g.new()  # an emptied window is detectable by comparison
    if agg in ("count", "countDistinct"):
        assert g.value(st) == 0
    else:
        assert g.value(st) is None


def test_stddev_welford_matches_numpy_long_run():
    g = aggregator("stdDev")
    st = g.new()
    rng = random.Random(7)
    values = [rng.gauss(1000.0, 5.0) for _ in range(2000)]
    w = 64
    for i, v in enumerate(values):
        g.add(st, i, v)
        if i >= w:
            g.evict(st, i - w, values[i - w])
    expect = np.std(values[-w:], ddof=1)
    assert g.value(st) == pytest.approx(expect, rel=1e-6)


def test_stddev_single_element_none_after_evictions():
    g = aggregator("stdDev")
    st = g.new()
    g.add(st, 0, 5.0)
    g.add(st, 1, 9.0)
    g.evict(st, 0, 5.0)
    assert g.value(st) is None  # n = 1


def test_min_max_monotonic_deque_eviction_order():
    g = aggregator("max")
    mx = g.new()
    g.add(mx, 0, 10.0)
    g.add(mx, 1, 3.0)
    g.add(mx, 2, 7.0)
    assert g.value(mx) == 10.0
    g.evict(mx, 0, 10.0)
    assert g.value(mx) == 7.0  # 3.0 was dominated and dropped
    g.evict(mx, 1, 3.0)  # not the queue front; no-op
    assert g.value(mx) == 7.0


def test_count_distinct_multiplicity():
    g = aggregator("countDistinct")
    cd = g.new()
    g.add(cd, 0, "a")
    g.add(cd, 1, "a")
    g.add(cd, 2, "b")
    assert g.value(cd) == 2
    g.evict(cd, 0, "a")
    assert g.value(cd) == 2  # one "a" still present
    g.evict(cd, 1, "a")
    assert g.value(cd) == 1


def test_last_prev_semantics():
    last, prev = aggregator("last"), aggregator("prev")
    ls, ps = last.new(), prev.new()
    for i, v in enumerate([1.0, 2.0, 3.0]):
        last.add(ls, i, v)
        prev.add(ps, i, v)
    assert last.value(ls) == 3.0
    assert prev.value(ps) == 2.0
    last.evict(ls, 0, 1.0)
    prev.evict(ps, 0, 1.0)
    assert last.value(ls) == 3.0
    assert prev.value(ps) == 2.0


def test_unknown_aggregation_rejected():
    with pytest.raises(ValueError, match="unknown aggregation"):
        aggregator("median")


def _builtins_only(x) -> bool:
    if isinstance(x, (list, tuple)):
        return all(_builtins_only(v) for v in x)
    if isinstance(x, dict):
        return all(_builtins_only(k) and _builtins_only(v) for k, v in x.items())
    return type(x) in (int, float, str, bool, type(None))


def test_aggregators_are_picklable():
    """The state store serializes every state on every write: states are
    plain built-ins, so pickle takes no class-instance path."""
    import pickle

    for name, g in AGGREGATORS.items():
        st = g.new()
        g.add(st, 0, 1.0)
        g.add(st, 1, 2.0)
        assert _builtins_only(st), name
        assert g.value(pickle.loads(pickle.dumps(st))) == g.value(st)
