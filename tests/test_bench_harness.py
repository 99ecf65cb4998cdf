"""Tests for the virtual-time latency machinery (queueing + harness)."""
from types import SimpleNamespace

import numpy as np
import pytest

from repro.bench.harness import (
    IO_READ_COST_US, KafkaRTTModel, io_cost_us, measure_services, run_engine,
)
from repro.bench.queueing import fifo_departures, percentiles_ms, staged_departures


def _brute_fifo(arrivals, services):
    d = []
    free = 0.0
    for t, s in zip(arrivals, services):
        start = max(free, t)
        free = start + s
        d.append(free)
    return np.array(d)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_lindley_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    n = 500
    arrivals = np.cumsum(rng.exponential(1.0, n))
    services = rng.exponential(0.8, n)
    np.testing.assert_allclose(
        fifo_departures(arrivals, services), _brute_fifo(arrivals, services),
        rtol=1e-12,
    )


def test_lindley_empty_and_validation():
    assert len(fifo_departures(np.array([]), np.array([]))) == 0
    with pytest.raises(ValueError):
        fifo_departures(np.array([1.0, 0.5]), np.array([0.1, 0.1]))
    with pytest.raises(ValueError):
        fifo_departures(np.array([1.0]), np.array([0.1, 0.1]))


def test_lindley_idle_server_latency_equals_service():
    arrivals = np.array([0.0, 10.0, 20.0])
    services = np.array([1.0, 2.0, 3.0])
    d = fifo_departures(arrivals, services)
    np.testing.assert_allclose(d - arrivals, services)


def test_lindley_overload_backlog_grows_linearly():
    """Coordinated-omission correction: an overloaded server's latency
    grows with the backlog, it does not slow the injector down."""
    n = 1000
    arrivals = np.arange(n) * 1.0
    services = np.full(n, 2.0)  # 2x the budget
    lat = fifo_departures(arrivals, services) - arrivals
    assert lat[-1] == pytest.approx(n + 1, rel=0.01)  # ~n*(2-1)


def test_staged_departures_routes_to_independent_queues():
    arrivals = np.array([0.0, 0.0, 1.0, 1.0])
    queues = np.array([0, 1, 0, 1])
    services = np.array([5.0, 1.0, 5.0, 1.0])
    d = staged_departures(arrivals, queues, services, 2)
    np.testing.assert_allclose(d, [5.0, 1.0, 10.0, 2.0])


def test_staged_departures_sorts_merged_streams():
    # queue 0 receives events out of arrival order (merged upstreams)
    arrivals = np.array([3.0, 1.0, 2.0])
    queues = np.array([0, 0, 0])
    services = np.array([1.0, 1.0, 1.0])
    d = staged_departures(arrivals, queues, services, 1)
    np.testing.assert_allclose(d, [4.0, 2.0, 3.0])


def test_percentiles_ms():
    p = percentiles_ms(np.array([0.001] * 99 + [0.1]))
    assert p["p50"] == pytest.approx(1.0)
    assert p["p99.9"] > 50
    assert np.isnan(percentiles_ms(np.array([]))["p50"])


class _FixedEngine:
    """Deterministic engine: constant python work."""

    def process(self, event):
        return {"x": sum(i for i in range(200))}


def _events(n, rate_hz):
    return [{"id": i, "ts": int(i * 1000 / rate_hz)} for i in range(n)]


def test_run_engine_sustainable_fast_engine():
    res = run_engine(_FixedEngine(), "fast", _events(2000, 100.0), rate_hz=100.0)
    assert res.sustainable
    assert res.utilization < 0.1
    assert res.percentiles["p99.9"] < 50


def test_run_engine_synthetic_cost_dominates():
    """Calibrated µs are added to measured service time."""
    slow = run_engine(
        _FixedEngine(), "slow", _events(500, 100.0), rate_hz=100.0,
        calibrated_us=lambda: 50_000,
    )
    assert not slow.sustainable  # 50ms service at 10ms budget
    assert slow.utilization > 1.0
    assert slow.percentiles["p99.9"] > 1000  # backlog blow-up


def test_row_reports_calibrated_ms_in_its_own_column():
    res = run_engine(
        _FixedEngine(), "cal", _events(200, 100.0), rate_hz=100.0,
        max_measured=50, calibrated_us=lambda: 2_000,
    )
    row = res.row()
    assert row["calibrated_ms"] == pytest.approx(2.0)
    assert 2.0 < row["mean_service_ms"] < 3.0  # wall time + calibrated
    plain = run_engine(_FixedEngine(), "wall", _events(200, 100.0), rate_hz=100.0)
    assert plain.row()["calibrated_ms"] == 0.0


def test_io_cost_us_charges_reads_and_every_third_seek():
    r = SimpleNamespace(demand_loads=4)  # loads made before are not charged
    cost = io_cost_us(r, seek_us=1_000.0)
    assert cost() == 0.0
    charged = []
    for _ in range(6):  # loads 5..10: 6 and 9 pay the seek
        r.demand_loads += 1
        charged.append(cost())
    read = IO_READ_COST_US
    assert charged == [read, read + 1_000, read, read, read + 1_000, read]
    r.demand_loads += 3  # three loads in one event: 11, 12 (seek), 13
    assert cost() == 3 * read + 1_000
    assert io_cost_us(r)() == 0.0  # seek_us defaults to 0


def test_run_engine_bootstrap_tail():
    res = run_engine(
        _FixedEngine(), "boot", _events(2000, 100.0), rate_hz=100.0,
        max_measured=100,
    )
    assert res.n_measured == 100
    assert res.n_events == 2000
    assert res.sustainable


def test_rtt_model_adds_noise_floor():
    rtt = KafkaRTTModel(median_ms=8.0)
    base = run_engine(_FixedEngine(), "a", _events(2000, 100.0), rate_hz=100.0)
    noisy = run_engine(
        _FixedEngine(), "b", _events(2000, 100.0), rate_hz=100.0, rtt=rtt
    )
    assert noisy.percentiles["p50"] > base.percentiles["p50"] + 4
    assert noisy.percentiles["p99.9"] > noisy.percentiles["p50"]


def test_rtt_model_deterministic_given_seed():
    rtt = KafkaRTTModel()
    a = rtt.sample_s(100, np.random.default_rng(1))
    b = rtt.sample_s(100, np.random.default_rng(1))
    np.testing.assert_array_equal(a, b)


def test_measure_services_counts():
    eng = _FixedEngine()
    wall, calibrated = measure_services(eng, _events(50, 100.0), n_measure=20)
    assert len(wall) == len(calibrated) == 20
    assert (wall >= 0).all()
    assert (calibrated == 0).all()
