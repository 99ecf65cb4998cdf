"""Virtual-time latency harness for per-event engines (T1–T3).

Methodology (DESIGN.md §2):

- Events carry *scheduled* arrival times derived from their timestamps at
  the target rate. Latency is departure − scheduled arrival — the
  coordinated-omission correction of the paper's ref [26]: a slow engine
  cannot slow the injector down.
- Service times are **measured** (``perf_counter``) around real
  ``engine.process`` calls; nothing is subtracted (the reservoir's
  prefetch runs inline, inside ``process``). This package alone
  calibrates: the µs of hardware we substitute (Flink's per-pane
  overhead, a demand load's page-cache read and seek) come from a
  ``calibrated_us`` callable over counters the engines keep, are added
  to the service, and are reported in their own ``calibrated_ms`` column.
- Engines are a :class:`~repro.core.task.TaskProcessor` (Railgun) or a
  Flink baseline from :mod:`repro.core.engines`; answers are not read.
- Departures come from the Lindley recursion over the scheduled arrivals,
  so queueing delay under overload is modeled exactly; an engine whose
  mean service exceeds the inter-arrival budget shows the same latency
  blow-up the paper reports for Flink at small hops.
- For engines whose per-event cost makes full-run measurement infeasible
  (Flink with a 1 s hop does 3600 state updates per event), the first
  ``max_measured`` events are measured and the rest are bootstrap-resampled
  from the measured distribution — percentiles of the *latency schedule*
  still cover the full run.
- An optional RTT model adds the messaging/network round trip the paper's
  end-to-end latencies include (identical across engines).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

import numpy as np

from .queueing import fifo_departures, percentiles_ms

# page-cache read + syscall cost of one reservoir demand load, µs
IO_READ_COST_US = 25.0
# §5.2(b) worst case: when prefetch is defeated, some demand loads miss
# the OS page cache too and pay a full IO seek. Deterministic model:
# every IO_SEEK_EVERY-th demand load also pays the seek.
IO_SEEK_EVERY = 3


class Engine(Protocol):
    def process(self, event: dict) -> dict[str, Any]: ...


def io_cost_us(reservoir, seek_us: float = 0.0) -> Callable[[], float]:
    """Calibrated µs of the reservoir's demand loads since the last call:
    ``IO_READ_COST_US`` each, plus ``seek_us`` on every ``IO_SEEK_EVERY``-th
    ``demand_loads`` count. Build it after the reservoir's last ``reset_stats()``."""
    last = reservoir.demand_loads

    def cost() -> float:
        nonlocal last
        now = reservoir.demand_loads
        seeks = now // IO_SEEK_EVERY - last // IO_SEEK_EVERY
        us = IO_READ_COST_US * (now - last) + seek_us * seeks
        last = now
        return us

    return cost


@dataclass
class KafkaRTTModel:
    """End-to-end messaging round trip (injector→Kafka→engine→Kafka→injector).

    Log-normal body with a rare exponential 'hiccup' tail — the paper
    attributes its own >p99.9 variation (75–150 ms) to Kafka, affecting
    Railgun and Flink alike (§5.2.1). Identical noise is added to every
    engine, so cross-engine comparisons are pure engine effects.
    """

    median_ms: float = 8.0
    sigma: float = 0.55
    hiccup_p: float = 0.0015
    hiccup_mean_ms: float = 35.0

    def sample_s(self, n: int, rng: np.random.Generator) -> np.ndarray:
        body = rng.lognormal(np.log(self.median_ms), self.sigma, n)
        hiccup = rng.random(n) < self.hiccup_p
        body[hiccup] += rng.exponential(self.hiccup_mean_ms, int(hiccup.sum()))
        return body / 1e3


@dataclass
class LatencyResult:
    engine: str
    rate_hz: float
    n_events: int
    n_measured: int
    percentiles: dict[str, float]  # milliseconds
    mean_service_ms: float  # measured wall time + calibrated
    calibrated_ms: float  # the calibrated part of mean_service_ms
    utilization: float  # mean service / inter-arrival budget
    sustainable: bool
    latencies_s: np.ndarray = field(repr=False)
    extra: dict[str, Any] = field(default_factory=dict)

    def row(self) -> dict[str, Any]:
        return {
            "engine": self.engine,
            "rate_hz": self.rate_hz,
            "events": self.n_events,
            **{k: round(v, 3) for k, v in self.percentiles.items()},
            "mean_service_ms": round(self.mean_service_ms, 4),
            "calibrated_ms": round(self.calibrated_ms, 4),
            "utilization": round(self.utilization, 3),
            "sustainable": self.sustainable,
            **self.extra,
        }


def measure_services(
    engine: Engine, events: list[dict], *, n_measure: int | None = None,
    calibrated_us: Callable[[], float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run events through the engine; return per-event (measured wall
    seconds, calibrated seconds). ``calibrated_us`` is called after each
    event and returns the calibrated µs of the event just processed."""
    n = len(events) if n_measure is None else min(n_measure, len(events))
    wall = np.empty(n)
    calibrated = np.zeros(n)
    for i in range(n):
        t0 = time.perf_counter()
        engine.process(events[i])
        wall[i] = time.perf_counter() - t0
        if calibrated_us is not None:
            calibrated[i] = calibrated_us() * 1e-6
    return wall, calibrated


def run_engine(
    engine: Engine,
    name: str,
    events: list[dict],
    *,
    rate_hz: float,
    warmup_frac: float = 0.1,
    max_measured: int | None = None,
    rtt: KafkaRTTModel | None = None,
    seed: int = 0,
    extra: dict | None = None,
    calibrated_us: Callable[[], float] | None = None,
) -> LatencyResult:
    """Measure the engine under a sustained arrival schedule; each event's
    service is its measured wall time plus its ``calibrated_us``."""
    n = len(events)
    t0 = events[0]["ts"]
    arrivals = np.array([(e["ts"] - t0) / 1e3 for e in events])
    wall, calibrated = measure_services(
        engine, events, n_measure=max_measured, calibrated_us=calibrated_us
    )
    rng = np.random.default_rng(seed)
    n_measured = len(wall)
    if n_measured < n:
        # bootstrap the tail of the run from the measured distribution
        idx = np.concatenate([np.arange(n_measured),
                              rng.choice(n_measured, n - n_measured)])
        wall, calibrated = wall[idx], calibrated[idx]
    services = wall + calibrated
    departures = fifo_departures(arrivals, services)
    lat = departures - arrivals
    if rtt is not None:
        lat = lat + rtt.sample_s(n, rng)
    keep = lat[int(n * warmup_frac):]
    mean_svc = float(services.mean())
    util = mean_svc * rate_hz
    return LatencyResult(
        engine=name,
        rate_hz=rate_hz,
        n_events=n,
        n_measured=n_measured,
        percentiles=percentiles_ms(keep),
        mean_service_ms=mean_svc * 1e3,
        calibrated_ms=float(calibrated.mean()) * 1e3,
        utilization=util,
        # sustainable = the queue drains: utilization below 1 and the last
        # event's wait is not runaway backlog
        sustainable=bool(util < 1.0 and (departures[-1] - arrivals[-1]) < 1.0),
        latencies_s=keep,
        extra=extra or {},
    )
