"""Virtual-time latency harness for per-event engines (T1–T3).

Methodology (DESIGN.md §2):

- Events carry *scheduled* arrival times derived from their timestamps at
  the target rate. Latency is departure − scheduled arrival — the
  coordinated-omission correction of the paper's ref [26]: a slow engine
  cannot slow the injector down.
- Service times are **measured** (``perf_counter``) around real
  ``engine.process`` calls, then adjusted by the engine's cost ledger:
  synthetic µs are added (hardware we substitute: the Flink baseline's
  per-pane framework overhead, the reservoir's page-cache and seek costs),
  prefetch seconds are subtracted (asynchronous in the real system).
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
from typing import Any, Protocol

import numpy as np

from .queueing import fifo_departures, percentiles_ms


class Engine(Protocol):
    def process(self, event: dict) -> dict[str, Any]: ...
    def take_costs(self) -> tuple[float, float]: ...


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
    mean_service_ms: float
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
            "utilization": round(self.utilization, 3),
            "sustainable": self.sustainable,
            **self.extra,
        }


def measure_services(
    engine: Engine, events: list[dict], *, n_measure: int | None = None
) -> np.ndarray:
    """Run events through the engine; return adjusted service times (s)."""
    n = len(events) if n_measure is None else min(n_measure, len(events))
    out = np.empty(n)
    engine.take_costs()  # reset any setup-time ledger
    for i in range(n):
        t0 = time.perf_counter()
        engine.process(events[i])
        dt = time.perf_counter() - t0
        syn_us, disc_s = engine.take_costs()
        out[i] = max(dt - disc_s, 0.0) + syn_us * 1e-6
    return out


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
) -> LatencyResult:
    """Measure the engine under a sustained arrival schedule."""
    n = len(events)
    t0 = events[0]["ts"]
    arrivals = np.array([(e["ts"] - t0) / 1e3 for e in events])
    measured = measure_services(engine, events, n_measure=max_measured)
    rng = np.random.default_rng(seed)
    if len(measured) < n:
        # bootstrap the tail of the run from the measured distribution
        services = np.concatenate(
            [measured, rng.choice(measured, n - len(measured))]
        )
    else:
        services = measured
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
        n_measured=len(measured),
        percentiles=percentiles_ms(keep),
        mean_service_ms=mean_svc * 1e3,
        utilization=util,
        # sustainable = the queue drains: utilization below 1 and the last
        # event's wait is not runaway backlog
        sustainable=bool(util < 1.0 and (departures[-1] - arrivals[-1]) < 1.0),
        latencies_s=keep,
        extra=extra or {},
    )
