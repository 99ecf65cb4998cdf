"""T4 (paper Fig 10, §5.3): scaling Railgun nodes to 1 M ev/s.

The paper's setup: N nodes × 8 processor units, 30 Kafka brokers, input
topic with 8 × N partitions, replication 3, offered load 25 k ev/s per
node up to 1 M ev/s total. Its findings: near-linear scaling; per-node
capacity erodes as the cluster (and its partition count) grows — 750 k
ev/s needed 35 nodes (21.4 k/node instead of 25 k) and 1 M needed 50
(20 k/node); the bottlenecks were GC pressure and Kafka with many
partitions.

This reproduction is a **calibrated queueing model** over the functional
engine (see DESIGN.md §2 — we cannot rent 50 AWS nodes):

- events at the offered rate are hashed to 8 × N partitions (lognormal
  key popularity, so partition load is uneven like the paper's real feed);
- stage 1: 30 broker FIFO queues (partition → broker round-robin);
- stage 2: one FIFO queue per partition = per processor unit
  (shared-nothing, single-threaded — §3.2);
- stage 3: reply brokers;
- unit service times resample the *shape* of real measured service times
  of our task processor, scaled so a node's capacity matches the paper's
  measured 25 k ev/s per node, plus a rare GC-pause component (the
  paper's own diagnosis); per-unit service degrades mildly once the
  cluster exceeds ~240 partitions (the paper's >30-node erosion);
- latency = reply departure − scheduled arrival (+ the same Kafka RTT
  noise as T1–T3), coordination-omission-corrected by construction.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .queueing import percentiles_ms, staged_departures
from .harness import KafkaRTTModel

BROKERS = 30
UNITS_PER_NODE = 8

# Calibration (documented in EXPERIMENTS.md):
# a unit must sustain 25k/8 = 3125 ev/s comfortably -> mean ~230 µs
TARGET_MEAN_SVC_S = 230e-6
GC_PAUSE_P = 2e-4          # rare stop-the-world pauses (paper: GC-bound)
GC_PAUSE_MEAN_S = 8e-3
BROKER_COST_S = 8e-6       # per-message broker work (30 brokers)
# Per-unit service inflation as the cluster (and its partition count)
# grows — the paper's own diagnosis of its >30-node erosion: GC pressure
# plus Kafka overhead from "the increased number of partitions needed to
# support the concurrent consumption of messages". Calibrated to the
# paper's capacity points: 25 k/node up to 20 nodes, 750 k needs 35 nodes
# (30×25 k = 750 k no longer fits), 1 M needs 50 (20 k/node). Ramp from
# 160 partitions to 1.39× at 240, then a gentle residual slope.
_EROSION_RAMP_START = 160
_EROSION_RAMP_END = 240
_EROSION_AT_END = 1.39
_EROSION_RESIDUAL = 0.0004  # per partition beyond the ramp

# The paper's run ladder: offered load per row (nodes, total ev/s)
LADDER = [
    (1, 25_000),
    (5, 125_000),
    (10, 250_000),
    (20, 500_000),
    (30, 750_000),   # the paper's observed degradation point
    (35, 750_000),   # adding nodes restores headroom (21.4k/node)
    (50, 1_000_000),  # the paper's target: 1M ev/s at 20k/node
]


def erosion(partitions: int) -> float:
    """Per-unit service-time multiplier for large clusters."""
    ramp = (partitions - _EROSION_RAMP_START) / (
        _EROSION_RAMP_END - _EROSION_RAMP_START
    )
    base = 1.0 + (_EROSION_AT_END - 1.0) * min(1.0, max(0.0, ramp))
    residual = _EROSION_RESIDUAL * max(0, partitions - _EROSION_RAMP_END)
    return base + residual


def scaled_service_shape(samples_s: np.ndarray) -> np.ndarray:
    """Rescale measured service times so their mean hits the calibration.

    The *shape* (relative dispersion) is the measured engine's; the scale
    maps our Python substrate onto the paper's JVM node capacity.
    """
    samples_s = np.asarray(samples_s, dtype=np.float64)
    return samples_s * (TARGET_MEAN_SVC_S / samples_s.mean())


def simulate_config(
    nodes: int,
    offered_hz: float,
    service_shape_s: np.ndarray,
    *,
    duration_s: float = 3.0,
    warmup_frac: float = 0.1,
    seed: int = 0,
    rtt: KafkaRTTModel | None = None,
) -> dict:
    """Simulate one ladder row; returns the T4 table row."""
    rng = np.random.default_rng(seed + nodes)
    rtt = rtt or KafkaRTTModel()
    partitions = nodes * UNITS_PER_NODE
    n = int(offered_hz * duration_s)
    arrivals = np.cumsum(rng.exponential(1.0 / offered_hz, n))
    # skewed entities -> partitions (real feeds are uneven, §5): lognormal
    # key popularity over a real-data-like cardinality — the busiest card
    # is ~100x the median but still a tiny share of total traffic, so
    # partitions are unevenly but sanely loaded (a Zipf head would put
    # whole percents of *all* traffic on one partition, which no keyed
    # production stream survives)
    n_keys = 200_000
    w = rng.lognormal(0.0, 1.0, n_keys)
    w /= w.sum()
    keys = rng.choice(n_keys, size=n, p=w)
    part = (keys * 2654435761 % 2**32) % partitions  # Knuth-hash the key

    # stage 1: input brokers (partition -> broker, round-robin)
    broker = part % BROKERS
    svc1 = np.full(n, BROKER_COST_S)
    d1 = staged_departures(arrivals, broker, svc1, BROKERS)

    # stage 2: processor units (one queue per partition)
    scale = erosion(partitions)
    svc2 = rng.choice(service_shape_s, n) * scale
    pauses = rng.random(n) < GC_PAUSE_P
    svc2[pauses] += rng.exponential(GC_PAUSE_MEAN_S, int(pauses.sum()))
    d2 = staged_departures(d1, part, svc2, partitions)

    # stage 3: reply brokers
    reply_broker = (part + 7) % BROKERS
    svc3 = np.full(n, BROKER_COST_S)
    d3 = staged_departures(d2, reply_broker, svc3, BROKERS)

    lat = d3 - arrivals + rtt.sample_s(n, rng)
    keep = lat[int(n * warmup_frac):]
    util = float(svc2.mean()) * offered_hz / partitions
    # achieved throughput: events fully processed per wall second, per node
    span = d2.max() - arrivals[0]
    achieved_hz = n / span
    return {
        "nodes": nodes,
        "offered_ev_s": int(offered_hz),
        "offered_per_node": round(offered_hz / nodes),
        "achieved_per_node": round(achieved_hz / nodes),
        "partitions": partitions,
        "unit_utilization": round(util, 3),
        **{k: round(v, 1) for k, v in percentiles_ms(keep).items()},
        "meets_M": bool(np.percentile(keep, 99.9) * 1e3 < 250.0),
        "sustainable": bool(util < 1.0),
    }


def run_fig10(
    service_samples_s: np.ndarray,
    *,
    ladder: list[tuple[int, int]] | None = None,
    duration_s: float = 3.0,
    seed: int = 0,
) -> pd.DataFrame:
    """Run the whole §5.3 ladder; returns the T4 table."""
    shape = scaled_service_shape(service_samples_s)
    rows = [
        simulate_config(
            nodes, offered, shape, duration_s=duration_s, seed=seed
        )
        for nodes, offered in (ladder or LADDER)
    ]
    return pd.DataFrame(rows)


def calibrate_unit_service(data_dir: str, n_events: int = 3_000, seed: int = 5) -> np.ndarray:
    """Measure real per-event service times of a task processor.

    The §5.3 workload: sum, avg and count of amount by card over a 5-min
    sliding window. Returns per-event seconds (shape source): measured
    wall time plus the calibrated IO of any demand load.
    """
    from .. import synth_data
    from ..core.task import TaskProcessor
    from .harness import io_cost_us, measure_services

    tp = TaskProcessor(
        "bench-task",
        ["SELECT sum(amount), avg(amount), count(amount) FROM payments "
         "GROUP BY card_id OVER sliding 5 minutes"],
        data_dir,
        reservoir_kwargs={"chunk_events": 256, "cache_chunks": 64},
    )
    events = synth_data.payments_pdf(
        n=n_events, rate_hz=3125.0, n_cards=2000, seed=seed
    ).to_dict("records")
    wall, calibrated = measure_services(tp, events, calibrated_us=io_cost_us(tp.reservoir))
    return wall + calibrated
