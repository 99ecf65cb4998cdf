"""Metric definitions and the arithmetic that turns a run into metrics.

Every gated timing is computed from meter pieces, scaled by the host probe
(``scaled=True``); the same code with ``scaled=False`` gives the raw
wall-clock values printed beside them.
"""
from __future__ import annotations

import numpy as np

from repro.bench.queueing import fifo_departures

LATENCY_LIMIT_S = 0.25  # the paper's MAD latency limit

# name -> (unit, better)
END_TO_END = {
    "latency_p50_ms": ("ms", "lower"),
    "latency_p99_ms": ("ms", "lower"),
    "throughput_eps": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "recovery_s": ("s", "lower"),
    "task.process_us_p50": ("us", "lower"),
    "task.process_us_p99": ("us", "lower"),
    "task.prefill_s": ("s", "lower"),
    "task.warm_up_s": ("s", "lower"),
    "task.checkpoint_ms": ("ms", "lower"),
    "task.recover_ms": ("ms", "lower"),
    "reservoir.append_us_per_event": ("us", "lower"),
    "reservoir.iter_us_per_event": ("us", "lower"),
    "reservoir.prefetch_us_per_event": ("us", "lower"),
    "reservoir.demand_loads_per_kev": ("count", "lower"),
    "reservoir.prefetch_loads_per_kev": ("count", "lower"),
    "reservoir.sealed_chunks_per_kev": ("count", "lower"),
    "reservoir.cache_hit_ratio": ("ratio", "higher"),
    "reservoir.memory_events": ("count", "lower"),
    "reservoir.disk_bytes_per_event": ("B", "lower"),
    "plan.advance_self_us_per_event": ("us", "lower"),
    "plan.answers_self_us_per_event": ("us", "lower"),
    "statestore.gets_per_event": ("count", "lower"),
    "statestore.puts_per_event": ("count", "lower"),
    "statestore.get_us_per_event": ("us", "lower"),
    "statestore.put_us_per_event": ("us", "lower"),
    "statestore.keys": ("count", "lower"),
    "kafka.produce_us_per_event": ("us", "lower"),
    "kafka.fetch_us_per_event": ("us", "lower"),
    "kafka.fetches_per_event": ("count", "lower"),
    "kafka.useful_fetch_ratio": ("ratio", "higher"),
    "kafka.replayed_records": ("count", "lower"),
    "assignment.sticky_assign_ms": ("ms", "lower"),
    "assignment.tasks_moved": ("count", "lower"),
    "assignment.max_active_per_unit": ("count", "lower"),
    "node.frontend_send_us_per_event": ("us", "lower"),
    "node.poll_replies_us_per_event": ("us", "lower"),
    "node.poll_step_self_us_per_event": ("us", "lower"),
    "node.poll_steps_per_event": ("count", "lower"),
    "cluster.rebalance_ms": ("ms", "lower"),
    "cluster.kill_node_ms": ("ms", "lower"),
    "cluster.add_node_ms": ("ms", "lower"),
    "cluster.backlog_replay_eps": ("1/s", "higher"),
    "queue.wait_ms_p50": ("ms", "lower"),
    "queue.wait_ms_p99": ("ms", "lower"),
    "gc.pause_ms_per_kev": ("ms", "lower"),
    "gc.gen2_collections": ("count", "lower"),
    "host.probe_ms_p50": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def sustainable(arrivals: np.ndarray, services: np.ndarray, scale: float) -> bool:
    """With every inter-arrival gap multiplied by ``scale``: p99 latency
    within the limit, and a queue that does not grow, i.e. the services
    fit in the schedule's span and the last event waits within the limit."""
    a = arrivals * scale
    d = fifo_departures(a, services)
    lat = d - a
    return bool(services.sum() <= a[-1] - a[0]
                and np.percentile(lat, 99) <= LATENCY_LIMIT_S
                and lat[-1] - services[-1] <= LATENCY_LIMIT_S)


def max_rate(arrivals: np.ndarray, services: np.ndarray) -> float:
    """Highest arrival rate (ev/s) that is ``sustainable``.

    The schedule is compressed or stretched uniformly, so event contents
    and their order stay fixed; waits are monotone in the scale, so a
    bisection in log space finds the boundary.
    """
    base = (len(arrivals) - 1) / (arrivals[-1] - arrivals[0])
    hi = 1.0  # sustainable at scale hi, not at scale lo
    for _ in range(60):
        if sustainable(arrivals, services, hi):
            break
        hi *= 2.0
    else:
        return 0.0  # some single service breaks the limit at any rate
    lo = hi / 2.0
    while sustainable(arrivals, services, lo):
        lo /= 2.0
    for _ in range(40):
        mid = np.sqrt(lo * hi)
        if sustainable(arrivals, services, mid):
            hi = mid
        else:
            lo = mid
    return float(base / hi)


def latency(arrivals: np.ndarray, services: np.ndarray) -> dict[str, float]:
    lat = fifo_departures(arrivals, services) - arrivals
    wait = lat - services
    p50, p99 = np.percentile(lat, [50, 99])
    w50, w99 = np.percentile(wait, [50, 99])
    return {"latency_p50_ms": p50 * 1e3, "latency_p99_ms": p99 * 1e3,
            "throughput_eps": max_rate(arrivals, services),
            "queue.wait_ms_p50": w50 * 1e3, "queue.wait_ms_p99": w99 * 1e3}


def end_to_end(meter, ts_ms: np.ndarray, measured, setup_ranges, rss_mb: float,
               scaled: bool) -> tuple[dict[str, float], dict[str, int]]:
    """End-to-end metrics, with the queue waits and ``recovery_s`` that the
    per-layer report takes from the untraced pass, and sample counts."""
    arrivals = (ts_ms[measured.positions] - ts_ms[measured.positions[0]]) / 1e3
    services = meter.pieces(measured.service_idx, scaled)
    out = latency(arrivals, services)
    setups = [meter.pieces(r, scaled).sum() for r in setup_ranges]
    out["setup_s"] = float(np.median(setups))
    cycles = [meter.pieces(c, scaled).sum() for c in measured.recovery_idx]
    out["recovery_s"] = float(np.median(cycles)) if cycles else 0.0
    out["peak_rss_mb"] = rss_mb
    n = len(services)
    counts = {"latency_p50_ms": n, "latency_p99_ms": n, "throughput_eps": n,
              "setup_s": len(setups), "recovery_s": len(cycles), "peak_rss_mb": 1}
    return out, counts
