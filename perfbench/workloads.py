"""The three workloads, driven through the engine's public API.

Each workload is an open loop in virtual time: an event's scheduled
arrival is its generator timestamp, its service is the measured duration
of the public call, and latencies come later from the Lindley recursion.
Nothing sleeps and nothing runs on a second thread, so the generator is
never late.

A workload object holds its seeded inputs. ``setup`` builds a system,
timing every piece of set-up work through the meter; ``measure`` runs the
measured events (with the cluster's failover cycles between them) and
returns their answers with the meter indices of their services. Inputs
are materialised before the timer of the piece that uses them starts.

In the measured phase the collector makes no full pass of its own (see
``run.run_pass``); one full collection runs inside the timed service of
the last measured event instead, so every run pays for exactly one.
"""
from __future__ import annotations

import gc
import os
import shutil
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

import numpy as np

import inputs
import reference
from probe import Meter

from repro.core.language import parse_statement
from repro.core.task import TaskProcessor
from repro.engine.cluster import RailgunCluster


@dataclass
class Measured:
    """What a measured phase produced."""

    positions: np.ndarray  # stream index of each scheduled (timed) event
    service_idx: list[int]  # meter index of each timed event's service
    answers: list[Any]  # answer per checked event (None when the call raised)
    checked: np.ndarray  # stream index of each checked event
    recovery_idx: list[list[int]] = field(default_factory=list)  # pieces per cycle
    raised: int = 0  # operations that raised (each is a failed operation)
    attempted: int = 0


def attempt(meter: Meter, fn: Callable, *args, full_gc: bool = False) -> tuple[Any, int, bool]:
    """Time one public call as a piece; a call that raises is a failure.
    With ``full_gc`` a full collection runs first, inside the piece."""
    t0 = perf_counter()
    try:
        if full_gc:
            gc.collect()
        out, ok = fn(*args), True
    except Exception:  # counted as a failed operation, the run goes on
        out, ok = None, False
    return out, meter.add(perf_counter() - t0), ok


def metric_names(statements: list[str]) -> list[tuple[str, Any]]:
    """(answer name, MetricSpec) of every metric, as the engine names them."""
    return [(m.name, m) for s in statements for m in parse_statement(s).metrics]


class SingleTask:
    """Shared code of the two single-TaskProcessor workloads."""

    statements: list[str]
    reservoir_kwargs: dict

    def new_task(self, workdir: str) -> TaskProcessor:
        return TaskProcessor(self.name, self.statements, workdir,
                             reservoir_kwargs=dict(self.reservoir_kwargs))

    def close(self, tp: TaskProcessor) -> None:
        tp.close()

    def run_events(self, tp, meter, events, first_pos, tracer, out: Measured) -> None:
        for k, e in enumerate(events):
            if tracer:
                tracer.begin_event(e["id"], first_pos + k)
            ans, idx, ok = attempt(meter, tp.process, e,
                                   full_gc=len(out.service_idx) == self.n_measured - 1)
            if tracer:
                tracer.end_event()
            out.service_idx.append(idx)
            out.answers.append(ans)
            out.raised += not ok


class WidePlan(SingleTask):
    """20 misaligned sliding windows x 6 aggregations: plan + state store."""

    name = "wide-plan"
    EVENTS_PER_S = 250  # measured events per --seconds on the reference host
    SETUP_REPS = 3

    def __init__(self, seed: int, n_measured: int, windows: int = 20):
        self.statements = [
            "SELECT sum(amount), avg(amount), count(amount), stdDev(amount), max(amount), "
            f"countDistinct(merchant_id) FROM payments GROUP BY card_id OVER sliding "
            f"{5000 + 1000 * i}ms" + (f" delayed by {500 * i}ms" if i else "")
            for i in range(windows)
        ]
        self.reservoir_kwargs = {"chunk_events": 256, "cache_chunks": 220}
        span_ms = 5000 + 1000 * (windows - 1) + 500 * (windows - 1)
        # Poisson at 100 ev/s: 1.3x the expected count covers the warm-up span
        s = inputs.wide_plan_stream(seed, int(span_ms / 10 * 1.3) + 200 + n_measured)
        self.n_warm = int(np.searchsorted(s.ts, s.ts[0] + span_ms, side="right")) + 1
        self.n_measured = n_measured
        if self.n_warm + n_measured > len(s):
            raise ValueError("stream too short for the warm-up span")
        self.stream = s
        self.warm_events = s.events(0, self.n_warm)
        self.meas_events = s.events(self.n_warm, self.n_warm + n_measured)

    def setup(self, meter: Meter, workdir: str) -> TaskProcessor:
        tp, _ = meter.time(self.new_task, workdir)
        for e in self.warm_events:
            meter.time(tp.process, e)
        return tp

    def measure(self, tp, meter, workdir, tracer=None) -> tuple[Measured, TaskProcessor]:
        lo = self.n_warm
        out = Measured(np.arange(lo, lo + self.n_measured), [], [],
                       np.arange(lo, lo + self.n_measured), attempted=self.n_measured)
        self.run_events(tp, meter, self.meas_events, lo, tracer, out)
        return out, tp

    def checker(self, checked: np.ndarray) -> reference.Checker:
        s = self.stream
        r = reference.KeyedRanges(s.card, s.amount, distinct=s.merchant)
        metrics = [(name, m.agg, r, s.card, m.window.size_ms, m.window.delay_ms)
                   for name, m in metric_names(self.statements)]
        return reference.Checker(s.ts, checked, metrics)


class WideRecords(SingleTask):
    """103-field events, one 10-minute window: reservoir seal + tail decode."""

    name = "wide-records"
    EVENTS_PER_S = 3000
    SETUP_REPS = 3
    WINDOW_MS = 600_000
    BATCH = 1024

    def __init__(self, seed: int, n_measured: int):
        self.statements = [
            "SELECT sum(amount), count(amount) FROM payments GROUP BY card_id "
            "OVER sliding 10 minutes"
        ]
        self.reservoir_kwargs = {"chunk_events": 256, "cache_chunks": 64}
        self.hist, self.meas = inputs.wide_records_streams(
            seed, n_measured, self.WINDOW_MS, self.reservoir_kwargs["chunk_events"])
        self.n_hist = len(self.hist)
        self.n_measured = n_measured
        self.stream = inputs.concat(self.hist, self.meas)

    def setup(self, meter: Meter, workdir: str) -> TaskProcessor:
        tp, _ = meter.time(self.new_task, workdir)
        for lo in range(0, self.n_hist, self.BATCH):
            batch = self.stream.events(lo, min(lo + self.BATCH, self.n_hist), wide=True)
            meter.time(tp.prefill, batch)
            del batch
        meter.time(tp.warm_up, int(self.hist.ts[-1]))
        return tp

    def measure(self, tp, meter, workdir, tracer=None) -> tuple[Measured, TaskProcessor]:
        lo, hi = self.n_hist, self.n_hist + self.n_measured
        out = Measured(np.arange(lo, hi), [], [], np.arange(lo, hi), attempted=self.n_measured)
        for b in range(lo, hi, self.BATCH):
            batch = self.stream.events(b, min(b + self.BATCH, hi), wide=True)
            self.run_events(tp, meter, batch, b, tracer, out)
            del batch
        return out, tp

    def checker(self, checked: np.ndarray) -> reference.Checker:
        s = self.stream
        r = reference.KeyedRanges(s.card, s.amount)
        metrics = [(name, m.agg, r, s.card, m.window.size_ms, m.window.delay_ms)
                   for name, m in metric_names(self.statements)]
        return reference.Checker(s.ts, checked, metrics)


class ClusterFailover:
    """3 nodes x 2 units, replication 2, two partitioners: the cluster path."""

    name = "cluster-failover"
    EVENTS_PER_S = 1400
    SETUP_REPS = 3
    STREAM = "payments"
    PARTITIONERS = ["card_id", "merchant_id"]
    PRODUCE_BATCH = 500

    def __init__(self, seed: int, n_measured: int, n_backlog: int = 30_000,
                 failover_every: int = 1000):
        self.statements = [
            "SELECT sum(amount), count(amount), max(amount) FROM payments "
            "GROUP BY card_id OVER sliding 60 seconds",
            "SELECT count(amount), avg(amount) FROM payments "
            "GROUP BY merchant_id OVER sliding 30 seconds",
        ]
        self.n_backlog = n_backlog
        self.n_measured = n_measured
        self.failover_every = failover_every
        self.stream = inputs.cluster_stream(seed, n_backlog + n_measured)
        self.backlog = self.stream.events(0, n_backlog)
        self.meas_events = self.stream.events(n_backlog, n_backlog + n_measured)

    def new_cluster(self, workdir: str) -> RailgunCluster:
        c = RailgunCluster(workdir, n_nodes=3, units_per_node=2, replication=2)
        c.register_stream(self.STREAM, self.statements, partitioners=self.PARTITIONERS,
                          partitions=8)
        return c

    def close(self, cluster: RailgunCluster) -> None:
        for u in cluster.units.values():
            for tp in u.task_processors.values():
                tp.close()

    def setup(self, meter: Meter, workdir: str) -> RailgunCluster:
        cluster, _ = meter.time(self.new_cluster, workdir)
        fe = cluster.frontends[cluster.nodes[0]]

        def produce(events):
            for e in events:
                fe.send(self.STREAM, self.PARTITIONERS, e)

        for lo in range(0, self.n_backlog, self.PRODUCE_BATCH):
            meter.time(produce, self.backlog[lo:lo + self.PRODUCE_BATCH])
        self.replay_pieces = []
        while True:
            n, idx = meter.time(cluster.step)
            self.replay_pieces.append(idx)
            if n == 0:
                break
        # collect every backlog reply; one poll takes a bounded number of records
        for _ in range(self.n_backlog // 1000 + 10):
            if len(fe.completed) >= self.n_backlog:
                break
            meter.time(fe.poll_replies)
        else:
            raise RuntimeError("the backlog's replies did not all arrive")
        fe.completed.clear()
        return cluster

    def failover(self, cluster: RailgunCluster, meter: Meter, fresh_id: str) -> tuple[list[int], bool]:
        """Kill the oldest node, catch up, add a fresh node, catch up."""
        pieces = []

        def catch_up() -> bool:
            while True:
                n, idx, ok = attempt(meter, cluster.step)
                pieces.append(idx)
                if not ok:
                    return False
                if n == 0:
                    return True

        _, idx, ok = attempt(meter, cluster.kill_node, cluster.nodes[0])
        pieces.append(idx)
        ok = ok and catch_up()
        if ok:
            _, idx, ok = attempt(meter, cluster.add_node, fresh_id)
            pieces.append(idx)
            ok = ok and catch_up()
        return pieces, ok

    def measure(self, cluster, meter, workdir, tracer=None) -> tuple[Measured, RailgunCluster]:
        lo = self.n_backlog
        pos = np.arange(lo, lo + self.n_measured)
        out = Measured(pos, [], [], pos, attempted=self.n_measured)
        fresh = len(cluster.nodes)
        for k, e in enumerate(self.meas_events):
            if k and k % self.failover_every == 0:
                if tracer:
                    tracer.set_phase("recovery")
                pieces, ok = self.failover(cluster, meter, f"node{fresh}")
                fresh += 1
                out.recovery_idx.append(pieces)
                out.attempted += 1
                out.raised += not ok
                if tracer:
                    tracer.set_phase("measure")
            if tracer:
                tracer.begin_event(e["id"], lo + k)
            ans, idx, ok = attempt(meter, cluster.send, self.STREAM, e,
                                   full_gc=k == self.n_measured - 1)
            if tracer:
                tracer.end_event()
            out.service_idx.append(idx)
            out.answers.append(ans)
            out.raised += not ok
        return out, cluster

    def checker(self, checked: np.ndarray) -> reference.Checker:
        s = self.stream
        by_card = reference.KeyedRanges(s.card, s.amount)
        by_merchant = reference.KeyedRanges(s.merchant, s.amount)
        metrics = []
        for name, m in metric_names(self.statements):
            r, key = (by_card, s.card) if m.group_by == ("card_id",) else (by_merchant, s.merchant)
            metrics.append((name, m.agg, r, key, m.window.size_ms, m.window.delay_ms))
        return reference.Checker(s.ts, checked, metrics)


WORKLOADS = {w.name: w for w in (WidePlan, WideRecords, ClusterFailover)}


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
