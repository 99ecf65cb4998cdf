"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload wide-plan --seed 1 --seconds 8 --trace 0

``--seconds`` sets the measured work: each workload measures
``EVENTS_PER_S * seconds`` events, about ``seconds`` of wall-clock on the
reference host (4 vCPU). The count, not the clock, ends a run, so two
commits compared with the same arguments measure the same work.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics (probe-scaled); with ``--trace 1`` the workload runs
once untraced and once with spans around every layer, and the JSON holds
the per-layer metrics. Lines above it show raw values, sample counts and
the probe readings; the ``detail`` line repeats them as JSON.
See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
FORBIDDEN = ("repro.synth_data", "pyspark", "duckdb")
NO_FULL_GC = 2**31 - 1  # a generation-2 threshold the measured phase never reaches


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Pass:
    meter: object
    setup_ranges: list
    measured: object
    mismatches: list
    counters: dict | None = None
    levels: dict | None = None
    replay_s: float = 0.0


def task_processors(system, live_only: bool = True) -> list:
    """The system's task processors: those a live unit serves, or every
    one a unit has built (dead units' and dropped tasks' included)."""
    units = getattr(system, "units", None)
    if units is None:
        return [system]
    return [tp for u in units.values() if u.alive or not live_only
            for t, tp in u.task_processors.items()
            if not live_only or t in u.active or t in u.replica]


COUNTERS = ("demand_loads", "prefetch_loads", "sealed", "hits", "gets", "puts", "discount_s")


def read_counters(system) -> dict:
    """Public counters of every task processor, keyed by object id.

    Reading the discount ledger resets it, so a later reading's
    ``discount_s`` is the prefetch time since this one."""
    out = {}
    for tp in task_processors(system, live_only=False):
        r = tp.reservoir
        out[id(tp)] = {"demand_loads": r.demand_loads, "prefetch_loads": r.prefetch_loads,
                       "sealed": r.sealed_chunks(), "hits": r.cache.hits + r.recent_hits,
                       "gets": tp.store.gets, "puts": tp.store.puts,
                       "discount_s": r.take_costs()[1]}
    return out


class MeasuredCounters:
    """Counter totals over the measured phase's segments.

    Failover cycles split cluster-failover's measured phase; the counters
    are read when a segment begins and when it ends, so work done in the
    cycles (checkpoint loads, catch-up replay) is left out, and no
    membership change falls inside a segment."""

    def __init__(self, system):
        self.system = system
        self.total = dict.fromkeys(COUNTERS, 0.0)
        self.start: dict | None = None

    def on_phase(self, phase: str) -> None:
        if phase == "measure":
            self.start = read_counters(self.system)
        elif self.start is not None:
            for key, vals in read_counters(self.system).items():
                base = self.start.get(key, {})
                for c in COUNTERS:
                    self.total[c] += vals[c] - (0 if c == "discount_s" else base.get(c, 0))
            self.start = None


def levels(system) -> dict:
    tps = task_processors(system)
    events = sum(tp.reservoir.total_events for tp in tps)
    out = {"memory_events": sum(tp.reservoir.memory_events() for tp in tps),
           "disk_bytes_per_event": sum(tp.reservoir.disk_bytes() for tp in tps) / max(events, 1),
           "keys": sum(len(tp.store) for tp in tps), "max_active": 0}
    if hasattr(system, "stats"):
        per_unit = system.stats().get("active_per_unit")
        if per_unit:
            out["max_active"] = max(per_unit.values())
    return out


def run_pass(wl, reps: int, workdir: str, tracer=None, meter=None) -> Pass:
    """Set the workload up ``reps`` times, then measure the last system."""
    from probe import Meter
    from workloads import fresh_dir

    meter = meter or Meter()
    setup_ranges = []
    for r in range(reps):
        d = fresh_dir(os.path.join(workdir, f"rep{r}"))
        if tracer:
            tracer.set_phase("setup")
        a = meter.mark()
        system = wl.setup(meter, d)
        setup_ranges.append(list(range(a, meter.mark())))
        if r < reps - 1:
            wl.close(system)
            del system
            shutil.rmtree(d)
            gc.collect()
    p = Pass(meter, setup_ranges, None, [])
    if tracer:
        p.replay_s = float(meter.pieces(getattr(wl, "replay_pieces", []), True).sum())
        counters = MeasuredCounters(system)
        tracer.on_phase = counters.on_phase
        tracer.set_phase("measure")
    # The collector's own full passes (70-125 ms over cluster-failover's
    # retained backlog) would land on a seed-dependent number of measured
    # events; instead the workload runs exactly one inside a timed service.
    # Young generations still collect as usual.
    thresholds = gc.get_threshold()
    gc.set_threshold(thresholds[0], thresholds[1], NO_FULL_GC)
    try:
        measured, system = wl.measure(system, meter, d, tracer)
    finally:
        gc.set_threshold(*thresholds)
    if tracer:
        tracer.set_phase("done")
        tracer.on_phase = None
        p.counters = counters.total
        p.levels = levels(system)
    wl.close(system)
    meter.close()
    p.measured = measured
    checker = wl.checker(measured.checked)
    p.mismatches = checker.mismatches(measured.answers)
    return p


def per_layer(tracer, p: Pass, untraced: dict, traced: dict, wl) -> dict[str, float]:
    """Per-layer metrics of a traced pass; times scaled by its median probe."""
    import numpy as np

    from probe import C_REF

    f = C_REF / float(np.median(p.meter.probes))
    n = len(p.measured.service_idx)
    cycles = max(len(p.measured.recovery_idx), 1)
    M = lambda name: tracer.get("measure", name)  # noqa: E731
    R = lambda name: tracer.get("recovery", name)  # noqa: E731
    S = lambda name: tracer.get("setup", name)  # noqa: E731

    def us_per_event(s):
        return s * f * 1e6 / n

    def ms_per_call(acc):
        return acc[0] * f * 1e3 / acc[2] if acc[2] else 0.0

    proc = np.asarray(tracer.durations["task.process"]) * f * 1e6
    c = p.counters
    kev = n / 1e3
    hit_den = c["hits"] + c["demand_loads"]
    fetch = M("kafka.fetch")
    backlog = getattr(wl, "n_backlog", 0)
    return {
        "recovery_s": untraced["recovery_s"],
        "task.process_us_p50": float(np.percentile(proc, 50)) if len(proc) else 0.0,
        "task.process_us_p99": float(np.percentile(proc, 99)) if len(proc) else 0.0,
        "task.prefill_s": S("task.prefill")[0] * f,
        "task.warm_up_s": S("task.warm_up")[0] * f,
        "task.checkpoint_ms": ms_per_call(R("task.checkpoint")),
        "task.recover_ms": ms_per_call(R("task.recover")),
        "reservoir.append_us_per_event": us_per_event(M("reservoir.append")[0]),
        "reservoir.iter_us_per_event": us_per_event(M("reservoir.advance_until")[1]),
        "reservoir.prefetch_us_per_event": us_per_event(c["discount_s"]),
        "reservoir.demand_loads_per_kev": c["demand_loads"] / kev,
        "reservoir.prefetch_loads_per_kev": c["prefetch_loads"] / kev,
        "reservoir.sealed_chunks_per_kev": c["sealed"] / kev,
        "reservoir.cache_hit_ratio": c["hits"] / hit_den if hit_den else 0.0,
        "reservoir.memory_events": p.levels["memory_events"],
        "reservoir.disk_bytes_per_event": p.levels["disk_bytes_per_event"],
        "plan.advance_self_us_per_event": us_per_event(M("plan.advance")[1]),
        "plan.answers_self_us_per_event": us_per_event(M("plan.answers")[1]),
        "statestore.gets_per_event": c["gets"] / n,
        "statestore.puts_per_event": c["puts"] / n,
        "statestore.get_us_per_event": us_per_event(M("statestore.get")[1]),
        "statestore.put_us_per_event": us_per_event(M("statestore.put")[1]),
        "statestore.keys": p.levels["keys"],
        "kafka.produce_us_per_event": us_per_event(M("kafka.produce")[0]),
        "kafka.fetch_us_per_event": us_per_event(fetch[0]),
        "kafka.fetches_per_event": fetch[2] / n,
        "kafka.useful_fetch_ratio": tracer.fetch_nonempty["measure"] / fetch[2] if fetch[2] else 0.0,
        "kafka.replayed_records": tracer.poll_records["recovery"] / cycles,
        "assignment.sticky_assign_ms": ms_per_call(R("assignment.sticky_assign")),
        "assignment.tasks_moved": sum(tracer.tasks_moved) / cycles,
        "assignment.max_active_per_unit": p.levels["max_active"],
        "node.frontend_send_us_per_event": us_per_event(M("node.frontend_send")[0]),
        "node.poll_replies_us_per_event": us_per_event(M("node.poll_replies")[0]),
        "node.poll_step_self_us_per_event": us_per_event(M("node.poll_step")[1]),
        "node.poll_steps_per_event": M("node.poll_step")[2] / n,
        "cluster.rebalance_ms": ms_per_call(R("cluster.rebalance")),
        "cluster.kill_node_ms": ms_per_call(R("cluster.kill_node")),
        "cluster.add_node_ms": ms_per_call(R("cluster.add_node")),
        "cluster.backlog_replay_eps": backlog / p.replay_s if p.replay_s else 0.0,
        "queue.wait_ms_p50": untraced["queue.wait_ms_p50"],
        "queue.wait_ms_p99": untraced["queue.wait_ms_p99"],
        "gc.pause_ms_per_kev": tracer.gc_pause_s["measure"] * f * 1e3 / kev,
        "gc.gen2_collections": tracer.gc_gen2["measure"],
        "host.probe_ms_p50": float(np.median(p.meter.probes)) * 1e3,
        "trace.overhead_frac": 1.0 - traced["throughput_eps"] / untraced["throughput_eps"],
    }


def layer_shares(tracer) -> dict[str, float]:
    """Self time of each layer as a share of all task.process time."""
    total = tracer.get("measure", "task.process")[0]
    groups = {
        "statestore": ("statestore.get", "statestore.put"),
        "plan": ("plan.advance", "plan.answers"),
        "reservoir": ("reservoir.append", "reservoir.advance_until"),
        "task (self)": ("task.process",),
    }
    return {g: sum(tracer.get("measure", n)[1] for n in names) / total if total else 0.0
            for g, names in groups.items()}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no engine source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    import numpy as np

    from metrics import END_TO_END, PER_LAYER, end_to_end
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    n = max(int(round(cls.EVENTS_PER_S * args.seconds)), 1)
    wl = cls(args.seed, n)
    gc.collect()
    gc.freeze()
    rss0 = rss_mb()
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        p = run_pass(wl, 1 if args.trace else cls.SETUP_REPS, os.path.join(workdir, "a"))
        rss = peak_rss_mb() - rss0
        scaled, counts = end_to_end(p.meter, wl.stream.ts, p.measured, p.setup_ranges, rss, True)
        raw, _ = end_to_end(p.meter, wl.stream.ts, p.measured, p.setup_ranges, rss, False)
        failed = len(p.mismatches) + p.measured.raised
        attempted = p.measured.attempted
        detail = {"workload": args.workload, "seed": args.seed, "events": n,
                  "normalised": scaled, "raw": raw, "samples": counts,
                  "probe_ms": {"p50": float(np.median(p.meter.probes)) * 1e3,
                               "min": float(np.min(p.meter.probes)) * 1e3,
                               "max": float(np.max(p.meter.probes)) * 1e3,
                               "n": len(p.meter.probes)}}
        if args.trace:
            tracer = Tracer().install()
            try:
                q = run_pass(wl, 1, os.path.join(workdir, "b"), tracer)
            finally:
                tracer.uninstall()
            traced, _ = end_to_end(q.meter, wl.stream.ts, q.measured, q.setup_ranges, 0.0, True)
            metrics = per_layer(tracer, q, scaled, traced, wl)
            same = q.measured.answers == p.measured.answers
            failed += len(q.mismatches) + q.measured.raised + (0 if same else 1)
            attempted += q.measured.attempted + 1
            spans = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json")
            tracer.write_spans(spans)
            detail.update(traced_answers_equal=same, layer_shares=layer_shares(tracer),
                          spans_file=os.path.relpath(spans, ROOT), spans=len(tracer.spans))
            table = PER_LAYER
        else:
            metrics, table = scaled, END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    leaked = [m for m in FORBIDDEN if m in sys.modules]
    correct = failed == 0 and not leaked
    report(args, n, scaled, raw, counts, detail, failed, attempted, leaked)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": float(metrics[k]), "unit": table[k][0]}
                                  for k in table}}))
    return 0


def report(args, n, scaled, raw, counts, detail, failed, attempted, leaked) -> None:
    from metrics import END_TO_END

    p = detail["probe_ms"]
    print(f"perfbench {args.workload} seed={args.seed} measured events={n} "
          f"setup reps={counts['setup_s']} generator lateness=0 (virtual-time schedule)")
    print(f"host probe: median {p['p50']:.3f} ms  min {p['min']:.3f}  max {p['max']:.3f}  "
          f"({p['n']} readings)")
    print(f"{'metric':<18}{'normalised':>14}{'raw':>14}  {'unit':<6}{'samples':>8}")
    for k, (unit, _) in END_TO_END.items():
        print(f"{k:<18}{scaled[k]:>14.4f}{raw[k]:>14.4f}  {unit:<6}{counts[k]:>8}")
    if counts["recovery_s"]:
        print(f"{'recovery_s':<18}{scaled['recovery_s']:>14.4f}{raw['recovery_s']:>14.4f}  "
              f"{'s':<6}{counts['recovery_s']:>8}  (not gated: see perfbench/README.md)")
    print(f"operations: {failed} failed of {attempted} attempted")
    if "layer_shares" in detail:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in detail["layer_shares"].items())
        print(f"self time as a share of task.process: {shares}")
        print(f"traced answers equal untraced: {detail['traced_answers_equal']}; "
              f"{detail['spans']} sampled spans in {detail['spans_file']}")
    if leaked:
        print(f"imported modules outside the system under test: {leaked}")


if __name__ == "__main__":
    sys.exit(main())
