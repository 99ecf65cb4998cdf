"""Spans around the calls into each layer, installed from outside ``src/``.

The traced run wraps public methods of the engine's classes (and the
cluster's reference to ``sticky_assign``). Every call accumulates, per
phase and per wrapped name, its inclusive time, its self time (inclusive
minus the wrapped calls it made) and a call count. For one measured event
in ``SAMPLE_EVERY``, full spans (name, start, end, parent, event id) are
kept in memory and written out at the end. A ``gc.callbacks`` hook adds
collector pauses per phase.
"""
from __future__ import annotations

import gc
import json
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

# wrapped name -> (module, attribute path inside it)
TARGETS = {
    "task.process": ("repro.core.task", "TaskProcessor.process"),
    "task.prefill": ("repro.core.task", "TaskProcessor.prefill"),
    "task.warm_up": ("repro.core.task", "TaskProcessor.warm_up"),
    "task.checkpoint": ("repro.core.task", "TaskProcessor.checkpoint"),
    "task.recover": ("repro.core.task", "TaskProcessor.recover"),
    "reservoir.append": ("repro.core.reservoir", "EventReservoir.append"),
    "reservoir.advance_until": ("repro.core.reservoir", "ReservoirIterator.advance_until"),
    "plan.advance": ("repro.core.plan", "TaskPlan.advance"),
    "plan.answers": ("repro.core.plan", "TaskPlan.answers"),
    "statestore.get": ("repro.core.statestore", "StateStore.get"),
    "statestore.put": ("repro.core.statestore", "StateStore.put"),
    "kafka.produce": ("repro.kafka.log", "MiniKafka.produce"),
    "kafka.fetch": ("repro.kafka.log", "MiniKafka.fetch"),
    "assignment.sticky_assign": ("repro.engine.cluster", "sticky_assign"),
    "node.frontend_send": ("repro.engine.node", "FrontEnd.send"),
    "node.poll_replies": ("repro.engine.node", "FrontEnd.poll_replies"),
    "node.poll_step": ("repro.engine.node", "ProcessorUnit.poll_step"),
    "cluster.rebalance": ("repro.engine.cluster", "RailgunCluster.rebalance"),
    "cluster.kill_node": ("repro.engine.cluster", "RailgunCluster.kill_node"),
    "cluster.add_node": ("repro.engine.cluster", "RailgunCluster.add_node"),
    "cluster.step": ("repro.engine.cluster", "RailgunCluster.step"),
    "cluster.send": ("repro.engine.cluster", "RailgunCluster.send"),
}

# names whose per-call inclusive durations are kept in the measured phase
KEEP_DURATIONS = ("task.process",)
# full spans are kept for one measured event in this many
SAMPLE_EVERY = 64


def _resolve(module: str, path: str) -> tuple[Any, str]:
    import importlib

    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict[str, list]] = {}
        self.gc_pause_s: dict[str, float] = defaultdict(float)
        self.gc_gen2: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = {n: [] for n in KEEP_DURATIONS}
        self.fetch_nonempty: dict[str, int] = defaultdict(int)
        self.poll_records: dict[str, int] = defaultdict(int)
        self.tasks_moved: list[int] = []
        # called with the new phase's name on every phase change
        self.on_phase: Callable[[str], None] | None = None
        self.spans: list[list] = []
        self.sampled = False
        self.event: Any = None
        self._stack: list[list] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._gc_t0 = 0.0
        self.set_phase("setup")

    # -- phases and events ---------------------------------------------------

    def set_phase(self, phase: str) -> None:
        if self.on_phase is not None:
            self.on_phase(phase)
        self.phase = phase
        self._acc = self.stats.setdefault(phase, defaultdict(lambda: [0.0, 0.0, 0]))

    def begin_event(self, eid: Any, k: int) -> None:
        self.event = eid
        self.sampled = k % SAMPLE_EVERY == 0

    def end_event(self) -> None:
        self.sampled = False
        self.event = None

    # -- install / uninstall -----------------------------------------------------

    def install(self) -> "Tracer":
        for name, (module, path) in TARGETS.items():
            owner, attr = _resolve(module, path)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, name)))
            else:
                setattr(owner, attr, self._wrap(raw, name))
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, what: str, info: dict) -> None:
        if what == "start":
            self._gc_t0 = perf_counter()
            return
        self.gc_pause_s[self.phase] += perf_counter() - self._gc_t0
        if info.get("generation") == 2:
            self.gc_gen2[self.phase] += 1

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tr = self
        after = {"kafka.fetch": self._after_fetch, "node.poll_step": self._after_poll,
                 "assignment.sticky_assign": self._after_assign}.get(name)
        keep = tr.durations.get(name)

        def wrapper(*args, **kwargs):
            stack = tr._stack
            span = -1
            if tr.sampled:
                span = len(tr.spans)
                tr.spans.append([name, 0.0, 0.0, stack[-1][1] if stack else -1, tr.event])
            frame = [0.0, span]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                acc = tr._acc[name]
                acc[0] += d
                acc[1] += d - frame[0]
                acc[2] += 1
                if stack:
                    stack[-1][0] += d
                if span >= 0:
                    tr.spans[span][1:3] = [t0, t1]
                if keep is not None and tr.phase == "measure":
                    keep.append(d)
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-call counters ---------------------------------------------------------

    def _after_fetch(self, args: tuple, out: list) -> None:
        if out:
            self.fetch_nonempty[self.phase] += 1

    def _after_poll(self, args: tuple, out: int) -> None:
        self.poll_records[self.phase] += out

    def _after_assign(self, args: tuple, out: Any) -> None:
        """Task copies placed on a unit that did not hold them before."""
        inp = args[0]
        moved = 0
        for t in inp.tasks:
            before = set(inp.prev_replicas.get(t, []))
            if t in inp.prev_active:
                before.add(inp.prev_active[t])
            moved += len(set(out.holders(t)) - before)
        if self.phase == "recovery":
            self.tasks_moved.append(moved)

    # -- readout -----------------------------------------------------------------

    def get(self, phase: str, name: str) -> tuple[float, float, int]:
        """(inclusive s, self s, calls) of ``name`` in ``phase``."""
        acc = self.stats.get(phase, {}).get(name)
        return (acc[0], acc[1], acc[2]) if acc else (0.0, 0.0, 0)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "event"],
                       "spans": self.spans}, fh)
