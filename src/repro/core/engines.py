"""Flink baselines for the §5.1 latency experiment (Fig 8 / T1).

Railgun itself runs as a :class:`~repro.core.task.TaskProcessor`. The
baselines share its one method with the latency harness
(:class:`~repro.bench.harness.Engine`): ``process(event) -> answers``
(here a dict ``"{agg}_{field}" -> value|None``; a task processor keys its
answers by metric name). The engines only do the work and count it; the
calibrated cost of hardware we substitute (Flink's per-pane framework
overhead, page-cache reads) is added by :mod:`repro.bench`.

Engines:

- :class:`FlinkHoppingEngine` — Flink-style hopping windows: every event
  updates all ``window/hop`` active per-key panes, each a list of
  :mod:`~repro.core.aggregators` states, through the state store; panes
  fire and expire at hop boundaries, and the servable answer is the last
  *completed* window (Fig 1 semantics). ``panes_per_event``
  is the §2.2 cost argument: this per-event work is proportional to
  ``windowSize/hop``.
- :class:`FlinkRecomputeEngine` — Flink's published fraud-detection
  pattern [21]: keep raw events in state and recompute the aggregation
  from scratch per event by iterating all stored in-window events
  (quadratic behaviour, §2.2).
"""
from __future__ import annotations

from typing import Any

from .aggregators import aggregator
from .statestore import StateStore

Event = dict


class FlinkHoppingEngine:
    """Flink-style hopping windows over an embedded state store."""

    def __init__(
        self,
        *,
        key: str = "card_id",
        field: str = "amount",
        aggs: tuple[str, ...] = ("sum",),
        window_ms: int,
        hop_ms: int,
    ):
        if window_ms % hop_ms:
            raise ValueError("window must be a multiple of the hop")
        self.key = key
        self.field = field
        self.aggs = aggs
        self._aggregators = [aggregator(a) for a in aggs]
        self.window_ms = window_ms
        self.hop_ms = hop_ms
        self.panes_per_event = window_ms // hop_ms
        self.store = StateStore()
        self.watermark: int | None = None
        # window end -> keys with events in [end - w, end) (the equivalent
        # of Flink's per-(key, window) event-time timers)
        self._pending: dict[int, set] = {}

    def _new_pane(self) -> list:
        """One aggregation state per ``aggs`` entry; panes never evict."""
        return [agg.new() for agg in self._aggregators]

    def _fire(self, watermark: int) -> None:
        """Fire every window whose end has passed: publish + purge panes."""
        for end in sorted(e for e in self._pending if e <= watermark):
            start = end - self.window_ms
            for k in self._pending.pop(end):
                pane = self.store.get((k, start), "panes")
                self.store.put(k, (end, pane), "completed")
                self.store.delete((k, start), "panes")

    def process(self, event: Event) -> dict[str, Any]:
        ts = event["ts"]
        k = event[self.key]
        v = event[self.field]
        if self.watermark is None or ts > self.watermark:
            self.watermark = ts
            self._fire(ts)
        # update all active panes this event belongs to (§2.2: the number
        # of window states is windowSize/hop, all updated per event)
        first = ((ts - self.window_ms) // self.hop_ms + 1) * self.hop_ms
        last = (ts // self.hop_ms) * self.hop_ms
        for start in range(first, last + self.hop_ms, self.hop_ms):
            pane = self.store.get((k, start), "panes") or self._new_pane()
            for agg, st in zip(self._aggregators, pane):
                agg.add(st, ts, v)
            self.store.put((k, start), pane, "panes")
            self._pending.setdefault(start + self.window_ms, set()).add(k)
        # servable answer: the last completed window [b - w, b)
        b = (self.watermark // self.hop_ms) * self.hop_ms
        completed = self.store.get(k, "completed")
        pane = completed[1] if completed is not None and completed[0] == b else self._new_pane()
        return {f"{a}_{self.field}": agg.value(st)
                for a, agg, st in zip(self.aggs, self._aggregators, pane)}


class FlinkRecomputeEngine:
    """Flink's custom fraud pattern [21]: store raw events, rescan per event.

    The rescan uses the builtin ``sum``/``min``/``max``, not the
    :mod:`~repro.core.aggregators` fold: their C-speed pass over the
    window is the baseline's measured T1 cost, which a Python fold per
    stored event would multiply.
    """

    def __init__(
        self,
        *,
        key: str = "card_id",
        field: str = "amount",
        aggs: tuple[str, ...] = ("sum",),
        window_ms: int,
    ):
        self.key = key
        self.field = field
        self.aggs = aggs
        self.window_ms = window_ms
        self.store = StateStore()

    def prefill_steady_state(self, history) -> None:
        """Load a window's worth of history into state (checkpoint-load
        equivalent), so the per-event rescan cost reflects steady state."""
        for key, g in history.groupby(self.key):
            self.store.put(
                key,
                list(zip(g["ts"].tolist(), g[self.field].tolist())),
                "events",
            )

    def process(self, event: Event) -> dict[str, Any]:
        ts = event["ts"]
        k = event[self.key]
        buf: list[tuple[int, float]] = self.store.get(k, "events") or []
        buf.append((ts, event[self.field]))
        lo = ts - self.window_ms
        # evict expired, then recompute every aggregation from scratch by
        # iterating all stored in-window events (the pattern's weakness)
        buf = [(t, v) for (t, v) in buf if t > lo]
        self.store.put(k, buf, "events")
        vals = [v for _, v in buf]
        out: dict[str, Any] = {}
        n = len(vals)
        for a in self.aggs:
            if a == "count":
                out[f"count_{self.field}"] = float(n)
            elif a == "sum":
                out[f"sum_{self.field}"] = sum(vals) if n else None
            elif a == "avg":
                out[f"avg_{self.field}"] = sum(vals) / n if n else None
            elif a == "min":
                out[f"min_{self.field}"] = min(vals) if n else None
            elif a == "max":
                out[f"max_{self.field}"] = max(vals) if n else None
            else:
                raise ValueError(f"recompute baseline does not serve {a!r}")
        return out
