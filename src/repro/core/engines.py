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
  updates all ``window/hop`` active per-key pane states through the state
  store, panes fire and expire at hop boundaries, and the servable answer
  is the last *completed* window (Fig 1 semantics). ``panes_per_event``
  is the §2.2 cost argument: this per-event work is proportional to
  ``windowSize/hop``.
- :class:`FlinkRecomputeEngine` — Flink's published fraud-detection
  pattern [21]: keep raw events in state and recompute the aggregation
  from scratch per event by iterating all stored in-window events
  (quadratic behaviour, §2.2).
"""
from __future__ import annotations

from typing import Any

from .statestore import StateStore

Event = dict


def _pane_update(pane: dict[str, Any] | None, v: float) -> dict:
    """Accumulate one value into a pane's per-aggregation accumulators.

    Hopping panes never evict (that is their whole memory advantage), so
    plain accumulators suffice.
    """
    if pane is None:
        pane = {"n": 0, "sum": 0.0, "min": None, "max": None}
    pane["n"] += 1
    pane["sum"] += v
    pane["min"] = v if pane["min"] is None else min(pane["min"], v)
    pane["max"] = v if pane["max"] is None else max(pane["max"], v)
    return pane


def _pane_value(pane: dict[str, Any] | None, agg: str) -> float | None:
    if agg == "count":
        return float(pane["n"]) if pane is not None else 0.0
    if pane is None or pane["n"] == 0:
        return None
    if agg == "sum":
        return pane["sum"]
    if agg == "avg":
        return pane["sum"] / pane["n"]
    if agg == "min":
        return pane["min"]
    if agg == "max":
        return pane["max"]
    raise ValueError(f"hopping baseline does not serve {agg!r}")


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
        self.window_ms = window_ms
        self.hop_ms = hop_ms
        self.panes_per_event = window_ms // hop_ms
        self.store = StateStore()
        self.watermark: int | None = None
        # window end -> keys with events in [end - w, end) (the equivalent
        # of Flink's per-(key, window) event-time timers)
        self._pending: dict[int, set] = {}

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
            pane = self.store.get((k, start), "panes")
            self.store.put((k, start), _pane_update(pane, v), "panes")
            self._pending.setdefault(start + self.window_ms, set()).add(k)
        # servable answer: the last completed window [b - w, b)
        b = (self.watermark // self.hop_ms) * self.hop_ms
        completed = self.store.get(k, "completed")
        pane = completed[1] if completed is not None and completed[0] == b else None
        return {f"{a}_{self.field}": _pane_value(pane, a) for a in self.aggs}


class FlinkRecomputeEngine:
    """Flink's custom fraud pattern [21]: store raw events, rescan per event."""

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
