"""Task processor (paper §4.1): reservoir + state store + task plan.

A task processor computes *all* metrics of one (topic, partition), shares
nothing with other task processors, and runs single-threaded. Processing
one message = append to the event reservoir → advance the plan DAG
(arrivals + expirations) to the watermark, the highest stored timestamp →
answer with the arriving event's aggregates.

Checkpointing (§4.1.3) synchronizes the reservoir and the state store:
``checkpoint()`` seals in-memory chunks, flushes state, and records the
last processed offset so a recovering processor can copy the
files and replay the delta from the messaging layer.
"""
from __future__ import annotations

import os
import shutil
from typing import Any, Iterable

from .aggregators import FROM_MOMENTS
from .language import Statement, parse_statement
from .plan import TaskPlan
from .reservoir import Event, EventReservoir
from .statestore import StateStore


class TaskProcessor:
    """One (topic, partition)'s computation: metrics over its event subset."""

    def __init__(
        self,
        task_id: str,
        statements: Iterable[Statement | str],
        data_dir: str,
        *,
        reservoir_kwargs: dict | None = None,
    ):
        self.task_id = task_id
        self.statements = [
            parse_statement(s) if isinstance(s, str) else s for s in statements
        ]
        self.dir = data_dir
        os.makedirs(data_dir, exist_ok=True)
        self.reservoir = EventReservoir(
            os.path.join(data_dir, "reservoir"), **(reservoir_kwargs or {})
        )
        self.store = StateStore(os.path.join(data_dir, "state"))
        self.plan = TaskPlan(self.statements, self.reservoir, self.store)
        self.last_offset: int | None = None  # messaging-layer offset, if any

    # -- event path ----------------------------------------------------------

    def process(self, event: Event, offset: int | None = None) -> dict[str, Any]:
        """Process one message, return all metric answers for its entities.

        Every window is anchored at the watermark W: it holds the stored
        events inside its bounds at W, a late event included. Duplicates
        (by event id) and late-dropped events do not change state; Railgun
        still answers with the current aggregates — it never delays or
        withholds the reply (§4.1.1).
        """
        status = self.reservoir.append(dict(event))
        if offset is not None:
            self.last_offset = offset
        if status not in ("dup", "late-dropped"):
            self.plan.advance(self.reservoir.watermark)
        return self.plan.answers(event)

    def prefill(self, events: Iterable[Event]) -> int:
        """Bulk-append history without advancing the plan (checkpoint load).

        Used by §5.2(a): large windows are exercised by loading history so
        head *and* tail iterators are live from the first processed event.
        Follow with :meth:`warm_up`.
        """
        return sum(self.reservoir.append(dict(e)) not in ("dup", "late-dropped")
                   for e in events)

    def warm_up(self, now_ts: int) -> None:
        """Advance the plan over prefilled history in one batched pass."""
        self.plan.advance(now_ts)

    def warm_start(self, history, now_ts: int) -> None:
        """Vectorized checkpoint load (§5.2 methodology).

        ``history`` is the pandas DataFrame of the events already
        ``prefill``-ed into the reservoir. Builds each leaf's per-entity
        aggregate state directly with pandas groupbys (instead of
        replaying events one by one), then seeks every window iterator to
        its steady-state position. Supports the decomposable aggregations
        (sum/count/avg/stdDev); metrics needing event order (min/max/
        last/prev) must warm up via :meth:`warm_up`. Every metric is
        checked before any state is written.
        """
        for leaf in self.plan.leaves:
            if leaf.metric.filter_sql is not None:
                raise ValueError("warm_start does not support filtered metrics")
            if leaf.metric.agg not in FROM_MOMENTS:
                raise ValueError(f"warm_start does not support {leaf.metric.agg!r}")
        self.reservoir.flush()
        states = {}
        for leaf in self.plan.leaves:
            lo, hi = leaf.metric.window.bounds(now_ts)
            sub = history[(history["ts"] > lo) & (history["ts"] <= hi)]
            gb = list(leaf.metric.group_by)
            g = sub.groupby(gb[0] if len(gb) == 1 else gb)[leaf.metric.agg_field].agg(
                ["count", "sum", "var"]
            )
            m2 = g["var"].fillna(0.0) * (g["count"] - 1)
            states[leaf] = {
                key: FROM_MOMENTS[leaf.metric.agg](int(n), float(s), float(v))
                for key, n, s, v in zip(g.index.tolist(), g["count"], g["sum"], m2)
            }
        self.plan.put_states(states)
        self._position_iterators(now_ts)

    # -- accounting ------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        r = self.reservoir
        return {
            "events": r.total_events,
            "sealed_chunks": r.sealed_chunks(),
            "disk_bytes": r.disk_bytes(),
            "memory_events": r.memory_events(),
            "iterators": self.plan.iterator_count,
            "cache_hits": r.cache.hits,
            "demand_loads": r.demand_loads,
            "prefetch_loads": r.prefetch_loads,
            "state_keys": len(self.store),
        }

    # -- checkpoint / recovery ---------------------------------------------------

    def checkpoint(self) -> dict:
        """Synchronized reservoir+state checkpoint (paper §4.1.3)."""
        meta = self.reservoir.checkpoint()
        state_path = self.store.checkpoint("latest")
        return {
            "task_id": self.task_id,
            "reservoir": meta,
            "state_path": state_path,
            "last_offset": self.last_offset,
        }

    @classmethod
    def recover(
        cls,
        ckpt: dict,
        statements: Iterable[Statement | str],
        data_dir: str,
        *,
        reservoir_kwargs: dict | None = None,
    ) -> "TaskProcessor":
        """Rebuild a processor from another processor's checkpoint.

        Copies the reservoir file and state snapshot (the paper's data
        transfer between processor units), then the caller replays
        messages after ``ckpt['last_offset']`` from the messaging layer.
        """
        tp = cls(ckpt["task_id"], statements, data_dir,
                 reservoir_kwargs=reservoir_kwargs)
        shutil.copy(ckpt["reservoir"]["file"], tp.reservoir.path)
        tp.reservoir.load(ckpt["reservoir"])
        state_copy = shutil.copy(ckpt["state_path"], tp.store.dir)
        tp.store.load(state_copy)
        tp.last_offset = ckpt["last_offset"]
        if tp.reservoir.watermark is not None:
            # the checkpoint sealed every chunk, and the copied state holds
            # the windows at the watermark
            tp._position_iterators(tp.reservoir.watermark)
        return tp

    def _position_iterators(self, now_ts: int) -> None:
        """Seek every window's head and tail to its bounds at ``now_ts``.

        Used when aggregate state was loaded directly instead of being
        built by advancing: heads seek past ``hi`` and tails past ``lo``,
        random reads via the ts index, not scans.
        """
        for wnode in self.plan.windows.values():
            lo, hi = wnode.spec.bounds(now_ts)
            wnode.head.seek_after(hi)
            if wnode.tail is not None:
                wnode.tail.seek_after(lo)

    def close(self) -> None:
        self.reservoir.close()
