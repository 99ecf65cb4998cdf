"""Task processor (paper §4.1): reservoir + state store + task plan.

A task processor computes *all* metrics of one (topic, partition), shares
nothing with other task processors, and runs single-threaded. Processing
one message = append to the event reservoir → advance the plan DAG
(arrivals + expirations) to the watermark, the highest stored timestamp →
answer with the arriving event's aggregates.

Checkpointing (§4.1.3) synchronizes the reservoir and the state store:
``checkpoint()`` copies the reservoir's in-memory chunks (it closes
none), flushes state, and records the last processed offset so a
recovering processor can copy the files and replay the delta. Loading
anchors every window at the reservoir's watermark, in one of two ways:
``recover`` installs state and seeks there; ``prefill`` + ``warm_up``
seek each head group to its lowest window start and replay the windows
through the plan's own add/evict, exact for every aggregation and filter.

Memory is O(#iterators) chunks of events on every path: the event path
holds what one advance yields, and ``warm_up`` replays the history one
chunk at a time, so a load holds about one chunk per iterator however
long the history is; the per-entity records live in the state store.
"""
from __future__ import annotations

import os
import shutil
from itertools import groupby, takewhile
from typing import Any, Iterable

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
        The events are sealed into chunks as they arrive, so the reservoir
        holds the open and transition chunks, not the history. Follow with
        :meth:`warm_up`.
        """
        return sum(self.reservoir.append(dict(e)) not in ("dup", "late-dropped")
                   for e in events)

    def warm_up(self, now_ts: int) -> None:
        """Load the windows at ``now_ts`` from prefilled history, one chunk
        at a time, replaying only the windows' contents (:meth:`TaskPlan.load`).

        The steps stop at every chunk's last ts below ``now_ts``, so no
        iterator yields much more than one chunk per step (events tied
        with a stop are yielded together). ``now_ts`` must not pass the
        watermark: the tails would evict events still inside the windows
        at the watermark, and nothing re-adds them. The store must hold no
        record, whose events would count twice; with none, every window is
        empty, so the load's seeks are exact wherever the iterators stood.
        """
        wm = self.reservoir.watermark
        if wm is not None and now_ts > wm:
            raise ValueError(f"warm_up at {now_ts} is past the watermark {wm}")
        if len(self.store):
            raise ValueError("warm_up loads a task whose store holds no record")
        ends = (t for t, _ in groupby(self.reservoir.chunk_ends()))  # ties once
        self.plan.load(now_ts, takewhile(lambda t: t < now_ts, ends))

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
        tp.plan.seek(tp.reservoir.watermark)
        return tp

    def close(self) -> None:
        self.reservoir.close()
