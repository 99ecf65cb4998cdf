"""Railgun node layers: front-end and processor units (paper §3.1–§3.2).

The **front-end** receives a client event, publishes one message per
stream *partitioner* (top-level group-by) to that partitioner's topic
(steps 1–2 of Fig 3), then collects the per-topic aggregation replies
from its dedicated reply topic and answers the client with the merged
result (steps 5–6).

A **processor unit** runs Algorithm 1: it polls its *active* tasks first,
then its *replica* tasks, forwards messages to the owning task processor,
and replies (to the message's reply topic) only for active tasks.
Replicas process the same messages in the same order, so their reservoir
and state store stay consistent — they are hot standbys.
"""
from __future__ import annotations

import os
from typing import Any, Iterable

from ..core.task import TaskProcessor
from ..kafka import MiniKafka

Task = tuple[str, int]  # (topic, partition)


class FrontEnd:
    """Client entry point of one Railgun node."""

    def __init__(self, node_id: str, kafka: MiniKafka):
        self.node_id = node_id
        self.kafka = kafka
        self.reply_topic = f"replies.{node_id}"
        kafka.create_topic(self.reply_topic, 1)
        self._reply_offset = 0
        self._partial: dict[Any, dict] = {}  # event id -> merged answers
        self._expected: dict[Any, int] = {}
        self.completed: dict[Any, dict] = {}

    def send(self, stream: str, partitioners: list[str], event: dict) -> None:
        """Steps 1–2 of Fig 3: route the event to every partitioner topic."""
        self._expected[event["id"]] = len(partitioners)
        for part_field in partitioners:
            topic = f"{stream}.{part_field}"
            msg = dict(event, _reply_to=self.reply_topic)
            self.kafka.produce(topic, key=event[part_field], value=msg, ts=event["ts"])

    def poll_replies(self) -> None:
        """Steps 5–6: collect per-topic answers; merge when all arrived."""
        for rec in self.kafka.fetch(self.reply_topic, 0, self._reply_offset, 10_000):
            self._reply_offset += 1
            eid = rec.value["event_id"]
            merged = self._partial.setdefault(eid, {})
            merged.update(rec.value["answers"])
            self._expected[eid] = self._expected.get(eid, 1) - 1
            if self._expected[eid] <= 0:
                self.completed[eid] = self._partial.pop(eid)
                del self._expected[eid]


class ProcessorUnit:
    """One back-end worker thread: a set of active + replica tasks (§3.2)."""

    def __init__(self, unit_id: str, node_id: str, kafka: MiniKafka, data_root: str,
                 reservoir_kwargs: dict | None = None):
        self.unit_id = unit_id
        self.node_id = node_id
        self.kafka = kafka
        self.data_root = data_root
        self.reservoir_kwargs = reservoir_kwargs or {}
        self.active: set[Task] = set()
        self.replica: set[Task] = set()
        self.task_processors: dict[Task, TaskProcessor] = {}
        self._pos: dict[Task, int] = {}  # next offset to fetch per task
        # tasks once held here whose data is still on disk (Fig 7 "stale")
        self.stale: set[Task] = set()
        self.alive = True

    # -- assignment ---------------------------------------------------------

    def _task_dir(self, task: Task) -> str:
        return os.path.join(self.data_root, self.unit_id, f"{task[0]}-{task[1]}")

    def ensure_task(
        self,
        task: Task,
        statements: Iterable[str],
        recovery_ckpt: dict | None,
    ) -> None:
        """Materialize a task processor for a newly assigned task.

        With a checkpoint from another holder, copy + replay the delta;
        without one, start fresh and replay the whole partition from the
        messaging layer (Kafka retains it — §3.3 recovery path).
        """
        if task in self.task_processors:
            return
        if recovery_ckpt is not None:
            tp = TaskProcessor.recover(
                recovery_ckpt, statements, self._task_dir(task),
                reservoir_kwargs=dict(self.reservoir_kwargs),
            )
            self._pos[task] = (
                0 if tp.last_offset is None else tp.last_offset + 1
            )
        else:
            tp = TaskProcessor(
                f"{task[0]}-{task[1]}", statements, self._task_dir(task),
                reservoir_kwargs=dict(self.reservoir_kwargs),
            )
            self._pos[task] = 0
        self.task_processors[task] = tp

    def drop_task(self, task: Task) -> None:
        """Unassigned during a rebalance: data stays on disk (stale)."""
        if task in self.task_processors:
            self.stale.add(task)
        self.active.discard(task)
        self.replica.discard(task)

    # -- Algorithm 1 ----------------------------------------------------------

    def poll_step(self, max_records: int = 200) -> int:
        """One iteration of the processor-unit logical loop. Returns #messages."""
        if not self.alive:
            return 0
        n = 0
        # active tasks are polled (and answered) first — they have priority
        for task in sorted(self.active) + sorted(self.replica):
            tp = self.task_processors.get(task)
            if tp is None:
                continue
            topic, p = task
            for rec in self.kafka.fetch(topic, p, self._pos[task], max_records):
                self._pos[task] = rec.offset + 1
                answers = tp.process(rec.value, offset=rec.offset)
                n += 1
                if task in self.active:
                    self.kafka.produce(
                        rec.value["_reply_to"],
                        key=rec.value["id"],
                        value={"event_id": rec.value["id"], "answers": answers},
                    )
        return n

    def checkpoint_task(self, task: Task) -> dict:
        return self.task_processors[task].checkpoint()
