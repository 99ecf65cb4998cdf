"""Railgun node layers: front-end and processor units (paper §3.1–§3.2).

The **front-end** receives a client event, publishes it unchanged as one
``(reply topic, event)`` message to the topic of every stream
*partitioner* (top-level group-by) (steps 1–2 of Fig 3), then collects
the per-topic aggregation replies, each an ``(event id, topic, answers)``
tuple, from its dedicated reply topic and answers the client with the
merged result (steps 5–6). It takes one reply per (event, topic), so the
replies of a task replaying its log after a failure are dropped.

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
POLL_RECORDS = 200  # messages fetched per task per poll_step


class FrontEnd:
    """Client entry point of one Railgun node."""

    def __init__(self, node_id: str, kafka: MiniKafka):
        self.node_id = node_id
        self.kafka = kafka
        self.reply_topic = f"replies.{node_id}"
        kafka.create_topic(self.reply_topic, 1)
        self._reply_offset = 0
        # event id -> (topics still to answer, answers merged so far)
        self._waiting: dict[Any, tuple[set[str], dict]] = {}
        self.completed: dict[Any, dict] = {}

    def send(self, stream: str, partitioners: list[str], event: dict) -> None:
        """Steps 1–2 of Fig 3: route the event to every partitioner topic."""
        self._waiting[event["id"]] = ({f"{stream}.{p}" for p in partitioners}, {})
        msg = (self.reply_topic, dict(event))  # shared, never mutated
        for part_field in partitioners:
            self.kafka.produce(f"{stream}.{part_field}", key=event[part_field], value=msg)

    def poll_replies(self) -> None:
        """Steps 5–6: collect per-topic answers; merge when all arrived."""
        for eid, topic, answers in self.kafka.fetch(
                self.reply_topic, 0, self._reply_offset, 10_000):
            self._reply_offset += 1
            missing, merged = self._waiting.get(eid, ((), None))
            if topic not in missing:
                continue  # a replay: the event is done or this topic answered
            missing.remove(topic)
            merged.update(answers)
            if not missing:
                self.completed[eid] = self._waiting.pop(eid)[1]


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
        args = (statements, self._task_dir(task))
        kw = {"reservoir_kwargs": dict(self.reservoir_kwargs)}
        self.task_processors[task] = (
            TaskProcessor(f"{task[0]}-{task[1]}", *args, **kw) if recovery_ckpt is None
            else TaskProcessor.recover(recovery_ckpt, *args, **kw))

    # -- Algorithm 1 ----------------------------------------------------------

    def poll_step(self) -> int:
        """One iteration of the processor-unit logical loop. Returns #messages."""
        if not self.alive:
            return 0
        n = 0
        # active tasks are polled (and answered) first — they have priority
        for task in sorted(self.active) + sorted(self.replica):
            tp = self.task_processors[task]
            topic, p = task
            start = 0 if tp.last_offset is None else tp.last_offset + 1
            for off, (reply_to, event) in enumerate(
                    self.kafka.fetch(topic, p, start, POLL_RECORDS), start):
                answers = tp.process(event, offset=off)
                n += 1
                if task in self.active:
                    self.kafka.produce(reply_to, key=event["id"],
                                       value=(event["id"], topic, answers))
        return n
