"""A multi-node Railgun cluster over MiniKafka (paper §3–§4).

Functional reproduction of the distributed design: streams map to one
topic per *partitioner*; (topic, partition) pairs are the tasks; the
Fig 7 sticky strategy assigns actives + replicas to processor units on
rebalance; failed nodes' tasks are promoted from replicas (no data copy)
or recovered by checkpoint transfer + log replay.

This layer establishes distributed *correctness* (end-to-end answers
equal to the single-task oracle-checked path, across rebalances and
failures). The §5.3 throughput/latency scaling numbers come from the
calibrated queueing model in ``repro.bench.fig10`` — see DESIGN.md §2.
"""
from __future__ import annotations

import itertools
import os
from typing import Any

from ..core.language import parse_statement
from ..kafka import AssignmentInput, MiniKafka, sticky_assign
from .node import FrontEnd, ProcessorUnit, Task


class RailgunCluster:
    """N equal nodes, each with a front-end and several processor units."""

    def __init__(
        self,
        data_root: str,
        *,
        n_nodes: int = 2,
        units_per_node: int = 2,
        replication: int = 2,
        reservoir_kwargs: dict | None = None,
    ):
        self.kafka = MiniKafka()
        self.replication = replication
        self.data_root = data_root
        self.reservoir_kwargs = reservoir_kwargs or {"chunk_events": 64, "cache_chunks": 32}
        self.units: dict[str, ProcessorUnit] = {}
        self.frontends: dict[str, FrontEnd] = {}
        self.nodes: list[str] = []
        self._streams: dict[str, dict] = {}  # stream -> {partitioners, partitions}
        self._topic_statements: dict[str, list[str]] = {}
        self._event_counter = itertools.count()
        self._upn = units_per_node
        for i in range(n_nodes):
            self._add_node(f"node{i}")

    # -- membership -----------------------------------------------------------

    def _add_node(self, node_id: str) -> None:
        self.nodes.append(node_id)
        self.frontends[node_id] = FrontEnd(node_id, self.kafka)
        for u in range(self._units_per_node()):
            uid = f"{node_id}-u{u}"
            self.units[uid] = ProcessorUnit(
                uid, node_id, self.kafka, os.path.join(self.data_root, "units"),
                reservoir_kwargs=self.reservoir_kwargs,
            )

    def _units_per_node(self) -> int:
        return self._upn

    def add_node(self, node_id: str) -> None:
        """Scale out: new node joins and a rebalance redistributes tasks."""
        self._add_node(node_id)
        self.rebalance()

    def kill_node(self, node_id: str) -> None:
        """Hard failure: the node's units stop, and a rebalance moves their tasks."""
        for u in self.units.values():
            if u.node_id == node_id:
                u.alive = False
        self.nodes.remove(node_id)
        self.rebalance()

    # -- streams / metrics -------------------------------------------------------

    def register_stream(
        self,
        stream: str,
        statements: list[str],
        *,
        partitioners: list[str] | None = None,
        partitions: int = 4,
    ) -> None:
        """Create the stream's partitioner topics and install its metrics.

        Each statement is computed in the topic of the first of its
        group-by fields that is a partitioner — metrics grouping by
        (card, merchant) can ride the card topic (§4): accuracy only
        needs events hashed by a subset of the group-by keys.
        """
        parsed = [(sql, parse_statement(sql)) for sql in statements]
        if partitioners is None:
            partitioners = sorted({st.metrics[0].group_by[0] for _, st in parsed})
        by_topic: dict[str, list[str]] = {}
        for sql, st in parsed:
            anchor = next(
                (g for g in st.metrics[0].group_by if g in partitioners), None
            )
            if anchor is None:
                raise ValueError(
                    f"no partitioner covers group-by {st.metrics[0].group_by} "
                    f"(partitioners: {partitioners})"
                )
            by_topic.setdefault(f"{stream}.{anchor}", []).append(sql)
        self._streams[stream] = {
            "partitioners": partitioners, "partitions": partitions,
        }
        for part_field in partitioners:
            topic = f"{stream}.{part_field}"
            self.kafka.create_topic(topic, partitions)
            self._topic_statements[topic] = by_topic.get(topic, [])
        self.rebalance()

    def _all_tasks(self) -> list[Task]:
        return [
            (topic, p)
            for topic in sorted(self._topic_statements)
            for p in range(self.kafka.partitions(topic))
        ]

    # -- rebalance / recovery -------------------------------------------------------

    def rebalance(self) -> None:
        """Collect cluster metadata, run the Fig 7 strategy, apply it."""
        tasks = self._all_tasks()
        if not tasks:
            return
        live = {
            uid: u.node_id for uid, u in self.units.items() if u.alive
        }
        if not live:
            raise RuntimeError("no live processor units")
        prev_active: dict[Task, str] = {}
        prev_replicas: dict[Task, list[str]] = {}
        stale: dict[str, set[Task]] = {}
        for uid, u in self.units.items():
            if not u.alive:
                continue
            for t in u.active:
                prev_active[t] = uid
            for t in u.replica:
                prev_replicas.setdefault(t, []).append(uid)
            if u.stale:
                stale[uid] = set(u.stale)
        asg = sticky_assign(
            AssignmentInput(
                tasks=tasks, processors=live, replication=self.replication,
                prev_active=prev_active, prev_replicas=prev_replicas, stale=stale,
            )
        )
        # apply: drop lost tasks first, then materialize gained ones
        new_by_unit: dict[str, tuple[set[Task], set[Task]]] = {
            uid: (set(), set()) for uid in live
        }
        for t, uid in asg.active.items():
            new_by_unit[uid][0].add(t)
        for t, uids in asg.replicas.items():
            for uid in uids:
                new_by_unit[uid][1].add(t)
        for uid, (new_active, new_replica) in new_by_unit.items():
            u = self.units[uid]
            for t in (u.active | u.replica) - (new_active | new_replica):
                u.drop_task(t)
            for t in (new_active | new_replica) - set(u.task_processors):
                ckpt = self._checkpoint_from_holder(t, exclude=uid)
                u.ensure_task(t, self._topic_statements[t[0]], ckpt)
            u.active, u.replica = new_active, new_replica
            u.stale -= new_active | new_replica

    def _checkpoint_from_holder(self, task: Task, exclude: str) -> dict | None:
        """Find a live unit with the task's data and take its checkpoint.

        Prefers current holders; stale holders would need only a delta in
        the paper — here any holder yields a full checkpoint copy.
        """
        for uid, u in self.units.items():
            if uid != exclude and u.alive and task in u.task_processors:
                return u.checkpoint_task(task)
        return None

    # -- client path ----------------------------------------------------------------

    def send(self, stream: str, event: dict, *, via_node: str | None = None,
             max_steps: int = 50) -> dict[str, Any]:
        """Synchronously push one event through Fig 3 steps 1–6."""
        node = via_node or self.nodes[0]
        fe = self.frontends[node]
        if "id" not in event:
            event = dict(event, id=f"ev{next(self._event_counter)}")
        fe.send(stream, self._streams[stream]["partitioners"], event)
        for _ in range(max_steps):
            self.step()
            fe.poll_replies()
            if event["id"] in fe.completed:
                return fe.completed.pop(event["id"])
        raise TimeoutError(f"no complete reply for event {event['id']}")

    def step(self) -> int:
        """Advance every live processor unit one Algorithm-1 iteration."""
        return sum(u.poll_step() for u in self.units.values())

    def stats(self) -> dict[str, Any]:
        live = [u for u in self.units.values() if u.alive]
        return {
            "nodes": len(self.nodes),
            "units": len(live),
            "tasks": len(self._all_tasks()),
            "active_per_unit": {
                u.unit_id: len(u.active) for u in live
            },
            "replica_per_unit": {
                u.unit_id: len(u.replica) for u in live
            },
        }
