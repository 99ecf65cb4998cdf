"""Railgun's custom sticky rebalance assignment strategy (paper Fig 7, §4.2).

A greedy assignment of tasks — (topic, partition) pairs — to processor
units that protects two invariants:

1. **node uniqueness** — a physical node holds at most one copy of a task
   (so one node failure loses at most one copy);
2. **budget** — each processor unit receives at most
   ``ceil(total_copies / #processors)`` tasks; the budget resets on every
   rebalance.

and minimizes data shuffling with the Fig 7 preference ladder. Active
tasks are assigned first (they answer clients, so they must land where
data already lives):

    previous owner → a previous replica (least loaded) → a processor with
    the task *stale* (data leftovers from an older assignment, least
    loaded) → the processor with the most available budget.

Replicas follow with the same ladder (any previous holder counts as
"previous owner").
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Hashable

Task = Hashable  # (topic, partition)


@dataclass
class AssignmentInput:
    """Cluster metadata ``RailgunCluster.rebalance`` collects before assigning."""

    tasks: list[Task]
    processors: dict[str, str]  # processor id -> physical node id
    replication: int = 1
    prev_active: dict[Task, str] = field(default_factory=dict)
    prev_replicas: dict[Task, list[str]] = field(default_factory=dict)
    stale: dict[str, set[Task]] = field(default_factory=dict)


@dataclass
class Assignment:
    active: dict[Task, str]
    replicas: dict[Task, list[str]]
    unassigned_replicas: dict[Task, int]
    budget: int

    def load(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for p in self.active.values():
            out[p] = out.get(p, 0) + 1
        for procs in self.replicas.values():
            for p in procs:
                out[p] = out.get(p, 0) + 1
        return out

    def holders(self, task: Task) -> list[str]:
        return [self.active[task], *self.replicas.get(task, [])]


def sticky_assign(inp: AssignmentInput) -> Assignment:
    """Run one rebalance iteration of the Fig 7 strategy."""
    procs = sorted(inp.processors)  # deterministic iteration order
    if not procs:
        raise ValueError("no processors to assign to")
    n_nodes = len(set(inp.processors.values()))
    # node-uniqueness caps the copies per task at the node count
    eff_r = min(inp.replication, n_nodes)
    total_copies = len(inp.tasks) * eff_r
    budget = max(1, math.ceil(total_copies / len(procs)))

    load = {p: 0 for p in procs}
    task_nodes: dict[Task, set[str]] = {t: set() for t in inp.tasks}

    def valid(task: Task, p: str) -> bool:
        return (
            p in load
            and load[p] < budget
            and inp.processors[p] not in task_nodes[task]
        )

    def take(task: Task, p: str) -> None:
        load[p] += 1
        task_nodes[task].add(inp.processors[p])

    def least_loaded(cands: list[str]) -> list[str]:
        return sorted(cands, key=lambda p: (load[p], p))

    def pick(task: Task, prev_owner: list[str], prev_other: list[str]) -> str | None:
        # 1) sticky: keep it where it was
        for p in prev_owner:
            if valid(task, p):
                return p
        # 2) a previous replica/holder, least loaded
        for p in least_loaded([p for p in prev_other if valid(task, p)]):
            return p
        # 3) a processor with stale data for the task, least loaded
        stale_cands = [p for p, ts in inp.stale.items() if task in ts and valid(task, p)]
        for p in least_loaded(stale_cands):
            return p
        # 4) the processor with the most available budget
        free = [(budget - load[p], p) for p in procs if valid(task, p)]
        if not free:
            return None
        free.sort(key=lambda x: (-x[0], x[1]))
        return free[0][1]

    active: dict[Task, str] = {}
    replicas: dict[Task, list[str]] = {t: [] for t in inp.tasks}
    unassigned: dict[Task, int] = {}

    # Phase 1 — actives first (maximizes the chance they land on data)
    for t in inp.tasks:
        prev = inp.prev_active.get(t)
        p = pick(t, [prev] if prev else [], inp.prev_replicas.get(t, []))
        if p is None:  # budget forces *some* placement: steal least loaded
            p = least_loaded([q for q in procs if inp.processors[q] not in task_nodes[t]])[0]
        active[t] = p
        take(t, p)

    # Phase 2 — replicas
    for t in inp.tasks:
        prev_holders = [p for p in inp.prev_replicas.get(t, []) if p != active[t]]
        pa = inp.prev_active.get(t)
        if pa and pa != active[t]:
            prev_holders = [pa, *prev_holders]
        for _ in range(eff_r - 1):
            cand = pick(t, prev_holders, [])
            if cand is None:
                unassigned[t] = unassigned.get(t, 0) + 1
                continue
            replicas[t].append(cand)
            take(t, cand)
            prev_holders = [p for p in prev_holders if p != cand]

    return Assignment(active, replicas, unassigned, budget)
