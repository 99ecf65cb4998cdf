"""Tests for the MiniKafka substrate: logs and sticky assignment."""
import pytest
from hypothesis import given, settings, strategies as st

from repro.kafka import AssignmentInput, MiniKafka, sticky_assign
from repro.kafka.log import stable_hash


# -- log / topics ---------------------------------------------------------------

def test_topic_lifecycle():
    k = MiniKafka()
    k.create_topic("payments.card", 4)
    assert k.partitions("payments.card") == 4
    with pytest.raises(ValueError):
        k.create_topic("payments.card", 4)
    assert k.topics() == ["payments.card"]


def test_keyed_produce_is_sticky_per_key():
    k = MiniKafka()
    k.create_topic("t", 8)
    parts = {k.produce("t", key=f"card-{i % 5}", value=i)[0] for i in range(100)}
    # every message of a key goes to one partition; ≤5 partitions touched
    assert len(parts) <= 5
    p0 = k.produce("t", key="card-0", value="x")[0]
    assert all(k.produce("t", key="card-0", value=i)[0] == p0 for i in range(10))


def test_fetch_by_offset_and_replay():
    k = MiniKafka()
    k.create_topic("t", 1)
    assert [k.produce("t", key="k", value=i) for i in range(10)] == [
        (0, i) for i in range(10)]
    assert k.fetch("t", 0, 0, 4) == [0, 1, 2, 3]
    assert k.fetch("t", 0, 7) == [7, 8, 9]  # rewind/replay
    assert k.end_offset("t", 0) == 10


def test_stable_hash_is_deterministic():
    assert stable_hash("card-1") == stable_hash("card-1")
    assert stable_hash(("t", 1)) != stable_hash(("t", 2))


# -- sticky assignment (Fig 7) ----------------------------------------------------

def _procs(n_nodes, per_node):
    return {
        f"n{n}p{u}": f"n{n}" for n in range(n_nodes) for u in range(per_node)
    }


def _tasks(n):
    return [("t", p) for p in range(n)]


def _check_invariants(inp, asg):
    """The two Fig 7 invariants + exactly-one-active."""
    for t in inp.tasks:
        holders = asg.holders(t)
        nodes = [inp.processors[p] for p in holders]
        assert len(nodes) == len(set(nodes)), f"task {t} twice on one node"
        assert t in asg.active
    for p, n in asg.load().items():
        assert n <= asg.budget, f"{p} over budget ({n} > {asg.budget})"


def test_fresh_assignment_balanced():
    inp = AssignmentInput(tasks=_tasks(8), processors=_procs(2, 2), replication=2)
    asg = sticky_assign(inp)
    _check_invariants(inp, asg)
    load = asg.load()
    assert sum(load.values()) == 16  # 8 tasks × 2 copies
    assert max(load.values()) - min(load.values()) <= 1


def test_stickiness_unchanged_cluster_keeps_assignment():
    inp = AssignmentInput(tasks=_tasks(8), processors=_procs(2, 2), replication=2)
    a1 = sticky_assign(inp)
    inp2 = AssignmentInput(
        tasks=inp.tasks, processors=inp.processors, replication=2,
        prev_active=a1.active, prev_replicas=a1.replicas,
    )
    a2 = sticky_assign(inp2)
    assert a2.active == a1.active
    assert a2.replicas == a1.replicas


def test_failed_node_actives_promoted_from_replicas():
    """§4.2: on failure, active tasks land on processors already holding a
    replica, so no data transfer is needed."""
    procs = _procs(3, 2)
    inp = AssignmentInput(tasks=_tasks(6), processors=procs, replication=2)
    a1 = sticky_assign(inp)
    dead_node = "n0"
    survivors = {p: n for p, n in procs.items() if n != dead_node}
    inp2 = AssignmentInput(
        tasks=inp.tasks, processors=survivors, replication=2,
        prev_active={t: p for t, p in a1.active.items() if p in survivors},
        prev_replicas={
            t: [p for p in ps if p in survivors] for t, ps in a1.replicas.items()
        },
    )
    a2 = sticky_assign(inp2)
    _check_invariants(inp2, a2)
    for t in inp.tasks:
        if a1.active[t] not in survivors:  # its active died
            surviving_replicas = [p for p in a1.replicas[t] if p in survivors]
            if surviving_replicas:
                assert a2.active[t] in surviving_replicas, (
                    f"task {t} not promoted from a replica"
                )


def test_stale_processors_preferred_over_cold_ones():
    procs = _procs(2, 2)
    tasks = _tasks(4)
    inp = AssignmentInput(
        tasks=tasks, processors=procs, replication=1,
        stale={"n1p1": {("t", 0)}},
    )
    asg = sticky_assign(inp)
    assert asg.active[("t", 0)] == "n1p1"  # the stale holder wins


def test_replication_capped_by_node_count():
    inp = AssignmentInput(tasks=_tasks(4), processors=_procs(2, 3), replication=3)
    asg = sticky_assign(inp)
    _check_invariants(inp, asg)
    for t in inp.tasks:
        assert len(asg.holders(t)) == 2  # only 2 nodes exist


def test_no_processors_raises():
    with pytest.raises(ValueError):
        sticky_assign(AssignmentInput(tasks=_tasks(1), processors={}))


@settings(max_examples=60, deadline=None)
@given(
    n_tasks=st.integers(1, 24),
    n_nodes=st.integers(1, 6),
    per_node=st.integers(1, 4),
    replication=st.integers(1, 3),
)
def test_invariants_hold_for_any_cluster_shape(n_tasks, n_nodes, per_node, replication):
    inp = AssignmentInput(
        tasks=_tasks(n_tasks), processors=_procs(n_nodes, per_node),
        replication=replication,
    )
    asg = sticky_assign(inp)
    for t in inp.tasks:
        holders = asg.holders(t)
        nodes = [inp.processors[p] for p in holders]
        assert len(nodes) == len(set(nodes))
        assert len(holders) + asg.unassigned_replicas.get(t, 0) == min(
            replication, n_nodes
        )


@settings(max_examples=40, deadline=None)
@given(
    n_tasks=st.integers(2, 20),
    kill=st.integers(0, 2),
    replication=st.integers(1, 3),
)
def test_rebalance_after_failures_preserves_invariants(n_tasks, kill, replication):
    procs = _procs(4, 2)
    inp = AssignmentInput(
        tasks=_tasks(n_tasks), processors=procs, replication=replication
    )
    a1 = sticky_assign(inp)
    dead = {f"n{i}" for i in range(kill)}
    survivors = {p: n for p, n in procs.items() if n not in dead}
    inp2 = AssignmentInput(
        tasks=inp.tasks, processors=survivors, replication=replication,
        prev_active={t: p for t, p in a1.active.items() if p in survivors},
        prev_replicas={
            t: [p for p in ps if p in survivors] for t, ps in a1.replicas.items()
        },
    )
    a2 = sticky_assign(inp2)
    for t in inp.tasks:
        holders = a2.holders(t)
        nodes = [survivors[p] for p in holders]
        assert len(nodes) == len(set(nodes))
        assert t in a2.active
