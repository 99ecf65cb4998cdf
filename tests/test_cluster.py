"""End-to-end tests for the distributed Railgun cluster (paper §3–§4.2).

Correctness reference: brute-force per-event sliding aggregates over the
full client event sequence. The same events flow through front-end
routing → partitioner topics → processor units → reply collection
(Fig 3), across rebalances, node failures and scale-out.
"""
import numpy as np
import pytest

from repro.engine import RailgunCluster
from repro.engine.node import FrontEnd
from repro.core.task import TaskProcessor
from repro.core.windows import MINUTE
from repro.kafka import MiniKafka

Q1 = ("SELECT sum(amount), count(amount) FROM payments "
      "GROUP BY card_id OVER sliding 1 minute")
Q2 = "SELECT avg(amount) FROM payments GROUP BY merchant_id OVER sliding 1 minute"

SUM = "sum(amount) by card_id over sliding 60000ms"
CNT = "count(amount) by card_id over sliding 60000ms"
AVG = "avg(amount) by merchant_id over sliding 60000ms"


def _events(n=120, seed=0, n_cards=6, n_merchants=3):
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.integers(200, 1500, n))
    return [
        {
            "id": f"e{i}",
            "ts": int(ts[i]),
            "card_id": int(rng.integers(1, n_cards + 1)),
            "merchant_id": int(rng.integers(1, n_merchants + 1)),
            "amount": float(np.round(rng.uniform(1, 100), 2)),
        }
        for i in range(n)
    ]


def _brute(events, i, key, window_ms=MINUTE):
    e = events[i]
    return [
        x["amount"]
        for x in events[: i + 1]
        if x[key] == e[key] and e["ts"] - window_ms < x["ts"] <= e["ts"]
    ]


def _check_card(events, i, ans):
    v_card = _brute(events, i, "card_id")
    assert ans[SUM] == pytest.approx(sum(v_card))
    assert ans[CNT] == len(v_card)


def _check(events, i, ans):
    _check_card(events, i, ans)
    assert ans[AVG] == pytest.approx(np.mean(_brute(events, i, "merchant_id")))


@pytest.fixture
def cluster(tmp_path):
    c = RailgunCluster(
        str(tmp_path), n_nodes=3, units_per_node=2, replication=2,
        reservoir_kwargs={"chunk_events": 16, "cache_chunks": 16},
    )
    c.register_stream("payments", [Q1, Q2], partitions=4)
    return c


def test_stream_creates_one_topic_per_partitioner(cluster):
    assert "payments.card_id" in cluster.kafka.topics()
    assert "payments.merchant_id" in cluster.kafka.topics()
    assert cluster.kafka.partitions("payments.card_id") == 4


def test_assignment_covers_all_tasks_with_replication(cluster):
    st = cluster.stats()
    assert st["tasks"] == 8  # 2 topics × 4 partitions
    total_active = sum(st["active_per_unit"].values())
    total_replica = sum(st["replica_per_unit"].values())
    assert total_active == 8  # exactly one active owner per task
    assert total_replica == 8  # replication 2 ⇒ one replica each


def test_end_to_end_answers_match_bruteforce(cluster):
    events = _events(n=100)
    for i, e in enumerate(events):
        ans = cluster.send("payments", e)
        _check(events, i, ans)


def test_multi_groupby_metric_rides_existing_partitioner(tmp_path):
    """§4: a metric grouping by (card, merchant) can use topic card."""
    c = RailgunCluster(str(tmp_path), n_nodes=2, units_per_node=1, replication=1)
    q = ("SELECT count(amount) FROM payments "
         "GROUP BY card_id, merchant_id OVER sliding 1 minute")
    c.register_stream("payments", [Q1, q], partitioners=["card_id"], partitions=2)
    assert c.kafka.topics() == [
        "payments.card_id", "replies.node0", "replies.node1"
    ]
    events = _events(n=60)
    name = "count(amount) by card_id,merchant_id over sliding 60000ms"
    for i, e in enumerate(events):
        ans = c.send("payments", e)
        expect = [
            x for x in events[: i + 1]
            if (x["card_id"], x["merchant_id"]) == (e["card_id"], e["merchant_id"])
            and e["ts"] - MINUTE < x["ts"] <= e["ts"]
        ]
        assert ans[name] == len(expect)


def test_replicas_stay_consistent_with_actives(cluster):
    for e in _events(n=80):
        cluster.send("payments", e)
    # for every task, every holder's reservoir has identical event counts
    by_task = {}
    for u in cluster.units.values():
        for t, tp in u.task_processors.items():
            if t in u.active or t in u.replica:
                by_task.setdefault(t, []).append(tp.reservoir.total_events)
    assert by_task, "no tasks assigned?"
    for t, counts in by_task.items():
        assert len(set(counts)) == 1, f"replica divergence on {t}: {counts}"
        assert len(counts) == 2  # active + 1 replica


def test_node_failure_mid_stream_keeps_answers_exact(cluster):
    events = _events(n=120, seed=4)
    for i, e in enumerate(events):
        if i == 60:
            cluster.kill_node("node1")
        ans = cluster.send("payments", e, via_node="node0")
        _check(events, i, ans)
    assert cluster.stats()["nodes"] == 2


def test_two_sequential_node_failures(cluster):
    events = _events(n=90, seed=5)
    for i, e in enumerate(events):
        if i == 30:
            cluster.kill_node("node2")
        if i == 60:
            cluster.kill_node("node1")
        ans = cluster.send("payments", e, via_node="node0")
        _check(events, i, ans)


def test_failure_without_replicas_recovers_from_log_replay(tmp_path):
    """Replication 1: the dead node's tasks restart fresh and rewind the
    whole partition from the messaging layer (§3.3)."""
    c = RailgunCluster(
        str(tmp_path), n_nodes=2, units_per_node=1, replication=1,
        reservoir_kwargs={"chunk_events": 16, "cache_chunks": 16},
    )
    c.register_stream("payments", [Q1, Q2], partitions=2)
    events = _events(n=80, seed=6)
    for i, e in enumerate(events):
        if i == 40:
            c.kill_node("node1")
        ans = c.send("payments", e, via_node="node0")
        _check(events, i, ans)


def test_scale_out_rebalances_and_keeps_answers(cluster):
    events = _events(n=90, seed=7)
    for i, e in enumerate(events):
        if i == 45:
            cluster.add_node("node3")
        ans = cluster.send("payments", e)
        _check(events, i, ans)
    st = cluster.stats()
    assert st["nodes"] == 4
    # the new node received some work
    new_units = [u for u in st["active_per_unit"] if u.startswith("node3")]
    total_new = sum(
        st["active_per_unit"][u] + st["replica_per_unit"][u] for u in new_units
    )
    assert total_new > 0


def test_rebalance_is_sticky_on_noop(cluster):
    for e in _events(n=40, seed=8):
        cluster.send("payments", e)
    before = {
        uid: (set(u.active), set(u.replica)) for uid, u in cluster.units.items()
    }
    cluster.rebalance()  # nothing changed in the cluster
    after = {
        uid: (set(u.active), set(u.replica)) for uid, u in cluster.units.items()
    }
    assert before == after


def test_duplicate_delivery_is_idempotent(cluster):
    events = _events(n=30, seed=9)
    for e in events[:-1]:
        cluster.send("payments", e)
    e = events[-1]
    a1 = cluster.send("payments", e)
    a2 = cluster.send("payments", dict(e))  # same event id re-sent
    assert a1 == a2  # dedup in the reservoir: aggregates unchanged


def test_front_end_keeps_no_stale_replies_after_a_replay(tmp_path):
    """Replication 1: the dead node's tasks replay their partitions and
    answer every old event again; the front end drops those replies."""
    c = RailgunCluster(str(tmp_path), n_nodes=3, units_per_node=1, replication=1,
                       reservoir_kwargs={"chunk_events": 16, "cache_chunks": 16})
    c.register_stream("payments", [Q1, Q2], partitions=4)
    events = _events(n=160, seed=10)
    for i, e in enumerate(events):
        if i == 80:
            c.kill_node("node2")
        _check(events, i, c.send("payments", e))
    while c.step():
        pass
    fe = c.frontends["node0"]
    fe.poll_replies()
    assert fe._reply_offset > 2 * len(events)  # replayed replies did arrive
    assert fe.completed == {} and fe._waiting == {}


def test_front_end_counts_each_topic_once():
    kafka = MiniKafka()
    kafka.create_topic("s.a", 1)
    kafka.create_topic("s.b", 1)
    fe = FrontEnd("n0", kafka)
    fe.send("s", ["a", "b"], {"id": "x", "ts": 1, "a": 1, "b": 2})

    def reply(topic, answers):
        kafka.produce(fe.reply_topic, key="x", value=("x", topic, answers))

    reply("s.a", {"m1": 1})
    reply("s.a", {"m1": 1})  # the same task again, after a replay
    fe.poll_replies()
    assert fe.completed == {}
    reply("s.b", {"m2": 2})
    fe.poll_replies()
    assert fe.completed == {"x": {"m1": 1, "m2": 2}}


def test_one_message_is_shared_by_every_partitioner_topic_and_never_mutated(tmp_path):
    """The front end produces one object per event to every partitioner
    topic; a late event whose ts the reservoir rewrites keeps its original
    ts in the log, so a replay sees what the client sent."""
    c = RailgunCluster(str(tmp_path), n_nodes=1, units_per_node=1, replication=1,
                       reservoir_kwargs={"chunk_events": 2, "cache_chunks": 4,
                                         "out_of_order": "rewrite"})
    c.register_stream("payments", [Q1, Q2], partitions=1)
    events = [{"id": f"e{i}", "ts": 1_000 * i, "card_id": 1, "merchant_id": 1,
               "amount": 1.0} for i in range(1, 200)]
    late = {"id": "late", "ts": 500, "card_id": 1, "merchant_id": 1, "amount": 1.0}
    for e in events + [late]:
        c.send("payments", e)
    rewritten = [tp.reservoir.rewritten_late for u in c.units.values()
                 for tp in u.task_processors.values()]
    assert rewritten == [1, 1]
    fe = c.frontends[c.nodes[0]]
    card, merchant = (c.kafka.fetch(f"payments.{p}", 0, len(events), 10)
                      for p in ("card_id", "merchant_id"))
    assert len(card) == len(merchant) == 1
    assert card[0] is merchant[0]
    assert card[0] == (fe.reply_topic, late)


def test_a_client_field_named_reply_to_reaches_the_task_unchanged(tmp_path):
    """A message is the pair (reply topic, event): the front end adds no
    key to the event, so a client field ``_reply_to`` is filtered on as
    sent and the reservoir stores the event as the client sent it."""
    c = RailgunCluster(str(tmp_path), n_nodes=1, units_per_node=1, replication=1)
    c.register_stream("payments", [
        "SELECT count(amount) FROM payments WHERE _reply_to == 'client' "
        "GROUP BY card_id OVER sliding 1 minute"], partitions=1)
    event = {"id": "x", "ts": 1_000, "card_id": 1, "merchant_id": 1,
             "amount": 1.0, "_reply_to": "client"}
    assert list(c.send("payments", event).values()) == [1]
    (tp,) = (tp for u in c.units.values() for tp in u.task_processors.values())
    stored: list = []
    tp.reservoir.iterator().advance_until(event["ts"], stored)
    assert stored == [event]


def test_a_gained_copy_replays_nothing_past_a_stale_holder(tmp_path):
    """Scale-out moves tasks off units that keep their data as stale
    copies, some ahead of the task's current holder in unit order; each
    gained copy is taken from a current holder, so it replays nothing."""
    c = RailgunCluster(str(tmp_path), n_nodes=1, units_per_node=1, replication=1,
                       reservoir_kwargs={"chunk_events": 4, "cache_chunks": 4})
    c.register_stream("payments", [Q1], partitions=3)
    events = _events(n=40, seed=11, n_cards=9)
    for i, e in enumerate(events):
        if i in (10, 20, 30):
            c.add_node(f"node{i // 10}")
            for u in c.units.values():
                for t in u.active:
                    assert u.task_processors[t].last_offset == c.kafka.end_offset(*t) - 1
        _check_card(events, i, c.send("payments", e))
    assert any(set(u.task_processors) - u.active for u in c.units.values())


def test_send_waits_out_a_replay_longer_than_any_step_budget(tmp_path):
    """Replication 1: the new owner of a killed node's task replays the
    whole partition (12 000 records, 60 steps of 200) before it answers."""
    c = RailgunCluster(str(tmp_path), n_nodes=2, units_per_node=1, replication=1)
    c.register_stream("payments", [Q1], partitions=1)
    events = _events(n=12_001, seed=12)
    for e in events[:-1]:
        c.frontends["node0"].send("payments", ["card_id"], e)
    while c.step():
        pass
    owner = next(u for u in c.units.values() if u.active)
    c.kill_node(owner.node_id)
    _check_card(events, len(events) - 1,
                c.send("payments", events[-1], via_node=c.nodes[0]))


def test_every_copy_keeps_one_chunk_layout_under_late_input(tmp_path):
    """Out-of-order input across a scale-out and a node failure: every
    holder of a task stores and drops the same events, and every answer
    equals that of a standalone processor fed the task's partition log."""
    kw = {"chunk_events": 8, "cache_chunks": 8}
    c = RailgunCluster(str(tmp_path / "c"), n_nodes=2, units_per_node=1,
                       replication=2, reservoir_kwargs=kw)
    c.register_stream("payments", [Q1, Q2], partitions=3)
    rng = np.random.default_rng(13)
    events = _events(n=150, seed=13)
    for e in events[::3]:
        e["ts"] -= int(rng.integers(1, 6_000))
    answers = {}
    for i, e in enumerate(events):
        if i == 50:
            c.add_node("node2")
        if i == 100:
            c.kill_node("node0")
        answers[e["id"]] = c.send("payments", e, via_node="node1")
    for t, stmts in ((t, c._topic_statements[t[0]]) for t in c._all_tasks()):
        holders = [u.task_processors[t].reservoir for u in c.units.values()
                   if u.alive and t in u.active | u.replica]
        assert len(holders) == 2
        assert len({(r.total_events, r.sealed_chunks(), r.dropped_late)
                    for r in holders}) == 1, t
        solo = TaskProcessor("solo", stmts, str(tmp_path / f"{t[0]}-{t[1]}"),
                             reservoir_kwargs=kw)
        for _, event in c.kafka.fetch(*t, 0, 10_000):
            expect = solo.process(event)
            assert {k: answers[event["id"]][k] for k in expect} == expect
