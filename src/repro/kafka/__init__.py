"""MiniKafka: the messaging-layer substrate (paper §3.3, §4.2).

An in-process reimplementation of the Kafka concepts Railgun relies on:
partitioned topics over append-only logs, keyed publishing, pull-based
consumption by offset (so a node can rewind and replay after a failure),
and a pluggable assignment strategy — Railgun's sticky strategy (Fig 7)
lives in :mod:`repro.kafka.assignment`. Membership is the cluster's own
list of live processor units, and a consumer's position is the offset it
tracks itself (see :mod:`repro.engine.node`).
"""
from .log import MiniKafka, Record
from .assignment import sticky_assign, AssignmentInput

__all__ = ["MiniKafka", "Record", "sticky_assign", "AssignmentInput"]
