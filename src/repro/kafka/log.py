"""MiniKafka broker: partitioned, append-only, offset-addressed logs.

Provides the exact properties the paper needs from Kafka (§3.3):

- topics split into partitions for parallelism;
- keyed publishing: a stable hash routes every message with the same key
  to the same (topic, partition) — Railgun sets the key to the
  *partitioner* value (e.g. the card id);
- pull-based consumption: consumers fetch from an offset they track, so a
  recovering node can rewind the stream and replay unprocessed messages
  without slowing anyone else down.

A partition is a plain list of message values, and a message's offset is
its index in that list: a message has no id of its own. Produced values
are shared, never copied: the front end produces one ``(reply topic,
event)`` tuple to every partitioner topic, and no consumer mutates what
it fetches (a task processor stores a copy of each event).
"""
from __future__ import annotations

import zlib
from typing import Any


def stable_hash(key: Any) -> int:
    """Deterministic key hash (Python's builtin hash is salted per run)."""
    return zlib.crc32(repr(key).encode())


class MiniKafka:
    """The broker cluster: topics → partitions → append-only logs."""

    def __init__(self) -> None:
        self._topics: dict[str, list[list[Any]]] = {}

    # -- topic management --------------------------------------------------

    def create_topic(self, name: str, partitions: int) -> None:
        if name in self._topics:
            raise ValueError(f"topic {name!r} already exists")
        if partitions < 1:
            raise ValueError("partitions must be >= 1")
        self._topics[name] = [[] for _ in range(partitions)]

    def topics(self) -> list[str]:
        return sorted(self._topics)

    def partitions(self, topic: str) -> int:
        return len(self._topics[topic])

    # -- produce / fetch ------------------------------------------------------

    def produce(self, topic: str, key: Any, value: Any) -> tuple[int, int]:
        """Append a message; returns (partition, offset).

        The key is hashed over the partition count — messages with equal
        keys always land in the same partition (the guarantee §4 builds on).
        """
        parts = self._topics[topic]
        p = stable_hash(key) % len(parts)
        log = parts[p]
        log.append(value)
        return p, len(log) - 1

    def fetch(
        self, topic: str, partition: int, offset: int, max_records: int = 500
    ) -> list[Any]:
        """The values at offsets ``offset`` … ``offset + max_records - 1``."""
        return self._topics[topic][partition][offset: offset + max_records]

    def end_offset(self, topic: str, partition: int) -> int:
        return len(self._topics[topic][partition])
