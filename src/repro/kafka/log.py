"""MiniKafka broker: partitioned, append-only, offset-addressed logs.

Provides the exact properties the paper needs from Kafka (§3.3):

- topics split into partitions for parallelism;
- keyed publishing: a stable hash routes every message with the same key
  to the same (topic, partition) — Railgun sets the key to the
  *partitioner* value (e.g. the card id);
- pull-based consumption: consumers fetch from an offset they track, so a
  recovering node can rewind the stream and replay unprocessed messages
  without slowing anyone else down.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any


def stable_hash(key: Any) -> int:
    """Deterministic key hash (Python's builtin hash is salted per run)."""
    return zlib.crc32(repr(key).encode())


@dataclass(frozen=True)
class Record:
    """One message in a partition log."""

    offset: int
    key: Any
    value: Any
    ts: int | None = None


@dataclass
class _Partition:
    records: list[Record] = field(default_factory=list)

    def append(self, key: Any, value: Any, ts: int | None) -> int:
        off = len(self.records)
        self.records.append(Record(off, key, value, ts))
        return off


class MiniKafka:
    """The broker cluster: topics → partitions → append-only logs."""

    def __init__(self) -> None:
        self._topics: dict[str, list[_Partition]] = {}
        self.produced = 0

    # -- topic management --------------------------------------------------

    def create_topic(self, name: str, partitions: int) -> None:
        if name in self._topics:
            raise ValueError(f"topic {name!r} already exists")
        if partitions < 1:
            raise ValueError("partitions must be >= 1")
        self._topics[name] = [_Partition() for _ in range(partitions)]

    def topics(self) -> list[str]:
        return sorted(self._topics)

    def partitions(self, topic: str) -> int:
        return len(self._topics[topic])

    # -- produce / fetch ------------------------------------------------------

    def produce(
        self, topic: str, key: Any, value: Any, *, ts: int | None = None,
        partition: int | None = None,
    ) -> tuple[int, int]:
        """Append a message; returns (partition, offset).

        With no explicit partition, the key is hashed over the partition
        count — messages with equal keys always land in the same
        partition (the guarantee §4 builds on).
        """
        parts = self._topics[topic]
        p = stable_hash(key) % len(parts) if partition is None else partition
        off = parts[p].append(key, value, ts)
        self.produced += 1
        return p, off

    def fetch(
        self, topic: str, partition: int, offset: int, max_records: int = 500
    ) -> list[Record]:
        log = self._topics[topic][partition].records
        return log[offset: offset + max_records]

    def end_offset(self, topic: str, partition: int) -> int:
        return len(self._topics[topic][partition].records)
