"""Embedded aggregation state store (paper §4.1.3).

The paper uses RocksDB; Python bindings for RocksDB are unavailable
offline, so this is an embedded key-value store with the same *cost
shape*: every read/write pays value (de)serialization (pickle), values
live in column families, and checkpoints flush the store to disk so
recovery can copy it. The task plan keeps one record per entity per
GroupBy in that GroupBy's column family, and countDistinct
multiplicities in a column family per metric, as in the paper.

``gets`` and ``puts`` count the accesses.
"""
from __future__ import annotations

import os
import pickle
from collections import defaultdict
from typing import Any, Iterator


class StateStore:
    """Column-family key-value store with pickled values + checkpointing."""

    DEFAULT_CF = "default"

    def __init__(self, data_dir: str | None = None):
        self.dir = data_dir
        if data_dir:
            os.makedirs(data_dir, exist_ok=True)
        self._cfs: defaultdict[str, dict[Any, bytes]] = defaultdict(dict)
        self.gets = 0
        self.puts = 0

    def get(self, key: Any, cf: str = DEFAULT_CF) -> Any | None:
        self.gets += 1
        blob = self._cfs[cf].get(key)
        return None if blob is None else pickle.loads(blob)

    def put(self, key: Any, value: Any, cf: str = DEFAULT_CF) -> None:
        self.puts += 1
        self._cfs[cf][key] = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)

    def delete(self, key: Any, cf: str = DEFAULT_CF) -> None:
        self._cfs[cf].pop(key, None)

    def keys(self, cf: str = DEFAULT_CF) -> Iterator[Any]:
        return iter(self._cfs[cf].keys())

    def __len__(self) -> int:
        return sum(len(d) for d in self._cfs.values())

    # -- checkpointing ---------------------------------------------------

    def checkpoint(self, tag: str = "ckpt") -> str:
        """Flush the store to ``<dir>/<tag>.state``; returns the path."""
        if not self.dir:
            raise RuntimeError("state store has no data_dir; cannot checkpoint")
        path = os.path.join(self.dir, f"{tag}.state")
        with open(path, "wb") as fh:
            pickle.dump(self._cfs, fh, protocol=pickle.HIGHEST_PROTOCOL)
        return path

    def load(self, path: str) -> None:
        """Replace this store's contents with a checkpoint file's."""
        with open(path, "rb") as fh:
            self._cfs = defaultdict(dict, pickle.load(fh))
