"""Host-speed probe and the meter that scales every timed piece by it.

On a shared 4-vCPU host a fixed pure-Python loop swings between 13 and
24 ms in phases lasting seconds to minutes, and wall-clock and thread time
swing together. So every ~50 ms of timed work the meter times a fixed
~1.5 ms probe loop, outside every timed piece, and scales each piece by
``C_REF / mean(probe before, probe after)``. Gated metrics use the scaled
times; the raw ones are printed beside them.

The probe mixes what the engine's hot paths do: interpreter work on
dicts and ints, a pickle round trip per iteration (state-store values are
pickled on every access) and a zlib round trip every 64 iterations (chunks
are zlib-compressed). A bytecode-only loop tracked the engine poorly; see
perfbench/README.md for the measurements behind each part.
"""
from __future__ import annotations

import pickle
import time
import zlib
from typing import Callable

import numpy as np

# The probe's median duration on the reference host (4-vCPU x86-64,
# CPython 3.11), so that scaled times read close to raw ones there. A
# constant: changing it changes every gated timing.
C_REF = 1.8e-3
PROBE_ITERS = 800
PIECE_S = 0.05


_BLOCK = bytes(range(256)) * 16


def probe_loop(n: int = PROBE_ITERS) -> int:
    """Fixed dict/int work, a pickle round trip per iteration, and a zlib
    round trip of 4 KiB every 64 iterations."""
    d: dict[int, int] = {}
    acc = 0
    for i in range(n):
        k = i & 63
        d[k] = d.get(k, 0) + i
        acc += len(pickle.loads(pickle.dumps((k, i, 0.5), 5)))
        if k == 0:
            acc += len(zlib.decompress(zlib.compress(_BLOCK, 6)))
    return acc


def time_probe() -> float:
    t0 = time.perf_counter()
    probe_loop()
    return time.perf_counter() - t0


def pair_factors(probes: np.ndarray) -> np.ndarray:
    """Speed of the pieces closed by probe k: 1 / mean(p[k-1], p[k])."""
    f = np.full(len(probes), np.nan)
    f[1:] = 1.0 / ((probes[:-1] + probes[1:]) / 2)
    return f


class Meter:
    """Records timed pieces (raw seconds) and the probe that closes each.

    ``add`` files a piece; once ~``PIECE_S`` of pieces are open, a probe
    runs and closes them. Piece indices are stable, so callers keep index
    ranges per phase; ``pieces`` returns their durations, scaled or raw.
    """

    def __init__(self, probe: Callable[[], float] = time_probe):
        self._probe = probe
        self.raw: list[float] = []
        self.closer: list[int] = []  # index into probes of each piece's closing probe
        self.probes: list[float] = []
        self._open = 0
        self._open_s = 0.0
        for _ in range(3):  # warm the loop before the first reading counts
            probe()
        self.probes.append(probe())

    def add(self, dt: float) -> int:
        self.raw.append(dt)
        self._open += 1
        self._open_s += dt
        if self._open_s >= PIECE_S:
            self.close()
        return len(self.raw) - 1

    def time(self, fn: Callable, *args):
        """Call ``fn(*args)`` as one timed piece; return (result, index)."""
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        return out, self.add(dt)

    def close(self) -> None:
        """Probe now and close every open piece."""
        if not self._open:
            return
        self.probes.append(self._probe())
        self.closer.extend([len(self.probes) - 1] * self._open)
        self._open = 0
        self._open_s = 0.0

    def mark(self) -> int:
        return len(self.raw)

    def factors(self) -> np.ndarray:
        """Scale factor of every piece."""
        self.close()
        f = C_REF * pair_factors(np.asarray(self.probes))
        return f[np.asarray(self.closer, dtype=np.int64)]

    def pieces(self, idx, scaled: bool = True) -> np.ndarray:
        """Durations (s) of the pieces at ``idx``, scaled or raw."""
        self.close()
        idx = np.asarray(idx, dtype=np.int64)
        raw = np.asarray(self.raw)[idx]
        return raw * self.factors()[idx] if scaled else raw
