"""Window specifications (paper §2 and §3.4).

Railgun supports real-time **sliding**, **tumbling** and **infinite** time
windows, each optionally **delayed** by an offset (useful in bot-attack
scenarios). Hopping windows are deliberately not part of the Railgun
language — the paper treats them as an approximation — but the baseline
engines in :mod:`repro.core.engines` implement them for §5.1.

Membership semantics (DESIGN.md §4): when an event with timestamp ``t``
arrives, the evaluation instant is "the moment right after" ``t``, so for a
sliding window of size ``w`` delayed by ``d`` an event ``t_i`` belongs iff
``t - d - w < t_i <= t - d``. All timestamps are integer epoch
milliseconds.
"""
from __future__ import annotations

from dataclasses import dataclass

MS = 1
SECOND = 1000 * MS
MINUTE = 60 * SECOND
HOUR = 60 * MINUTE
DAY = 24 * HOUR

_UNITS = {
    "ms": MS,
    "msec": MS,
    "milliseconds": MS,
    "s": SECOND,
    "sec": SECOND,
    "second": SECOND,
    "seconds": SECOND,
    "m": MINUTE,
    "min": MINUTE,
    "minute": MINUTE,
    "minutes": MINUTE,
    "h": HOUR,
    "hour": HOUR,
    "hours": HOUR,
    "d": DAY,
    "day": DAY,
    "days": DAY,
}


def parse_duration(text: str) -> int:
    """Parse ``"5 minutes"`` / ``"7d"`` / ``"250ms"`` into milliseconds."""
    s = text.strip().lower()
    for unit in sorted(_UNITS, key=len, reverse=True):
        if s.endswith(unit):
            num = s[: -len(unit)].strip()
            if num:
                return int(float(num) * _UNITS[unit])
    raise ValueError(f"cannot parse duration {text!r}")


@dataclass(frozen=True)
class WindowSpec:
    """A Railgun window: kind ∈ {sliding, tumbling, infinite} + delay.

    ``size_ms`` is ignored for infinite windows (stored as 0).
    """

    kind: str
    size_ms: int = 0
    delay_ms: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("sliding", "tumbling", "infinite"):
            raise ValueError(f"unknown window kind {self.kind!r}")
        if self.kind != "infinite" and self.size_ms <= 0:
            raise ValueError(f"{self.kind} window needs a positive size")
        if self.delay_ms < 0:
            raise ValueError("delay must be >= 0")

    def bounds(self, t_eval: int) -> tuple[int, int]:
        """Half-open ``(lo, hi]`` bounds for evaluation at an event with
        timestamp ``t_eval``: events with ``lo < t_i <= hi`` belong to this
        evaluation. ``lo`` may be very negative for infinite windows.
        """
        hi = t_eval - self.delay_ms
        if self.kind == "sliding":
            return hi - self.size_ms, hi
        if self.kind == "tumbling":
            # The in-progress bucket that contains `hi`, served per event.
            lo = (hi // self.size_ms) * self.size_ms - 1
            return lo, hi
        return -(1 << 62), hi

    def contains(self, t_i: int, t_eval: int) -> bool:
        lo, hi = self.bounds(t_eval)
        return lo < t_i <= hi

    def describe(self) -> str:
        base = self.kind if self.kind == "infinite" else f"{self.kind} {self.size_ms}ms"
        return f"{base} delayed by {self.delay_ms}ms" if self.delay_ms else base
