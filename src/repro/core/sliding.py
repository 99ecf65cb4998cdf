"""Spark reference implementations of per-event window answers.

One per-entity pass, :func:`window_pass`, answers every event over the
rows its ``bounds`` give, ``lo < ts <= hi``, reusing the same stateless
aggregators as the Railgun engine. Rows with equal timestamps see each
other, as in a SQL ``RANGE`` frame. It serves:

- :func:`sliding_answers` — what a **real-time sliding window** must
  answer for every event: the aggregate over ``(t - w, t]`` of the
  event's entity (:func:`sliding_bounds`), as an ``applyInPandas``.
  Checked against DuckDB ``RANGE BETWEEN (w-1) PRECEDING AND CURRENT ROW``
  window frames in the tests. The Structured Streaming operator
  (``streaming/stateful.py``) runs the same pass per micro-batch.

- :func:`hopping_answers` — what a **hopping-window** system (Flink-style)
  can answer per event: the aggregate of the *last completed* hop window
  ``[b - w, b)``, ``b = floor(t/hop)·hop`` (:func:`hopping_bounds`). This
  reproduces Fig 1: the 5th event within 5 minutes of the 1st sees a
  count of 4.

- :func:`hopping_accuracy` — quantifies the paper's **A** requirement:
  per-event agreement between hopping and true sliding answers, plus the
  §2.1 business-rule miss rate ("block if count(last 5 min) > 4").
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, functions as F
from pyspark.sql.types import DoubleType, StructField, StructType

from .aggregators import aggregator

# Aggregations whose per-event answers these references support.
NUMERIC_AGGS = ("count", "sum", "avg", "min", "max", "stdDev", "countDistinct")


def sliding_bounds(window_ms: int, delay_ms: int = 0) -> Callable:
    """A sliding window's rows for an event at ``t``: ``(t - d - w, t - d]``."""
    return lambda ts: (ts - delay_ms - window_ms, ts - delay_ms)


def hopping_bounds(window_ms: int, hop_ms: int) -> Callable:
    """The last completed hop window ``[b - w, b)``, ``b = floor(t/hop)·hop``,
    as ``(b - w - 1, b - 1]`` on integer ms."""

    def bounds(ts):
        b = ts // hop_ms * hop_ms
        return b - window_ms - 1, b - 1

    return bounds


def window_pass(
    pdf: pd.DataFrame, key: str, field: str, aggs: tuple[str, ...], bounds: Callable
) -> pd.DataFrame:
    """One entity's per-event answers, sorted by (ts, id).

    Row i is answered over the rows with ``lo[i] < ts <= hi[i]``, where
    ``lo, hi = bounds(ts)``, so tied rows see each other. Both bounds must
    be non-decreasing in ts: a head and a tail pointer then add and evict
    each row once (amortized O(1) per event).
    """
    pdf = pdf.sort_values(["ts", "id"], kind="mergesort").reset_index(drop=True)
    ts = pdf["ts"].to_numpy()
    vals = pdf[field].to_numpy()
    lo, hi = bounds(ts)
    n = len(pdf)
    impls = [aggregator(a) for a in aggs]
    states = [g.new() for g in impls]
    out = np.full((len(aggs), n), np.nan)
    head = tail = 0
    for i in range(n):
        while head < n and ts[head] <= hi[i]:
            for g, st in zip(impls, states):
                g.add(st, head, vals[head])
            head += 1
        while tail < head and ts[tail] <= lo[i]:
            for g, st in zip(impls, states):
                g.evict(st, tail, vals[tail])
            tail += 1
        for j, (g, st) in enumerate(zip(impls, states)):
            v = g.value(st)
            if v is not None:
                out[j, i] = float(v)
    res = pdf[["id", "ts", key]].copy()
    for j, a in enumerate(aggs):
        res[f"{a}_{field}"] = out[j]
    return res


def _answers(
    df: DataFrame, key: str, field: str, aggs: tuple[str, ...], bounds: Callable
) -> DataFrame:
    schema = StructType(
        [StructField(c, df.schema[c].dataType) for c in ("id", "ts", key)]
        + [StructField(f"{a}_{field}", DoubleType()) for a in aggs]
    )
    return df.select("id", "ts", key, field).groupBy(key).applyInPandas(
        lambda pdf: window_pass(pdf, key, field, aggs, bounds), schema
    )


def sliding_answers(
    df: DataFrame,
    *,
    key: str = "card_id",
    field: str = "amount",
    aggs: tuple[str, ...] = ("sum",),
    window_ms: int,
    delay_ms: int = 0,
) -> DataFrame:
    """Exact per-event sliding-window aggregates, one row per input event."""
    for a in aggs:
        if a not in NUMERIC_AGGS:
            raise ValueError(f"unsupported per-event agg {a!r}")
    return _answers(df, key, field, aggs, sliding_bounds(window_ms, delay_ms))


def hopping_answers(
    df: DataFrame,
    *,
    key: str = "card_id",
    field: str = "amount",
    aggs: tuple[str, ...] = ("sum",),
    window_ms: int,
    hop_ms: int,
) -> DataFrame:
    """Per-event answers a hopping-window system serves (last completed window)."""
    return _answers(df, key, field, aggs, hopping_bounds(window_ms, hop_ms))


def hopping_accuracy(
    df: DataFrame,
    *,
    key: str = "card_id",
    field: str = "amount",
    window_ms: int,
    hop_ms: int,
    rule_threshold: int = 4,
) -> dict[str, float]:
    """The **A**-requirement scorecard for one hop size.

    Returns per-event agreement of sum/count with the true sliding answer,
    and the §2.1 rule analysis: of the events where the true sliding count
    exceeds ``rule_threshold`` ("block the transaction"), what fraction
    does the hopping approximation miss?
    """
    true_df = sliding_answers(
        df, key=key, field=field, aggs=("sum", "count"), window_ms=window_ms
    ).select(
        "id",
        F.col(f"sum_{field}").alias("true_sum"),
        F.col(f"count_{field}").alias("true_count"),
    )
    hop_df = hopping_answers(
        df, key=key, field=field, aggs=("sum", "count"),
        window_ms=window_ms, hop_ms=hop_ms,
    ).select(
        "id",
        F.col(f"sum_{field}").alias("hop_sum"),
        F.col(f"count_{field}").alias("hop_count"),
    )
    j = true_df.join(hop_df, "id")
    row = j.select(
        F.count("*").alias("n"),
        F.sum(
            (F.abs(F.coalesce(F.col("hop_sum"), F.lit(0.0)) - F.col("true_sum")) < 1e-6)
            .cast("long")
        ).alias("sum_ok"),
        F.sum(
            (F.coalesce(F.col("hop_count"), F.lit(0.0)) == F.col("true_count"))
            .cast("long")
        ).alias("count_ok"),
        F.sum((F.col("true_count") > rule_threshold).cast("long")).alias("rule_true"),
        F.sum(
            (
                (F.col("true_count") > rule_threshold)
                & (F.coalesce(F.col("hop_count"), F.lit(0.0)) <= rule_threshold)
            ).cast("long")
        ).alias("rule_missed"),
    ).collect()[0]
    return {
        "events": row["n"],
        "sum_agreement": row["sum_ok"] / row["n"],
        "count_agreement": row["count_ok"] / row["n"],
        "rule_triggers": row["rule_true"],
        "rule_miss_rate": (row["rule_missed"] / row["rule_true"]) if row["rule_true"] else 0.0,
    }
