"""Exact sliding-window aggregation as a Structured Streaming stateful op.

The reproduction band asks for "custom stateful operators
(flatMapGroupsWithState) maintaining accurate sliding window aggregates
without fixed overlapping window approximations". PySpark exposes that
operator as ``GroupedData.applyInPandasWithState``; this module
implements Railgun's **A** requirement on it: per key, the state is the
event buffer trimmed to the window span (the streaming analogue of the
event reservoir's window slice), and every incoming event is answered
with the exact aggregate over ``(t - w, t]`` — no hops, no panes — by
the batch reference's own pass, :func:`repro.core.sliding.window_pass`.
Events with equal timestamps see each other when they share a
micro-batch or one is buffered; a tied event that arrives in a later
micro-batch cannot change an answer already emitted.

Spark's micro-batching means *latency* is batched (which is exactly why
the paper builds its own engine — see DESIGN.md §6); *accuracy* is
per-event and is oracle-checked in the tests against DuckDB.
"""
from __future__ import annotations

import os
from typing import Any, Iterator, Tuple

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.streaming.state import GroupState, GroupStateTimeout
from pyspark.sql.types import (
    ArrayType,
    DoubleType,
    LongType,
    StructField,
    StructType,
)

from ..core.sliding import sliding_bounds, window_pass

_STATE_SCHEMA = StructType(
    [
        StructField("ts", ArrayType(LongType())),
        StructField("vals", ArrayType(DoubleType())),
        StructField("ids", ArrayType(LongType())),
    ]
)


def _output_schema(key_type, aggs: tuple[str, ...], field: str) -> StructType:
    return StructType(
        [
            StructField("id", LongType()),
            StructField("ts", LongType()),
            StructField("key", key_type),
        ]
        + [StructField(f"{a}_{field}", DoubleType()) for a in aggs]
    )


def sliding_stateful_transform(
    df: DataFrame,
    *,
    key: str = "card_id",
    field: str = "amount",
    aggs: tuple[str, ...] = ("sum", "count"),
    window_ms: int,
) -> DataFrame:
    """Attach the stateful per-event sliding aggregation to a streaming df.

    State per key: (ts[], vals[], ids[]) — the events still inside the
    largest possible window. Each micro-batch runs the reference's
    :func:`~repro.core.sliding.window_pass` over the buffered and the new
    events, emits one output row per *new* event, and trims the buffer to
    ``(t_max - w, t_max]``.
    """
    out_schema = _output_schema(df.schema[key].dataType, aggs, field)
    bounds = sliding_bounds(window_ms)

    def fn(
        k: Tuple[Any], pdf_iter: Iterator[pd.DataFrame], state: GroupState
    ) -> Iterator[pd.DataFrame]:
        new = pd.concat(list(pdf_iter), ignore_index=True)[["ts", field, "id"]]
        buf = pd.DataFrame(dict(zip(new.columns, state.get))) if state.exists else None
        rows = pd.concat([buf, new], ignore_index=True).assign(key=k[0])
        keep = rows[rows["ts"] > rows["ts"].max() - window_ms]
        state.update(
            (keep["ts"].tolist(), keep[field].astype(float).tolist(), keep["id"].tolist())
        )
        res = window_pass(rows, "key", field, aggs, bounds)
        yield res[res["id"].isin(new["id"])]

    return (
        df.groupBy(key)
        .applyInPandasWithState(
            fn, out_schema, _STATE_SCHEMA, "update", GroupStateTimeout.NoTimeout
        )
        .withColumnRenamed("key", key)
    )


def run_sliding_stream(
    spark: SparkSession,
    input_dir: str,
    schema: StructType,
    *,
    key: str = "card_id",
    field: str = "amount",
    aggs: tuple[str, ...] = ("sum", "count"),
    window_ms: int,
    checkpoint_dir: str,
    query_name: str = "railgun_sliding",
    max_files_per_trigger: int | None = None,
) -> DataFrame:
    """Run the stateful sliding aggregation over a directory of parquet
    files as a real streaming query (availableNow trigger, memory sink),
    and return the collected results as a DataFrame.

    ``max_files_per_trigger=1`` forces one micro-batch per input file
    (files are picked oldest-first), exercising state across batches.
    """
    reader = spark.readStream.schema(schema)
    if max_files_per_trigger is not None:
        reader = reader.option("maxFilesPerTrigger", max_files_per_trigger)
    stream = reader.parquet(input_dir)
    out = sliding_stateful_transform(
        stream, key=key, field=field, aggs=aggs, window_ms=window_ms
    )
    q = (
        out.writeStream.format("memory")
        .queryName(query_name)
        .outputMode("update")
        .option("checkpointLocation", os.path.join(checkpoint_dir, query_name))
        .trigger(availableNow=True)
        .start()
    )
    q.awaitTermination()
    return spark.table(query_name)
