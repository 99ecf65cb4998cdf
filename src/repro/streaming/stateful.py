"""Exact sliding-window aggregation as a Structured Streaming stateful op.

The reproduction band asks for "custom stateful operators
(flatMapGroupsWithState) maintaining accurate sliding window aggregates
without fixed overlapping window approximations". PySpark exposes that
operator as ``GroupedData.applyInPandasWithState``; this module
implements Railgun's **A** requirement on it: per key, the state is the
event buffer trimmed to the window span (the streaming analogue of the
event reservoir's window slice), and every incoming event is answered
with the exact aggregate over ``(t - w, t]`` — no hops, no panes.

Spark's micro-batching means *latency* is batched (which is exactly why
the paper builds its own engine — see DESIGN.md §6); *accuracy* is
per-event and is oracle-checked in the tests against DuckDB via the
batch reference.
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

from ..core.aggregators import aggregator

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
    largest possible window. Each micro-batch merges the buffered and the
    new events in timestamp order, replays the incremental aggregators,
    emits one output row per *new* event, and trims the buffer to
    ``(t_max - w, t_max]``.
    """
    out_schema = _output_schema(df.schema[key].dataType, aggs, field)

    def fn(
        k: Tuple[Any], pdf_iter: Iterator[pd.DataFrame], state: GroupState
    ) -> Iterator[pd.DataFrame]:
        if state.exists:
            ts_buf, val_buf, id_buf = state.get
            ts_buf, val_buf, id_buf = list(ts_buf), list(val_buf), list(id_buf)
        else:
            ts_buf, val_buf, id_buf = [], [], []
        new = pd.concat(list(pdf_iter), ignore_index=True)
        new = new.sort_values(["ts", "id"], kind="mergesort")
        new_ids = set(new["id"].tolist())
        ts_all = ts_buf + new["ts"].tolist()
        val_all = val_buf + new[field].tolist()
        id_all = id_buf + new["id"].tolist()
        order = sorted(range(len(ts_all)), key=lambda i: (ts_all[i], id_all[i]))
        impls = [aggregator(a) for a in aggs]
        states = [g.new() for g in impls]
        rows = []
        head = tail = 0
        # replay the merged buffer; answer only the new events
        for pos in range(len(order)):
            i = order[pos]
            while head <= pos:
                j = order[head]
                for g, st in zip(impls, states):
                    g.add(st, j, val_all[j])
                head += 1
            while tail < head:
                j = order[tail]
                if ts_all[j] <= ts_all[i] - window_ms:
                    for g, st in zip(impls, states):
                        g.evict(st, j, val_all[j])
                    tail += 1
                else:
                    break
            if id_all[i] in new_ids:
                vals = [
                    float(v) if (v := g.value(st)) is not None else None
                    for g, st in zip(impls, states)
                ]
                rows.append([id_all[i], ts_all[i], k[0], *vals])
        t_max = max(ts_all)
        keep = [i for i in order if ts_all[i] > t_max - window_ms]
        state.update(
            (
                [ts_all[i] for i in keep],
                [float(val_all[i]) for i in keep],
                [id_all[i] for i in keep],
            )
        )
        yield pd.DataFrame(rows, columns=[f.name for f in out_schema.fields])

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
