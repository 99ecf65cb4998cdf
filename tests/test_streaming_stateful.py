"""The Structured Streaming stateful operator is exactly accurate.

Runs real streaming queries (file source → applyInPandasWithState →
memory sink, availableNow trigger) and checks per-event answers directly
against the DuckDB oracle. One test forces one micro-batch per input
file so the per-key state must carry the sliding window across batches.
"""
import time

import numpy as np
import pytest

from repro import synth_data
from repro.core.windows import MINUTE, SECOND
from repro.oracle import assert_equivalent
from repro.streaming import run_sliding_stream

N = 900


@pytest.fixture(scope="module")
def pay_pdf():
    return synth_data.payments_pdf(n=N, rate_hz=2.0, n_cards=15, seed=21)


def _run(spark, pdf, tmp, n_files, name, **kw):
    """Write the stream as n time-ordered parquet files and run the query."""
    files = f"{tmp}/in_{name}"
    for i, idx in enumerate(np.array_split(np.arange(len(pdf)), n_files)):
        chunk = pdf.iloc[idx][["id", "ts", "card_id", "amount"]]
        spark.createDataFrame(chunk).coalesce(1).write.mode("append").parquet(files)
        if n_files > 1:
            time.sleep(0.05)  # distinct mtimes → oldest-first batch order
    schema = spark.read.parquet(files).schema
    return run_sliding_stream(
        spark, files, schema, window_ms=MINUTE,
        checkpoint_dir=f"{tmp}/ckpt_{name}", query_name=f"q_{name}", **kw
    )


_ORACLE_SQL = (
    "SELECT id, ts, card_id, "
    f"SUM(amount) OVER (PARTITION BY card_id ORDER BY ts "
    f"RANGE BETWEEN {MINUTE - 1} PRECEDING AND CURRENT ROW) AS sum_amount, "
    f"COUNT(amount) OVER (PARTITION BY card_id ORDER BY ts "
    f"RANGE BETWEEN {MINUTE - 1} PRECEDING AND CURRENT ROW) AS count_amount "
    "FROM payments"
)


def test_streaming_matches_duckdb_oracle(spark, pay_pdf, tmp_path):
    # the second input coarsens ts to whole 5 s buckets: tied events share
    # the one micro-batch and must see each other, as in the RANGE frame
    tied = pay_pdf.assign(ts=pay_pdf["ts"] // (5 * SECOND) * (5 * SECOND))
    for name, pdf in (("one", pay_pdf), ("tied", tied)):
        got = _run(spark, pdf, tmp_path, n_files=1, name=name)
        assert_equivalent(got, _ORACLE_SQL, payments=pdf)


def test_streaming_state_carries_across_micro_batches(spark, pay_pdf, tmp_path):
    """One micro-batch per file: per-key window state spans batches, and
    the merged per-event answers still equal the DuckDB oracle. The input
    keeps unique ts: a tied event that arrives in a later micro-batch
    cannot be in an earlier answer."""
    got = _run(
        spark, pay_pdf, tmp_path, n_files=4, name="multi",
        max_files_per_trigger=1,
    )
    assert_equivalent(got, _ORACLE_SQL, payments=pay_pdf)


def test_streaming_every_event_answered_exactly_once(spark, pay_pdf, tmp_path):
    got = _run(spark, pay_pdf, tmp_path, n_files=1, name="b").toPandas()
    assert sorted(got["id"].tolist()) == sorted(pay_pdf["id"].tolist())
    assert got["id"].is_unique


def test_streaming_avg_min_max(spark, pay_pdf, tmp_path):
    got = _run(
        spark, pay_pdf, tmp_path, n_files=1, name="c",
        aggs=("avg", "min", "max"),
    )
    sql = (
        "SELECT id, ts, card_id, "
        + ", ".join(
            f"{fn}(amount) OVER (PARTITION BY card_id ORDER BY ts "
            f"RANGE BETWEEN {MINUTE - 1} PRECEDING AND CURRENT ROW) AS {a}_amount"
            for a, fn in (("avg", "AVG"), ("min", "MIN"), ("max", "MAX"))
        )
        + " FROM payments"
    )
    assert_equivalent(got, sql, payments=pay_pdf)
