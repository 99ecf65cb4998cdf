"""Spark reference implementations vs the DuckDB oracle (A requirement).

``sliding_answers`` (exact per-event real-time sliding aggregates) is
checked against DuckDB ``RANGE BETWEEN (w-1) PRECEDING AND CURRENT ROW``
window frames over the same input — a genuinely independent
implementation of the window semantics, tied timestamps included (they
see each other, as in a ``RANGE`` frame). ``hopping_answers`` (Fig 1
semantics) is checked against a brute-force pandas reference, and the
Fig 1 scenario itself is pinned as a test.
"""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data
from repro.core.sliding import hopping_accuracy, hopping_answers, sliding_answers
from repro.core.windows import MINUTE, SECOND
from repro.oracle import assert_equivalent

N = 2_000  # at 2 ev/s this spans ~17 min, so 10s/1min/5min windows all cycle


@pytest.fixture(scope="module")
def pay_pdf():
    return synth_data.payments_pdf(n=N, rate_hz=2.0, n_cards=40, seed=11)


@pytest.fixture(scope="module")
def pay(spark, pay_pdf):
    return spark.createDataFrame(pay_pdf).cache()


@pytest.fixture(scope="module")
def tied_pdf(pay_pdf):
    """The fixture stream with ts coarsened to whole 5 s buckets: many ties."""
    return pay_pdf.assign(ts=pay_pdf["ts"] // (5 * SECOND) * (5 * SECOND))


_DUCK_AGG = {
    "sum": "SUM(amount)",
    "count": "COUNT(amount)",
    "avg": "AVG(amount)",
    "min": "MIN(amount)",
    "max": "MAX(amount)",
    "stdDev": "STDDEV_SAMP(amount)",
}


def _duck_sql(aggs, window_ms, key="card_id"):
    cols = ", ".join(
        f"{_DUCK_AGG[a]} OVER (PARTITION BY {key} ORDER BY ts "
        f"RANGE BETWEEN {window_ms - 1} PRECEDING AND CURRENT ROW) AS {a}_amount"
        for a in aggs
    )
    return f"SELECT id, ts, {key}, {cols} FROM payments"


@pytest.mark.parametrize("window_ms", [10 * SECOND, MINUTE, 5 * MINUTE])
def test_sliding_sum_count_vs_duckdb(spark, pay, pay_pdf, tied_pdf, window_ms):
    sql = _duck_sql(("sum", "count"), window_ms)
    for pdf, df in ((pay_pdf, pay), (tied_pdf, spark.createDataFrame(tied_pdf))):
        got = sliding_answers(df, aggs=("sum", "count"), window_ms=window_ms)
        assert_equivalent(got, sql, payments=pdf)


def test_sliding_avg_min_max_vs_duckdb(spark, pay, pay_pdf):
    got = sliding_answers(pay, aggs=("avg", "min", "max"), window_ms=MINUTE)
    assert_equivalent(got, _duck_sql(("avg", "min", "max"), MINUTE), payments=pay_pdf)


def test_sliding_stddev_vs_duckdb(spark, pay, pay_pdf):
    got = sliding_answers(pay, aggs=("stdDev",), window_ms=MINUTE)
    assert_equivalent(got, _duck_sql(("stdDev",), MINUTE), payments=pay_pdf)


def test_sliding_by_merchant_vs_duckdb(spark, pay, pay_pdf):
    got = sliding_answers(pay, key="merchant_id", aggs=("sum",), window_ms=MINUTE)
    assert_equivalent(
        got, _duck_sql(("sum",), MINUTE, key="merchant_id"), payments=pay_pdf
    )


def test_sliding_count_distinct_vs_pandas(spark, pay, pay_pdf):
    """DuckDB has no DISTINCT window aggregates; use a pandas brute force."""
    got = (
        sliding_answers(pay, aggs=("countDistinct",), window_ms=MINUTE)
        .toPandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    pdf = pay_pdf.sort_values("id").reset_index(drop=True)
    for i in [0, 5, 100, 500, 999, 1500, N - 1]:
        row = pdf.iloc[i]
        w = pdf[
            (pdf.card_id == row.card_id)
            & (pdf.ts > row.ts - MINUTE)
            & (pdf.ts <= row.ts)
        ]
        expect = w.amount.nunique()
        assert got.loc[got.id == row.id, "countDistinct_amount"].iloc[0] == expect


def test_delayed_sliding_vs_pandas(spark, pay, pay_pdf):
    got = (
        sliding_answers(pay, aggs=("count",), window_ms=MINUTE, delay_ms=10 * SECOND)
        .toPandas()
        .set_index("id")
    )
    pdf = pay_pdf
    for i in [0, 50, 400, 900, 1700]:
        row = pdf.iloc[i]
        hi = row.ts - 10 * SECOND
        w = pdf[(pdf.card_id == row.card_id) & (pdf.ts > hi - MINUTE) & (pdf.ts <= hi)]
        assert got.loc[row.id, "count_amount"] == len(w)


# -- hopping reference ---------------------------------------------------------

def test_hopping_answers_vs_pandas_bruteforce(spark, pay, pay_pdf):
    window_ms, hop_ms = 5 * MINUTE, MINUTE
    got = (
        hopping_answers(pay, aggs=("sum", "count"), window_ms=window_ms, hop_ms=hop_ms)
        .toPandas()
        .set_index("id")
    )
    pdf = pay_pdf
    for i in [0, 13, 200, 777, 1500, N - 1]:
        row = pdf.iloc[i]
        b = (row.ts // hop_ms) * hop_ms
        w = pdf[(pdf.card_id == row.card_id) & (pdf.ts >= b - window_ms) & (pdf.ts < b)]
        assert got.loc[row.id, "count_amount"] == len(w)
        if len(w):
            assert got.loc[row.id, "sum_amount"] == pytest.approx(w.amount.sum())
        else:
            assert np.isnan(got.loc[row.id, "sum_amount"])


def test_figure1_hopping_misses_fifth_event(spark):
    """Paper Fig 1: 5 events within 5 min; a 1-min hop counts only 4."""
    pdf = pd.DataFrame(
        {
            "id": range(5),
            # minutes 0.5, 1.5, 2.5, 3.5, 4.9 — all within one 5-min span
            "ts": [30_000, 90_000, 150_000, 210_000, 294_000],
            "card_id": [1] * 5,
            "amount": [10.0] * 5,
        }
    )
    spark_df = spark.createDataFrame(pdf)
    true = (
        sliding_answers(spark_df, aggs=("count",), window_ms=5 * MINUTE)
        .toPandas()
        .set_index("id")
    )
    hop = (
        hopping_answers(spark_df, aggs=("count",), window_ms=5 * MINUTE, hop_ms=MINUTE)
        .toPandas()
        .set_index("id")
    )
    assert true.loc[4, "count_amount"] == 5  # real-time sliding sees all 5
    assert hop.loc[4, "count_amount"] == 4  # the hopping approximation misses e5


def test_hopping_accuracy_improves_with_smaller_hop(spark, pay):
    """§2.1: the compliance rule misses fewer blocks with smaller hops, but
    hopping answers never equal the true per-event sliding answers (the
    last completed window excludes the in-flight event by construction)."""
    acc_big = hopping_accuracy(pay, window_ms=5 * MINUTE, hop_ms=MINUTE)
    acc_small = hopping_accuracy(pay, window_ms=5 * MINUTE, hop_ms=5 * SECOND)
    assert acc_big["count_agreement"] < 1.0  # hopping is not accurate
    assert acc_small["count_agreement"] < 1.0  # ... at any hop size
    assert acc_big["rule_triggers"] > 0
    assert acc_big["rule_miss_rate"] > acc_small["rule_miss_rate"] > 0
