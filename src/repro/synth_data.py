"""Synthetic payments stream, the input of every experiment and test.

Generators are deterministic in ``seed`` so the DuckDB oracle sees
identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def payments_pdf(
    *,
    n: int,
    rate_hz: float = 500.0,
    n_cards: int = 2_000,
    n_merchants: int = 200,
    start_ms: int = 0,
    zipf_alpha: float = 1.15,
    pad_fields: int = 0,
    seed: int = 7,
) -> pd.DataFrame:
    """Synthetic payments stream (substitute for the paper's client fraud data).

    The paper's dataset is a real 103-field fraud feed with skewed entity
    cardinalities; its experiments only aggregate ``amount`` grouped by
    card (and merchant). This generator preserves what matters:

    - Poisson arrivals at ``rate_hz`` with strictly increasing, *unique*
      integer-millisecond timestamps (unique ts keeps sliding-window
      semantics unambiguous for the DuckDB oracle — DESIGN.md §4);
    - Zipf-distributed ``card_id`` (real card activity is heavily skewed),
      near-uniform ``merchant_id``;
    - log-normal ``amount``;
    - optional ``pad_00..`` string fields to mimic the 103-field record
      width for (de)serialization-cost realism.
    """
    g = np.random.default_rng(seed)
    gaps = np.maximum(1, np.round(g.exponential(1000.0 / rate_hz, n))).astype("int64")
    ts = start_ms + np.cumsum(gaps)
    ranks = np.arange(1, n_cards + 1)
    w = 1.0 / ranks**zipf_alpha
    w /= w.sum()
    pdf = pd.DataFrame(
        {
            "id": np.arange(n, dtype="int64"),
            "ts": ts,
            "card_id": g.choice(ranks, size=n, p=w).astype("int64"),
            "merchant_id": g.integers(1, n_merchants + 1, n).astype("int64"),
            "amount": np.round(g.lognormal(3.5, 1.0, n), 2),
        }
    )
    for i in range(pad_fields):
        pdf[f"pad_{i:02d}"] = pd.Series(
            g.integers(0, 1 << 30, n).astype("int64")
        ).map("f{:d}".format)
    return pdf


def payments(spark: SparkSession, **kwargs) -> DataFrame:
    """Spark DataFrame version of :func:`payments_pdf`."""
    return spark.createDataFrame(payments_pdf(**kwargs))
