"""T1 (paper Fig 8, §5.1): Flink hopping windows vs Railgun sliding windows.

Run:  spark-submit jobs/fig8_flink_vs_railgun.py  (or plain python)

Prints the latency ladder (engine × hop → percentiles, sustainability),
a Spark-SQL percentile cross-check of the harness numbers, and the §2.1
accuracy scorecard per hop (per-event agreement with true sliding
answers + miss rate of the "count(5 min) > 4 → block" rule).
"""
import sys
import tempfile

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _session import get_spark, show_percentiles_via_spark  # noqa: E402

from repro import synth_data  # noqa: E402
from repro.bench.fig8 import fig8_table, run_fig8  # noqa: E402
from repro.core.sliding import hopping_accuracy  # noqa: E402
from repro.core.windows import MINUTE, SECOND  # noqa: E402


def main() -> None:
    spark = get_spark("fig8-flink-vs-railgun")
    with tempfile.TemporaryDirectory(prefix="fig8-") as d:
        results = run_fig8(d)
    table = fig8_table(results)
    print("\n=== T1 (Fig 8): latency at 500 ev/s, sum(amount) by card, 60-min window ===")
    spark.createDataFrame(table.astype({"hop": str, "panes": str})).show(truncate=False)

    print("=== Spark-SQL percentile cross-check (harness vs Catalyst) ===")
    for r in results:
        show_percentiles_via_spark(spark, r.engine, r.latencies_s)

    print("=== A requirement: hopping accuracy vs true sliding (5-min window) ===")
    pay = spark.createDataFrame(
        synth_data.payments_pdf(n=4_000, rate_hz=2.0, n_cards=50, seed=1)
    ).cache()
    rows = []
    for hop in (MINUTE, 15 * SECOND, 5 * SECOND):
        acc = hopping_accuracy(pay, window_ms=5 * MINUTE, hop_ms=hop)
        rows.append({"hop_ms": hop, **{k: round(v, 4) for k, v in acc.items()}})
    import pandas as pd

    spark.createDataFrame(pd.DataFrame(rows)).show(truncate=False)
    spark.stop()


if __name__ == "__main__":
    main()
