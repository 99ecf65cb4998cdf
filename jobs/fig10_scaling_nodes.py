"""T4 (paper Fig 10, §5.3): scaling Railgun nodes up to 1 M ev/s.

Run:  spark-submit jobs/fig10_scaling_nodes.py  (or plain python)

Calibrates per-unit service times from a real task-processor run, then
drives the 3-stage queueing model over the paper's node/throughput
ladder (see DESIGN.md §2 for the calibration), and prints the T4 table.
Spark aggregates the calibration sample statistics.
"""
import sys
import tempfile

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _session import get_spark  # noqa: E402

import pandas as pd  # noqa: E402

from repro.bench.fig10 import calibrate_unit_service, erosion, run_fig10  # noqa: E402


def main() -> None:
    spark = get_spark("fig10-scaling-nodes")
    with tempfile.TemporaryDirectory(prefix="fig10-cal-") as d:
        svc = calibrate_unit_service(d)
    print("\n=== calibration: measured per-event service times (one unit) ===")
    sdf = spark.createDataFrame(pd.DataFrame({"svc_us": svc * 1e6}))
    sdf.selectExpr(
        "count(*) AS samples",
        "round(avg(svc_us), 1) AS mean_us",
        "round(percentile(svc_us, 0.5), 1) AS p50_us",
        "round(percentile(svc_us, 0.99), 1) AS p99_us",
        "round(max(svc_us), 1) AS max_us",
    ).show(truncate=False)

    print("=== T4 (Fig 10): node-scaling ladder (calibrated queueing model) ===")
    table = run_fig10(svc)
    spark.createDataFrame(table).show(truncate=False)

    print("=== per-unit service erosion vs partition count (model) ===")
    ero = pd.DataFrame(
        {"partitions": [8, 80, 160, 200, 240, 280, 400]}
    )
    ero["erosion_x"] = ero["partitions"].map(erosion).round(3)
    spark.createDataFrame(ero).show(truncate=False)
    spark.stop()


if __name__ == "__main__":
    main()
