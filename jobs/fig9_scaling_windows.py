"""T2/T3 (paper Fig 9, §5.2): scaling window size and window count.

Run:  spark-submit jobs/fig9_scaling_windows.py  (or plain python)

T2: sum(amount) by card @ 500 ev/s, window 5 min → 7 days — latency and
memory must be independent of the window size.
T3: 3 metrics × N misaligned windows (20→240 iterators, 220-chunk cache)
— latency flat until the iterators exceed the cache, then degraded.
"""
import sys
import tempfile

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _session import get_spark  # noqa: E402

from repro.bench.fig9 import (  # noqa: E402
    CACHE_CHUNKS, RATE_HZ_A, RATE_HZ_B, fig9_table, run_fig9a, run_fig9b,
)


def main() -> None:
    spark = get_spark("fig9-scaling-windows")
    print(f"\n=== T2 (Fig 9a): window size sweep @ {RATE_HZ_A:g} ev/s ===")
    with tempfile.TemporaryDirectory(prefix="fig9a-") as d:
        a = fig9_table(run_fig9a(d))
    spark.createDataFrame(a).show(truncate=False)

    print(f"=== T3 (Fig 9b): iterator sweep (cache = {CACHE_CHUNKS} chunks) "
          f"@ {RATE_HZ_B:g} ev/s ===")
    with tempfile.TemporaryDirectory(prefix="fig9b-") as d:
        b = fig9_table(run_fig9b(d))
    spark.createDataFrame(b).show(truncate=False)
    spark.stop()


if __name__ == "__main__":
    main()
