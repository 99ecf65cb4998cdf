"""T1–T4 shape tests and micro-benchmarks (pytest-benchmark)."""
import os

RESULTS = os.path.join(os.path.dirname(__file__), "results")


def save_table(benchmark, df, name: str) -> None:
    """Write a T-table to ``results/<name>`` on a measured run
    (``pytest benchmarks/ --benchmark-only``). A ``--benchmark-disable``
    run checks the shapes and leaves the committed tables as they are."""
    if not benchmark.disabled:
        os.makedirs(RESULTS, exist_ok=True)
        df.to_csv(os.path.join(RESULTS, name), index=False)
