"""T1 benchmark (paper Fig 8, §5.1): Flink hopping vs Railgun sliding.

``test_t1_fig8_table`` regenerates the whole T1 table (written to
``benchmarks/results/T1_fig8.csv`` and attached as benchmark
extra_info); the micro-benchmarks time per-event processing of each
engine so the §2.2 cost ladder is visible directly in the
pytest-benchmark output.
"""
import os
import tempfile

import pytest

from repro import synth_data
from repro.bench.fig8 import WINDOW_MS, fig8_table, run_fig8
from repro.core.engines import FlinkHoppingEngine
from repro.core.task import TaskProcessor
from repro.core.windows import MINUTE, SECOND

RESULTS = os.path.join(os.path.dirname(__file__), "results")
os.makedirs(RESULTS, exist_ok=True)


def test_t1_fig8_table(benchmark):
    """Regenerate T1: the full engine × hop latency ladder."""
    tmp = tempfile.mkdtemp(prefix="bench-fig8-")
    results = benchmark.pedantic(
        lambda: run_fig8(tmp, n_events=12_000, max_measured=1_500),
        rounds=1, iterations=1,
    )
    df = fig8_table(results)
    df.to_csv(os.path.join(RESULTS, "T1_fig8.csv"), index=False)
    benchmark.extra_info["table"] = df.to_dict("records")
    rows = {r.engine: r for r in results}
    railgun = results[0]
    assert railgun.sustainable and railgun.percentiles["p99.9"] < 250
    assert not rows["flink (hop 10s)"].sustainable
    assert not rows["flink (hop 1s)"].sustainable
    assert railgun.mean_service_ms == min(r.mean_service_ms for r in results)


def _events(n=4_000, seed=3):
    return synth_data.payments_pdf(
        n=n, rate_hz=500.0, n_cards=2_000, seed=seed
    ).to_dict("records")


def _bench_batches(benchmark, eng, *, batch=100, rounds=25):
    """Time successive 100-event batches through a live engine."""
    events = iter(_events(batch * (rounds + 5)))

    def run():
        for _ in range(batch):
            eng.process(next(events))

    benchmark.pedantic(run, rounds=rounds, iterations=1, warmup_rounds=2)


def test_micro_railgun_per_100_events(benchmark):
    tp = TaskProcessor(
        "t",
        ["SELECT sum(amount) FROM payments GROUP BY card_id "
         f"OVER sliding {WINDOW_MS} ms"],
        tempfile.mkdtemp(),
        reservoir_kwargs={"chunk_events": 512, "cache_chunks": 64},
    )
    _bench_batches(benchmark, tp)


@pytest.mark.parametrize("hop_ms", [5 * MINUTE, MINUTE, 10 * SECOND])
def test_micro_flink_hopping_per_100_events(benchmark, hop_ms):
    eng = FlinkHoppingEngine(aggs=("sum",), window_ms=WINDOW_MS, hop_ms=hop_ms)
    _bench_batches(benchmark, eng)
