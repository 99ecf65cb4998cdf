"""T4 benchmark (paper Fig 10, §5.3): node scaling to 1 M ev/s.

``test_t4_fig10_table`` regenerates the node-scaling ladder (CSV under
``benchmarks/results/`` unless benchmarks are disabled); the
micro-benchmark times the vectorized Lindley queue over one million
events (the simulator's backbone).
"""
import numpy as np

from repro.bench.fig10 import calibrate_unit_service, run_fig10
from repro.bench.queueing import fifo_departures

from . import save_table


def test_t4_fig10_table(benchmark, tmp_path):
    """Regenerate T4: calibrate a real unit, run the paper's ladder."""
    svc = calibrate_unit_service(str(tmp_path))
    df = benchmark.pedantic(lambda: run_fig10(svc), rounds=1, iterations=1)
    save_table(benchmark, df, "T4_fig10.csv")
    benchmark.extra_info["table"] = df.to_dict("records")
    small = df[df.nodes <= 20]
    assert small.sustainable.all() and small.meets_M.all()
    assert (small.achieved_per_node / small.offered_per_node > 0.95).all()
    row30 = df[df.nodes == 30].iloc[0]
    assert not row30.sustainable or not row30.meets_M  # the paper's knee
    row35 = df[df.nodes == 35].iloc[0]
    assert row35.sustainable
    row50 = df[df.nodes == 50].iloc[0]
    assert row50.sustainable and row50.meets_M  # 1M ev/s @ 20k/node


def test_micro_lindley_1m_events(benchmark):
    rng = np.random.default_rng(0)
    arrivals = np.cumsum(rng.exponential(1.0, 1_000_000))
    services = rng.exponential(0.7, 1_000_000)
    benchmark(lambda: fifo_departures(arrivals, services))
