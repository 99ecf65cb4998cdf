"""Quick checks of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q -p no:cacheprovider
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from probe import C_REF, Meter  # noqa: E402
from tracing import Tracer  # noqa: E402

NAMES = list(workloads.WORKLOADS)


def tiny(name: str, seed: int = 3):
    if name == "wide-plan":
        return workloads.WidePlan(seed, 40, windows=3)
    if name == "wide-records":
        return workloads.WideRecords(seed, 600)
    return workloads.ClusterFailover(seed, 250, n_backlog=1500, failover_every=100)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    table = metrics.END_TO_END if key == "end_to_end" else metrics.PER_LAYER
    assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table
    proc = bench("--workload", "wide-records", "--seed", "1", "--seconds", "0.2",
                 "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[key]}
    assert "imported modules outside" not in proc.stdout


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "wide-plan", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", NAMES)
def test_reference_catches_an_injected_wrong_answer(name, tmp_path):
    wl = tiny(name)
    p = run.run_pass(wl, 1, str(tmp_path))
    assert p.measured.raised == 0 and p.mismatches == []
    checker = wl.checker(p.measured.checked)
    k = len(p.measured.answers) // 2
    for metric in sorted(p.measured.answers[k]):
        answers = copy.deepcopy(p.measured.answers)
        v = answers[k][metric]
        answers[k][metric] = 1 if v is None else v * 1.001 + 1
        assert checker.mismatches(answers) == [k], metric
    answers = copy.deepcopy(p.measured.answers)
    answers[k] = None
    assert checker.mismatches(answers) == [k]


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_answers_are_identical(name, tmp_path):
    wl = tiny(name)
    a = run.run_pass(wl, 1, str(tmp_path / "a"))
    tracer = Tracer().install()
    try:
        b = run.run_pass(wl, 1, str(tmp_path / "b"), tracer)
    finally:
        tracer.uninstall()
    assert b.mismatches == [] and b.measured.answers == a.measured.answers
    assert tracer.get("measure", "task.process")[2] > 0 and tracer.spans
    from repro.core.statestore import StateStore
    from repro.core.task import TaskProcessor

    assert not hasattr(StateStore.get, "__wrapped__")
    assert not hasattr(TaskProcessor.__dict__["recover"].__func__, "__wrapped__")


def test_cluster_counters_match_the_traced_store_calls(tmp_path):
    """Store counters of the measured phase count every StateStore call the
    tracer sees there, across failovers that kill nodes and drop tasks."""
    wl = tiny("cluster-failover")
    tracer = Tracer().install()
    try:
        p = run.run_pass(wl, 1, str(tmp_path), tracer)
    finally:
        tracer.uninstall()
    assert len(p.measured.recovery_idx) >= 2 and p.mismatches == []
    assert p.counters["gets"] == tracer.get("measure", "statestore.get")[2] > 0
    assert p.counters["puts"] == tracer.get("measure", "statestore.put")[2] > 0


def test_generator_is_deterministic_per_seed():
    makers = [
        lambda s: inputs.wide_plan_stream(s, 500),
        lambda s: inputs.cluster_stream(s, 500),
        lambda s: inputs.concat(*inputs.wide_records_streams(s, 300, 600_000, 256)),
    ]
    for make in makers:
        a, b, c = make(1), make(1), make(2)
        for f in ("ts", "card", "merchant", "amount"):
            assert np.array_equal(getattr(a, f), getattr(b, f))
        assert not np.array_equal(a.amount, c.amount)
        assert np.all(np.diff(a.ts) > 0)
        assert a.events(0, 50, wide=True) == b.events(0, 50, wide=True)
    wide = a.events(40, 43, wide=True)
    assert len(wide[0]) == 103
    assert all(e[f] == inputs.pad(e["id"], j) for e in wide
               for j, f in enumerate(inputs.PAD_FIELDS))


def test_probe_scaling_is_applied_to_every_gated_timing(tmp_path):
    wl = tiny("cluster-failover")
    meter = Meter(probe=lambda: 2 * C_REF)  # a host running at half speed
    p = run.run_pass(wl, 2, str(tmp_path), meter=meter)
    scaled, _ = metrics.end_to_end(meter, wl.stream.ts, p.measured, p.setup_ranges, 1.0, True)
    raw, _ = metrics.end_to_end(meter, wl.stream.ts, p.measured, p.setup_ranges, 1.0, False)
    assert np.allclose(meter.factors(), 0.5)
    pre = copy.copy(meter)  # the same pieces, scaled by hand
    pre.raw = list(np.asarray(meter.raw) * meter.factors())
    by_hand, _ = metrics.end_to_end(pre, wl.stream.ts, p.measured, p.setup_ranges, 1.0, False)
    timings = [k for k, (unit, _) in metrics.END_TO_END.items() if unit != "MB"]
    timings.append("recovery_s")
    assert all(scaled[k] == pytest.approx(by_hand[k], rel=1e-9) for k in timings)
    assert all(scaled[k] != pytest.approx(raw[k], rel=1e-3) for k in timings)
