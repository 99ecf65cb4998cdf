"""The §5.1 engines answer exactly what their references say.

- Railgun's TaskProcessor ≡ per-event real-time sliding answers (and
  therefore, by test_sliding_oracle.py, ≡ the DuckDB oracle);
- FlinkHoppingEngine ≡ the last-completed-hopping-window reference;
- FlinkRecomputeEngine ≡ the sliding reference (it is accurate — just
  algorithmically quadratic, which is the point of §2.2's critique).
"""
import math

import pytest

from repro import synth_data
from repro.bench.fig8 import FLINK_PANE_OVERHEAD_US, pane_overhead_us
from repro.core.engines import FlinkHoppingEngine, FlinkRecomputeEngine
import pandas as pd

from repro.core.sliding import hopping_bounds, sliding_bounds, window_pass
from repro.core.task import TaskProcessor
from repro.core.windows import MINUTE, SECOND


def _per_card(pdf, aggs, bounds):
    """Apply the per-entity reference pass per card (as Spark's groupBy does)."""
    return pd.concat(
        [window_pass(g, "card_id", "amount", aggs, bounds)
         for _, g in pdf.groupby("card_id")],
        ignore_index=True,
    )


@pytest.fixture(scope="module")
def stream():
    pdf = synth_data.payments_pdf(n=1500, rate_hz=2.0, n_cards=25, seed=3)
    return pdf, pdf.to_dict("records")


def _close(a, b):
    if a is None and (b is None or (isinstance(b, float) and math.isnan(b))):
        return True
    if a is None or b is None or (isinstance(b, float) and math.isnan(b)):
        return False
    return abs(float(a) - float(b)) < 1e-6


def _check_engine(engine, events, ref_pdf, aggs, field="amount", names=None):
    """``names`` maps a reference column to the engine's answer key."""
    ref = ref_pdf.set_index("id")
    for e in events:
        ans = engine.process(e)
        for a in aggs:
            col = f"{a}_{field}"
            got = ans[names[col] if names else col]
            expect = ref.loc[e["id"], col]
            assert _close(got, expect), (
                f"event {e['id']} {col}: engine={got} ref={expect}"
            )


def _railgun(path, aggs, window_ms):
    select = ", ".join(f"{a}(amount)" for a in aggs)
    return TaskProcessor(
        "t",
        [f"SELECT {select} FROM payments GROUP BY card_id "
         f"OVER sliding {window_ms} ms"],
        path,
        reservoir_kwargs={"chunk_events": 64, "cache_chunks": 32},
    )


def test_railgun_engine_matches_sliding_reference(tmp_path, stream):
    pdf, events = stream
    aggs = ("sum", "count", "avg")
    tp = _railgun(str(tmp_path / "rg"), aggs, MINUTE)
    names = {
        f"{leaf.metric.agg}_{leaf.metric.agg_field}": leaf.metric.name
        for leaf in tp.plan.leaves
    }
    ref = _per_card(pdf, aggs, sliding_bounds(MINUTE))
    _check_engine(tp, events, ref, aggs, names=names)


def test_railgun_engine_long_window_equals_short_on_shared_head(tmp_path, stream):
    """Window size changes what expires, never what arrives (§4.1.1)."""
    pdf, events = stream
    tp = _railgun(str(tmp_path / "rg2"), ("count",), 24 * 60 * MINUTE)
    name = tp.plan.leaves[0].metric.name
    # a day-long window over a ~12-min stream == infinite window here
    for i, e in enumerate(events):
        ans = tp.process(e)
        expect = sum(1 for x in events[: i + 1] if x["card_id"] == e["card_id"])
        assert ans[name] == expect


@pytest.mark.parametrize("hop_ms", [MINUTE, 15 * SECOND])
def test_flink_hopping_engine_matches_reference(stream, hop_ms):
    pdf, events = stream
    aggs = ("sum", "count")
    eng = FlinkHoppingEngine(aggs=aggs, window_ms=5 * MINUTE, hop_ms=hop_ms)
    ref = _per_card(pdf, aggs, hopping_bounds(5 * MINUTE, hop_ms))
    _check_engine(eng, events, ref, aggs)


def test_flink_hopping_pane_count(stream):
    eng = FlinkHoppingEngine(aggs=("sum",), window_ms=60 * MINUTE, hop_ms=MINUTE)
    assert eng.panes_per_event == 60
    with pytest.raises(ValueError):
        FlinkHoppingEngine(aggs=("sum",), window_ms=MINUTE, hop_ms=7000)


def test_flink_hopping_pane_state_expires(stream):
    """Fired windows purge their panes — state is bounded by active panes."""
    pdf, events = stream
    eng = FlinkHoppingEngine(aggs=("sum",), window_ms=MINUTE, hop_ms=15 * SECOND)
    for e in events:
        eng.process(e)
    active_panes = len(list(eng.store.keys("panes")))
    # ≤ (#cards active in the last window+hop) × panes_per_event, far fewer
    # than #events — hopping's memory advantage (§2.2)
    assert active_panes <= 25 * eng.panes_per_event


def test_flink_recompute_engine_matches_sliding_reference(stream):
    pdf, events = stream
    aggs = ("sum", "count", "min", "max")
    eng = FlinkRecomputeEngine(aggs=aggs, window_ms=MINUTE)
    ref = _per_card(pdf, aggs, sliding_bounds(MINUTE))
    _check_engine(eng, events, ref, aggs)


def test_hopping_engine_synthetic_costs_scale_with_pane_count():
    """§2.2's cost argument, as the T1 harness sees it: the calibrated
    per-event cost is proportional to windowSize/hop."""
    costs = {}
    for hop in (60, 10, 1):
        eng = FlinkHoppingEngine(
            aggs=("sum",), window_ms=60 * MINUTE, hop_ms=hop * SECOND,
        )
        costs[hop] = pane_overhead_us(eng)()
    assert costs[60] == 60 * FLINK_PANE_OVERHEAD_US
    assert costs[10] > 5 * costs[60]
    assert costs[1] > 5 * costs[10]


def test_railgun_engine_cost_independent_of_window_size(tmp_path, stream):
    """The M-enabler: Railgun per-event work does not grow with the window."""
    pdf, events = stream
    totals = {}
    for label, w in (("5min", 5 * MINUTE), ("1day", 24 * 60 * MINUTE)):
        tp = _railgun(str(tmp_path / f"rgc{label}"), ("sum",), w)
        for e in events:
            tp.process(e)
        totals[label] = tp.store.gets + tp.store.puts
    assert totals["1day"] <= totals["5min"] * 1.1
