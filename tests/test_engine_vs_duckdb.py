"""End-to-end: the Railgun engine's per-event answers equal DuckDB.

This closes the loop directly (engine → DuckDB), without going through
the Spark reference: the engine processes the stream event by event and
its answers are compared against DuckDB RANGE window frames.
"""
import duckdb
import numpy as np
import pytest

from repro import synth_data
from repro.core.task import TaskProcessor
from repro.core.windows import MINUTE
from repro.oracle import assert_equivalent


def test_railgun_engine_answers_equal_duckdb(tmp_path):
    pdf = synth_data.payments_pdf(n=1_200, rate_hz=2.0, n_cards=20, seed=13)
    tp = TaskProcessor(
        "t",
        ["SELECT sum(amount), count(amount) FROM payments GROUP BY card_id "
         f"OVER sliding {MINUTE} ms"],
        str(tmp_path),
        reservoir_kwargs={"chunk_events": 64, "cache_chunks": 16},
    )
    s_name, c_name = (leaf.metric.name for leaf in tp.plan.leaves)
    got = []
    for e in pdf.to_dict("records"):
        ans = tp.process(e)
        got.append((e["id"], ans[s_name], ans[c_name]))
    con = duckdb.connect()
    con.register("payments", pdf)
    expect = con.execute(
        "SELECT id, "
        f"SUM(amount) OVER (PARTITION BY card_id ORDER BY ts "
        f"RANGE BETWEEN {MINUTE - 1} PRECEDING AND CURRENT ROW) AS s, "
        f"COUNT(amount) OVER (PARTITION BY card_id ORDER BY ts "
        f"RANGE BETWEEN {MINUTE - 1} PRECEDING AND CURRENT ROW) AS c "
        "FROM payments ORDER BY id"
    ).fetchall()
    con.close()
    got.sort()
    assert len(got) == len(expect)
    for (gid, gs, gc), (eid, es, ec) in zip(got, expect):
        assert gid == eid
        assert gs == pytest.approx(float(es), rel=1e-9)
        assert gc == ec


def test_oracle_self_check_catches_wrong_results(spark):
    """assert_equivalent must fail loudly on a wrong plan, not just run."""
    import pandas as pd

    pdf = pd.DataFrame({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
    good = spark.createDataFrame(
        pd.DataFrame({"k": [1, 2], "s": [3.0, 3.0]})
    )
    assert_equivalent(good, "SELECT k, SUM(v) AS s FROM t GROUP BY k", t=pdf)
    bad = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "s": [3.0, 4.0]}))
    with pytest.raises(AssertionError):
        assert_equivalent(bad, "SELECT k, SUM(v) AS s FROM t GROUP BY k", t=pdf)
    renamed = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "x": [3.0, 3.0]}))
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(renamed, "SELECT k, SUM(v) AS s FROM t GROUP BY k", t=pdf)
