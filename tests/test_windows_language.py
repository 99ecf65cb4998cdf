"""Tests for window specs (§2/§3.4) and the Fig-4 query language parser."""
import duckdb
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.language import compile_filter, parse_statement
from repro.core.windows import DAY, HOUR, MINUTE, SECOND, WindowSpec, parse_duration


# -- durations ---------------------------------------------------------------

@pytest.mark.parametrize(
    "text,ms",
    [
        ("5 minutes", 5 * MINUTE),
        ("1 second", SECOND),
        ("60 min", HOUR),
        ("7 days", 7 * DAY),
        ("250ms", 250),
        ("1.5 hours", 90 * MINUTE),
        ("2h", 2 * HOUR),
    ],
)
def test_parse_duration(text, ms):
    assert parse_duration(text) == ms


def test_parse_duration_rejects_garbage():
    with pytest.raises(ValueError):
        parse_duration("five minutes")


# -- window membership ----------------------------------------------------------

def test_sliding_bounds_half_open():
    w = WindowSpec("sliding", 5 * MINUTE)
    t = 1_000_000
    assert w.contains(t, t)  # the arriving event itself
    assert w.contains(t - 5 * MINUTE + 1, t)  # oldest still inside
    assert not w.contains(t - 5 * MINUTE, t)  # exactly w old: expired
    assert not w.contains(t + 1, t)  # future event


def test_figure1_scenario_sliding_catches_all_five():
    """Paper Fig 1: e1..e5 within 5 minutes — the sliding window sees all 5."""
    w = WindowSpec("sliding", 5 * MINUTE)
    ts = [30_000, 90_000, 150_000, 210_000, 290_000]  # all within 5 min
    assert all(w.contains(t, ts[-1]) for t in ts)


def test_delayed_window_shifts_both_bounds():
    w = WindowSpec("sliding", MINUTE, delay_ms=30 * SECOND)
    t = 10 * MINUTE
    assert w.contains(t - 30 * SECOND, t)
    assert not w.contains(t, t)  # too recent: inside the delay gap
    assert not w.contains(t - 90 * SECOND, t)  # expired


def test_tumbling_bounds_current_bucket():
    w = WindowSpec("tumbling", MINUTE)
    t = 3 * MINUTE + 10 * SECOND
    assert w.contains(3 * MINUTE, t)  # bucket start
    assert w.contains(t, t)
    assert not w.contains(3 * MINUTE - 1, t)  # previous bucket


def test_infinite_window_never_expires():
    w = WindowSpec("infinite")
    assert w.contains(0, 10**15)
    assert not w.contains(10**15 + 1, 10**15)


def test_window_validation():
    with pytest.raises(ValueError):
        WindowSpec("hopping", MINUTE)  # deliberately unsupported (§3.4)
    with pytest.raises(ValueError):
        WindowSpec("sliding", 0)
    with pytest.raises(ValueError):
        WindowSpec("sliding", MINUTE, delay_ms=-1)


# -- statement parsing ---------------------------------------------------------

def test_parse_q1_example():
    """Paper Example 1, Q1: SUM + COUNT per card over 5 minutes."""
    stmt = parse_statement(
        "SELECT sum(amount), count(amount) FROM payments "
        "GROUP BY card_id OVER sliding 5 minutes"
    )
    assert stmt.stream == "payments"
    assert [m.agg for m in stmt.metrics] == ["sum", "count"]
    assert all(m.group_by == ("card_id",) for m in stmt.metrics)
    assert all(m.window == WindowSpec("sliding", 5 * MINUTE) for m in stmt.metrics)


def test_parse_q2_example():
    stmt = parse_statement(
        "SELECT avg(amount) FROM payments GROUP BY merchant_id OVER sliding 5 minutes"
    )
    assert stmt.metrics[0].agg == "avg"
    assert stmt.metrics[0].group_by == ("merchant_id",)


def test_parse_all_grammar_aggregations():
    aggs = "count(x), sum(x), avg(x), stdDev(x), max(x), min(x), last(x), prev(x), countDistinct(x)"
    stmt = parse_statement(f"SELECT {aggs} FROM s GROUP BY k OVER infinite")
    assert len(stmt.metrics) == 9
    assert stmt.metrics[3].agg == "stdDev"
    assert stmt.metrics[-1].agg == "countDistinct"


def test_parse_delayed_and_tumbling_windows():
    s1 = parse_statement(
        "SELECT count(x) FROM s GROUP BY k OVER sliding 1 hour delayed by 5 minutes"
    )
    assert s1.metrics[0].window == WindowSpec("sliding", HOUR, 5 * MINUTE)
    s2 = parse_statement("SELECT count(x) FROM s GROUP BY k OVER tumbling 30 seconds")
    assert s2.metrics[0].window == WindowSpec("tumbling", 30 * SECOND)


def test_parse_where_clause_becomes_predicate():
    stmt = parse_statement(
        "SELECT sum(amount) FROM payments WHERE amount > 100 "
        "GROUP BY card_id OVER sliding 5 minutes"
    )
    assert stmt.filter({"amount": 150}) is True
    assert stmt.filter({"amount": 50}) is False
    assert stmt.metrics[0].filter_sql == "amount > 100"


def test_parse_multi_field_group_by():
    stmt = parse_statement(
        "SELECT count(x) FROM s GROUP BY card_id, merchant_id OVER infinite"
    )
    assert stmt.metrics[0].group_by == ("card_id", "merchant_id")


def test_parse_rejects_hopping_window():
    with pytest.raises(ValueError):
        parse_statement("SELECT count(x) FROM s GROUP BY k OVER hopping 5 minutes")


def test_parse_rejects_unknown_aggregation():
    with pytest.raises(ValueError, match="unknown aggregation"):
        parse_statement("SELECT median(x) FROM s GROUP BY k OVER infinite")


def test_metric_names_are_descriptive():
    stmt = parse_statement(
        "SELECT sum(amount) FROM payments GROUP BY card_id OVER sliding 60 minutes"
    )
    assert stmt.metrics[0].name == "sum(amount) by card_id over sliding 3600000ms"


# -- filter expression language ---------------------------------------------------

@pytest.mark.parametrize(
    "expr,event,expected",
    [
        ("amount > 100", {"amount": 101}, True),
        ("amount >= 100 and amount <= 200", {"amount": 100}, True),
        ("amount < 100 or status == 'ok'", {"amount": 500, "status": "ok"}, True),
        ("not (amount > 100)", {"amount": 101}, False),
        ("status != 'declined'", {"status": "ok"}, True),
        ("a == 1 and b == 2 and c == 3", {"a": 1, "b": 2, "c": 3}, True),
        ("a == 1 or b == 2 and c == 99", {"a": 0, "b": 2, "c": 99}, True),
        # a field the event lacks compares false, whatever the operator
        ("fee > 1", {"amount": 5}, False),
        ("fee != 1", {"amount": 5}, False),
        ("1 <= fee", {"fee": None}, False),
        ("fee > 1 or amount > 1", {"amount": 5}, True),
        ("fee", {"amount": 5}, False),
        # ...and so does its negation: NOT of unknown is unknown (SQL NULL)
        ("not (fee > 1)", {"amount": 5}, False),
        ("not (fee <= 1)", {"amount": 5}, False),
        ("not (fee > 1 and amount > 10)", {"amount": 5}, True),
    ],
)
def test_filter_expressions(expr, event, expected):
    assert compile_filter(expr)(event) is expected


def test_filter_precedence_and_binds_tighter_than_or():
    f = compile_filter("a == 1 or b == 1 and c == 1")
    assert f({"a": 1, "b": 0, "c": 0}) is True  # (a==1) or (b==1 and c==1)


def test_filter_rejects_garbage():
    with pytest.raises(ValueError):
        compile_filter("amount >")
    with pytest.raises(ValueError):
        compile_filter("amount ~ 3")


_operand = st.one_of(st.sampled_from(["a", "b"]), st.integers(-2, 2).map(str))
_comparison = st.builds(
    lambda l, op, r: f"({l} {op} {r})",
    _operand, st.sampled_from(["==", "!=", "<", "<=", ">", ">="]), _operand,
)
_expression = st.recursive(
    _comparison,
    lambda inner: st.one_of(
        inner.map(lambda x: f"(not {x})"),
        st.builds(lambda x, op, y: f"({x} {op} {y})",
                  inner, st.sampled_from(["and", "or"]), inner),
    ),
    max_leaves=6,
)
_field = st.one_of(st.none(), st.integers(-2, 2))


@settings(max_examples=200, deadline=None)
@given(_expression, st.lists(st.tuples(_field, _field), min_size=1, max_size=8))
def test_filter_matches_duckdb_where_with_nulls(expr, rows):
    """A filter matches exactly the rows DuckDB's ``WHERE`` keeps, a
    missing field being NULL (three-valued logic)."""
    events = [{"id": i, **{k: v for k, v in zip("ab", row) if v is not None}}
              for i, row in enumerate(rows)]
    values = ", ".join(
        f"({i}, {'NULL' if a is None else a}, {'NULL' if b is None else b})"
        for i, (a, b) in enumerate(rows)
    )
    sql = (f"SELECT id FROM (VALUES {values}) t(id, a, b) "
           f"WHERE {expr} ORDER BY id")
    expected = [r[0] for r in duckdb.sql(sql).fetchall()]
    f = compile_filter(expr)
    assert [e["id"] for e in events if f(e)] == expected
