"""Parser for the Railgun query language (paper Fig 4).

Statements look like::

    SELECT sum(amount), count(amount) FROM payments
    WHERE amount > 100 and status == 'ok'
    GROUP BY card_id
    OVER sliding 5 minutes

Multiple aggregations per statement share the stream, filter, group-by and
window — exactly the sharing the task plan (§4.1.2) exploits. The paper
uses JEXL for filter expressions; here filters are a small, safe
expression language (comparisons on fields, ``and``/``or``/``not``,
parentheses, numeric/string literals) compiled to a Python predicate over
the event dict.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable

from .windows import WindowSpec, parse_duration
from .aggregators import AGGREGATORS


@dataclass(frozen=True)
class MetricSpec:
    """One aggregation of one statement: e.g. ``sum(amount)`` by card."""

    agg: str
    agg_field: str
    stream: str
    group_by: tuple[str, ...]
    window: WindowSpec
    filter_sql: str | None = None

    @property
    def name(self) -> str:
        flt = f" where {self.filter_sql}" if self.filter_sql else ""
        return (
            f"{self.agg}({self.agg_field}) by {','.join(self.group_by)}"
            f" over {self.window.describe()}{flt}"
        )


@dataclass(frozen=True)
class Statement:
    """A parsed Railgun statement (one window/filter/group-by, N metrics)."""

    stream: str
    metrics: tuple[MetricSpec, ...]
    filter: Callable[[dict], bool] | None = field(compare=False, default=None)


_STMT = re.compile(
    r"^\s*select\s+(?P<aggs>.+?)\s+from\s+(?P<stream>\w+)"
    r"(?:\s+where\s+(?P<where>.+?))?"
    r"\s+group\s+by\s+(?P<groupby>[\w\s,]+?)"
    r"\s+over\s+(?P<window>.+?)\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)
_AGG = re.compile(r"^\s*(\w+)\s*\(\s*(\*|\w+)\s*\)\s*$")
_AGG_NAMES = {a.lower(): a for a in AGGREGATORS}


def _parse_window(text: str) -> WindowSpec:
    text = text.strip()
    delay_ms = 0
    m = re.search(r"\s+delayed\s+by\s+(.+)$", text, re.IGNORECASE)
    if m:
        delay_ms = parse_duration(m.group(1))
        text = text[: m.start()]
    parts = text.strip().split(None, 1)
    kind = parts[0].lower()
    if kind == "infinite":
        if len(parts) > 1:
            raise ValueError("infinite windows take no size")
        return WindowSpec("infinite", delay_ms=delay_ms)
    if kind in ("sliding", "tumbling"):
        if len(parts) != 2:
            raise ValueError(f"{kind} window needs a size")
        return WindowSpec(kind, parse_duration(parts[1]), delay_ms)
    raise ValueError(f"unknown window expression {text!r}")


# --- tiny filter expression language -------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>-?\d+(?:\.\d+)?)|(?P<str>'[^']*'|\"[^\"]*\")"
    r"|(?P<op><=|>=|==|!=|<|>)|(?P<lp>\()|(?P<rp>\))"
    r"|(?P<word>\w+))"
)


def _tokenize(text: str) -> list[tuple[str, Any]]:
    out, i = [], 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if not m or m.end() == i:
            raise ValueError(f"bad filter expression at {text[i:]!r}")
        i = m.end()
        kind = m.lastgroup
        val = m.group(kind)
        if kind == "num":
            out.append(("lit", float(val) if "." in val else int(val)))
        elif kind == "str":
            out.append(("lit", val[1:-1]))
        elif kind == "word" and val.lower() in ("and", "or", "not"):
            out.append((val.lower(), val))
        else:
            out.append((kind, val))
    return out


class _FilterParser:
    """Recursive-descent: or_expr → and_expr → not_expr → cmp → atom."""

    def __init__(self, tokens: list[tuple[str, Any]]):
        self.toks = tokens
        self.i = 0

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def _take(self, kind: str | None = None):
        tok = self._peek()
        if kind and tok[0] != kind:
            raise ValueError(f"expected {kind}, got {tok}")
        self.i += 1
        return tok

    def parse(self) -> Callable[[dict], bool]:
        f = self._or()
        if self.i != len(self.toks):
            raise ValueError(f"trailing tokens: {self.toks[self.i:]}")
        return f

    def _or(self):
        left = self._and()
        while self._peek()[0] == "or":
            self._take()
            right = self._and()
            left = (lambda a, b: lambda e: a(e) or b(e))(left, right)
        return left

    def _and(self):
        left = self._not()
        while self._peek()[0] == "and":
            self._take()
            right = self._not()
            left = (lambda a, b: lambda e: a(e) and b(e))(left, right)
        return left

    def _not(self):
        if self._peek()[0] == "not":
            self._take()
            inner = self._not()
            return lambda e: not inner(e)
        return self._cmp()

    def _cmp(self):
        left = self._atom()
        if self._peek()[0] == "op":
            op = self._take()[1]
            right = self._atom()
            ops = {
                "==": lambda a, b: a == b,
                "!=": lambda a, b: a != b,
                "<": lambda a, b: a < b,
                "<=": lambda a, b: a <= b,
                ">": lambda a, b: a > b,
                ">=": lambda a, b: a >= b,
            }[op]

            def cmp(e):
                # an event without the field compares false, as SQL's NULL
                a, b = left(e), right(e)
                return a is not None and b is not None and ops(a, b)

            return cmp
        # bare field/literal used as a boolean
        return (lambda l: lambda e: bool(l(e)))(left)

    def _atom(self):
        kind, val = self._peek()
        if kind == "lp":
            self._take()
            inner = self._or()
            self._take("rp")
            return inner
        if kind == "lit":
            self._take()
            return lambda e, v=val: v
        if kind == "word":
            self._take()
            return lambda e, f=val: e.get(f)
        raise ValueError(f"unexpected token {self._peek()}")


def compile_filter(expr: str) -> Callable[[dict], bool]:
    """Compile a filter expression into a predicate over an event dict."""
    return _FilterParser(_tokenize(expr)).parse()


def parse_statement(sql: str) -> Statement:
    """Parse one Railgun statement into a :class:`Statement`."""
    m = _STMT.match(sql)
    if not m:
        raise ValueError(f"cannot parse Railgun statement: {sql!r}")
    stream = m.group("stream")
    group_by = tuple(f.strip() for f in m.group("groupby").split(",") if f.strip())
    window = _parse_window(m.group("window"))
    where = m.group("where")
    flt = compile_filter(where) if where else None
    metrics = []
    for part in m.group("aggs").split(","):
        am = _AGG.match(part)
        if not am:
            raise ValueError(f"cannot parse aggregation {part!r}")
        agg_name = _AGG_NAMES.get(am.group(1).lower())
        if agg_name is None:
            raise ValueError(f"unknown aggregation {am.group(1)!r}")
        fld = am.group(2)
        metrics.append(
            MetricSpec(
                agg=agg_name,
                agg_field=fld,
                stream=stream,
                group_by=group_by,
                window=window,
                filter_sql=where.strip() if where else None,
            )
        )
    return Statement(stream=stream, metrics=tuple(metrics), filter=flt)
