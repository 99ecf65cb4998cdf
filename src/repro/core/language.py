"""Parser for the Railgun query language (paper Fig 4).

Statements look like::

    SELECT sum(amount), count(amount) FROM payments
    WHERE amount > 100 and status == 'ok'
    GROUP BY card_id
    OVER sliding 5 minutes

Multiple aggregations per statement share the stream, filter, group-by and
window — exactly the sharing the task plan (§4.1.2) exploits. The paper
uses JEXL for filter expressions; here a filter is a restricted Python
expression: one comparison (``== != < <= > >=``) at a time on fields and
int, float or str literals, ``and``/``or``/``not`` in any case, and
parentheses. :func:`ast.parse` reads it and a whitelist walk compiles it
into a predicate over the event dict; nothing is evaluated as Python. A
missing field is SQL's NULL: in three-valued logic, an event matches only
when the expression is true.
"""
from __future__ import annotations

import ast
import operator
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


# --- filter expressions: a restricted Python expression -----------------

# A string literal (kept as written), a keyword in any case (lower-cased)
# or a whitespace run (one space, so no line break reaches the parser).
_LITERAL_KEYWORD_SPACE = re.compile(
    r"('''(?:\\.|[^\\])*?'''" r'|"""(?:\\.|[^\\])*?"""'
    r"|'(?:\\.|[^'\\])*'" r'|"(?:\\.|[^"\\])*")'
    r"|\b(and|or|not)\b|\s+",
    re.IGNORECASE | re.DOTALL,
)
_COMPARE = {
    ast.Eq: operator.eq, ast.NotEq: operator.ne, ast.Lt: operator.lt,
    ast.LtE: operator.le, ast.Gt: operator.gt, ast.GtE: operator.ge,
}


def _kleene(terms, dominant: bool):
    """SQL ``or`` (dominant True) or ``and`` (dominant False) of its terms."""
    def node(e):
        result = not dominant
        for term in terms:
            if (v := term(e)) is dominant:
                return dominant
            if v is None:
                result = None
        return result
    return node


def _operand(node: ast.expr) -> Callable[[dict], Any]:
    """A field (None when the event lacks it), or an int, float, str or -number."""
    if isinstance(node, ast.Name):
        return lambda e, f=node.id: e.get(f)
    negated = isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
    lit = node.operand if negated else node
    kinds = (int, float) if negated else (int, float, str)
    if isinstance(lit, ast.Constant) and type(lit.value) in kinds:
        value = -lit.value if negated else lit.value
        return lambda e: value
    raise ValueError(f"unsupported filter term {ast.unparse(node)!r}")


def _predicate(node: ast.expr) -> Callable[[dict], bool | None]:
    """Whitelist walk: a closure giving True, False or None (SQL unknown)."""
    if isinstance(node, ast.BoolOp):
        return _kleene([_predicate(v) for v in node.values], isinstance(node.op, ast.Or))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        inner = _predicate(node.operand)
        return lambda e: None if (v := inner(e)) is None else not v
    if isinstance(node, ast.Compare):
        if len(node.ops) != 1 or type(node.ops[0]) not in _COMPARE:
            raise ValueError(f"unsupported comparison {ast.unparse(node)!r}")
        op = _COMPARE[type(node.ops[0])]
        left, right = _operand(node.left), _operand(node.comparators[0])
        # a missing operand (an event without the field) is unknown
        return lambda e: (None if (a := left(e)) is None or (b := right(e)) is None
                          else op(a, b))
    # bare field/literal used as a boolean
    value = _operand(node)
    return lambda e: None if (v := value(e)) is None else bool(v)


def compile_filter(expr: str) -> Callable[[dict], bool]:
    """Compile a filter expression into a predicate over an event dict;
    raise ``ValueError`` on any text outside the grammar."""
    text = _LITERAL_KEYWORD_SPACE.sub(lambda m: m[1] or (m[2] or " ").lower(), expr.strip())
    try:
        pred = _predicate(ast.parse(text, mode="eval").body)
    except (SyntaxError, RecursionError) as exc:
        raise ValueError(f"bad filter expression {expr!r}: {exc}") from None
    return lambda e: pred(e) is True


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
