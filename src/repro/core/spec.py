"""Data model for COMPARE expressions (paper §2.2, §3.1).

A :class:`CompareSpec` captures ``Φ(R, T1 <-> T2, F)``: two trendsets
(each a constraint over R — a mix of fixed ``col = value`` filters and
varying ``col`` terms), a list of (grouping, measure) pairs shared by
both trendsets, and a scorer ``AGG OVER DIFF(p)``.

The succinct textual syntax of §3.1 is supported through
:func:`parse_compare`, e.g.::

    parse_compare("[(region='Asia') <-> (region='Asia', product)]"
                  "[(week, AVG(revenue))] USING SUM OVER DIFF(2)")
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Optional

from pyspark.sql import types as T

_VALID_MEASURE_AGGS = ("AVG", "SUM", "MIN", "MAX", "COUNT")
_VALID_SCORER_AGGS = ("SUM", "AVG", "MIN", "MAX")


@dataclass(frozen=True)
class Measure:
    """An aggregate measure, e.g. ``AVG(revenue)`` (Def. 3)."""

    agg: str
    col: str

    def __post_init__(self) -> None:
        if self.agg.upper() not in _VALID_MEASURE_AGGS:
            raise ValueError(f"unsupported measure aggregate {self.agg!r}")
        object.__setattr__(self, "agg", self.agg.upper())

    @property
    def name(self) -> str:
        return f"{self.agg}({self.col})"


@dataclass(frozen=True)
class ConstraintTerm:
    """One term of a trendset constraint (Def. 2).

    ``value is None`` means the term *varies*: the trendset holds one
    trend per distinct value of ``col`` (the ``[p][(g, m)]`` shorthand
    of §2.2.2). Otherwise it is a fixed conjunctive filter ``col = value``.
    """

    col: str
    value: Optional[Any] = None

    @property
    def varies(self) -> bool:
        return self.value is None


@dataclass(frozen=True)
class TrendsetSpec:
    """A trendset: constraint terms shared by all its trends (Def. 4)."""

    terms: tuple[ConstraintTerm, ...]

    def __post_init__(self) -> None:
        cols = [t.col for t in self.terms]
        if len(cols) != len(set(cols)):
            raise ValueError(f"duplicate constraint column in {cols}")
        if not self.terms:
            raise ValueError("a trendset needs at least one constraint term")

    @property
    def cols(self) -> tuple[str, ...]:
        return tuple(t.col for t in self.terms)

    @property
    def vary_cols(self) -> tuple[str, ...]:
        return tuple(t.col for t in self.terms if t.varies)

    @property
    def fixed(self) -> tuple[ConstraintTerm, ...]:
        return tuple(t for t in self.terms if not t.varies)


# One (grouping, measure) pair, e.g. ("week", Measure("AVG", "revenue")).
GM = tuple[str, Measure]


@dataclass(frozen=True)
class Scorer:
    """``AGG OVER DIFF(p)`` aggregated distance function (Def. 8)."""

    agg: str = "SUM"
    p: int = 2

    def __post_init__(self) -> None:
        if self.agg.upper() not in _VALID_SCORER_AGGS:
            raise ValueError(f"unsupported scorer aggregate {self.agg!r}")
        if not (isinstance(self.p, int) and self.p >= 1):
            raise ValueError(f"DIFF exponent must be a positive int, got {self.p!r}")
        object.__setattr__(self, "agg", self.agg.upper())

    @property
    def name(self) -> str:
        return f"{self.agg} OVER DIFF({self.p})"


@dataclass(frozen=True)
class CompareSpec:
    """A full comparative expression ``T1 <-> T2`` + (g, m) list + scorer."""

    t1: TrendsetSpec
    t2: TrendsetSpec
    gms: tuple[GM, ...]
    scorer: Scorer = field(default_factory=Scorer)
    #: 'auto' removes symmetric duplicates iff t1 == t2; 'lt' forces it;
    #: 'none' keeps ordered pairs (the paper's basic plan join emits both).
    dedup: str = "auto"

    def __post_init__(self) -> None:
        if not self.gms:
            raise ValueError("at least one (grouping, measure) pair is required")
        if len(set(self.gms)) != len(self.gms):
            raise ValueError("duplicate (grouping, measure) pair")
        if self.dedup not in ("auto", "none", "lt"):
            raise ValueError(f"dedup must be auto|none|lt, got {self.dedup!r}")
        for g, m in self.gms:
            if not isinstance(m, Measure):
                raise TypeError(f"measure for grouping {g!r} is not a Measure")

    # ---- derived structure -------------------------------------------------

    @property
    def same_trendsets(self) -> bool:
        return self.t1.terms == self.t2.terms

    @property
    def dedup_symmetric(self) -> bool:
        """Whether to keep only one of (a, b)/(b, a) for identical trendsets."""
        if self.dedup == "lt":
            return True
        return self.dedup == "auto" and self.same_trendsets and bool(self.t1.vary_cols)

    @property
    def exclude_equal(self) -> bool:
        """Exclude pairs whose full constraint tuples coincide.

        Applies when both trendsets constrain the same column set (e.g.
        ``airport='SFO' <-> airport`` or ``city <-> city``): an equal
        tuple would compare a trend with itself (``s.city != r.city``
        in Fig. 3 of the paper). Does not apply when both sides are fully
        fixed (the user explicitly asked to compare those two subsets,
        e.g. Q3's ``webpage=1 <-> webpage=1`` perf workload).
        """
        return set(self.t1.cols) == set(self.t2.cols) and bool(
            self.t1.vary_cols or self.t2.vary_cols
        )

    @property
    def input_cols(self) -> tuple[str, ...]:
        """All base-relation columns the expression references."""
        cols: list[str] = []
        for c in (
            [t.col for t in self.t1.terms]
            + [t.col for t in self.t2.terms]
            + [g for g, _ in self.gms]
            + [m.col for _, m in self.gms]
        ):
            if c not in cols:
                cols.append(c)
        return tuple(cols)

    def n_pairs(self, distinct_counts: dict[str, int]) -> int:
        """Number of compared trend pairs given per-column distinct counts."""
        total = 0
        for _ in self.gms:
            n1 = _n_trends(self.t1, distinct_counts)
            n2 = _n_trends(self.t2, distinct_counts)
            pairs = n1 * n2
            if self.exclude_equal and set(self.t1.cols) == set(self.t2.cols):
                # only exact-tuple collisions are excluded; for identical
                # trendsets that is one collision per trend
                if self.same_trendsets:
                    pairs -= n1
                elif not self.t1.vary_cols or not self.t2.vary_cols:
                    pairs -= min(n1, n2)
            if self.dedup_symmetric:
                pairs //= 2
            total += pairs
        return total


def _n_trends(ts: TrendsetSpec, distinct_counts: dict[str, int]) -> int:
    n = 1
    for c in ts.vary_cols:
        n *= distinct_counts[c]
    return n


# ---------------------------------------------------------------------------
# Output naming helpers shared by every execution strategy & the SQL
# generator, so results from any path are directly comparable.
# ---------------------------------------------------------------------------

def side_prefix(side: int) -> str:
    return "l_" if side == 1 else "r_"


def output_constraint_cols(spec: CompareSpec) -> list[str]:
    """Canonical constraint columns of the COMPARE output relation."""
    return [side_prefix(1) + t.col for t in spec.t1.terms] + [
        side_prefix(2) + t.col for t in spec.t2.terms
    ]


def output_cols(spec: CompareSpec) -> list[str]:
    return output_constraint_cols(spec) + ["grouping", "measure", "score"]


def output_row(spec: CompareSpec, tid1: tuple, tid2: tuple, gm: GM, score: float) -> tuple:
    """One output row, in :func:`output_cols` order, for the trends whose
    vary-column values are ``tid1``/``tid2``, scored on ``gm``."""
    row: list = []
    for ts, tid in ((spec.t1, tid1), (spec.t2, tid2)):
        vary = dict(zip(ts.vary_cols, tid))
        row += [vary[t.col] if t.varies else t.value for t in ts.terms]
    return (*row, gm[0], gm[1].name, score)


def output_schema(spec: CompareSpec, input_schema: T.StructType) -> T.StructType:
    """Spark schema of :func:`output_row` rows, typed from the base relation's."""
    by_name = {f.name: f.dataType for f in input_schema.fields}
    fields = [
        T.StructField(side_prefix(side) + t.col, by_name[t.col])
        for side, ts in ((1, spec.t1), (2, spec.t2))
        for t in ts.terms
    ]
    return T.StructType(fields + [
        T.StructField("grouping", T.StringType()),
        T.StructField("measure", T.StringType()),
        T.StructField("score", T.DoubleType()),
    ])


# ---------------------------------------------------------------------------
# Parser for the succinct §3.1 syntax.
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"""\s*(?P<col>[A-Za-z_][\w.]*)\s*(?:=\s*(?:'(?P<sval>[^']*)'|(?P<nval>-?\d+(?:\.\d+)?)))?\s*$"""
)
_GM_RE = re.compile(
    r"""\(\s*(?P<g>[A-Za-z_][\w.]*)\s*,\s*(?P<agg>[A-Za-z]+)\s*\(\s*(?P<m>[A-Za-z_][\w.]*)\s*\)\s*\)"""
)
_SCORER_RE = re.compile(
    r"""USING\s+(?P<agg>[A-Za-z]+)\s+OVER\s+DIFF\s*\(\s*(?P<p>\d+)\s*\)""", re.I
)


def _parse_terms(s: str) -> TrendsetSpec:
    terms = []
    for raw in s.split(","):
        m = _TERM_RE.match(raw)
        if not m:
            raise ValueError(f"cannot parse constraint term {raw!r}")
        val: Any = None
        if m.group("sval") is not None:
            val = m.group("sval")
        elif m.group("nval") is not None:
            txt = m.group("nval")
            val = float(txt) if "." in txt else int(txt)
        terms.append(ConstraintTerm(m.group("col").split(".")[-1], val))
    return TrendsetSpec(tuple(terms))


def parse_compare(text: str) -> CompareSpec:
    """Parse the succinct COMPARE syntax of §3.1 into a :class:`CompareSpec`.

    Grammar (informal)::

        [ (term, ...) <-> (term, ...) ] [ (g, AGG(m)), ... ] USING AGG OVER DIFF(p)

    where a ``term`` is ``col`` (varying) or ``col = 'value'`` (fixed).
    """
    text = " ".join(text.split())
    m = re.match(r"^\[\s*\((?P<t1>[^)]*)\)\s*<->\s*\((?P<t2>[^)]*)\)\s*\]\s*\[(?P<gms>.*)\]\s*(?P<rest>USING.*)$", text)
    if not m:
        raise ValueError(f"cannot parse COMPARE expression: {text!r}")
    t1 = _parse_terms(m.group("t1"))
    t2 = _parse_terms(m.group("t2"))
    gms = tuple(
        (gm.group("g").split(".")[-1], Measure(gm.group("agg"), gm.group("m").split(".")[-1]))
        for gm in _GM_RE.finditer(m.group("gms"))
    )
    if not gms:
        raise ValueError(f"no (grouping, measure) pairs in {m.group('gms')!r}")
    sm = _SCORER_RE.search(m.group("rest"))
    if not sm:
        raise ValueError(f"missing USING clause in {text!r}")
    return CompareSpec(t1, t2, gms, Scorer(sm.group("agg"), int(sm.group("p"))))
