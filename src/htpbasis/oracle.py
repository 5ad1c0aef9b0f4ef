"""Brute-force ground truth at desk scale.

Enumerates tours outright and streams their columns, keeping no list, into
an exact elimination over Z of the oracle's own, independent of the basis
builder: it scans pivots from the lowest column, opposite to the 'high'
scan that certifies the builder's bases, so a builder bug cannot hide
behind a mirrored code path.  Enumeration is capped unless the caller
raises it.

One lexicographic depth-first walk over the graph's day layers both
enumerates the tours and eliminates them; full_dimension walks the
complete graph's layers, written down in closed form, without building
the graph.  The walk skips tours that cannot raise the rank.  A
prefix's class is its set of visited cities and its last city, and the
prefixes of one class have the same completions.  Let P' < P be two
prefixes of one class and S0 the class's lexicographically first
completion.  For every completion S, as incidence vectors,

    P+S = (P'+S) - (P'+S0) + (P+S0),

and both P' tours come before every tour that starts with P.  So once the
first prefix of a class has been walked, a later prefix of that class
scans only P+S0, and its other tours are counted from the class's
memoized count.  By induction over lexicographic order, the tours scanned
so far span what all tours so far span, so the 'low' scan accepts exactly
the tours, and stores exactly the rows, that a scan of every tour would.

The scan clears a tour day by day, and the walk's frame of each prefix
keeps its stage of elimination, which every tour below it resumes from.
Rows are only added and leads are cleared in increasing order, so the
stage a tour resumes from, even one that met a free lead, took only steps
a plain scan of that tour still takes: the stored rows are those of one
plain add per tour, row for row.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from .linalg import IntegerEchelon
from .timegraph import (TimeGraph, _check_order, _column, _complete_layers, _layers, edge_count,
                        enumerate_htps)

__all__ = [
    "DEFAULT_CAP",
    "DimensionReport",
    "analyze",
    "dimension_of",
    "full_dimension",
    "is_hamiltonian",
]

DEFAULT_CAP = 7


@dataclass(frozen=True)
class DimensionReport:
    n: int
    htp_count: int
    dimension: int
    elapsed: float
    method: str

    def __post_init__(self) -> None:
        bound = min(self.htp_count, edge_count(self.n))
        if self.dimension > bound:
            raise ValueError(
                f"dimension {self.dimension} exceeds bound {bound}")

    def summary(self) -> str:
        return f"htps={self.htp_count} dim={self.dimension}"


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise ValueError(
            f"order {n} exceeds the enumeration cap {cap} ({n}! tours); "
            f"pass cap={n} to override")
    deepest = sys.getrecursionlimit() // 2  # the tour walks recurse once per day
    if n > deepest:
        raise ValueError(
            f"order {n} is deeper than the tour walks may recurse: at most {deepest}")


def _layered_echelon(n: int, layers: tuple) -> tuple[IntegerEchelon, int]:
    """The 'low' echelon over Z of the columns of the tours through an order-n
    graph's day layers (as _layers gives them), and the number of those tours.

    Each prefix's frame holds its stage: a prefix ending on day d >= 1
    adds its last edge to its parent's residual at the parent's scale and
    clears the leads below day d's first column (the first finish column
    when d = n) up to a free lead.  A complete tour, or the tour P+S0 of a
    later prefix of a known class, adds its columns from day d on to the
    stage at hand and is cleared to the end; add stores a residual whose
    lead is free as a plain add would.
    """
    dim = edge_count(n)
    ech = IntegerEchelon(dim, pivot_order="low")
    starts, succ, finishers = layers
    # (visited cities as a bit mask, last city) -> (completions, first completion)
    known: dict[tuple[int, int], tuple[int, tuple[int, ...] | None]] = {}
    path = [0]  # the start, then the city of each day so far

    def clear(cols: list[int], w: dict[int, int], scale: int, stop: int):
        """Add scale at each of cols to a copy of w, then clear its leads below stop."""
        w = dict(w)
        for c in cols:
            x = w.pop(c, 0) + scale
            if x:
                w[c] = x
        return ech.eliminate(w, stop)

    def scan(rest: list[int], day: int, w: dict[int, int], scale: int) -> None:
        """Clear the tour path + rest from the stage (w, scale) held on day."""
        q = path + rest + [0]
        cols = [_column(n, q[t], q[t + 1], t) for t in range(day, n + 1)]
        w, lead, _ = clear(cols, w, scale, dim)
        if lead >= 0:
            ech.add(w)

    def walk(day: int, visited: int, w: dict[int, int], scale: int):
        """Scan the kept tours starting with path; return (completions, first completion)."""
        city = path[-1]
        if day:
            stop = n + (day - 1) * n * (n - 1)
            w, _, factor = clear([_column(n, path[-2], city, day - 1)], w, scale, stop)
            scale *= factor
        total, first = (1, ()) if day == n and city in finishers else (0, None)
        if total:
            scan([], day, w, scale)
        for nxt in starts if day == 0 else succ.get((city, day), ()):
            bit = 1 << nxt
            if visited & bit:
                continue
            cls = (visited | bit, nxt)
            if cls in known:
                k, rest = known[cls]
                if k:
                    scan([nxt, *rest], day, w, scale)
            else:
                path.append(nxt)
                k, rest = known[cls] = walk(day + 1, visited | bit, w, scale)
                path.pop()
            if k:
                total += k
                if first is None:
                    first = (nxt, *rest)
        return total, first

    return ech, walk(0, 0, {}, 1)[0]


def full_dimension(n: int, cap: int = DEFAULT_CAP) -> DimensionReport:
    """Exact dimension of the span of all n! tour vectors."""
    _check_cap(n, cap)
    _check_order(n)
    t0 = time.monotonic()
    ech, count = _layered_echelon(n, _complete_layers(n))
    return DimensionReport(n, count, ech.rank, time.monotonic() - t0,
                           "exhaustive permutation enumeration")


def dimension_of(g: TimeGraph, cap: int = DEFAULT_CAP) -> DimensionReport:
    """Exact dimension of the span of the tours contained in g."""
    _check_cap(g.n, cap)
    t0 = time.monotonic()
    ech, count = _layered_echelon(g.n, _layers(g))
    return DimensionReport(g.n, count, ech.rank, time.monotonic() - t0,
                           "pruned layered depth-first enumeration")


def is_hamiltonian(g: TimeGraph, cap: int = DEFAULT_CAP) -> bool:
    """Whether g contains at least one full tour."""
    _check_cap(g.n, cap)
    return next(enumerate_htps(g), None) is not None


def analyze(g: TimeGraph, cap: int = DEFAULT_CAP) -> tuple[DimensionReport, bool]:
    """Dimension and Hamiltonicity together, cross-checked against each other."""
    report = dimension_of(g, cap)
    ham = is_hamiltonian(g, cap)
    if ham != (report.dimension > 0):
        raise RuntimeError(
            f"inconsistent answers: hamiltonian={ham} but dimension={report.dimension}")
    return report, ham
