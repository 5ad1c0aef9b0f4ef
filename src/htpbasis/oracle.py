"""Brute-force ground truth at desk scale.

Enumerates tours outright and streams their columns, keeping no list, into
an exact elimination over Z of the oracle's own, independent of the basis
builder: it scans pivots from the lowest column, opposite to the 'high'
scan that certifies the builder's bases, so a builder bug cannot hide
behind a mirrored code path.  Enumeration is capped unless the caller
raises it.

Tours come from one lexicographic depth-first walk over the graph's day
layers; full_dimension walks the complete graph, in which every edge is
present.  The walk skips tours that cannot raise the rank.  A prefix's
class is its set of visited cities and its last city, and the prefixes
of one class have the same completions.  Let P' < P be two prefixes of
one class and S0 the class's lexicographically first completion.  For
every completion S, as incidence vectors,

    P+S = (P'+S) - (P'+S0) + (P+S0),

and both P' tours come before every tour that starts with P.  So once the
first prefix of a class has been walked, a later prefix of that class
yields only P+S0, and its other tours are counted from the class's
memoized count without being yielded.  By induction over lexicographic
order, the tours yielded so far span what all tours so far span, so the
'low' scan accepts exactly the tours, and stores exactly the rows, that
a scan of every tour would.

The 'low' scan clears a tour day by day, and tours arrive in
lexicographic order, so each tour resumes from the last stage of
elimination it shares with the tour before it.  Rows are only added and
leads are cleared in increasing order, so every stage, even one that
met a free lead, took only steps a plain scan still takes: the stored
rows are those of one plain add per tour, row for row.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .linalg import IntegerEchelon
from .timegraph import TimeGraph, _check_order, _layers, _tour_columns, edge_count, enumerate_htps

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


def _span_echelon(n: int, tours: Iterable[Sequence[int]]) -> tuple[IntegerEchelon, int]:
    """The 'low' echelon of the tours' columns over Z and the number of tours.

    The scan runs in stages.  Column j of a tour is its day-j edge, and
    stage j adds it to the residual of stage j - 1 and clears the leads
    below stops[j], the first column of day j + 1, up to a free lead.
    Stage j depends only on the tour's first j + 1 columns, so a tour
    resumes from the last stage it shares with the tour before it; n - 1
    cities fix a tour, so the last stage takes columns n - 2 to n.  Every
    stage is kept: leads are cleared in increasing order and rows only
    added, so its steps are ones a plain scan still takes.  A free lead
    after the last stage proves the tour independent; add finds it free
    at once in that residual and stores the row a plain add would.
    """
    dim = edge_count(n)
    ech = IntegerEchelon(dim, pivot_order="low")
    last = n - 2
    stops = [n + j * n * (n - 1) for j in range(last)] + [dim]
    stages: list[tuple[dict[int, int], int]] = [({}, 1)]  # stages[j + 1]: stage j, scale
    prev: list[int] = []
    count = 0
    for p in tours:
        cols = _tour_columns(n, p)
        shared = next((j for j, (a, b) in enumerate(zip(cols, prev)) if a != b), len(prev))
        del stages[shared + 1:]
        lead = -1  # a repeated tour has no stage left to run
        for j in range(len(stages) - 1, last + 1):
            w, scale = stages[j]
            w = dict(w)
            for c in cols[j:j + 1] if j < last else cols[last:]:
                x = w.pop(c, 0) + scale
                if x:
                    w[c] = x
            w, lead, factor = ech.eliminate(w, stops[j])
            stages.append((w, scale * factor))
        if lead >= 0:
            ech.add(w)
        prev = cols
        count += 1
    return ech, count


class _Walk:
    """The tours of g in lexicographic order, each later prefix of a class cut
    to its first tour; once the walk is exhausted, count is the number of
    all tours of g."""

    def __init__(self, g: TimeGraph):
        self.n = g.n
        self.layers = _layers(g)
        self.count = 0

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        n = self.n
        starts, succ, finishers = self.layers
        # (visited cities as a bit mask, last city) -> (completions, first completion)
        known: dict[tuple[int, int], tuple[int, tuple[int, ...] | None]] = {}
        path: list[int] = []

        def walk(city: int, day: int, visited: int) -> Iterator[tuple[int, ...]]:
            """Yield the kept tours that start with path + [city], then record its class."""
            path.append(city)
            total, first = (1, ()) if day == n and city in finishers else (0, None)
            if total:
                yield tuple(path)
            for nxt in succ.get((city, day), ()):
                bit = 1 << nxt
                if visited & bit:
                    continue
                cls = (visited | bit, nxt)
                if cls in known:
                    k, rest = known[cls]
                    if k:
                        yield (*path, nxt, *rest)
                else:
                    yield from walk(nxt, day + 1, visited | bit)
                    k, rest = known[cls]
                if k:
                    total += k
                    if first is None:
                        first = (nxt, *rest)
            known[visited, city] = total, first
            path.pop()

        for city in starts:
            yield from walk(city, 1, 1 << city)
        self.count = sum(known[1 << city, city][0] for city in starts)


def _span_report(g: TimeGraph, method: str) -> DimensionReport:
    """Count g's tours and rank their columns by a 'low' scan over Z."""
    t0 = time.monotonic()
    walk = _Walk(g)
    ech, _ = _span_echelon(g.n, walk)
    return DimensionReport(g.n, walk.count, ech.rank, time.monotonic() - t0, method)


def full_dimension(n: int, cap: int = DEFAULT_CAP) -> DimensionReport:
    """Exact dimension of the span of all n! tour vectors."""
    _check_cap(n, cap)
    _check_order(n)
    return _span_report(TimeGraph.complete(n), "exhaustive permutation enumeration")


def dimension_of(g: TimeGraph, cap: int = DEFAULT_CAP) -> DimensionReport:
    """Exact dimension of the span of the tours contained in g."""
    _check_cap(g.n, cap)
    return _span_report(g, "pruned layered depth-first enumeration")


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
