"""Brute-force ground truth at desk scale.

Enumerates tours outright and streams their columns, keeping no list, into
an exact elimination over Z of the oracle's own, independent of the basis
builder: it scans pivots from the lowest column, opposite to the 'high'
scan that certifies the builder's bases, so a builder bug cannot hide
behind a mirrored code path.  Enumeration is capped unless the caller
raises it.

The 'low' scan clears a tour's columns day by day, and tours arrive in
lexicographic order, so consecutive tours share the first stages of
their elimination.  Each tour resumes from the last stage it shares with
the tour before it.  A tour that meets a free lead is independent and
is added by the plain IntegerEchelon.add, so the stored rows are those
of one plain add per tour, row for row; only the repeated work goes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Sequence

from .linalg import IntegerEchelon
from .timegraph import TimeGraph, _check_order, _tour_columns, edge_count, enumerate_htps

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
    below stops[j], the first column of day j + 1; what is left lies on
    later days.  So stage j depends only on the tour's first j + 1
    columns, and a tour resumes from the last stage it shares with the
    tour before it.  n - 1 cities fix a tour, so the last stage takes
    columns n - 2 to n at once and clears them all.  A stage that meets a
    free lead proves the tour independent: the whole tour goes to add, as
    a plain scan would, and the stage is not kept.  A kept stage met only
    stored rows, which never change, so later rows leave it valid.
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
        for j in range(len(stages) - 1, last + 1):
            w, scale = stages[j]
            w = dict(w)
            for c in cols[j:j + 1] if j < last else cols[last:]:
                x = w.pop(c, 0) + scale
                if x:
                    w[c] = x
            w, lead, factor = ech.eliminate(w, stops[j])
            if lead >= 0:
                ech.add(dict.fromkeys(cols, 1))
                break
            stages.append((w, scale * factor))
        prev = cols
        count += 1
    return ech, count


def _span_report(n: int, tours: Iterable[Sequence[int]], method: str) -> DimensionReport:
    """Count the tours as they arrive and rank their columns by a 'low' scan over Z."""
    t0 = time.monotonic()
    ech, count = _span_echelon(n, tours)
    return DimensionReport(n, count, ech.rank, time.monotonic() - t0, method)


def full_dimension(n: int, cap: int = DEFAULT_CAP) -> DimensionReport:
    """Exact dimension of the span of all n! tour vectors."""
    _check_cap(n, cap)
    _check_order(n)
    return _span_report(n, permutations(range(1, n + 1)), "exhaustive permutation enumeration")


def dimension_of(g: TimeGraph, cap: int = DEFAULT_CAP) -> DimensionReport:
    """Exact dimension of the span of the tours contained in g."""
    _check_cap(g.n, cap)
    return _span_report(g.n, enumerate_htps(g), "pruned layered depth-first enumeration")


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
