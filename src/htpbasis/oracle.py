"""Brute-force ground truth at desk scale.

Enumerates tours outright and streams their columns, keeping no list, into
an exact elimination of the oracle's own, independent of the basis builder:
it scans pivots from the lowest column, opposite to the 'high' scan that
certifies the builder's bases, so a builder bug cannot hide behind a
mirrored code path.  Enumeration is capped unless the caller raises it.
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


def _span_report(n: int, tours: Iterable[Sequence[int]], method: str) -> DimensionReport:
    """Count the tours as they arrive and rank their columns by a 'low' scan over Z."""
    t0 = time.monotonic()
    ech = IntegerEchelon(edge_count(n), pivot_order="low")
    count = 0
    for p in tours:
        ech.add(dict.fromkeys(_tour_columns(n, p), 1))
        count += 1
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
