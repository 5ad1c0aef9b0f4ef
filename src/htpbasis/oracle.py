"""Brute-force ground truth at desk scale.

Enumerates tours outright and measures the exact dimension of their span,
independent of the basis builder: rank here scans pivots from the lowest
column, opposite to the 'high' scan that certifies the builder's bases, so
a builder bug cannot hide behind a mirrored code path.  Enumeration is
capped (n! tours) unless the caller raises the cap explicitly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import permutations

from .linalg import rank
from .timegraph import TimeGraph, edge_count, enumerate_htps, htp_vector

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


def full_dimension(n: int, cap: int = DEFAULT_CAP) -> DimensionReport:
    """Exact dimension of the span of all n! tour vectors."""
    _check_cap(n, cap)
    t0 = time.monotonic()
    vectors = [htp_vector(n, p) for p in permutations(range(1, n + 1))]
    dim = rank(vectors, pivot_order="low")
    return DimensionReport(n, len(vectors), dim, time.monotonic() - t0,
                           "exhaustive permutation enumeration")


def dimension_of(g: TimeGraph, cap: int = DEFAULT_CAP) -> DimensionReport:
    """Exact dimension of the span of the tours contained in g."""
    _check_cap(g.n, cap)
    t0 = time.monotonic()
    vectors = [htp_vector(g.n, p) for p in enumerate_htps(g)]
    dim = rank(vectors, pivot_order="low")
    return DimensionReport(g.n, len(vectors), dim, time.monotonic() - t0,
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
