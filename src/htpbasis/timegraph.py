"""Layered time graphs: edge indexing, incidence vectors, tour enumeration.

The complete time graph of order n has a vertex (city, day) for each city
in 1..n and each day in 1..n, plus a start vertex visited on day 0 and a
finish vertex visited on day n+1.  Every edge advances exactly one day:

    (0, j, 0)   start -> city j on day 1
    (i, j, t)   city i on day t -> city j on day t+1,  i != j, 1 <= t <= n-1
    (i, 0, n)   city i on day n -> finish

A tour that visits every city exactly once is a permutation of 1..n read
off day by day (an "htp" below).  Its incidence vector marks the n+1 edges
it uses inside the rational coordinate space indexed by the full edge set.
This module fixes the coordinate order (sources, then internal edges by
(day, from, to), then finish edges) that every other module relies on.

Inside the package a tour edge is its integer column: _column is the one
edge -> column formula, and _tour_columns turns a validated city sequence
into its n+1 columns without building an Edge.  Edge tuples appear only at
the boundaries: files, reports, TimeGraph and the public functions here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

from .linalg import EdgeVector

__all__ = [
    "Edge",
    "TimeGraph",
    "all_edges",
    "edge_count",
    "edge_from_index",
    "edge_index",
    "enumerate_htps",
    "htp_edges",
    "htp_vector",
    "partial_path_vector",
    "timepath_edges",
    "timepath_vector",
]


class Edge(NamedTuple):
    """A day-stamped directed edge (from_city, to_city, day)."""

    from_city: int
    to_city: int
    day: int


def _check_order(n: int, minimum: int = 3) -> None:
    if not isinstance(n, int) or n < minimum:
        raise ValueError(f"order must be an integer >= {minimum}, got {n!r}")


def edge_count(n: int) -> int:
    """Number of edges of the complete time graph of order n."""
    _check_order(n, minimum=1)
    return n * (n - 1) ** 2 + 2 * n


def _column(n: int, i: int, j: int, t: int) -> int:
    """The column of edge (i, j, t), which the caller has already validated."""
    if t == 0:
        return j - 1
    if t == n:
        return n + n * (n - 1) * (n - 1) + (i - 1)
    return n + (t - 1) * n * (n - 1) + (i - 1) * (n - 1) + (j - 1 if j < i else j - 2)


def edge_index(n: int, e: Edge) -> int:
    """Canonical linear index of e in [0, edge_count(n)); rejects non-edges.

    Sources come first ordered by to_city, then internal edges ordered by
    (day, from_city, to_city), then destination edges ordered by from_city.
    """
    _check_order(n)
    i, j, t = e
    if not (t == 0 and i == 0 and 1 <= j <= n
            or t == n and j == 0 and 1 <= i <= n
            or 1 <= t <= n - 1 and 1 <= i <= n and 1 <= j <= n and i != j):
        raise ValueError(f"invalid edge {tuple(e)} for order {n}")
    return _column(n, i, j, t)


def edge_from_index(n: int, k: int) -> Edge:
    """Inverse of edge_index."""
    _check_order(n)
    total = edge_count(n)
    if not 0 <= k < total:
        raise ValueError(f"edge index {k} out of range [0, {total}) for order {n}")
    if k < n:
        return Edge(0, k + 1, 0)
    k -= n
    internal = n * (n - 1) * (n - 1)
    if k < internal:
        t, r = divmod(k, n * (n - 1))
        i, c = divmod(r, n - 1)
        j = c + 1 if c + 1 < i + 1 else c + 2
        return Edge(i + 1, j, t + 1)
    return Edge(k - internal + 1, 0, n)


def all_edges(n: int) -> Iterator[Edge]:
    """All edges of the complete time graph, in canonical index order."""
    _check_order(n)
    return (edge_from_index(n, k) for k in range(edge_count(n)))


# --------------------------------------------------------------------------
# city sequences and their incidence vectors
# --------------------------------------------------------------------------

def _check_sequence(n: int, seq: Iterable[int]) -> tuple[int, ...]:
    _check_order(n)
    s = tuple(seq)
    if len(s) != n:
        raise ValueError(f"city sequence must have length {n}, got {len(s)}")
    for c in s:
        if not 1 <= c <= n:
            raise ValueError(f"city {c} out of range [1, {n}]")
    for a, b in zip(s, s[1:]):
        if a == b:
            raise ValueError(f"consecutive cities must differ, got repeated {a}")
    return s


def _is_permutation(n: int, p: Sequence[int]) -> bool:
    """Whether p is a permutation of 1..n; a short p costs nothing for a huge n."""
    return len(p) == n and sorted(p) == list(range(1, n + 1))


def _check_htp(n: int, perm: Iterable[int]) -> tuple[int, ...]:
    _check_order(n)
    p = tuple(perm)
    if not _is_permutation(n, p):
        raise ValueError(f"not a permutation of 1..{n}: {p}")
    return p


def _tour_columns(n: int, s: Sequence[int]) -> list[int]:
    """Columns of the n+1 edges, one per day, of the tour that visits s[t-1]
    on day t; s must already be a valid city sequence."""
    return [_column(n, 0, s[0], 0),
            *(_column(n, a, b, t) for t, (a, b) in enumerate(zip(s, s[1:]), start=1)),
            _column(n, s[-1], 0, n)]


def timepath_edges(n: int, seq: Iterable[int]) -> tuple[Edge, ...]:
    """The n+1 edges of the tour that visits seq[t-1] on day t."""
    return tuple(edge_from_index(n, k) for k in _tour_columns(n, _check_sequence(n, seq)))


def htp_edges(n: int, perm: Iterable[int]) -> tuple[Edge, ...]:
    """Edges of the tour for a permutation of 1..n."""
    return tuple(edge_from_index(n, k) for k in _tour_columns(n, _check_htp(n, perm)))


def timepath_vector(n: int, seq: Iterable[int]) -> EdgeVector:
    """0/1 incidence vector of the tour that visits seq[t-1] on day t; a city
    may recur, though not on consecutive days."""
    return EdgeVector(edge_count(n), dict.fromkeys(_tour_columns(n, _check_sequence(n, seq)), 1))


def htp_vector(n: int, perm: Iterable[int]) -> EdgeVector:
    """0/1 incidence vector of the tour of a permutation of 1..n."""
    return EdgeVector(edge_count(n), dict.fromkeys(_tour_columns(n, _check_htp(n, perm)), 1))


def partial_path_vector(n: int, i: int, t: int) -> EdgeVector:
    """Incidence vector of a fixed start-to-(i, t) path with exactly t edges.

    The path steps +1 mod n through the cities, so the day-s city is
    ((i - t + s - 1) mod n) + 1; it ends at city i on day t.  Its edges are
    the first t edges of the cyclic tour that continues the same way.
    """
    _check_order(n)
    if not (1 <= i <= n and 1 <= t <= n):
        raise ValueError(f"city/day ({i}, {t}) out of range [1, {n}]^2")
    cycle = [((i - t + s - 1) % n) + 1 for s in range(1, n + 1)]
    return EdgeVector(edge_count(n), dict.fromkeys(_tour_columns(n, cycle)[:t], 1))


# --------------------------------------------------------------------------
# time graphs (edge subsets) and tour enumeration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGraph:
    """An order n together with a subset of the complete edge set."""

    n: int
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        _check_order(self.n)
        normalized = frozenset(Edge(*e) for e in self.edges)
        for e in normalized:
            edge_index(self.n, e)
        object.__setattr__(self, "edges", normalized)

    @classmethod
    def complete(cls, n: int) -> "TimeGraph":
        return cls(n, frozenset(all_edges(n)))

    @classmethod
    def from_htps(cls, n: int, perms: Iterable[Iterable[int]]) -> "TimeGraph":
        """Union of the tour edges of the given permutations."""
        es: set[Edge] = set()
        for p in perms:
            es.update(htp_edges(n, p))
        return cls(n, frozenset(es))

    def __contains__(self, e: Edge) -> bool:
        return Edge(*e) in self.edges

    # -- text format: 'n <order>' then one 'i j t' line per edge ----------

    @classmethod
    def from_text(cls, text: str) -> "TimeGraph":
        n = None
        edges: set[Edge] = set()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if n is None:
                if len(parts) != 2 or parts[0] != "n":
                    raise ValueError(f"line {lineno}: expected 'n <order>', got {line!r}")
                (n,) = _naturals(lineno, parts[1:])
                continue
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'i j t', got {line!r}")
            e = Edge(*_naturals(lineno, parts))
            if e in edges:
                raise ValueError(f"line {lineno}: repeated edge {line!r}")
            edges.add(e)
        if n is None:
            raise ValueError("missing 'n <order>' header line")
        return cls(n, frozenset(edges))

    def to_text(self) -> str:
        lines = [f"n {self.n}"]
        for e in sorted(self.edges, key=lambda e: edge_index(self.n, e)):
            lines.append(f"{e.from_city} {e.to_city} {e.day}")
        return "\n".join(lines) + "\n"

    @classmethod
    def load(cls, path) -> "TimeGraph":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_text())


def _naturals(lineno: int, tokens: list[str]) -> list[int]:
    """A graph file's integers: ASCII digits only, so no sign, '_' or other
    script, and no leading zero."""
    digits = "".join(tokens)
    if not (digits.isascii() and digits.isdigit()) or any(x[0] == "0" != x for x in tokens):
        raise ValueError(f"line {lineno}: expected ASCII digits without a leading zero, "
                         f"got {' '.join(tokens)!r}")
    return [int(x) for x in tokens]


def _layers(g: TimeGraph) -> tuple[list[int], dict[tuple[int, int], list[int]], set[int]]:
    """g's day layers: its start cities, the successors of each (city, day)
    with an edge out of it, both sorted, and the cities with a finish edge."""
    n = g.n
    starts = sorted(e.to_city for e in g.edges if e.day == 0)
    finishers = {e.from_city for e in g.edges if e.day == n}
    succ: dict[tuple[int, int], list[int]] = {}
    for e in g.edges:
        if 1 <= e.day <= n - 1:
            succ.setdefault((e.from_city, e.day), []).append(e.to_city)
    for k in succ:
        succ[k].sort()
    return starts, succ, finishers


def _complete_layers(n: int) -> tuple[list[int], dict[tuple[int, int], list[int]], set[int]]:
    """_layers of the complete graph of order n, without building the graph."""
    cities = list(range(1, n + 1))
    succ = {(i, t): [j for j in cities if j != i] for t in range(1, n) for i in cities}
    return cities, succ, set(cities)


def enumerate_htps(g: TimeGraph) -> Iterator[tuple[int, ...]]:
    """Yield every permutation whose tour lies in g, in lexicographic order.

    Day-layered depth-first search: a branch dies as soon as the next edge
    is missing, so sparse graphs enumerate far faster than filtering all n!
    permutations.
    """
    n = g.n
    starts, succ, finishers = _layers(g)
    path: list[int] = []
    used = [False] * (n + 1)

    def extend(city: int, day: int) -> Iterator[tuple[int, ...]]:
        path.append(city)
        used[city] = True
        if day == n:
            if city in finishers:
                yield tuple(path)
        else:
            for nxt in succ.get((city, day), ()):
                if not used[nxt]:
                    yield from extend(nxt, day + 1)
        used[city] = False
        path.pop()

    for first in starts:
        yield from extend(first, 1)
