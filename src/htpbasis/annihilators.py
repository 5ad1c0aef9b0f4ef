"""The annihilator family that bounds the dimension of the tour span.

Two kinds of integer vectors are orthogonal to every full tour vector:

* a vertex balance: +1 on each edge leaving a vertex (city, day) and -1 on
  each edge entering it, zero net flow for any path passing through;
* a city balance (cities 1..n-1 only): +1 on every edge leaving the city on
  any day, -1 on every start edge, zero for tours that leave each city once.

Together these n^2 + n - 1 vectors are independent, which caps the tour
span at edge_count(n) - (n^2 + n - 1) = n(n-1)(n-2) + 1 dimensions.  The
family's independence is certified here against explicit dual witnesses:
partial paths ending at a chosen vertex and double-visit tours that repeat
a chosen city.  That every tour is annihilated is proved by rebuilding each
member as a potential form.  Members are built and paired in the integer
columns of timegraph._column, through one index from column to members.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from .linalg import EdgeVector, rank
from .report import Report
from .timegraph import _column, edge_count, partial_path_vector, timepath_vector

__all__ = [
    "AnnihilatorFamily",
    "annihilator_family",
    "city_annihilator",
    "dimension_upper_bound",
    "double_visit_path",
    "family_size",
    "verify_duality",
    "vertex_annihilator",
]


def _check_range(n: int, value: int, name: str, hi: int) -> None:
    if not 1 <= value <= hi:
        raise ValueError(f"{name} must lie in [1, {hi}] for order {n}, got {value}")


def vertex_annihilator(n: int, i: int, t: int) -> EdgeVector:
    """Out-edges minus in-edges of vertex (i, t).

    On the boundary days the start and finish edges take part: entering
    (i, 1) means the start edge (0, i, 0), leaving (i, n) means the finish
    edge (i, 0, n).  Without those two conventions tours would not be
    annihilated.
    """
    _check_range(n, i, "city", n)
    _check_range(n, t, "day", n)
    others = [j for j in range(1, n + 1) if j != i]
    out = [_column(n, i, 0, n)] if t == n else [_column(n, i, j, t) for j in others]
    into = [_column(n, 0, i, 0)] if t == 1 else [_column(n, j, i, t - 1) for j in others]
    return EdgeVector(edge_count(n), {**dict.fromkeys(out, 1), **dict.fromkeys(into, -1)})


def city_annihilator(n: int, i: int) -> EdgeVector:
    """All out-edges of city i (any day, finish edge included) minus all start edges.

    Only defined for i <= n-1: adding the city-n copy would make the family
    dependent on the vertex balances, and the counting below needs exactly
    n^2 + n - 1 members.
    """
    _check_range(n, i, "city", n - 1)
    out = [_column(n, i, j, t) for t in range(1, n) for j in range(1, n + 1) if j != i]
    starts = [_column(n, 0, j, 0) for j in range(1, n + 1)]
    return EdgeVector(edge_count(n), {**dict.fromkeys(out, 1), _column(n, i, 0, n): 1,
                                      **dict.fromkeys(starts, -1)})


def double_visit_path(n: int, i: int) -> tuple[int, ...]:
    """A tour visiting city i twice (non-consecutively), skipping city n.

    These are the dual witnesses for the city balances: the tour leaves
    city i twice but uses one start edge, so it pairs to 1 with the city-i
    balance and to 0 with every other one.  The tour is i, x, i, with x = 2
    if i = 1 and x = 1 otherwise, then the other cities below n in
    ascending order.
    """
    if n < 5:
        raise ValueError(f"double-visit patterns need order >= 5, got {n}")
    _check_range(n, i, "city", n - 1)
    x = 2 if i == 1 else 1
    return (i, x, i) + tuple(c for c in range(1, n) if c not in (i, x))


def family_size(n: int) -> int:
    return n * n + n - 1


def dimension_upper_bound(n: int) -> int:
    """edge_count(n) minus the family size, cross-checked against the closed form."""
    if n < 5:
        raise ValueError(f"dimension bound stated only for orders >= 5, got {n}")
    via_count = edge_count(n) - family_size(n)
    closed = n * (n - 1) * (n - 2) + 1
    if via_count != closed:
        raise RuntimeError(
            f"bound formulas disagree at n={n}: {via_count} != {closed}")
    return closed


@dataclass(frozen=True)
class AnnihilatorFamily:
    """The n^2 + n - 1 balance vectors of order n, in a fixed iteration order."""

    n: int
    city: tuple[EdgeVector, ...]
    vertex: dict[tuple[int, int], EdgeVector]

    def members(self) -> Iterator[EdgeVector]:
        yield from self.city
        for key in sorted(self.vertex):
            yield self.vertex[key]

    def __len__(self) -> int:
        return len(self.city) + len(self.vertex)

    def certified_rank(self) -> int:
        return rank(list(self.members()))


def annihilator_family(n: int) -> AnnihilatorFamily:
    if n < 5:
        raise ValueError(f"annihilator family stated only for orders >= 5, got {n}")
    city = tuple(city_annihilator(n, i) for i in range(1, n))
    vertex = {(i, t): vertex_annihilator(n, i, t)
              for i in range(1, n + 1) for t in range(1, n + 1)}
    return AnnihilatorFamily(n, city, vertex)


def _potential_form(n: int, phi: dict[tuple[int, int], int], w: dict[int, int]) -> dict[int, int]:
    """The nonzero columns of g(a, b, t) = phi[a, t] - phi[b, t + 1] + w[a].

    phi sits on the vertices (city, day) with 1 <= city, day <= n, and city
    0 stands for the start on day 0 and the finish on day n + 1.  Along a
    tour the phi terms telescope and each city, 0 included, is left exactly
    once, so g pairs to sum(w) with every tour.  Only the edges that phi
    or w touch are written.
    """
    def out(a: int, t: int) -> list[tuple[int, int, int]]:
        return [(a, b, t) for b in ((0,) if t == n else range(1, n + 1)) if b != a]

    def into(b: int, t: int) -> list[tuple[int, int, int]]:
        return [(a, b, t - 1) for a in ((0,) if t == 1 else range(1, n + 1)) if a != b]

    edges = {e for c, t in phi for e in out(c, t) + into(c, t)}
    edges.update(e for a in w for t in ((0,) if a == 0 else range(1, n + 1)) for e in out(a, t))
    form = {_column(n, a, b, t): phi.get((a, t), 0) - phi.get((b, t + 1), 0) + w.get(a, 0)
            for a, b, t in edges}
    return {col: x for col, x in form.items() if x}


def verify_duality(n: int, *, seed: int = 0) -> Report:
    """Check every pairing identity of the family and certify its rank.

    The three identity groups: double-visit tours pair to zero with every
    vertex balance; partial paths pair to -1 exactly with the balance of
    their end vertex; double-visit tours pair to delta with the city
    balances.  On top of that the family rank must be n^2 + n - 1, and
    each member, rebuilt from the potential its key names, must be a
    potential form whose w sums to 0, which annihilates every tour.  seed
    is only echoed into the report's params.
    """
    if n < 5:
        raise ValueError(f"duality verification needs order >= 5, got {n}")
    t0 = time.monotonic()
    fam = annihilator_family(n)
    members = list(fam.members())
    city = range(len(fam.city))
    vertex = range(len(fam.city), len(members))
    position = dict(zip(sorted(fam.vertex), vertex))  # the order of members()
    holders: dict[int, list[tuple[int, int]]] = {}
    for pos, g in enumerate(members):
        for col, coef in g.entries.items():
            holders.setdefault(col, []).append((pos, coef))

    def mismatches(pairs, scope: range) -> int:
        """Members in scope whose pairing with a path differs from the value
        that path expects; pairs holds (path entries, {position: value})."""
        bad = 0
        for path, want in pairs:
            got: dict[int, int] = {}
            for col, x in path.items():
                for pos, coef in holders.get(col, ()):
                    if pos in scope:
                        got[pos] = got.get(pos, 0) + coef * x
            bad += sum(1 for pos in got.keys() | want.keys()
                       if got.get(pos, 0) != want.get(pos, 0))
        return bad

    doubles = {i: timepath_vector(n, double_visit_path(n, i)).entries for i in range(1, n)}
    partials = {(i, t): partial_path_vector(n, i, t).entries
                for i in range(1, n + 1) for t in range(1, n + 1)}

    report = Report(
        title=f"annihilator family certification, order {n}",
        params={
            "n": n,
            "seed": seed,
            "edge_count": edge_count(n),
            "family_size": family_size(n),
            "expected_dimension": dimension_upper_bound(n),
        },
    )

    bad = mismatches(((f, {}) for f in doubles.values()), vertex)
    report.add("double-visit tours pair to 0 with vertex balances",
               bad == 0, expected=0, actual=bad,
               detail=f"{len(doubles) * len(fam.vertex)} pairings")

    bad = mismatches(((f, {position[key]: -1}) for key, f in partials.items()), vertex)
    report.add("partial paths pair to -delta with vertex balances",
               bad == 0, expected=0, actual=bad,
               detail=f"{len(partials) * len(fam.vertex)} pairings")

    bad = mismatches(((f, {i - 1: 1}) for i, f in doubles.items()), city)
    report.add("double-visit tours pair to delta with city balances",
               bad == 0, expected=0, actual=bad,
               detail=f"{len(doubles) * len(fam.city)} pairings")

    measured_rank = fam.certified_rank()
    report.add("family rank equals n^2 + n - 1",
               measured_rank == family_size(n),
               expected=family_size(n), actual=measured_rank)

    report.add("edge count minus family rank equals n(n-1)(n-2)+1",
               edge_count(n) - measured_rank == dimension_upper_bound(n),
               expected=dimension_upper_bound(n),
               actual=edge_count(n) - measured_rank)

    potentials = [({}, {i: 1, 0: -1}) for i in range(1, n)]
    potentials += [({key: 1}, {}) for key in sorted(fam.vertex)]  # the order of members()
    bad = sum(1 for g, (phi, w) in zip(members, potentials)
              if sum(w.values()) or g.entries != _potential_form(n, phi, w))
    report.add("every family member is a potential form, so it annihilates every tour",
               bad == 0, expected=0, actual=bad, detail=f"{len(members)} members")

    report.elapsed = time.monotonic() - t0
    return report
