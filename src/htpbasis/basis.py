"""Construction and certification of upper-triangular tour bases.

A sequence of tour vectors is upper triangular when each row owns a pivot
edge that no later row uses; such a sequence is linearly independent by
inspection of the pivot columns, no arithmetic required.  The builder
produces a certified sequence of exactly n(n-1)(n-2)+1 tours for any
n >= 5:

* order 5 is the embedded 61-row table (base5.py);
* each later order starts from structured families that park city n on
  day 1, appends the previous basis lifted by parking city n on day n,
  and fills the remaining rank deficit with tours that park city n on an
  interior day, selected by rank probing modulo a prime (sound in the
  one direction it is used: independence mod p implies independence
  over Q);
* the full set is then reordered greedily so every row regains a private
  pivot edge, and certified by an independent exact rank computation.
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import linalg
from .annihilators import dimension_upper_bound
from .base5 import BASE5_ROWS
from .linalg import EdgeVector, ModularEchelon
from .report import Report
from .timegraph import Edge, edge_count, edge_index, htp_edges, htp_vector

__all__ = [
    "BasisFormatError",
    "BuildCertificate",
    "CompletionError",
    "DEFAULT_SEED",
    "PivotError",
    "PivotedHtp",
    "UpperTriangularBasis",
    "base_basis_5",
    "build",
    "complete_basis",
    "find_pivot_sequence",
    "induction_families",
    "lift",
    "lift_pivot",
    "verify_upper_triangular",
]

DEFAULT_SEED = 1729
_MAX_ORDER_ATTEMPTS = 8
_ENLARGE_BATCH = 200


class PivotError(ValueError):
    """No admissible pivot edge for some row; row_index is 0-based."""

    def __init__(self, row_index: int, perm: tuple[int, ...]):
        self.row_index = row_index
        self.perm = perm
        super().__init__(
            f"row {row_index} {perm} has no edge unused by the rows after it")


class CompletionError(RuntimeError):
    """The completion engine could not reach the target rank or ordering."""

    def __init__(self, achieved: int, target: int, stage: str):
        self.achieved = achieved
        self.target = target
        self.stage = stage
        super().__init__(
            f"completion failed during {stage}: achieved rank {achieved} of {target}")


class BasisFormatError(ValueError):
    """A basis file failed structural validation."""


@dataclass(frozen=True)
class PivotedHtp:
    htp: tuple[int, ...]
    pivot: Edge


@dataclass
class BuildCertificate:
    pivot_check: bool
    rank: int
    target: int
    seed: int | None = None
    elapsed: float | None = None
    details: dict = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return self.pivot_check and self.rank == self.target


@dataclass
class UpperTriangularBasis:
    n: int
    rows: tuple[PivotedHtp, ...]
    certificate: BuildCertificate | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def perms(self) -> list[tuple[int, ...]]:
        return [r.htp for r in self.rows]

    def vectors(self) -> list[EdgeVector]:
        return [htp_vector(self.n, r.htp) for r in self.rows]

    @property
    def certified(self) -> bool:
        return self.certificate is not None and self.certificate.certified

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        lines = [f"n {self.n}", f"rows {len(self.rows)}",
                 f"certified {'true' if self.certified else 'false'}"]
        for r in self.rows:
            perm = " ".join(str(c) for c in r.htp)
            i, j, t = r.pivot
            lines.append(f"perm: {perm} ; pivot: {i} {j} {t}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "UpperTriangularBasis":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if len(lines) < 3:
            raise BasisFormatError("truncated basis file")
        try:
            n = int(lines[0].split()[1])
            declared = int(lines[1].split()[1])
        except (IndexError, ValueError) as exc:
            raise BasisFormatError(f"bad header: {exc}") from exc
        if n < 3:
            raise BasisFormatError(f"order must be >= 3, got {n}")
        if not lines[2].startswith("certified"):
            raise BasisFormatError("missing 'certified' header line")
        rows: list[PivotedHtp] = []
        for lineno, line in enumerate(lines[3:], start=4):
            try:
                perm_part, pivot_part = line.split(";")
                perm = tuple(int(x) for x in perm_part.split(":")[1].split())
                i, j, t = (int(x) for x in pivot_part.split(":")[1].split())
            except (IndexError, ValueError) as exc:
                raise BasisFormatError(f"line {lineno}: unparsable row {line!r}") from exc
            if sorted(perm) != list(range(1, n + 1)):
                raise BasisFormatError(
                    f"line {lineno}: not a permutation of 1..{n}: {perm}")
            rows.append(PivotedHtp(perm, Edge(i, j, t)))
        if len(rows) != declared:
            raise BasisFormatError(
                f"header declares {declared} rows, file has {len(rows)}")
        return cls(n, tuple(rows))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "UpperTriangularBasis":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


# --------------------------------------------------------------------------
# pivots
# --------------------------------------------------------------------------

def find_pivot_sequence(n: int, perms: Sequence[tuple[int, ...]]) -> list[Edge]:
    """Per row, the lowest-indexed edge used by it and by no later row.

    Succeeds exactly when the sequence is upper triangular in the given
    order; the resulting pivots are automatically pairwise distinct.
    Raises PivotError naming the first row without an admissible edge.
    """
    edge_sets = [set(htp_edges(n, p)) for p in perms]
    seen_after: set[Edge] = set()
    pivots: list[Edge | None] = [None] * len(perms)
    first_bad: int | None = None
    for idx in range(len(perms) - 1, -1, -1):
        admissible = edge_sets[idx] - seen_after
        if admissible:
            pivots[idx] = min(admissible, key=lambda e: edge_index(n, e))
        else:
            first_bad = idx
        seen_after |= edge_sets[idx]
    if first_bad is not None:
        raise PivotError(first_bad, tuple(perms[first_bad]))
    return pivots  # type: ignore[return-value]


def _pivot_from_day(n: int, perm: tuple[int, ...], day: int) -> Edge:
    if day == n:
        return Edge(perm[n - 1], 0, n)
    return Edge(perm[day - 1], perm[day], day)


def _pivot_violation(n: int, rows: Sequence[PivotedHtp]) -> tuple[int, int] | None:
    """First (i, j) with i < j where row j uses row i's pivot, else None."""
    edge_sets = [set(htp_edges(n, r.htp)) for r in rows]
    for i, r in enumerate(rows):
        if r.pivot not in edge_sets[i]:
            return (i, i)
        for j in range(i + 1, len(rows)):
            if r.pivot in edge_sets[j]:
                return (i, j)
    return None


# --------------------------------------------------------------------------
# base case
# --------------------------------------------------------------------------

def base_basis_5() -> UpperTriangularBasis:
    """The embedded 61-row order-5 basis, self-checked and rank-certified."""
    n = 5
    perms = [p for p, _ in BASE5_ROWS]
    if len(perms) != 61 or len(set(perms)) != len(perms):
        raise ValueError("embedded base data corrupt: rows not 61 distinct tours")
    for p in perms:
        if sorted(p) != [1, 2, 3, 4, 5]:
            raise ValueError(f"embedded base data corrupt: non-permutation {p}")
    pivots = [_pivot_from_day(n, p, day) for p, day in BASE5_ROWS]
    rows = tuple(PivotedHtp(p, piv) for p, piv in zip(perms, pivots))
    if _pivot_violation(n, rows) is not None:
        # Embedded pivot days should never go stale; recompute rather than trust.
        pivots = find_pivot_sequence(n, perms)
        rows = tuple(PivotedHtp(p, piv) for p, piv in zip(perms, pivots))
    measured = linalg.rank([htp_vector(n, p) for p in perms])
    cert = BuildCertificate(pivot_check=True, rank=measured, target=61,
                            details={"source": "embedded order-5 table"})
    return UpperTriangularBasis(n, rows, cert)


# --------------------------------------------------------------------------
# induction step pieces
# --------------------------------------------------------------------------

def lift(q: Sequence[int]) -> tuple[int, ...]:
    """Embed an order n-1 tour into order n by visiting city n on day n."""
    n = len(q) + 1
    qt = tuple(q)
    if sorted(qt) != list(range(1, n)):
        raise ValueError(f"not a permutation of 1..{n - 1}: {qt}")
    return qt + (n,)


def lift_pivot(n: int, pivot: Edge) -> Edge:
    """Map an order n-1 pivot edge through the lift.

    Internal and start edges map to themselves; the old finish edge
    (i, 0, n-1) becomes the internal edge (i, n, n-1).
    """
    i, j, t = pivot
    if t == n - 1 and j == 0:
        return Edge(i, n, n - 1)
    return Edge(i, j, t)


def _spaced_perm(n: int, fixed: dict[int, int]) -> tuple[int, ...]:
    """Permutation with the given day -> city placements, rest filled ascending."""
    if len(set(fixed.values())) != len(fixed):
        raise RuntimeError(f"placement collision for order {n}: {fixed}")
    rest = iter(sorted(set(range(1, n + 1)) - set(fixed.values())))
    return tuple(fixed[d] if d in fixed else next(rest) for d in range(1, n + 1))


def induction_families(n: int) -> list[tuple[int, ...]]:
    """The structured new rows of the induction step, city n on day 1.

    For each i in 1..n-1 the block holds n-3 rows varying the final city,
    then two rows varying the day n-1 city; the very last block drops its
    final row.  Days 1, 2, n-1, n are pinned by arithmetic mod n-1; the
    remaining cities fill days 3..n-2 in ascending order.  Total count is
    (n-1)^2 - 1.
    """
    if n < 6:
        raise ValueError(f"induction families need order >= 6, got {n}")
    m = n - 1
    rows: list[tuple[int, ...]] = []
    for i in range(1, n):
        for j in range(1, n - 2):
            rows.append(_spaced_perm(n, {
                1: n, 2: i, n - 1: (i % m) + 1, n: ((i + j) % m) + 1}))
        rows.append(_spaced_perm(n, {
            1: n, 2: i, n - 1: ((i + 1) % m) + 1, n: (i % m) + 1}))
        if i != n - 1:
            rows.append(_spaced_perm(n, {
                1: n, 2: i, n - 1: ((i + 1) % m) + 1, n: ((i + 2) % m) + 1}))
    assert len(rows) == m * m - 1
    return rows


def _completion_pool(n: int) -> list[tuple[int, ...]]:
    """Structured candidates placing city n on each interior day.

    For every interior day t and every ordered neighbor pair (a, b) the
    pool holds the tour with a, n, b on days t-1, t, t+1 and the rest
    ascending.
    """
    pool: list[tuple[int, ...]] = []
    for t in range(2, n):
        for a in range(1, n):
            for b in range(1, n):
                if a != b:
                    pool.append(_spaced_perm(n, {t: n, t - 1: a, t + 1: b}))
    return pool


def _greedy_ut_order(n: int, perms: Sequence[tuple[int, ...]]) -> list[int] | None:
    """Order rows so each owns an edge unused by all later rows.

    Repeatedly picks the lowest-indexed remaining row holding an edge of
    remaining multiplicity one.  Removing a placed row can only free edges,
    so if any valid order exists the greedy finds one; None signals a stall.

    A row that holds an edge of count one keeps it until the row itself is
    placed, so the candidates live in a min-heap.  Each edge also tracks
    the sum of its remaining holders' indices: when its count drops to one,
    that sum is the last holder.  Total work is linear in the edges listed.
    """
    edge_sets = [frozenset(htp_edges(n, p)) for p in perms]
    count: dict[Edge, int] = {}
    holders: dict[Edge, int] = {}
    for ri, es in enumerate(edge_sets):
        for e in es:
            count[e] = count.get(e, 0) + 1
            holders[e] = holders.get(e, 0) + ri
    ready = [holders[e] for e, k in count.items() if k == 1]
    heapq.heapify(ready)
    placed = [False] * len(perms)
    order: list[int] = []
    while ready:
        pick = heapq.heappop(ready)
        if placed[pick]:
            continue
        placed[pick] = True
        order.append(pick)
        for e in edge_sets[pick]:
            count[e] -= 1
            holders[e] -= pick
            if count[e] == 1:
                heapq.heappush(ready, holders[e])
    return order if len(order) == len(perms) else None


def _probe_candidates(n: int, base_perms: Sequence[tuple[int, ...]],
                      pool: Iterable[tuple[int, ...]],
                      target: int) -> tuple[list[tuple[int, ...]], int]:
    """Greedily add pool tours that raise the rank mod p until target.

    Independence mod p implies independence over Q, so every tour kept is
    independent of the others over Q; a tour independent only over Q is
    skipped.  The returned rank is a lower bound on the rank over Q.
    """
    ech = ModularEchelon(edge_count(n))
    for p in base_perms:
        if not ech.add(htp_vector(n, p).entries):
            raise CompletionError(ech.rank, target, "seeding (partial rows dependent mod p)")
    seen = set(base_perms)
    added: list[tuple[int, ...]] = []
    for cand in pool:
        if ech.rank >= target:
            break
        if cand in seen:
            continue
        seen.add(cand)
        if ech.add(htp_vector(n, cand).entries):
            added.append(cand)
    return added, ech.rank


def complete_basis(n: int, partial: UpperTriangularBasis, target: int,
                   seed: int = DEFAULT_SEED) -> UpperTriangularBasis:
    """Extend a certified partial basis to exactly target independent rows.

    Candidates come from the structured pool first and from seeded random
    tours if the pool runs dry.  Once the rank reaches the target the whole
    set is reordered by greedy private-pivot extraction and recertified.
    """
    if partial.n != n:
        raise ValueError(f"partial basis has order {partial.n}, expected {n}")
    if not partial.certified:
        raise ValueError("partial basis must be certified before completion")
    if len(partial) == target:
        return partial
    if len(partial) > target:
        raise ValueError(f"partial already has {len(partial)} rows > target {target}")

    t0 = time.monotonic()
    base_perms = partial.perms()
    rng = random.Random(seed)
    pool = _completion_pool(n)
    attempts = 0
    achieved = len(base_perms)
    for attempt in range(_MAX_ORDER_ATTEMPTS):
        attempts = attempt + 1
        added, achieved = _probe_candidates(n, base_perms, pool, target)
        if achieved == target:
            order = _greedy_ut_order(n, base_perms + added)
            if order is not None:
                break
        # Stall or rank shortfall: grow the pool with seeded random tours
        # and retry with a reshuffled candidate order.
        fresh = list(range(1, n + 1))
        for _ in range(_ENLARGE_BATCH):
            rng.shuffle(fresh)
            pool.append(tuple(fresh))
        rng.shuffle(pool)
    else:
        raise CompletionError(achieved, target, "candidate search")

    all_perms = base_perms + added
    ordered = [all_perms[i] for i in order]
    pivots = find_pivot_sequence(n, ordered)
    vectors = [htp_vector(n, p) for p in ordered]
    measured = linalg.rank(vectors)
    cert = BuildCertificate(
        pivot_check=True, rank=measured, target=target, seed=seed,
        elapsed=time.monotonic() - t0,
        details={"added": len(added), "pool_size": len(pool),
                 "attempts": attempts, "partial_rows": len(base_perms)},
    )
    rows = tuple(PivotedHtp(p, piv) for p, piv in zip(ordered, pivots))
    return UpperTriangularBasis(n, rows, cert)


def build(n: int, seed: int = DEFAULT_SEED) -> UpperTriangularBasis:
    """Certified upper-triangular basis with n(n-1)(n-2)+1 rows, n >= 5.

    Recursive: families with city n on day 1 first, then the lifted
    previous basis, then completion rows; the completion engine owns the
    final ordering and certification.
    """
    if n < 5:
        raise ValueError(f"basis construction starts at order 5, got {n}")
    t0 = time.monotonic()
    if n == 5:
        return base_basis_5()
    previous = build(n - 1, seed)
    families = induction_families(n)
    lifted = [lift(q) for q in previous.perms()]
    partial_perms = families + lifted
    pivots = find_pivot_sequence(n, partial_perms)

    # How many lifted rows kept the pivot inherited through the lift.
    inherited = sum(
        1 for offset, row in enumerate(previous.rows)
        if pivots[len(families) + offset] == lift_pivot(n, row.pivot))

    partial_vectors = [htp_vector(n, p) for p in partial_perms]
    partial_cert = BuildCertificate(
        pivot_check=True, rank=linalg.rank(partial_vectors),
        target=len(partial_perms), seed=seed,
        details={"families": len(families), "lifted": len(lifted),
                 "lifted_pivots_inherited": inherited},
    )
    partial = UpperTriangularBasis(
        n, tuple(PivotedHtp(p, piv) for p, piv in zip(partial_perms, pivots)),
        partial_cert)

    result = complete_basis(n, partial, dimension_upper_bound(n), seed)
    if result.certificate is not None:
        result.certificate.elapsed = time.monotonic() - t0
        result.certificate.details.update(partial_cert.details)
    return result


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------

def verify_upper_triangular(basis: UpperTriangularBasis) -> Report:
    """Full recheck of a basis: structure, pivots, and independent exact rank."""
    t0 = time.monotonic()
    n = basis.n
    report = Report(
        title=f"upper-triangular basis verification, order {n}",
        params={
            "n": n,
            "rows": len(basis),
            "edge_count": edge_count(n),
            "expected_dimension": dimension_upper_bound(n) if n >= 5 else None,
            "seed": basis.certificate.seed if basis.certificate else None,
        },
    )

    bad_perm = [i for i, r in enumerate(basis.rows)
                if sorted(r.htp) != list(range(1, n + 1))]
    report.add("rows are valid tours", not bad_perm,
               expected=0, actual=len(bad_perm),
               detail=f"first bad row {bad_perm[0]}" if bad_perm else "")

    distinct = len({r.htp for r in basis.rows}) == len(basis.rows)
    report.add("rows are distinct", distinct)

    if bad_perm:
        report.elapsed = time.monotonic() - t0
        return report

    violation = _pivot_violation(n, basis.rows)
    if violation is None:
        report.add("pivot edges are private to their rows", True)
    elif violation[0] == violation[1]:
        report.add("pivot edges are private to their rows", False,
                   detail=f"row {violation[0]} does not use its declared pivot")
    else:
        report.add("pivot edges are private to their rows", False,
                   detail=f"row {violation[1]} reuses the pivot of row {violation[0]}")

    measured = linalg.rank(basis.vectors())
    report.add("exact rank equals row count", measured == len(basis),
               expected=len(basis), actual=measured)

    cert = basis.certificate
    if cert is not None:
        consistent = (cert.pivot_check and cert.rank == measured
                      and cert.target == len(basis))
        report.add("certificate consistent with recheck", consistent,
                   expected={"rank": measured, "target": len(basis)},
                   actual={"rank": cert.rank, "target": cert.target})

    report.elapsed = time.monotonic() - t0
    return report
