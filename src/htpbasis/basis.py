"""Construction and certification of upper-triangular tour bases.

A sequence of tour vectors is upper triangular when each row owns a pivot
edge that no later row uses; such a sequence is linearly independent by
inspection of the pivot columns, no arithmetic required.  The builder
produces a certified sequence of exactly n(n-1)(n-2)+1 tours for any
n >= 5:

* order 5 is the embedded 61-row table (base5.py), whose table pivots
  are private;
* the generator _levels climbs from it: each later order stacks
  structured families that park city n on day 1, the order below it
  lifted by parking city n on day n, and explicit completion rows that
  park city n on an interior day between fixed neighbours, one row per
  unit of the rank deficit.  Each order checks its row count against the
  target and, before the next is stacked on it, orders its rows greedily
  so each owns a private pivot edge, which proves them independent;
* build passes the last order to the tail it shares with complete_basis:
  one exact elimination over Z, seeded with the partial rows, measures
  the exact rank, and one pivot sweep over the greedily ordered rows
  names their private pivots.  The certificate joins the two arguments.

Families and completion rows are turned into their columns once; lifted
rows take theirs from the order below through one old -> new column map.
base_basis_5 and verify_upper_triangular also read one column table each.

No step is random.  The seed that build() takes is recorded in the
certificate and changes no row.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .annihilators import dimension_upper_bound
from .base5 import BASE5_ROWS
from .linalg import EdgeVector, IntegerEchelon
from .oracle import full_dimension
from .report import Report
from .timegraph import (Edge, _check_htp, _is_permutation, _tour_columns, edge_count,
                        edge_from_index, edge_index, htp_vector)

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


class PivotError(ValueError):
    """No admissible pivot edge for some row; row_index is 0-based."""

    def __init__(self, row_index: int, perm: tuple[int, ...]):
        self.row_index = row_index
        self.perm = perm
        super().__init__(
            f"row {row_index} {perm} has no edge unused by the rows after it")


class CompletionError(RuntimeError):
    """The completion engine could not reach the target rank or ordering.

    stage is "seeding (partial rows dependent)" when the partial rows are
    linearly dependent, "candidate search" when the completion rows leave
    the exact rank short of the target, "ordering" when the rows admit no
    upper-triangular order.
    """

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
            (n_key, n_text), (rows_key, rows_text) = lines[0].split(), lines[1].split()
            n, declared = int(n_text), int(rows_text)
        except ValueError as exc:
            raise BasisFormatError(f"bad header: {exc}") from exc
        if (n_key, rows_key) != ("n", "rows"):
            raise BasisFormatError("header must start with 'n <order>' and 'rows <count>'")
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
            if not _is_permutation(n, perm):
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

def _backward_sweep(columns: Sequence[list[int]]) -> Iterator[tuple]:
    """Yield (row index, its columns, later) per row of a table, the last first.

    later maps each column used after the row to the lowest later row that
    uses it.  The mapping is shared and updated once the caller moves on,
    so the whole sweep is linear in the columns listed.
    """
    later: dict[int, int] = {}
    for idx in range(len(columns) - 1, -1, -1):
        cols = columns[idx]
        yield idx, cols, later
        for c in cols:
            later[c] = idx


def _pivot_sequence(n: int, perms: Sequence[tuple[int, ...]],
                    columns: Sequence[list[int]]) -> list[Edge]:
    """find_pivot_sequence on rows whose column table is given."""
    pivots: list[Edge | None] = [None] * len(perms)
    first_bad: int | None = None
    for idx, cols, later in _backward_sweep(columns):
        free = [c for c in cols if c not in later]
        if free:
            pivots[idx] = edge_from_index(n, min(free))
        else:
            first_bad = idx
    if first_bad is not None:
        raise PivotError(first_bad, tuple(perms[first_bad]))
    return pivots  # type: ignore[return-value]


def find_pivot_sequence(n: int, perms: Sequence[tuple[int, ...]]) -> list[Edge]:
    """Per row, the lowest-indexed edge used by it and by no later row.

    Succeeds exactly when the sequence is upper triangular in the given
    order; the resulting pivots are automatically pairwise distinct.
    Raises PivotError naming the first row without an admissible edge.
    """
    return _pivot_sequence(n, perms, _columns(n, perms))


def _pivot_violation(n: int, rows: Sequence[PivotedHtp],
                     columns: Sequence[list[int]]) -> tuple[int, int] | None:
    """First (i, j) with i < j where row j uses row i's pivot, else None.

    columns is the rows' table.  (i, i) means row i does not use its own
    pivot, which covers a pivot that is no edge of the order-n time graph.
    """
    found = None
    for idx, cols, later in _backward_sweep(columns):
        try:
            pivot = edge_index(n, rows[idx].pivot)
        except ValueError:
            pivot = None
        if pivot not in cols:
            found = (idx, idx)
        elif pivot in later:
            found = (idx, later[pivot])
    return found


# --------------------------------------------------------------------------
# base case
# --------------------------------------------------------------------------

def base_basis_5() -> UpperTriangularBasis:
    """The embedded 61-row order-5 basis, self-checked.

    The rows must be distinct tours whose table pivots are private, which
    alone proves them independent: the certificate's rank is their count.
    """
    n = 5
    perms = [p for p, _ in BASE5_ROWS]
    if len(perms) != 61 or len(set(perms)) != len(perms):
        raise ValueError("embedded base data corrupt: rows not 61 distinct tours")
    for p in perms:
        if not _is_permutation(n, p):
            raise ValueError(f"embedded base data corrupt: non-permutation {p}")
    columns = [_tour_columns(n, p) for p in perms]
    # Column t of a tour is its edge leaving day t.
    rows = tuple(PivotedHtp(p, edge_from_index(n, cols[day]))
                 for (p, day), cols in zip(BASE5_ROWS, columns))
    violation = _pivot_violation(n, rows, columns)
    if violation is not None:
        raise ValueError(f"embedded base data corrupt: pivot of row {violation[0]} "
                         f"is not private (row {violation[1]})")
    cert = BuildCertificate(pivot_check=True, rank=len(rows), target=61,
                            details={"source": "embedded order-5 table"})
    return UpperTriangularBasis(n, rows, cert)


# --------------------------------------------------------------------------
# induction step pieces
# --------------------------------------------------------------------------

def lift(q: Sequence[int]) -> tuple[int, ...]:
    """Embed an order n-1 tour into order n by visiting city n on day n."""
    return _check_htp(len(q), q) + (len(q) + 1,)


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
    """The completion rows: city n on an interior day between fixed neighbours.

    For each interior day t = 2..n-1, in order, and each neighbour pair
    (a, b) with a = 1, or b = 1, or (a, b) = (2, 3), by a then b, the row
    has a, n, b on days t-1, t, t+1 and the other cities ascending.  That
    is 2n-3 pairs per day and (n-2)(2n-3) = (n-1)(2n-5)+1 rows, exactly
    the deficit n(n-1)(n-2)+1 - ((n-1)^2-1) - ((n-1)(n-2)(n-3)+1) that
    the families and the lifted basis leave.  No row parks city n on
    day 1 or day n, so none repeats a family or a lifted row.
    """
    return [_spaced_perm(n, {t - 1: a, t: n, t + 1: b})
            for t in range(2, n) for a in range(1, n) for b in range(1, n)
            if a != b and (1 in (a, b) or (a, b) == (2, 3))]


def _columns(n: int, perms: Iterable[Sequence[int]]) -> list[list[int]]:
    """The column table of a list of tours: each tour's columns, each tour checked once."""
    return [_tour_columns(n, _check_htp(n, p)) for p in perms]


def _lift_columns(n: int, columns: Iterable[list[int]]) -> list[list[int]]:
    """The order-n columns of lifted rows, from their order n-1 columns.

    One old -> new table maps each order n-1 edge through lift_pivot; the
    lift adds the finish edge (n, 0, n) on day n.
    """
    remap = [edge_index(n, lift_pivot(n, edge_from_index(n - 1, k)))
             for k in range(edge_count(n - 1))]
    finish = edge_index(n, Edge(n, 0, n))
    return [[remap[c] for c in cols] + [finish] for cols in columns]


def _greedy_ut_order(n: int, columns: Sequence[list[int]]) -> list[int] | None:
    """Order rows, given by their order-n columns, so each owns a column
    unused by all later rows.

    Repeatedly picks the lowest-indexed remaining row holding a column of
    remaining multiplicity one.  Removing a placed row can only free
    columns, so if any valid order exists the greedy finds one; None
    signals a stall.

    A row that holds a column of count one keeps it until the row itself
    is placed, so the candidates live in a min-heap.  Each column also
    tracks the sum of its remaining holders' indices: when its count drops
    to one, that sum is the last holder.  Total work is linear in the
    columns listed.
    """
    count = [0] * edge_count(n)
    holders = [0] * edge_count(n)
    for ri, cols in enumerate(columns):
        for c in cols:
            count[c] += 1
            holders[c] += ri
    ready = [holders[c] for c, k in enumerate(count) if k == 1]
    heapq.heapify(ready)
    placed = [False] * len(columns)
    order: list[int] = []
    while ready:
        pick = heapq.heappop(ready)
        if placed[pick]:
            continue
        placed[pick] = True
        order.append(pick)
        for c in columns[pick]:
            count[c] -= 1
            holders[c] -= pick
            if count[c] == 1:
                heapq.heappush(ready, holders[c])
    return order if len(order) == len(columns) else None


def _probe_candidates(n: int, base_columns: Sequence[list[int]],
                      pool_columns: Sequence[list[int]],
                      target: int) -> tuple[list[int], int]:
    """The pool rows that raise the exact rank after the base rows, and that rank.

    One fraction-free elimination over Z, scanning 'high' as rank() does,
    is seeded with the base rows and then offered every pool row; rows
    are given by their columns.  added lists the indices of the pool rows
    kept.  The returned rank is the exact rank over Q of base and pool
    together, so also of base and added.  A dependent base row raises
    CompletionError.
    """
    ech = IntegerEchelon(edge_count(n), pivot_order="high")
    for cols in base_columns:
        if not ech.add(dict.fromkeys(cols, 1)):
            raise CompletionError(ech.rank, target, "seeding (partial rows dependent)")
    added = [i for i, cols in enumerate(pool_columns) if ech.add(dict.fromkeys(cols, 1))]
    return added, ech.rank


def _ut_ordered(n: int, perms: list, columns: list[list[int]], achieved: int, target: int):
    """perms and columns in greedy order; a stall raises CompletionError at "ordering"."""
    order = _greedy_ut_order(n, columns)
    if order is None:
        raise CompletionError(achieved, target, "ordering")
    return [perms[i] for i in order], [columns[i] for i in order]


def _completed(n: int, perms: list, columns: list[list[int]], partial: int, target: int,
               seed: int, t0: float, **details) -> UpperTriangularBasis:
    """The first partial rows and each later row that raises the exact rank,
    greedily ordered, with private pivots and a certificate of that rank."""
    added, achieved = _probe_candidates(n, columns[:partial], columns[partial:], target)
    if achieved < target:
        raise CompletionError(achieved, target, "candidate search")
    keep = [*range(partial), *(partial + i for i in added)]
    perms, columns = _ut_ordered(n, [perms[i] for i in keep], [columns[i] for i in keep],
                                 achieved, target)
    pivots = _pivot_sequence(n, perms, columns)
    cert = BuildCertificate(pivot_check=True, rank=achieved, target=target, seed=seed,
                            elapsed=time.monotonic() - t0,
                            details={"added": len(added), "partial_rows": partial, **details})
    return UpperTriangularBasis(n, tuple(map(PivotedHtp, perms, pivots)), cert)


def complete_basis(n: int, partial: UpperTriangularBasis, target: int,
                   seed: int = DEFAULT_SEED) -> UpperTriangularBasis:
    """Extend a certified partial basis to exactly target independent rows.

    build's tail: one exact elimination over Z, seeded with the partial
    rows, keeps each completion row that raises the rank; the rows kept
    are greedily ordered so each owns a private pivot.  A dependent
    partial row, a rank shortfall or an ordering stall raises
    CompletionError; there is no retry.  seed is only recorded.
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
    perms = partial.perms() + _completion_pool(n)
    return _completed(n, perms, _columns(n, perms), len(partial), target, seed, t0)


def _levels(n: int) -> Iterator[tuple[list, list[list[int]], int, int]]:
    """Per order m = 6..n: its rows (families, then lifted, then completion),
    their column table and the numbers of family and lifted rows.

    An order is greedily ordered only when the next one is asked for.
    """
    perms = build(5).perms()
    columns = [_tour_columns(5, p) for p in perms]  # checked by base_basis_5
    for m in range(6, n + 1):
        families = induction_families(m)
        pool = _completion_pool(m)
        lifted = len(perms)
        # The rows of order m-1 are already checked, so lift them directly.
        columns = _columns(m, families) + _lift_columns(m, columns) + _columns(m, pool)
        perms = families + [q + (m,) for q in perms] + pool
        target = dimension_upper_bound(m)
        if len(perms) != target:
            raise CompletionError(len(perms), target, "candidate search")
        yield perms, columns, len(families), lifted
        if m < n:
            perms, columns = _ut_ordered(m, perms, columns, target, target)


def build(n: int, seed: int = DEFAULT_SEED) -> UpperTriangularBasis:
    """Certified upper-triangular basis with n(n-1)(n-2)+1 rows, n >= 5.

    Order 5 is the embedded table.  Above it, build takes the last order
    of _levels(n) and completes it with the tail that complete_basis runs:
    the one exact elimination, the greedy order and the pivot sweep.
    seed is recorded in the certificate and changes no row.
    """
    if n < 5:
        raise ValueError(f"basis construction starts at order 5, got {n}")
    if n == 5:
        base = base_basis_5()
        base.certificate.seed = seed
        return base
    t0 = time.monotonic()
    for perms, columns, families, lifted in _levels(n):
        pass  # each order is dropped once the next has lifted it
    return _completed(n, perms, columns, families + lifted, dimension_upper_bound(n), seed,
                      t0, families=families, lifted=lifted)


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------

def verify_upper_triangular(basis: UpperTriangularBasis) -> Report:
    """Full recheck of a basis: structure, private pivots and an exact 'high'
    rank over Z that does not trust them, both read off one column table.

    params["expected_dimension"] is the dimension of the span of all tours:
    n(n-1)(n-2)+1, or the brute-force oracle's answer below order 5.
    """
    t0 = time.monotonic()
    n = basis.n
    report = Report(
        title=f"upper-triangular basis verification, order {n}",
        params={
            "n": n,
            "rows": len(basis),
            "edge_count": edge_count(n),
            "expected_dimension": (dimension_upper_bound(n) if n >= 5
                                   else full_dimension(n).dimension),
            "seed": basis.certificate.seed if basis.certificate else None,
        },
    )

    bad_perm = [i for i, r in enumerate(basis.rows) if not _is_permutation(n, r.htp)]
    report.add("rows are valid tours", not bad_perm,
               expected=0, actual=len(bad_perm),
               detail=f"first bad row {bad_perm[0]}" if bad_perm else "")

    distinct = len({r.htp for r in basis.rows}) == len(basis.rows)
    report.add("rows are distinct", distinct)

    if bad_perm:
        report.elapsed = time.monotonic() - t0
        return report

    columns = _columns(n, basis.perms())
    violation = _pivot_violation(n, basis.rows, columns)
    if violation is None:
        report.add("pivot edges are private to their rows", True)
    elif violation[0] == violation[1]:
        report.add("pivot edges are private to their rows", False,
                   detail=f"row {violation[0]} does not use its declared pivot")
    else:
        report.add("pivot edges are private to their rows", False,
                   detail=f"row {violation[1]} reuses the pivot of row {violation[0]}")

    ech = IntegerEchelon(edge_count(n), pivot_order="high")
    measured = sum(ech.add(dict.fromkeys(cols, 1)) for cols in columns)
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
