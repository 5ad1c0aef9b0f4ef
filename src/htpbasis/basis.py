"""Construction and certification of upper-triangular tour bases.

A sequence of tour vectors is upper triangular when each row owns a pivot
edge that no later row uses; such a sequence is linearly independent by
inspection of the pivot columns, no arithmetic required.  The builder
produces a certified sequence of exactly n(n-1)(n-2)+1 tours for any
n >= 5:

* order 5 is the embedded 61-row table (base5.py);
* each later order starts from structured families that park city n on
  day 1, appends the previous basis lifted by parking city n on day n,
  and fills the remaining rank deficit with explicit completion rows
  that park city n on an interior day between fixed neighbours, one row
  per unit of the deficit;
* one exact elimination over Z, seeded with the families and lifted
  rows, confirms that each completion row raises the rank and measures
  the exact rank of the full set;
* the full set is then reordered greedily so every row regains a private
  pivot edge.  The certificate joins the two independent arguments: the
  private pivots and the exact rank.

Each level turns every tour into its columns once and reuses that table
for both pivot sweeps, the elimination and the greedy order.

No step is random.  The seed that build() takes is recorded in the
certificate and changes no row.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from . import linalg
from .annihilators import dimension_upper_bound
from .base5 import BASE5_ROWS
from .linalg import EdgeVector, IntegerEchelon
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

def _backward_sweep(size: int, columns_of: Callable[[int], list[int]]) -> Iterator[tuple]:
    """Yield (row index, its columns, later) for each row, the last row first.

    columns_of(idx) gives the columns of row idx.  later maps each column
    used after the row to the lowest later row that uses it.  The mapping
    is shared and updated once the caller moves on, so the whole sweep is
    linear in the edges listed.
    """
    later: dict[int, int] = {}
    for idx in range(size - 1, -1, -1):
        cols = columns_of(idx)
        yield idx, cols, later
        for c in cols:
            later[c] = idx


def _pivot_sequence(n: int, perms: Sequence[tuple[int, ...]],
                    columns_of: Callable[[int], list[int]]) -> list[Edge]:
    """find_pivot_sequence on rows whose columns columns_of(idx) gives."""
    pivots: list[Edge | None] = [None] * len(perms)
    first_bad: int | None = None
    for idx, cols, later in _backward_sweep(len(perms), columns_of):
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
    return _pivot_sequence(n, perms, lambda idx: _tour_columns(n, _check_htp(n, perms[idx])))


def _pivot_violation(n: int, rows: Sequence[PivotedHtp]) -> tuple[int, int] | None:
    """First (i, j) with i < j where row j uses row i's pivot, else None.

    (i, i) means row i does not use its own pivot, which covers a pivot
    that is no edge of the order-n time graph at all.
    """
    found = None
    sweep = _backward_sweep(len(rows), lambda idx: _tour_columns(n, _check_htp(n, rows[idx].htp)))
    for idx, cols, later in sweep:
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
    """The embedded 61-row order-5 basis, self-checked and rank-certified."""
    n = 5
    perms = [p for p, _ in BASE5_ROWS]
    if len(perms) != 61 or len(set(perms)) != len(perms):
        raise ValueError("embedded base data corrupt: rows not 61 distinct tours")
    for p in perms:
        if not _is_permutation(n, p):
            raise ValueError(f"embedded base data corrupt: non-permutation {p}")
    # Column t of a tour is its edge leaving day t.
    pivots = [edge_from_index(n, _tour_columns(n, p)[day]) for p, day in BASE5_ROWS]
    rows = tuple(PivotedHtp(p, piv) for p, piv in zip(perms, pivots))
    violation = _pivot_violation(n, rows)
    if violation is not None:
        raise ValueError(f"embedded base data corrupt: pivot of row {violation[0]} "
                         f"is not private (row {violation[1]})")
    measured = linalg.rank([htp_vector(n, p) for p in perms])
    cert = BuildCertificate(pivot_check=True, rank=measured, target=61,
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
    """The column table of a level: each tour's columns, each tour checked once."""
    return [_tour_columns(n, _check_htp(n, p)) for p in perms]


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


def _complete(n: int, base_perms: list[tuple[int, ...]], base_columns: list[list[int]],
              target: int, seed: int) -> UpperTriangularBasis:
    """complete_basis on partial rows whose column table is already known."""
    t0 = time.monotonic()
    pool = _completion_pool(n)
    pool_columns = _columns(n, pool)
    added, achieved = _probe_candidates(n, base_columns, pool_columns, target)
    if achieved < target:
        raise CompletionError(achieved, target, "candidate search")
    all_perms = base_perms + [pool[i] for i in added]
    all_columns = base_columns + [pool_columns[i] for i in added]
    order = _greedy_ut_order(n, all_columns)
    if order is None:
        raise CompletionError(achieved, target, "ordering")

    ordered = [all_perms[i] for i in order]
    pivots = _pivot_sequence(n, ordered, lambda idx: all_columns[order[idx]])
    cert = BuildCertificate(
        pivot_check=True, rank=achieved, target=target, seed=seed,
        elapsed=time.monotonic() - t0,
        details={"added": len(added), "partial_rows": len(base_perms)},
    )
    rows = tuple(PivotedHtp(p, piv) for p, piv in zip(ordered, pivots))
    return UpperTriangularBasis(n, rows, cert)


def complete_basis(n: int, partial: UpperTriangularBasis, target: int,
                   seed: int = DEFAULT_SEED) -> UpperTriangularBasis:
    """Extend a certified partial basis to exactly target independent rows.

    One exact elimination over Z, seeded with the partial rows, keeps
    each completion row that raises the rank and measures the exact rank
    of the whole set; the rows kept are then reordered by greedy
    private-pivot extraction.  The certificate joins the two arguments:
    a private pivot for every row and the exact rank.  A dependent partial
    row, a rank shortfall or an ordering stall raises CompletionError;
    there is no retry.  seed is only recorded in the certificate.
    """
    if partial.n != n:
        raise ValueError(f"partial basis has order {partial.n}, expected {n}")
    if not partial.certified:
        raise ValueError("partial basis must be certified before completion")
    if len(partial) == target:
        return partial
    if len(partial) > target:
        raise ValueError(f"partial already has {len(partial)} rows > target {target}")
    base_perms = partial.perms()
    return _complete(n, base_perms, _columns(n, base_perms), target, seed)


def build(n: int, seed: int = DEFAULT_SEED) -> UpperTriangularBasis:
    """Certified upper-triangular basis with n(n-1)(n-2)+1 rows, n >= 5.

    Recursive: families with city n on day 1 first, then the lifted
    previous basis, then completion rows; the completion engine owns the
    final ordering and certification.  Each level turns every tour into
    its columns once.  seed is recorded in the certificate and changes no
    row.
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
    columns = _columns(n, partial_perms)
    pivots = _pivot_sequence(n, partial_perms, columns.__getitem__)

    # How many lifted rows kept the pivot inherited through the lift.
    inherited = sum(
        1 for offset, row in enumerate(previous.rows)
        if pivots[len(families) + offset] == lift_pivot(n, row.pivot))

    # Distinct private pivots prove the partial rows independent; the
    # completed rows get an exact elimination as well.
    result = _complete(n, partial_perms, columns, dimension_upper_bound(n), seed)
    result.certificate.elapsed = time.monotonic() - t0
    result.certificate.details.update({"families": len(families), "lifted": len(lifted),
                                       "lifted_pivots_inherited": inherited})
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

    bad_perm = [i for i, r in enumerate(basis.rows) if not _is_permutation(n, r.htp)]
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
