"""Exact linear algebra over the rationals for sparse indexed vectors.

Vectors are sparse, and every exact rank, span and nullspace question is
settled by one kernel, IntegerEchelon: a sparse fraction-free echelon
form over Z.  EdgeVector's constructor is the one door for entries: it
stores nonzero ints and Fractions under int indices, a whole value as
int, and raises TypeError on anything else where the vector is made.
The kernel takes integer rows only.  complete_basis and the brute-force
oracle hand it tour columns as they are, and verify hands it the same
columns relabelled rarest first (basis._rare_first); build ranks its
rows over GF(2) instead, so it shares no arithmetic with verify's exact
rank.  rank, in_span and annihilator_basis take plain vectors through
one door, _echelon, and the Gram-Schmidt annihilator route through _row,
which checks every vector's dimension, a zero one's too, and clears
denominators once, only for rows holding a Fraction.
A row's pivot is the lowest or the highest column of its residual (the
pivot_order parameter), elimination uses gcd-reduced multipliers, and
each stored row is divided by its content with a positive pivot entry.
Its one elimination loop, IntegerEchelon.eliminate, can stop before a
given column and reports the scale it multiplied the row by, so the
brute-force oracle clears tours in stages, one per prefix it walks.  No
dense row is ever built, so time and memory follow the nonzeros present.
annihilator_basis back-substitutes the 'low' echelon to reduced form and
reads the nullspace off it in integers: each free column's vector is
scaled by the lcm of the pivots it meets and divided by its content, so
no Fraction is made.  Orthogonalization runs on Fractions since the
rationals have no square roots to normalize with; _primitive, which
clears them, serves only that Gram-Schmidt route.

ModularEchelon runs the same sparse elimination modulo a fixed word-sized
prime.  No path of the package uses it: only its own tests and the
benchmark tracer, which wraps its add, still do, until the benchmark
reads an in-package stage trace and the class goes (ROADMAP items 1 and
2).  Where it is used, it is used in the sound direction only:
independence mod p implies independence over Q.  rank() is always exact.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, lcm
from numbers import Rational
from typing import Iterable, Iterator, Mapping, Sequence

# Unused at run time since the modular echelon went sparse; the import
# stays while the benchmark's start-up probe reads numpy's import time.
# The package does no BLAS work, so unless the user chose a thread count,
# OpenBLAS starts with one thread instead of a pool; the variable is gone
# again once numpy has read it.
if "OPENBLAS_NUM_THREADS" in os.environ:
    import numpy as np  # noqa: F401
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

__all__ = [
    "EdgeVector",
    "LinearDependenceError",
    "MODULAR_PRIME",
    "annihilator_basis",
    "annihilator_basis_gram_schmidt",
    "gram_schmidt",
    "in_span",
    "inner_product",
    "rank",
]

# Largest prime below 2**31; products of two residues fit in int64.
MODULAR_PRIME = 2_147_483_629


class LinearDependenceError(ValueError):
    """Raised when an operation requires independent input and finds otherwise.

    position is the 1-based index of the first offending vector.
    """

    def __init__(self, position: int, message: str | None = None):
        self.position = position
        super().__init__(message or f"vector {position} depends on its predecessors")


class EdgeVector:
    """A sparse exact-rational vector in a coordinate space of fixed dimension.

    Entries map int index -> nonzero int or Fraction, a whole value stored
    as int, so two vectors are equal exactly when they agree entrywise
    over Q.  The dimension and indices may be any integer type (bool,
    numpy) and the entries any rational type; anything else, a float say,
    raises TypeError here rather than being rounded.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: Mapping[int, object] | None = None):
        dim = operator.index(dim)
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        self.dim = dim
        clean: dict[int, int | Fraction] = {}
        if entries:
            for k, v in entries.items():
                if type(k) is not int:
                    k = operator.index(k)
                if not 0 <= k < dim:
                    raise ValueError(f"index {k} out of range [0, {dim})")
                if type(v) is not int:
                    if not isinstance(v, Rational):
                        raise TypeError(f"entry at column {k} is a {type(v).__name__}, not a "
                                        "rational number; exact arithmetic takes int or "
                                        "Fraction entries")
                    # int(): numpy integers would wrap in fixed-width arithmetic.
                    if v.denominator == 1:
                        v = int(v.numerator)
                    elif type(v) is not Fraction:
                        v = Fraction(int(v.numerator), int(v.denominator))
                if v:
                    clean[k] = v
        self.entries = clean

    @classmethod
    def from_dense(cls, values: Sequence[object]) -> "EdgeVector":
        return cls(len(values), dict(enumerate(values)))

    @classmethod
    def unit(cls, dim: int, index: int) -> "EdgeVector":
        return cls(dim, {index: 1})

    def __getitem__(self, index: int) -> object:
        index = operator.index(index)
        if not 0 <= index < self.dim:
            raise IndexError(index)
        return self.entries.get(index, 0)

    def __bool__(self) -> bool:
        return bool(self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.entries))

    def items(self) -> Iterator[tuple[int, object]]:
        return iter(sorted(self.entries.items()))

    def to_dense(self) -> list:
        out = [0] * self.dim
        for k, v in self.entries.items():
            out[k] = v
        return out

    def _binop(self, other: "EdgeVector", sign: int) -> "EdgeVector":
        if not isinstance(other, EdgeVector):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} != {other.dim}")
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0) + sign * v
        return EdgeVector(self.dim, out)

    def __add__(self, other: "EdgeVector") -> "EdgeVector":
        return self._binop(other, 1)

    def __sub__(self, other: "EdgeVector") -> "EdgeVector":
        return self._binop(other, -1)

    def __mul__(self, scalar) -> "EdgeVector":
        if isinstance(scalar, EdgeVector):
            return NotImplemented
        return EdgeVector(self.dim, {k: scalar * v for k, v in self.entries.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "EdgeVector":
        return self * -1

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeVector):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __repr__(self) -> str:
        inside = ", ".join(f"{k}: {v}" for k, v in self.items())
        return f"EdgeVector(dim={self.dim}, {{{inside}}})"


def inner_product(u: EdgeVector, v: EdgeVector):
    """Exact sum of coordinatewise products; int when both sides are integral."""
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} != {v.dim}")
    small, big = (u, v) if len(u.entries) <= len(v.entries) else (v, u)
    total = 0
    for k, a in small.entries.items():
        b = big.entries.get(k)
        if b is not None:
            total += a * b
    return total


def _common_dim(vectors: Sequence[EdgeVector]) -> int:
    dims = {v.dim for v in vectors}
    if len(dims) > 1:
        raise ValueError(f"mixed dimensions: {sorted(dims)}")
    return dims.pop()


def _primitive(v: EdgeVector) -> EdgeVector:
    """The positive multiple of a nonzero vector with coprime integer entries."""
    ints = _row(v, v.dim)
    g = gcd(*ints.values())
    return EdgeVector(v.dim, {k: ints[k] // g for k in sorted(ints)})


def _eliminate(w: dict[int, int], row: Mapping[int, int], c: int) -> tuple[dict[int, int], int]:
    """(a*w - b*row, a) with the smallest integers a > 0, b that clear column c.

    w may be updated in place; the result is returned either way.
    """
    a, b = row[c], w[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        w = {k: a * x for k, x in w.items()}
    for k, x in row.items():
        r = w.get(k, 0) - b * x
        if r:
            w[k] = r
        else:
            del w[k]
    return w, a


def _normalized(w: Mapping[int, int], c: int) -> dict[int, int]:
    """w divided by its content, signed so that the entry at column c is positive."""
    g = gcd(*w.values())
    if w[c] < 0:
        g = -g
    return {k: x // g for k, x in w.items()}


class IntegerEchelon:
    """Incremental sparse fraction-free echelon form of integer rows.

    Rows are dicts column -> nonzero int, keyed by their pivot column and
    stored divided by their content with a positive pivot entry.
    pivot_order 'low' takes each residual's lowest column as its pivot,
    'high' its highest.  rank(), verify's recheck and complete_basis
    scan 'high'; verify first relabels its columns so that the highest
    is the one the fewest rows hold, which keeps fill-in low whatever
    the row order.  in_span, annihilator_basis and the brute-force
    oracle scan 'low', so the oracle never shares verify's elimination
    order.  add and
    contains take an integer row, a mapping column -> nonzero int, and
    only read it: elimination works on a copy.  Rational vectors are
    cleared of denominators before they reach the kernel, by _echelon and
    _row.
    """

    def __init__(self, dim: int, pivot_order: str = "low"):
        if pivot_order not in ("low", "high"):
            raise ValueError(f"pivot_order must be 'low' or 'high', got {pivot_order!r}")
        self.dim = dim
        self._lead = min if pivot_order == "low" else max
        self.rows: dict[int, dict[int, int]] = {}

    def eliminate(self, w: dict[int, int], stop: float = inf) -> tuple[dict[int, int], int, int]:
        """Eliminate the leads of an all-int row that lie before column stop.

        w holds nonzero ints only and is consumed: it may be updated in
        place.  Returns (residual, pivot column, scale): the residual is
        scale * w minus an integer combination of stored rows, scale > 0.
        The pivot column is the first lead without a stored row, or -1
        when every lead before stop was cleared.  A stop below the last
        column only makes sense for the 'low' scan, where the residual can
        be resumed: the row's entries from stop on, times scale, may be
        added to it and the sum handed to a later call.  The brute-force
        oracle resumes its stages this way.
        """
        rows, lead, scale = self.rows, self._lead, 1
        while w:
            c = lead(w)
            if c >= stop:
                break
            row = rows.get(c)
            if row is None:
                return w, c, scale
            w, a = _eliminate(w, row, c)
            scale *= a
        return w, -1, scale

    def add(self, entries: Mapping[int, int]) -> bool:
        """Insert an integer row if independent of the current rows; report whether rank grew."""
        residual, c, _ = self.eliminate(dict(entries))
        if c < 0:
            return False
        self.rows[c] = _normalized(residual, c)
        return True

    def contains(self, entries: Mapping[int, int]) -> bool:
        """Whether an integer row lies in the span of the rows added so far."""
        return self.eliminate(dict(entries))[1] < 0

    @property
    def rank(self) -> int:
        return len(self.rows)


class ModularEchelon:
    """Incremental sparse echelon form over the integers modulo a prime.

    Rows are dicts column -> nonzero residue, keyed by their highest
    column (the pivot) and scaled so the pivot entry is 1; a dense row is
    never built, so memory follows the nonzeros present.  On tour vectors
    the highest column causes less fill-in than the lowest.  A set of rows
    that is independent modulo p is independent over Q, never the other
    way round: a rejected row may still be independent over Q.  No package
    path uses it; only its own tests and the benchmark tracer still do.
    """

    def __init__(self, dim: int, prime: int = MODULAR_PRIME):
        self.dim = dim
        self.prime = prime
        self.rows: dict[int, dict[int, int]] = {}

    def add(self, entries: Mapping[int, int]) -> bool:
        """Insert the integer row column -> value if independent mod p.

        Reports whether the rank grew.  entries is only read, so an
        EdgeVector's entries mapping can be passed as it is.
        """
        p = self.prime
        rows = self.rows
        w = {}
        for k, x in entries.items():
            r = x % p
            if r:
                w[k] = r
        while w:
            c = max(w)
            row = rows.get(c)
            if row is None:
                inv = pow(w[c], -1, p)
                rows[c] = {k: x * inv % p for k, x in w.items()}
                return True
            f = w[c]
            for k, x in row.items():
                r = (w.get(k, 0) - f * x) % p
                if r:
                    w[k] = r
                else:
                    del w[k]
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)


def _row(v: EdgeVector, dim: int) -> Mapping[int, int]:
    """v's entries as an integer row of a dim-column echelon.

    A vector of another dimension raises ValueError, a zero one too.
    All-int entries pass as they are; a row holding a Fraction is scaled
    by the lcm of its denominators, in a copy.
    """
    if v.dim != dim:
        raise ValueError(f"dimension mismatch: {v.dim} != {dim}")
    entries = v.entries
    if set(map(type, entries.values())) - {int}:
        scale = lcm(*(x.denominator for x in entries.values()))
        return {k: x.numerator * (scale // x.denominator) for k, x in entries.items()}
    return entries


def _echelon(vectors: Iterable[EdgeVector], dim: int, pivot_order: str = "low") -> IntegerEchelon:
    """The echelon form over Z of the vectors, each of dimension dim."""
    ech = IntegerEchelon(dim, pivot_order)
    for v in vectors:
        ech.add(_row(v, dim))
    return ech


def rank(vectors: Iterable[EdgeVector]) -> int:
    """Exact rank over Q of the given vectors."""
    vecs = list(vectors)
    return _echelon(vecs, vecs[0].dim, "high").rank if vecs else 0


def in_span(v: EdgeVector, vectors: Iterable[EdgeVector]) -> bool:
    """Exact membership of v in the rational span of the vectors.

    Every vector must have v's dimension, a zero one too, or ValueError
    is raised; the span of no vectors holds only the zero vector.
    """
    return _echelon(vectors, v.dim).contains(_row(v, v.dim))


# --------------------------------------------------------------------------
# orthogonalization
# --------------------------------------------------------------------------

def gram_schmidt(vectors: Sequence[EdgeVector]) -> list[EdgeVector]:
    """Orthogonalize without normalizing: g_i = f_i - sum proj_{g_j} f_i.

    Output vectors are pairwise orthogonal, nonzero, and each g_i lies in
    the span of f_1..f_i.  Dependent input is detected by a vanishing g_i
    and reported with its 1-based position.
    """
    vecs = list(vectors)
    if vecs:
        _common_dim(vecs)
    out: list[EdgeVector] = []
    norms: list[object] = []
    for pos, f in enumerate(vecs, start=1):
        g = f
        for h, nn in zip(out, norms):
            coeff = Fraction(inner_product(f, h), nn)
            if coeff:
                g = g - coeff * h
        if g.is_zero:
            raise LinearDependenceError(pos)
        out.append(g)
        norms.append(inner_product(g, g))
    return out


# --------------------------------------------------------------------------
# annihilators: everything orthogonal to a subspace
# --------------------------------------------------------------------------

def annihilator_basis(generators: Iterable[EdgeVector], ambient_dim: int) -> list[EdgeVector]:
    """Basis of everything orthogonal to the generators, via nullspace elimination.

    Always returns ambient_dim - rank(generators) integer vectors, each
    with exact zero inner product against every generator.  Each free
    column fc gives one vector, read off the reduced echelon in integers:
    with m the lcm of the pivot entries of the rows that hold fc, it is m
    at fc and -row[fc] * (m // row[pc]) at each such row's pivot pc,
    divided by its content.  That is the primitive integer vector, positive
    at fc (its highest column), on the line of 1 at fc and
    -row[fc]/row[pc] at each pc; no Fraction is made.
    """
    ech = _echelon(generators, ambient_dim)
    # Back-substitute to reduced form, highest pivot first: the rows with a
    # higher pivot are already free of the other pivot columns, so clearing
    # one of them from row pc brings in none of the rest.
    rows = ech.rows
    for pc in sorted(rows, reverse=True):
        row = rows[pc]
        for q in [k for k in row if k != pc and k in rows]:
            row, _ = _eliminate(row, rows[q], q)
        rows[pc] = _normalized(row, pc)
    # holders[k]: the pivots of the rows holding column k off their pivot.
    holders: dict[int, list[int]] = {}
    for pc, row in rows.items():
        for k in row:
            if k != pc:
                holders.setdefault(k, []).append(pc)
    basis: list[EdgeVector] = []
    for fc in range(ambient_dim):
        if fc in rows:
            continue
        pcs = holders.get(fc, ())
        m = lcm(*(rows[pc][pc] for pc in pcs))
        col = {pc: -rows[pc][fc] * (m // rows[pc][pc]) for pc in pcs}
        col[fc] = m
        g = gcd(*col.values())
        basis.append(EdgeVector(ambient_dim, {k: col[k] // g for k in sorted(col)}))
    return basis


def annihilator_basis_gram_schmidt(generators: Iterable[EdgeVector],
                                   ambient_dim: int) -> list[EdgeVector]:
    """Annihilator basis by orthogonalized basis extension.

    Mirrors the dimension-splitting argument directly: extend a maximal
    independent subset of the generators to a full basis with unit vectors
    in index order, orthogonalize everything, and return the tail.  Meant
    for small ambient dimensions; the elimination route is the fast path.
    """
    ech = IntegerEchelon(ambient_dim)
    independent = [g for g in generators if ech.add(_row(g, ambient_dim))]
    k = len(independent)
    extended = list(independent)
    for idx in range(ambient_dim):
        if ech.rank == ambient_dim:
            break
        if ech.add({idx: 1}):
            extended.append(EdgeVector.unit(ambient_dim, idx))
    orthogonal = gram_schmidt(extended)
    return [_primitive(v) for v in orthogonal[k:]]
