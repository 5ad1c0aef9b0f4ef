"""Exact linear algebra over the rationals for sparse indexed vectors.

Vectors are sparse (an EdgeVector stores only its nonzero int or Fraction
entries), and every exact rank, span and nullspace question is settled by
one kernel, IntegerEchelon: a sparse fraction-free echelon form over Z.
The kernel takes integer rows only.  The builder, verify and the
brute-force oracle hand it tour columns as they are; rank, Subspace and
the annihilator routines hand it EdgeVectors through one door, _echelon
(or _row for a single vector), which checks dimensions, skips zero
vectors and clears denominators once, only for rows holding a Fraction.
A row's pivot is the lowest or the highest column of its residual (the
pivot_order parameter), elimination uses gcd-reduced multipliers, and
each stored row is divided by its content with a positive pivot entry.
Its one elimination loop, IntegerEchelon.eliminate, can stop before a
given column and reports the scale it multiplied the row by, so the
brute-force oracle clears each tour in stages.  No dense row is ever
built, so time and memory follow the nonzeros present.
annihilator_basis back-substitutes the 'low' echelon to reduced form and
reads the nullspace off it; orthogonalization runs on Fractions since the
rationals have no square roots to normalize with.

ModularEchelon runs the same sparse elimination modulo a fixed word-sized
prime.  No path of the package uses it: only its own tests and the
benchmark tracer, which wraps its add, still do, until the benchmark
reads an in-package stage trace and the class goes (ROADMAP items 1 and
2).  Where it is used, it is used in the sound direction only:
independence mod p implies independence over Q.  rank() is always exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, lcm
from typing import Iterable, Iterator, Mapping, Sequence

# Unused at run time since the modular echelon went sparse; the import
# stays while the benchmark's start-up probe reads numpy's import time.
import numpy as np  # noqa: F401

__all__ = [
    "EdgeVector",
    "LinearDependenceError",
    "MODULAR_PRIME",
    "Subspace",
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

    Entries map index -> value with zeros never stored, so two vectors are
    equal exactly when they agree entrywise over Q.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: Mapping[int, object] | None = None):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        self.dim = dim
        clean: dict[int, object] = {}
        if entries:
            for k, v in entries.items():
                if not 0 <= k < dim:
                    raise ValueError(f"index {k} out of range [0, {dim})")
                if v != 0:
                    clean[k] = v
        self.entries = clean

    @classmethod
    def from_dense(cls, values: Sequence[object]) -> "EdgeVector":
        return cls(len(values), {k: v for k, v in enumerate(values) if v != 0})

    @classmethod
    def unit(cls, dim: int, index: int) -> "EdgeVector":
        return cls(dim, {index: 1})

    def __getitem__(self, index: int) -> object:
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
        if scalar == 0:
            return EdgeVector(self.dim)
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


def _integer_entries(entries: Mapping[int, object]) -> dict[int, int]:
    """Integer copy of a sparse row, scaled by the lcm of its denominators."""
    scale = 1
    for val in entries.values():
        if isinstance(val, Fraction):
            scale = lcm(scale, val.denominator)
    out: dict[int, int] = {}
    for k, val in entries.items():
        sv = val * scale
        out[k] = sv.numerator if isinstance(sv, Fraction) else int(sv)
    return out


def _primitive(dim: int, entries: Mapping[int, object]) -> EdgeVector:
    """The positive multiple of a nonzero row with coprime integer entries."""
    ints = _integer_entries(entries)
    g = gcd(*ints.values())
    return EdgeVector(dim, {k: ints[k] // g for k in sorted(ints)})


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
    'high' its highest.  rank() and the builder's completion check scan
    'high', which is the faster scan on the builder's bases; Subspace,
    annihilator_basis and the brute-force oracle scan 'low', so the oracle
    never shares the builder's elimination order.  add and contains take
    an integer row, a mapping column -> nonzero int, and only read it:
    elimination works on a copy.  Rational vectors are cleared of
    denominators before they reach the kernel, by _echelon and _row.
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
        column only makes sense for the 'low' scan: the brute-force
        oracle clears a tour day by day, and when no lead before stop is
        free, every lead the residual still has lies on a later day.
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

    All-int entries pass as they are; Fraction entries are cleared of
    denominators in a copy.
    """
    if v.dim != dim:
        raise ValueError(f"dimension mismatch: {v.dim} != {dim}")
    entries = v.entries
    if set(map(type, entries.values())) - {int}:
        return _integer_entries(entries)
    return entries


def _echelon(vectors: Iterable[EdgeVector], dim: int, pivot_order: str = "low") -> IntegerEchelon:
    """The echelon form over Z of the nonzero vectors, each of dimension dim."""
    ech = IntegerEchelon(dim, pivot_order)
    for v in vectors:
        if v.entries:
            ech.add(_row(v, dim))
    return ech


def rank(vectors: Iterable[EdgeVector], *, pivot_order: str = "high") -> int:
    """Exact rank over Q of the given vectors."""
    vecs = [v for v in vectors if v.entries]
    return _echelon(vecs, vecs[0].dim, pivot_order).rank if vecs else 0


class Subspace:
    """A subspace given by generators, with a cached echelon form.

    The echelon rows span exactly the generator span (every elimination
    step is an invertible integer row operation on denominator-cleared
    generators).
    """

    def __init__(self, generators: Iterable[EdgeVector]):
        self.generators: tuple[EdgeVector, ...] = tuple(generators)
        self._echelon: IntegerEchelon | None = None

    @property
    def dim_ambient(self) -> int:
        if not self.generators:
            raise ValueError("empty subspace has no recorded ambient dimension")
        return _common_dim(self.generators)

    def _ech(self) -> IntegerEchelon:
        if self._echelon is None:
            self._echelon = _echelon(self.generators, self.dim_ambient)
        return self._echelon

    @property
    def rank(self) -> int:
        if not self.generators:
            return 0
        return self._ech().rank

    def contains(self, v: EdgeVector) -> bool:
        if v.is_zero:
            return True
        if not self.generators:
            return False
        ech = self._ech()
        return ech.contains(_row(v, ech.dim))

    def echelon_vectors(self) -> list[EdgeVector]:
        """The cached reduced rows; they span exactly the generator span."""
        if not self.generators:
            return []
        ech = self._ech()
        return [EdgeVector(ech.dim, ech.rows[c]) for c in sorted(ech.rows)]


def in_span(v: EdgeVector, s: "Subspace | Iterable[EdgeVector]") -> bool:
    """Exact membership of v in the rational span of s."""
    sub = s if isinstance(s, Subspace) else Subspace(s)
    return sub.contains(v)


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

def annihilator_basis(generators: "Subspace | Iterable[EdgeVector]",
                      ambient_dim: int) -> list[EdgeVector]:
    """Basis of everything orthogonal to the generators, via nullspace elimination.

    Always returns ambient_dim - rank(generators) integer-scaled vectors,
    each with exact zero inner product against every generator.
    """
    gens = generators.generators if isinstance(generators, Subspace) else generators
    ech = _echelon(gens, ambient_dim)
    # Back-substitute to reduced form, highest pivot first: the rows with a
    # higher pivot are already free of the other pivot columns, so clearing
    # one of them from row pc brings in none of the rest.
    rows = ech.rows
    for pc in sorted(rows, reverse=True):
        row = rows[pc]
        for q in [k for k in row if k != pc and k in rows]:
            row, _ = _eliminate(row, rows[q], q)
        rows[pc] = _normalized(row, pc)
    # Free column fc gives 1 at fc and -row[fc]/row[pc] at each pivot pc.
    holders: dict[int, list[int]] = {}
    for pc, row in rows.items():
        for k in row:
            if k != pc:
                holders.setdefault(k, []).append(pc)
    basis: list[EdgeVector] = []
    for fc in range(ambient_dim):
        if fc in rows:
            continue
        col: dict[int, object] = {fc: 1}
        for pc in holders.get(fc, ()):
            col[pc] = Fraction(-rows[pc][fc], rows[pc][pc])
        basis.append(_primitive(ambient_dim, col))
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
    independent = [g for g in generators if g.entries and ech.add(_row(g, ambient_dim))]
    k = len(independent)
    extended = list(independent)
    for idx in range(ambient_dim):
        if ech.rank == ambient_dim:
            break
        if ech.add({idx: 1}):
            extended.append(EdgeVector.unit(ambient_dim, idx))
    orthogonal = gram_schmidt(extended)
    return [_primitive(ambient_dim, v.entries) for v in orthogonal[k:]]
