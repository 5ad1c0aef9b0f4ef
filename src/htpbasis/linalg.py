"""Exact linear algebra over the rationals for sparse indexed vectors.

Everything here is exact: vectors carry int or Fraction entries, rank and
span questions are settled by fraction-free integer elimination (each
update row is rescaled by its content, which keeps intermediates small on
incidence-style matrices), and orthogonalization runs on Fractions since
the rationals have no square roots to normalize with.

rank() optionally runs a single sparse elimination modulo a fixed
word-sized prime first.  A rank modulo p never exceeds the rank over Q, so
when the modular rank equals the row count the exact answer is certified
without touching big integers or dense rows; in every other case the exact
elimination runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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


def _integer_entries(v: EdgeVector) -> dict[int, int]:
    """Sparse integer copy of v's entries, scaled by the lcm of its denominators."""
    scale = 1
    for val in v.entries.values():
        if isinstance(val, Fraction):
            scale = lcm(scale, val.denominator)
    out: dict[int, int] = {}
    for k, val in v.entries.items():
        sv = val * scale
        out[k] = sv.numerator if isinstance(sv, Fraction) else int(sv)
    return out


def _dense(entries: Mapping[int, int], dim: int) -> list[int]:
    out = [0] * dim
    for k, val in entries.items():
        out[k] = val
    return out


def _integer_dense(v: EdgeVector) -> list[int]:
    """Dense integer copy of v, scaled by the lcm of its denominators."""
    return _dense(_integer_entries(v), v.dim)


class IntegerEchelon:
    """Incremental fraction-free echelon form of integer rows.

    Rows are stored divided by their content with a positive leading entry,
    keyed by pivot column.  pivot_order 'low' scans leading entries from
    index 0 upward (the default everywhere), 'high' from the top index
    downward (used by the brute-force checker as an implementation hedge).
    """

    def __init__(self, dim: int, pivot_order: str = "low"):
        if pivot_order not in ("low", "high"):
            raise ValueError(f"pivot_order must be 'low' or 'high', got {pivot_order!r}")
        self.dim = dim
        self.pivot_order = pivot_order
        self.rows: dict[int, list[int]] = {}

    def _lead(self, v: list[int]) -> int:
        rng = range(self.dim) if self.pivot_order == "low" else range(self.dim - 1, -1, -1)
        for c in rng:
            if v[c]:
                return c
        return -1

    def reduce(self, v: list[int]) -> tuple[list[int], int]:
        """Eliminate v against stored rows; return (residual, leading column).

        The leading column is -1 when v reduces to zero, i.e. lies in the
        span of the rows added so far.
        """
        v = list(v)
        while True:
            c = self._lead(v)
            if c < 0 or c not in self.rows:
                return v, c
            row = self.rows[c]
            a, b = row[c], v[c]
            v = [x * a - y * b for x, y in zip(v, row)]

    def add(self, v: list[int]) -> bool:
        """Insert v if independent of the current rows; report whether rank grew."""
        residual, c = self.reduce(v)
        if c < 0:
            return False
        g = 0
        for x in residual:
            if x:
                g = gcd(g, abs(x))
        if residual[c] < 0:
            g = -g
        self.rows[c] = [x // g for x in residual]
        return True

    def contains(self, v: list[int]) -> bool:
        residual, c = self.reduce(v)
        return c < 0

    @property
    def rank(self) -> int:
        return len(self.rows)


class ModularEchelon:
    """Incremental sparse echelon form over the integers modulo a prime.

    Rows are dicts column -> nonzero residue, keyed by their highest
    column (the pivot) and scaled so the pivot entry is 1; a dense row is
    never built, so memory follows the nonzeros present.  On tour vectors
    the highest column causes less fill-in than the lowest: build(10)
    spends about half as long here.  A set of rows that is independent
    modulo p is independent over Q, never the other way round: a rejected
    row may still be independent over Q.
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


def rank(vectors: Iterable[EdgeVector], *, pivot_order: str = "low",
         modular_prepass: bool = True) -> int:
    """Exact rank over Q of the given vectors.

    The optional modular pre-pass only ever short-circuits when it already
    proves the exact answer (full row rank modulo p forces full row rank
    over Q); it never changes the returned value.
    """
    vecs = [v for v in vectors if not v.is_zero]
    if not vecs:
        return 0
    dim = _common_dim(vecs)
    rows = [_integer_entries(v) for v in vecs]
    if modular_prepass:
        mod = ModularEchelon(dim)
        if all(mod.add(r) for r in rows):
            return len(rows)
    ech = IntegerEchelon(dim, pivot_order=pivot_order)
    for r in rows:
        ech.add(_dense(r, dim))
    return ech.rank


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
            ech = IntegerEchelon(self.dim_ambient)
            for g in self.generators:
                if not g.is_zero:
                    ech.add(_integer_dense(g))
            self._echelon = ech
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
        if v.dim != self.dim_ambient:
            raise ValueError(f"dimension mismatch: {v.dim} != {self.dim_ambient}")
        return self._ech().contains(_integer_dense(v))

    def echelon_vectors(self) -> list[EdgeVector]:
        """The cached reduced rows; they span exactly the generator span."""
        if not self.generators:
            return []
        ech = self._ech()
        return [EdgeVector.from_dense(ech.rows[c]) for c in sorted(ech.rows)]


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

def _rref(rows: list[list[Fraction]], dim: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form with lowest-index pivoting; returns pivot columns."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(dim):
        sel = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def _integer_scaled(values: list[Fraction]) -> EdgeVector:
    scale = lcm(*(v.denominator for v in values)) if values else 1
    ints = [int(v * scale) for v in values]
    g = 0
    for x in ints:
        if x:
            g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return EdgeVector.from_dense(ints)


def annihilator_basis(generators: "Subspace | Iterable[EdgeVector]",
                      ambient_dim: int) -> list[EdgeVector]:
    """Basis of everything orthogonal to the generators, via nullspace elimination.

    Always returns ambient_dim - rank(generators) integer-scaled vectors,
    each with exact zero inner product against every generator.
    """
    gens = generators.generators if isinstance(generators, Subspace) else tuple(generators)
    gens = tuple(g for g in gens if not g.is_zero)
    for g in gens:
        if g.dim != ambient_dim:
            raise ValueError(f"generator dimension {g.dim} != ambient {ambient_dim}")
    if not gens:
        return [EdgeVector.unit(ambient_dim, k) for k in range(ambient_dim)]
    rows = [[Fraction(x) for x in g.to_dense()] for g in gens]
    reduced, pivots = _rref(rows, ambient_dim)
    free = [c for c in range(ambient_dim) if c not in set(pivots)]
    basis: list[EdgeVector] = []
    for fc in free:
        col = [Fraction(0)] * ambient_dim
        col[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            col[pc] = -reduced[ri][fc]
        basis.append(_integer_scaled(col))
    return basis


def annihilator_basis_gram_schmidt(generators: Iterable[EdgeVector],
                                   ambient_dim: int) -> list[EdgeVector]:
    """Annihilator basis by orthogonalized basis extension.

    Mirrors the dimension-splitting argument directly: extend a maximal
    independent subset of the generators to a full basis with unit vectors
    in index order, orthogonalize everything, and return the tail.  Meant
    for small ambient dimensions; the elimination route is the fast path.
    """
    gens = [g for g in generators if not g.is_zero]
    for g in gens:
        if g.dim != ambient_dim:
            raise ValueError(f"generator dimension {g.dim} != ambient {ambient_dim}")
    ech = IntegerEchelon(ambient_dim)
    independent: list[EdgeVector] = []
    for g in gens:
        if ech.add(_integer_dense(g)):
            independent.append(g)
    k = len(independent)
    extended = list(independent)
    for idx in range(ambient_dim):
        if ech.rank == ambient_dim:
            break
        unit = EdgeVector.unit(ambient_dim, idx)
        if ech.add(_integer_dense(unit)):
            extended.append(unit)
    orthogonal = gram_schmidt(extended)
    return [_integer_scaled([Fraction(x) for x in v.to_dense()]) for v in orthogonal[k:]]
