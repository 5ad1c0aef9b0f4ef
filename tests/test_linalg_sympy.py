"""Cross-checks of the exact kernel against sympy's own rational linear algebra.

sympy is a test-only dependency; the module is skipped when it is absent.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from htpbasis.linalg import (
    MODULAR_PRIME,
    EdgeVector,
    _echelon,
    annihilator_basis,
    in_span,
    inner_product,
    rank,
)

sympy = pytest.importorskip("sympy")

# Small ints and fractions, many zeros, and entries that vanish mod p or
# carry p as a denominator, so that a rank taken mod p would often be short.
_entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.sampled_from([MODULAR_PRIME, -MODULAR_PRIME, 2 * MODULAR_PRIME,
                     Fraction(MODULAR_PRIME, 2), Fraction(1, MODULAR_PRIME)]),
)

_matrices = st.integers(1, 6).flatmap(lambda dim: st.lists(
    st.lists(_entries, min_size=dim, max_size=dim), min_size=1, max_size=7))


def _vectors(rows):
    return [EdgeVector.from_dense(r) for r in rows]


def _sympy(rows):
    return sympy.Matrix([[sympy.Rational(Fraction(x).numerator, Fraction(x).denominator)
                          for x in r] for r in rows])


@settings(deadline=None)
@given(_matrices)
def test_rank_matches_sympy(rows):
    expected = _sympy(rows).rank()
    vs = _vectors(rows)
    assert rank(vs) == expected
    for order in ("low", "high"):
        assert _echelon(vs, len(rows[0]), order).rank == expected


@settings(deadline=None)
@given(_matrices.flatmap(lambda rows: st.tuples(
    st.just(rows), st.lists(_entries, min_size=len(rows[0]), max_size=len(rows[0])))))
def test_in_span_matches_sympy(case):
    rows, v = case
    expected = _sympy(rows + [v]).rank() == _sympy(rows).rank()
    assert in_span(EdgeVector.from_dense(v), _vectors(rows)) == expected


@settings(deadline=None)
@given(_matrices)
def test_annihilator_basis_matches_sympy_nullspace(rows):
    dim = len(rows[0])
    gens = _vectors(rows)
    ann = annihilator_basis(gens, dim)
    assert len(ann) == dim - _sympy(rows).rank() == len(_sympy(rows).nullspace())
    assert all(inner_product(w, g) == 0 for w in ann for g in gens)
    if ann:
        assert _sympy([w.to_dense() for w in ann]).rank() == len(ann)
