import hashlib
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from htpbasis.annihilators import city_annihilator, dimension_upper_bound
from htpbasis.base5 import BASE5_ROWS
from htpbasis.linalg import (
    MODULAR_PRIME,
    EdgeVector,
    IntegerEchelon,
    LinearDependenceError,
    ModularEchelon,
    Subspace,
    annihilator_basis,
    annihilator_basis_gram_schmidt,
    gram_schmidt,
    in_span,
    inner_product,
    rank,
)
from htpbasis.timegraph import edge_count, htp_vector, timepath_vector

from itertools import permutations


def vec(*values):
    return EdgeVector.from_dense(list(values))


def rational_vectors(rng, dim, count, lo=-5, hi=5):
    out = []
    for _ in range(count):
        entries = {}
        for k in range(dim):
            if rng.random() < 0.6:
                entries[k] = Fraction(rng.randint(lo, hi), rng.randint(1, 4))
        out.append(EdgeVector(dim, entries))
    return out


# -- inner product -----------------------------------------------------------

def test_inner_product_tour_with_itself():
    v = htp_vector(5, (1, 2, 3, 4, 5))
    assert inner_product(v, v) == 6


def test_inner_product_disjoint_supports():
    assert inner_product(vec(1, 0, 2), vec(0, 3, 0)) == 0


def test_inner_product_dimension_mismatch():
    with pytest.raises(ValueError):
        inner_product(vec(1, 0), vec(1, 0, 0))


def test_inner_product_city_balance_pairing():
    f1 = timepath_vector(5, (1, 2, 1, 3, 4))
    assert inner_product(f1, city_annihilator(5, 1)) == 1


def test_inner_product_symmetric_bilinear_random():
    rng = random.Random(2024)
    for _ in range(1000):
        dim = rng.randint(1, 8)
        u, v, w = rational_vectors(rng, dim, 3)
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert inner_product(u, v) == inner_product(v, u)
        assert inner_product(a * u + w, v) == a * inner_product(u, v) + inner_product(w, v)


@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                min_size=1, max_size=6))
def test_inner_product_self_zero_iff_zero(values):
    u = EdgeVector.from_dense(values)
    assert (inner_product(u, u) == 0) == u.is_zero


# -- gram_schmidt ------------------------------------------------------------

def test_gram_schmidt_plane_example():
    out = gram_schmidt([vec(1, 0), vec(1, 1)])
    assert out == [vec(1, 0), vec(0, 1)]


def test_gram_schmidt_orthogonal_input_unchanged():
    vs = [vec(2, 0, 0), vec(0, 0, 3), vec(0, 5, 0)]
    assert gram_schmidt(vs) == vs


def test_gram_schmidt_dependent_input_position():
    with pytest.raises(LinearDependenceError) as err:
        gram_schmidt([vec(1, 1), vec(2, 2)])
    assert err.value.position == 2


def test_gram_schmidt_properties_random():
    rng = random.Random(99)
    trials = 0
    while trials < 25:
        dim = rng.randint(2, 10)
        count = rng.randint(1, dim)
        vs = rational_vectors(rng, dim, count)
        if rank(vs) < count:
            continue
        trials += 1
        gs = gram_schmidt(vs)
        for i in range(len(gs)):
            assert not gs[i].is_zero
            for j in range(i + 1, len(gs)):
                assert inner_product(gs[i], gs[j]) == 0
        for i in range(1, len(gs) + 1):
            prefix_f = Subspace(vs[:i])
            prefix_g = Subspace(gs[:i])
            assert all(prefix_f.contains(g) for g in gs[:i])
            assert all(prefix_g.contains(f) for f in vs[:i])


def test_gram_schmidt_on_tour_vectors():
    vs = [htp_vector(5, p) for p, _ in BASE5_ROWS[:12]]
    gs = gram_schmidt(vs)
    for i in range(len(gs)):
        for j in range(i + 1, len(gs)):
            assert inner_product(gs[i], gs[j]) == 0


# -- rank --------------------------------------------------------------------

def test_rank_empty_is_zero():
    assert rank([]) == 0


def test_rank_of_base_rows_is_61():
    vs = [htp_vector(5, p) for p, _ in BASE5_ROWS]
    assert rank(vs) == 61
    assert rank(vs, pivot_order="low") == 61


def test_rank_ignores_zero_vectors():
    v = vec(1, 2, 0)
    assert rank([EdgeVector(3), v, 2 * v]) == 1


def test_rank_pivot_orders_agree():
    rng = random.Random(5)
    for _ in range(60):
        dim = rng.randint(1, 12)
        count = rng.randint(1, 12)
        vs = rational_vectors(rng, dim, count)
        if vs and rng.random() < 0.5:
            # Force dependence: append a combination of two earlier rows.
            a, b = rng.choice(vs), rng.choice(vs)
            vs.append(a + b)
        assert rank(vs, pivot_order="high") == rank(vs, pivot_order="low")


@pytest.mark.parametrize("rows, expected", [
    ([[MODULAR_PRIME, 0], [0, 1]], 2),           # a row that vanishes mod p
    ([[MODULAR_PRIME + 1, 1], [1, 1]], 2),       # equal mod p, independent over Q
    ([[Fraction(1, MODULAR_PRIME), 1], [1, 0]], 2),  # denominator p
    ([[MODULAR_PRIME, MODULAR_PRIME], [1, 1]], 1),   # truly dependent
])
def test_rank_prepass_falls_through_when_p_divides(rows, expected):
    vs = [EdgeVector.from_dense(r) for r in rows]
    # The rank mod p of the denominator-cleared rows falls short; rank()
    # never reduces mod p, so it still finds the rank over Q.
    mod = ModularEchelon(2)
    cleared = []
    for v in vs:
        scale = lcm(*(Fraction(x).denominator for x in v.entries.values()))
        cleared.append({k: int(x * scale) for k, x in v.entries.items()})
    assert mod.add(cleared[0]) + mod.add(cleared[1]) < 2
    assert rank(vs, pivot_order="high") == expected
    assert rank(vs, pivot_order="low") == expected


# Entries at or next to multiples of the prime, some with the prime as
# denominator, so that rank mod p often falls below the rank over Q.
_near_prime_multiples = st.builds(
    lambda k, r, d: Fraction(k * MODULAR_PRIME + r, d),
    st.integers(-2, 2), st.integers(-2, 2), st.sampled_from([1, 1, 3, MODULAR_PRIME]))


@given(st.integers(1, 5).flatmap(lambda dim: st.lists(
    st.lists(_near_prime_multiples, min_size=dim, max_size=dim), min_size=1, max_size=6)))
def test_rank_pivot_orders_agree_on_rows_near_prime_multiples(rows):
    vs = [EdgeVector.from_dense(r) for r in rows]
    assert rank(vs, pivot_order="high") == rank(vs, pivot_order="low")


def test_modular_echelon_takes_sparse_rows_below_exact_rank():
    rng = random.Random(13)
    values = [1, -1, 2, 3, MODULAR_PRIME, -2 * MODULAR_PRIME, MODULAR_PRIME + 1]
    for _ in range(60):
        dim = rng.randint(1, 9)
        mod, exact = ModularEchelon(dim), IntegerEchelon(dim)
        for _ in range(rng.randint(1, 10)):
            entries = {k: rng.choice(values) for k in rng.sample(range(dim), rng.randint(1, dim))}
            before = dict(entries)
            mod.add(entries)
            assert entries == before
            exact.add(entries)
            assert mod.rank <= exact.rank
        for row in mod.rows.values():
            assert all(0 < x < MODULAR_PRIME for x in row.values())

    # Tour vectors go in as their entries mapping, as the basis builder passes them.
    n = 7
    mod = ModularEchelon(edge_count(n))
    perms = random.Random(2).sample(list(permutations(range(1, n + 1))), 300)
    vs = [htp_vector(n, p) for p in perms]
    for v in vs:
        mod.add(v.entries)
    assert mod.rank == rank(vs)


def test_integer_echelon_only_reads_the_rows_it_is_given():
    # Against the stored rows below, the first row takes a step with
    # multiplier 1, which _eliminate applies in place, then one with
    # multiplier 2; the second, which lies in their span, two steps with
    # multiplier 1; the third one step with multiplier 2.
    for row in ({0: 1, 1: 1, 2: 1}, {0: 2, 1: 2, 3: 2, 4: 1}, {1: 1, 3: 1}):
        for check in ("add", "contains"):
            ech = IntegerEchelon(6)
            assert ech.add({0: 1, 3: 1}) and ech.add({1: 2, 4: 1})
            before = dict(row)
            getattr(ech, check)(row)
            assert row == before
            assert ech.rows[0] == {0: 1, 3: 1} and ech.rows[1] == {1: 2, 4: 1}
    # All-int EdgeVector entries reach the kernel without a copy of their own.
    stored = [EdgeVector(6, {0: 1, 3: 1}), EdgeVector(6, {1: 2, 4: 1})]
    probe = EdgeVector(6, {0: 1, 1: 1, 2: 1})
    vectors = stored + [probe]
    before = [dict(v.entries) for v in vectors]
    assert rank(vectors) == rank(vectors, pivot_order="low") == 3
    assert not in_span(probe, stored)
    assert len(annihilator_basis(vectors, 6)) == 3
    assert [v.entries for v in vectors] == before


def test_rank_matches_gram_schmidt_of_independent_subset():
    rng = random.Random(41)
    for _ in range(20):
        dim = rng.randint(2, 8)
        vs = rational_vectors(rng, dim, rng.randint(1, 10))
        subset = []
        for v in vs:
            if not v.is_zero and rank(subset + [v]) > len(subset):
                subset.append(v)
        assert rank(vs) == len(subset)
        if subset:
            assert len(gram_schmidt(subset)) == len(subset)


# -- in_span -----------------------------------------------------------------

def test_in_span_examples():
    gens = [vec(1, 0, 1), vec(0, 1, 1)]
    assert in_span(gens[0], gens)
    assert in_span(gens[0] + gens[1], gens)
    assert not in_span(vec(1, 1, -1), gens)  # orthogonal to both, nonzero


def test_in_span_accepts_subspace():
    s = Subspace([vec(1, 2), vec(0, 1)])
    assert s.rank == 2
    assert in_span(vec(7, -3), s)


def test_subspace_echelon_spans_the_same_space():
    rng = random.Random(77)
    for _ in range(20):
        dim = rng.randint(1, 10)
        gens = rational_vectors(rng, dim, rng.randint(1, 8))
        s = Subspace(gens)
        reduced = s.echelon_vectors()
        assert len(reduced) == s.rank
        other = Subspace(reduced)
        assert all(other.contains(g) for g in gens)
        assert all(s.contains(r) for r in reduced)


# -- annihilator bases -------------------------------------------------------

def test_annihilator_basis_plane():
    basis = annihilator_basis([vec(1, 1)], 2)
    assert len(basis) == 1
    (w,) = basis
    assert inner_product(w, vec(1, 1)) == 0
    assert not w.is_zero


def test_annihilator_basis_full_space_is_empty():
    gens = [vec(1, 0), vec(0, 1)]
    assert annihilator_basis(gens, 2) == []


def test_annihilator_basis_of_tour_span_n5():
    vs = [htp_vector(5, p) for p in permutations(range(1, 6))]
    ann = annihilator_basis(vs, edge_count(5))
    assert len(ann) == 29
    for w in ann[:5]:
        for v in vs[:10]:
            assert inner_product(w, v) == 0


def test_dimension_split_property():
    rng = random.Random(17)
    for _ in range(100):
        dim = rng.randint(1, 40)
        count = rng.randint(0, dim)
        gens = rational_vectors(rng, dim, count)
        r = rank(gens)
        ann = annihilator_basis(gens, dim)
        assert r + len(ann) == dim
        assert rank(ann) == len(ann)
        for w in ann:
            for g in gens:
                assert inner_product(w, g) == 0


def test_annihilator_gram_schmidt_route_agrees():
    rng = random.Random(23)
    for _ in range(10):
        dim = rng.randint(2, 8)
        gens = rational_vectors(rng, dim, rng.randint(1, dim))
        fast = annihilator_basis(gens, dim)
        slow = annihilator_basis_gram_schmidt(gens, dim)
        assert len(slow) == len(fast) == dim - rank(gens)
        for w in slow:
            for g in gens:
                assert inner_product(w, g) == 0
        span_fast, span_slow = Subspace(fast), Subspace(slow)
        assert all(span_fast.contains(w) for w in slow)
        assert all(span_slow.contains(w) for w in fast)


def _spanning_sample(n: int, seed: int, extra: int) -> list[tuple[int, ...]]:
    """Seeded tours whose span is the whole tour space, then extra dependent ones."""
    pool = list(permutations(range(1, n + 1)))
    random.Random(seed).shuffle(pool)
    ech = IntegerEchelon(edge_count(n))
    chosen, rest = [], []
    for p in pool:
        if ech.rank < dimension_upper_bound(n) and ech.add(htp_vector(n, p).entries):
            chosen.append(p)
        else:
            rest.append(p)
    return chosen + rest[:extra]


def _vectors_sha256(vectors) -> str:
    text = "".join(" ".join(f"{k}:{x}" for k, x in v.items()) + "\n" for v in vectors)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# SHA-256 of annihilator_basis output, one line of sorted index:value pairs
# per vector, in output order.  Any change of elimination kernel must keep
# these bytes.
GOLDEN_ANNIHILATOR_SHA256 = {
    "all order-5 tours": "e77a959c40fd8a61e6375e09466dea15bb1746ebaaba974ef7170f57781d8c53",
    "spanning order-6 sample": "4dfdfcc3c6d5ab76a5d546f59522777ee0f4a7f0491123da029663d467e3e446",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_ANNIHILATOR_SHA256))
def test_annihilator_basis_matches_golden_hash(case):
    if case == "all order-5 tours":
        n, perms = 5, list(permutations(range(1, 6)))
    else:
        n, perms = 6, _spanning_sample(6, seed=6, extra=10)
        assert len(perms) == dimension_upper_bound(6) + 10
    ann = annihilator_basis([htp_vector(n, p) for p in perms], edge_count(n))
    assert len(ann) == edge_count(n) - dimension_upper_bound(n)
    assert _vectors_sha256(ann) == GOLDEN_ANNIHILATOR_SHA256[case]


def test_edgevector_entry_validation():
    with pytest.raises(ValueError):
        EdgeVector(3, {3: 1})
    v = EdgeVector(3, {1: 0})
    assert v.is_zero
