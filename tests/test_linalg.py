import hashlib
import json
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from htpbasis import linalg
from htpbasis.annihilators import city_annihilator, dimension_upper_bound
from htpbasis.base5 import BASE5_ROWS
from htpbasis.linalg import (
    MODULAR_PRIME,
    EdgeVector,
    IntegerEchelon,
    LinearDependenceError,
    ModularEchelon,
    annihilator_basis,
    annihilator_basis_gram_schmidt,
    gram_schmidt,
    in_span,
    inner_product,
    _echelon,
    _eliminate,
    _normalized,
    _primitive,
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
            assert all(in_span(g, vs[:i]) for g in gs[:i])
            assert all(in_span(f, gs[:i]) for f in vs[:i])


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
    assert _echelon(vs, edge_count(5), "low").rank == 61


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
        assert rank(vs) == _echelon(vs, dim, "high").rank == _echelon(vs, dim, "low").rank


def test_rank_takes_no_pivot_order_and_subspace_is_gone():
    with pytest.raises(TypeError):
        rank([vec(1, 0)], pivot_order="low")
    assert not hasattr(linalg, "Subspace")


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
    assert rank(vs) == _echelon(vs, 2, "high").rank == expected
    assert _echelon(vs, 2, "low").rank == expected


# Entries at or next to multiples of the prime, some with the prime as
# denominator, so that rank mod p often falls below the rank over Q.
_near_prime_multiples = st.builds(
    lambda k, r, d: Fraction(k * MODULAR_PRIME + r, d),
    st.integers(-2, 2), st.integers(-2, 2), st.sampled_from([1, 1, 3, MODULAR_PRIME]))


@given(st.integers(1, 5).flatmap(lambda dim: st.lists(
    st.lists(_near_prime_multiples, min_size=dim, max_size=dim), min_size=1, max_size=6)))
def test_rank_pivot_orders_agree_on_rows_near_prime_multiples(rows):
    vs = [EdgeVector.from_dense(r) for r in rows]
    dim = len(rows[0])
    assert rank(vs) == _echelon(vs, dim, "high").rank == _echelon(vs, dim, "low").rank


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
    assert rank(vectors) == _echelon(vectors, 6, "low").rank == 3
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


def test_in_span_takes_plain_vectors_once():
    # The span of no vectors holds only the zero vector.
    assert in_span(EdgeVector(3), [])
    assert not in_span(vec(0, 1, 0), [])
    # A generator of another dimension raises, a zero one too, whatever the probe.
    for gens in ([vec(1, 0, 0)], [EdgeVector(3)], [vec(1, 0), EdgeVector(3)]):
        with pytest.raises(ValueError):
            in_span(vec(1, 0), gens)
    # A one-shot iterator is read once.
    gens = [vec(1, 0, 1), vec(0, 1, 1)]
    assert in_span(vec(1, 1, 2), iter(gens))
    assert len(annihilator_basis(iter(gens), 3)) == 1
    assert rank(iter(gens)) == 2


def test_subspace_echelon_spans_the_same_space():
    rng = random.Random(77)
    for _ in range(20):
        dim = rng.randint(1, 10)
        gens = rational_vectors(rng, dim, rng.randint(1, 8))
        ech = _echelon(gens, dim)
        reduced = [EdgeVector(dim, row) for row in ech.rows.values()]
        assert len(reduced) == ech.rank == rank(gens)
        assert all(in_span(g, reduced) for g in gens)
        assert all(in_span(r, gens) for r in reduced)


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
        assert all(in_span(w, fast) for w in slow)
        assert all(in_span(w, slow) for w in fast)


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


def _fraction_readout(gens, dim):
    """The annihilator basis read one Fraction column per free column, each made
    primitive; also returns the largest pivot of the reduced echelon."""
    rows = _echelon(gens, dim).rows
    for pc in sorted(rows, reverse=True):
        row = rows[pc]
        for q in [k for k in row if k != pc and k in rows]:
            row, _ = _eliminate(row, rows[q], q)
        rows[pc] = _normalized(row, pc)
    basis = []
    for fc in range(dim):
        if fc not in rows:
            col = {fc: 1}
            for pc, row in rows.items():
                if fc in row:
                    col[pc] = Fraction(-row[fc], row[pc])
            basis.append(_primitive(EdgeVector(dim, col)))
    return basis, max((row[pc] for pc, row in rows.items()), default=0)


def _weighted_vectors(rng, dim, count):
    """Seeded generators whose reduced echelon has pivots above 1."""
    values = [0, 0, 0, 1, -1, 2, -3, 4, 6, Fraction(5, 7), Fraction(-3, 4)]
    return [EdgeVector(dim, {k: rng.choice(values) for k in range(dim)}) for _ in range(count)]


def test_annihilator_basis_matches_the_fraction_readout():
    rng = random.Random(28)
    pivots_above_one = 0
    for _ in range(300):
        dim = rng.randint(1, 14)
        gens = _weighted_vectors(rng, dim, rng.randint(0, dim))
        want, top_pivot = _fraction_readout(gens, dim)
        got = annihilator_basis(gens, dim)
        assert [list(w.entries.items()) for w in got] == [list(w.entries.items()) for w in want]
        pivots_above_one += top_pivot > 1
    assert pivots_above_one > 100


def test_annihilator_vectors_are_primitive_and_positive_at_their_free_column():
    rng = random.Random(29)
    for _ in range(200):
        dim = rng.randint(1, 14)
        gens = _weighted_vectors(rng, dim, rng.randint(0, dim))
        pivots = _echelon(gens, dim).rows
        ann = annihilator_basis(gens, dim)
        assert [max(w.entries) for w in ann] == [c for c in range(dim) if c not in pivots]
        for w in ann:
            assert all(type(x) is int for x in w.entries.values())
            assert gcd(*w.entries.values()) == 1
            assert w.entries[max(w.entries)] > 0


def test_annihilator_basis_makes_no_fraction(monkeypatch):
    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("annihilator_basis made a Fraction")

    monkeypatch.setattr(linalg, "Fraction", NoFraction)
    ann = annihilator_basis([htp_vector(6, p) for p in _spanning_sample(6, seed=6, extra=10)],
                            edge_count(6))
    assert _vectors_sha256(ann) == GOLDEN_ANNIHILATOR_SHA256["spanning order-6 sample"]


def test_edgevector_entry_validation():
    with pytest.raises(ValueError):
        EdgeVector(3, {3: 1})
    v = EdgeVector(3, {1: 0})
    assert v.is_zero


# -- EdgeVector takes rational entries and integer indices only -------------------

FLOAT_ENTRIES = {0: 1.5, 1: 1}
ONES = EdgeVector(2, {0: 1, 1: 1})


def test_rank_refuses_a_float_entry_it_would_truncate():
    assert rank([EdgeVector(2, {0: Fraction(3, 2), 1: 1}), ONES]) == 2
    with pytest.raises(TypeError, match="column 0 is a float"):
        rank([EdgeVector(2, FLOAT_ENTRIES), ONES])


def test_in_span_refuses_a_float_entry():
    assert not in_span(EdgeVector(2, {0: Fraction(3, 2), 1: 1}), [ONES])
    with pytest.raises(TypeError, match="column 0 is a float"):
        in_span(EdgeVector(2, FLOAT_ENTRIES), [ONES])


def test_annihilator_basis_refuses_a_float_entry():
    exact = EdgeVector(2, {0: Fraction(3, 2), 1: 1})
    assert annihilator_basis([exact], 2) == [EdgeVector(2, {0: -2, 1: 3})]
    with pytest.raises(TypeError, match="column 0 is a float"):
        annihilator_basis([EdgeVector(2, FLOAT_ENTRIES)], 2)


def test_rank_refuses_a_float_entry_below_one():
    assert rank([EdgeVector(2, {0: Fraction(1, 2)})]) == 1
    with pytest.raises(TypeError, match="column 0 is a float"):
        rank([EdgeVector(2, {0: 0.5})])


def test_rank_takes_bool_and_numpy_integer_entries():
    rows = [EdgeVector(3, {0: True, 2: np.int64(3)}), EdgeVector(3, {1: np.int32(-2), 2: 1}),
            EdgeVector(3, {0: 2, 1: -4, 2: 8})]
    as_ints = [EdgeVector(3, {k: int(x) for k, x in v.items()}) for v in rows]
    assert rank(rows) == rank(as_ints) == 2
    # det = 2**64: products of these entries overflow int64, so the kernel
    # must see Python ints.
    wide = [EdgeVector(2, {0: np.int64(2**32 + 1), 1: np.int64(1)}),
            EdgeVector(2, {0: np.int64(2**32), 1: np.int64(2**32)})]
    assert rank(wide) == 2
    assert all(type(x) is int for v in wide + rows for x in linalg._row(v, v.dim).values())
    with pytest.raises(TypeError, match="column 1 is a float64"):
        rank([EdgeVector(2, {1: np.float64(2.0)})])


def test_edgevector_stores_whole_rationals_as_int():
    v = EdgeVector(3, {0: True, 1: np.int64(2**40), 2: Fraction(4, 2)})
    assert v.entries == {0: 1, 1: 2**40, 2: 2}
    assert all(type(x) is int for x in v.entries.values())
    half = EdgeVector(1, {0: Fraction(3, 2)}).entries[0]
    assert type(half) is Fraction and half == Fraction(3, 2)


@pytest.mark.parametrize("entry", [1.5, np.float64(2.0), 1j, Decimal("1.5"), "x"], ids=repr)
def test_edgevector_refuses_a_non_rational_entry(entry):
    with pytest.raises(TypeError, match="entry at column 1"):
        EdgeVector(2, {1: entry})


@pytest.mark.parametrize("make", [
    lambda: EdgeVector(3, {1.5: 1}),
    lambda: EdgeVector(3, {"1": 1}),
    lambda: EdgeVector(2.5),
    lambda: EdgeVector.from_dense([0.5]),
    lambda: EdgeVector.from_dense([0.0, 1]),
    lambda: EdgeVector(2, {0: 1}) * 0.5,
    lambda: EdgeVector(3, {1: 5})[1.5],
    lambda: EdgeVector(3, {1: 5})[1.0],
], ids=["float index", "string index", "float dim", "from_dense", "from_dense zero float",
        "float scalar", "float subscript", "whole float subscript"])
def test_edgevector_refuses_where_it_is_made(make):
    with pytest.raises(TypeError):
        make()


def test_edgevector_takes_a_numpy_integer_index():
    v = EdgeVector(np.int64(3), {np.int64(1): 2})
    assert type(v.dim) is int and [type(k) for k in v.entries] == [int]
    assert v == EdgeVector(3, {1: 2})
    assert v[np.int64(1)] == 2


_exact_entries = st.one_of(st.integers(-3, 3),
                           st.fractions(min_value=-3, max_value=3, max_denominator=4))


@given(st.integers(1, 6).flatmap(lambda dim: st.tuples(st.just(dim), st.lists(
    st.dictionaries(st.integers(0, dim - 1), _exact_entries), max_size=7))))
def test_annihilator_basis_size_is_dim_minus_rank(case):
    dim, rows = case
    gens = [EdgeVector(dim, r) for r in rows]
    assert len(annihilator_basis(gens, dim)) == dim - rank(gens)


# -- a zero vector still has a dimension ------------------------------------------

def test_rank_checks_the_dimension_of_a_zero_vector():
    with pytest.raises(ValueError, match="dimension mismatch"):
        rank([EdgeVector(3), EdgeVector(2, {0: 1})])


def test_annihilator_basis_checks_the_dimension_of_a_zero_vector():
    with pytest.raises(ValueError, match="dimension mismatch"):
        annihilator_basis([EdgeVector(3)], 2)


def test_in_span_checks_the_dimension_of_a_zero_vector():
    with pytest.raises(ValueError, match="dimension mismatch"):
        in_span(EdgeVector(5), [EdgeVector(2, {0: 1})])


_THREADS_PROBE = """
import json, os, sys
import htpbasis
threads = None
if sys.platform.startswith("linux"):
    with open("/proc/self/status") as fh:
        threads = next(int(ln.split()[1]) for ln in fh if ln.startswith("Threads:"))
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""


def _import_in_fresh_process(blas_threads):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _THREADS_PROBE], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout)


def test_numpy_import_starts_no_blas_thread_pool():
    variable, threads = _import_in_fresh_process(None)
    assert variable is None  # set only while numpy is imported
    if sys.platform.startswith("linux"):
        assert threads == 1
    assert _import_in_fresh_process("2")[0] == "2"
