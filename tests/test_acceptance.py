"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Timing bounds are generous CI-style ceilings; typical wall
times on a desktop are printed by the informational scaling criterion.
"""

import random
import time
from fractions import Fraction

import pytest

import htpbasis as hb
from htpbasis.linalg import EdgeVector
from htpbasis.timegraph import TimeGraph, all_edges


def _line(num, label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"acceptance criterion {num} failed: {label}{suffix}"


@pytest.fixture(scope="module")
def timed_builds():
    """Fresh certified builds for n = 6..9, each timed end to end."""
    out = {}
    for n in range(6, 10):
        t0 = time.monotonic()
        basis = hb.build(n)
        out[n] = (basis, time.monotonic() - t0)
    return out


def test_criterion_1_base_case_reproduction():
    t0 = time.monotonic()
    basis = hb.base_basis_5()
    perms = basis.perms()
    ok = len(perms) == 61
    ok = ok and all(sorted(p) == [1, 2, 3, 4, 5] for p in perms)
    ok = ok and len(set(perms)) == 61
    pivots = hb.find_pivot_sequence(5, perms)
    ok = ok and len(pivots) == 61
    measured = hb.rank(basis.vectors())
    ok = ok and measured == 61 == hb.dimension_upper_bound(5)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    _line(1, "embedded order-5 basis reproduces exactly", ok,
          f"rank={measured}, {elapsed:.2f}s")


def test_criterion_2_brute_force_dimensions():
    r5 = hb.full_dimension(5)
    ok5 = r5.htp_count == 120 and r5.dimension == 61 and r5.elapsed < 10.0
    r6 = hb.full_dimension(6)
    ok6 = r6.htp_count == 720 and r6.dimension == 121 and r6.elapsed < 120.0
    r7 = hb.full_dimension(7)
    ok7 = r7.htp_count == 5040 and r7.dimension == 211 and r7.elapsed < 900.0
    _line(2, "brute-force span dimensions at n=5,6,7", ok5 and ok6 and ok7,
          f"61/{r5.elapsed:.1f}s, 121/{r6.elapsed:.1f}s, 211/{r7.elapsed:.1f}s")


def test_criterion_3_annihilator_certification():
    details = []
    ok = True
    for n in range(5, 9):
        report = hb.verify_duality(n)
        fam = hb.annihilator_family(n)
        measured = fam.certified_rank()
        good = (report.passed
                and measured == hb.family_size(n)
                and hb.edge_count(n) - measured == hb.dimension_upper_bound(n))
        ok = ok and good
        details.append(f"n={n}:{measured}")
    _line(3, "annihilator family identities and rank for n=5..8", ok,
          ", ".join(details))


def test_criterion_4_builder_end_to_end(timed_builds):
    expected = {6: 121, 7: 211, 8: 337, 9: 505}
    ok = True
    details = []
    for n, (basis, elapsed) in timed_builds.items():
        good = len(basis) == expected[n]
        good = good and all(sorted(p) == list(range(1, n + 1)) for p in basis.perms())
        good = good and hb.verify_upper_triangular(basis).passed
        recomputed = hb.rank(basis.vectors())
        good = good and recomputed == expected[n]
        ok = ok and good
        details.append(f"n={n}:{len(basis)}@{elapsed:.1f}s")
    ok = ok and timed_builds[9][1] < 600.0
    _line(4, "certified builds for n=6..9", ok, ", ".join(details))


def test_criterion_5_dimension_split_and_orthogonalization():
    rng = random.Random(2718)
    ok = True
    for _ in range(100):
        dim = rng.randint(1, 40)
        gens = []
        for _ in range(rng.randint(0, dim)):
            entries = {k: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                       for k in range(dim) if rng.random() < 0.5}
            gens.append(EdgeVector(dim, entries))
        r = hb.rank(gens)
        ann = hb.annihilator_basis(gens, dim)
        ok = ok and (r + len(ann) == dim)
        ok = ok and all(hb.inner_product(w, g) == 0 for w in ann for g in gens)
    trials = 0
    while trials < 20:
        dim = rng.randint(2, 10)
        count = rng.randint(1, dim)
        vs = []
        for _ in range(count):
            entries = {k: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                       for k in range(dim) if rng.random() < 0.7}
            vs.append(EdgeVector(dim, entries))
        if hb.rank(vs) < count:
            continue
        trials += 1
        gs = hb.gram_schmidt(vs)
        for i in range(len(gs)):
            for j in range(i + 1, len(gs)):
                ok = ok and hb.inner_product(gs[i], gs[j]) == 0
        for i in range(1, len(gs) + 1):
            ok = ok and all(hb.in_span(g, vs[:i]) for g in gs[:i])
            ok = ok and all(hb.in_span(f, gs[:i]) for f in vs[:i])
    _line(5, "dimension splitting and exact orthogonalization properties", ok,
          "100 subspaces, 20 orthogonalizations")


def test_criterion_6_builder_rows_annihilated(timed_builds):
    ok = True
    pairs = 0
    for n in range(5, 9):
        basis = hb.base_basis_5() if n == 5 else timed_builds[n][0]
        members = list(hb.annihilator_family(n).members())
        for v in basis.vectors():
            for g in members:
                pairs += 1
                if hb.inner_product(v, g) != 0:
                    ok = False
    _line(6, "every built row orthogonal to every annihilator, n=5..8", ok,
          f"{pairs} pairings")


def test_criterion_7_analyzer_properties():
    rng = random.Random(137)
    edges_all = list(all_edges(5))

    def subgraph():
        p = rng.uniform(0.2, 0.95)
        return TimeGraph(5, frozenset(e for e in edges_all if rng.random() < p))

    ok = True
    for _ in range(200):
        g = subgraph()
        ok = ok and (hb.is_hamiltonian(g) == (hb.dimension_of(g).dimension > 0))
    for _ in range(50):
        g = subgraph()
        extra = frozenset(e for e in edges_all
                          if e not in g.edges and rng.random() < 0.3)
        bigger = TimeGraph(5, g.edges | extra)
        ok = ok and hb.dimension_of(g).dimension <= hb.dimension_of(bigger).dimension

    full = hb.dimension_of(TimeGraph.complete(5)).dimension
    single = hb.dimension_of(TimeGraph.from_htps(5, [(1, 2, 3, 4, 5)])).dimension
    sourceless = hb.dimension_of(
        TimeGraph(5, frozenset(e for e in edges_all if e.day != 0))).dimension
    ok = ok and (full, single, sourceless) == (61, 1, 0)
    _line(7, "Hamiltonicity analyzer equivalences and crafted graphs", ok,
          f"crafted dims {full}/{single}/{sourceless}")


def test_criterion_8_scaling_informational(timed_builds):
    parts = []
    for n, (basis, elapsed) in timed_builds.items():
        per_n5 = elapsed / n**5
        parts.append(f"n={n}: {elapsed:.2f}s ({per_n5:.2e} s/n^5)")
    # Informational only: no hard threshold is asserted.
    _line(8, "builder wall times recorded against n^5 scaling", True,
          "; ".join(parts))
