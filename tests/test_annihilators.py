import random
from itertools import permutations

import pytest

from htpbasis import annihilators
from htpbasis.annihilators import (
    annihilator_family,
    city_annihilator,
    dimension_upper_bound,
    double_visit_path,
    family_size,
    verify_duality,
    vertex_annihilator,
)
from htpbasis.linalg import EdgeVector, IntegerEchelon, inner_product, rank
from htpbasis.report import Report
from htpbasis.timegraph import (
    Edge,
    all_edges,
    edge_count,
    edge_index,
    htp_vector,
    partial_path_vector,
    timepath_vector,
)


def test_vertex_annihilator_first_vertex():
    g = vertex_annihilator(5, 1, 1)
    assert len(g.support()) == 5
    assert g[edge_index(5, Edge(0, 1, 0))] == -1
    for j in range(2, 6):
        assert g[edge_index(5, Edge(1, j, 1))] == 1


def test_vertex_annihilator_last_day_uses_finish_edge():
    g = vertex_annihilator(5, 2, 5)
    assert g[edge_index(5, Edge(2, 0, 5))] == 1
    for j in range(1, 6):
        if j != 2:
            assert g[edge_index(5, Edge(j, 2, 4))] == -1


def test_vertex_annihilator_range_errors():
    for i, t in [(0, 1), (1, 0), (6, 1), (1, 6)]:
        with pytest.raises(ValueError):
            vertex_annihilator(5, i, t)


def test_vertex_annihilators_kill_every_tour_n5():
    balances = [vertex_annihilator(5, i, t)
                for i in range(1, 6) for t in range(1, 6)]
    for p in permutations(range(1, 6)):
        v = htp_vector(5, p)
        for g in balances:
            assert inner_product(v, g) == 0


def test_vertex_annihilators_kill_random_timepaths():
    rng = random.Random(31)
    for n in (5, 6, 7, 8):
        balances = [vertex_annihilator(n, i, t)
                    for i in range(1, n + 1) for t in range(1, n + 1)]
        for _ in range(250):
            seq = [rng.randint(1, n)]
            while len(seq) < n:
                c = rng.randint(1, n)
                if c != seq[-1]:
                    seq.append(c)
            v = timepath_vector(n, seq)
            for g in balances:
                assert inner_product(v, g) == 0


def test_partial_paths_pair_to_minus_delta():
    n = 5
    for i in range(1, n + 1):
        for t in range(1, n + 1):
            f = partial_path_vector(n, i, t)
            for i2 in range(1, n + 1):
                for t2 in range(1, n + 1):
                    want = -1 if (i, t) == (i2, t2) else 0
                    assert inner_product(f, vertex_annihilator(n, i2, t2)) == want


def test_city_annihilator_kills_tours():
    for p in permutations(range(1, 6)):
        v = htp_vector(5, p)
        for i in range(1, 5):
            assert inner_product(v, city_annihilator(5, i)) == 0


def test_city_annihilator_rejects_last_city():
    with pytest.raises(ValueError):
        city_annihilator(5, 5)


def test_city_annihilator_deltas():
    f1 = timepath_vector(5, double_visit_path(5, 1))
    assert inner_product(f1, city_annihilator(5, 1)) == 1
    assert inner_product(f1, city_annihilator(5, 2)) == 0


@pytest.mark.parametrize("i,expected", [
    (1, (1, 2, 1, 3, 4)),
    (2, (2, 1, 2, 3, 4)),
    (4, (4, 1, 4, 2, 3)),
])
def test_double_visit_patterns_n5(i, expected):
    assert double_visit_path(5, i) == expected


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_double_visit_validity(n):
    for i in range(1, n):
        seq = double_visit_path(n, i)
        assert len(seq) == n
        assert seq.count(i) == 2
        assert n not in seq
        first, second = [k for k, c in enumerate(seq) if c == i]
        assert second - first >= 2
        for c in range(1, n):
            if c != i:
                assert seq.count(c) == 1


def _three_branch_double_visit(n, i):
    if i == 1:
        return (1, 2, 1, *range(3, n))
    if i == n - 1:
        return (n - 1, 1, n - 1, *range(2, n - 1))
    return (i, 1, i, *range(2, i), *range(i + 1, n))


def test_double_visit_matches_the_three_branch_rule():
    for n in range(5, 41):
        for i in range(1, n):
            assert double_visit_path(n, i) == _three_branch_double_visit(n, i)


def test_double_visit_rejections():
    with pytest.raises(ValueError):
        double_visit_path(4, 1)
    with pytest.raises(ValueError):
        double_visit_path(5, 5)


@pytest.mark.parametrize("n", [5, 6])
def test_double_visit_orthogonal_to_vertex_balances(n):
    for k in range(1, n):
        f = timepath_vector(n, double_visit_path(n, k))
        for i in range(1, n + 1):
            for t in range(1, n + 1):
                assert inner_product(f, vertex_annihilator(n, i, t)) == 0


@pytest.mark.parametrize("n,expected", [(5, 29), (6, 41)])
def test_family_rank(n, expected):
    fam = annihilator_family(n)
    assert len(fam) == family_size(n) == expected
    assert fam.certified_rank() == expected


@pytest.mark.parametrize("n,expected", [(5, 61), (6, 121), (9, 505)])
def test_dimension_upper_bound_values(n, expected):
    assert dimension_upper_bound(n) == expected
    assert edge_count(n) - family_size(n) == expected


def test_dimension_upper_bound_rejects_small_orders():
    with pytest.raises(ValueError):
        dimension_upper_bound(4)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_bound_matches_family_rank(n):
    fam = annihilator_family(n)
    assert edge_count(n) - fam.certified_rank() == dimension_upper_bound(n)


def test_verify_duality_n5():
    report = verify_duality(5)
    assert report.passed
    ranks = [c for c in report.checks if c.label.startswith("family rank")]
    assert ranks and ranks[0].actual == 29


def test_verify_duality_n6_rank():
    report = verify_duality(6)
    assert report.passed
    ranks = [c for c in report.checks if c.label.startswith("family rank")]
    assert ranks[0].actual == 41


def test_family_iteration_is_deterministic():
    a = [v.support() for v in annihilator_family(5).members()]
    b = [v.support() for v in annihilator_family(5).members()]
    assert a == b and len(a) == 29


def test_family_independent_of_tour_span():
    fam = annihilator_family(5)
    tours = [htp_vector(5, p) for p in permutations(range(1, 6))]
    assert rank(tours + list(fam.members())) == 61 + 29 == edge_count(5)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_family_span_is_invariant_under_relabeling_and_reversal(n):
    fam = annihilator_family(n)
    members = list(fam.members())
    ech = IntegerEchelon(edge_count(n))
    assert all(ech.add(g.entries) for g in members)
    # One city relabeling per order, (a, b, t) -> (sigma a, sigma b, t)
    # with the depot 0 fixed, and the day reversal (a, b, t) -> (b, a, n - t),
    # which swaps start and finish edges; both as column -> column maps.
    city = (0, *random.Random(n).sample(range(1, n + 1), n))
    relabel = [edge_index(n, Edge(city[a], city[b], t)) for a, b, t in all_edges(n)]
    reverse = [edge_index(n, Edge(b, a, n - t)) for a, b, t in all_edges(n)]
    for image in (relabel, reverse):
        assert all(ech.contains({image[k]: x for k, x in g.entries.items()}) for g in members)
    assert not ech.contains({0: 1})
    # A relabeled member is the potential form of its relabeled potential.
    potentials = [({}, {i: 1, 0: -1}) for i in range(1, n)]
    potentials += [({key: 1}, {}) for key in sorted(fam.vertex)]  # the order of members()
    for g, (phi, w) in zip(members, potentials):
        moved = {relabel[k]: x for k, x in g.entries.items()}
        assert moved == annihilators._potential_form(
            n, {(city[c], t): x for (c, t), x in phi.items()}, {city[c]: x for c, x in w.items()})


# --------------------------------------------------------------------------
# references: the Edge/edge_index member builders, and verify_duality as
# inner-product loops that pair every tour with every member
# --------------------------------------------------------------------------

def _reference_vertex_annihilator(n, i, t):
    entries = {}
    if t == n:
        entries[edge_index(n, Edge(i, 0, n))] = 1
    else:
        for j in range(1, n + 1):
            if j != i:
                entries[edge_index(n, Edge(i, j, t))] = 1
    if t == 1:
        entries[edge_index(n, Edge(0, i, 0))] = -1
    else:
        for j in range(1, n + 1):
            if j != i:
                entries[edge_index(n, Edge(j, i, t - 1))] = -1
    return EdgeVector(edge_count(n), entries)


def _reference_city_annihilator(n, i):
    entries = {}
    for t in range(1, n):
        for j in range(1, n + 1):
            if j != i:
                entries[edge_index(n, Edge(i, j, t))] = 1
    entries[edge_index(n, Edge(i, 0, n))] = 1
    for j in range(1, n + 1):
        entries[edge_index(n, Edge(0, j, 0))] = entries.get(edge_index(n, Edge(0, j, 0)), 0) - 1
    return EdgeVector(edge_count(n), entries)


def _reference_verify_duality(n, seed=0):
    """verify_duality as nested inner_product loops that pair every tour
    (all n! of them) with every member in place of the potential forms; it
    reaches the family and the witnesses through the module, so a
    monkeypatched fault reaches both versions alike."""
    ann = annihilators
    fam = ann.annihilator_family(n)
    doubles = {i: ann.timepath_vector(n, ann.double_visit_path(n, i)) for i in range(1, n)}
    partials = {(i, t): ann.partial_path_vector(n, i, t)
                for i in range(1, n + 1) for t in range(1, n + 1)}
    report = Report(
        title=f"annihilator family certification, order {n}",
        params={"n": n, "seed": seed, "edge_count": edge_count(n),
                "family_size": family_size(n),
                "expected_dimension": dimension_upper_bound(n)},
    )

    bad = sum(1 for k in doubles for key in fam.vertex
              if inner_product(doubles[k], fam.vertex[key]) != 0)
    report.add("double-visit tours pair to 0 with vertex balances",
               bad == 0, expected=0, actual=bad,
               detail=f"{len(doubles) * len(fam.vertex)} pairings")

    bad = 0
    for (i, t), f in partials.items():
        for (i2, t2), g in fam.vertex.items():
            want = -1 if (i, t) == (i2, t2) else 0
            if inner_product(f, g) != want:
                bad += 1
    report.add("partial paths pair to -delta with vertex balances",
               bad == 0, expected=0, actual=bad,
               detail=f"{len(partials) * len(fam.vertex)} pairings")

    bad = 0
    for i, f in doubles.items():
        for j in range(1, n):
            want = 1 if i == j else 0
            if inner_product(f, fam.city[j - 1]) != want:
                bad += 1
    report.add("double-visit tours pair to delta with city balances",
               bad == 0, expected=0, actual=bad,
               detail=f"{len(doubles) * len(fam.city)} pairings")

    measured_rank = fam.certified_rank()
    report.add("family rank equals n^2 + n - 1",
               measured_rank == family_size(n),
               expected=family_size(n), actual=measured_rank)
    report.add("edge count minus family rank equals n(n-1)(n-2)+1",
               edge_count(n) - measured_rank == dimension_upper_bound(n),
               expected=dimension_upper_bound(n),
               actual=edge_count(n) - measured_rank)

    members = list(fam.members())
    tours = [htp_vector(n, p) for p in permutations(range(1, n + 1))]
    bad = sum(1 for g in members if any(inner_product(v, g) != 0 for v in tours))
    report.add("every family member is a potential form, so it annihilates every tour",
               bad == 0, expected=0, actual=bad, detail=f"{len(members)} members")
    return report


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_member_builders_match_edge_reference(n):
    for i in range(1, n + 1):
        for t in range(1, n + 1):
            assert vertex_annihilator(n, i, t) == _reference_vertex_annihilator(n, i, t)
    for i in range(1, n):
        assert city_annihilator(n, i) == _reference_city_annihilator(n, i)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n", [5, 6, 7])
def test_verify_duality_matches_inner_product_reference(n, seed):
    assert verify_duality(n, seed=seed).to_json() == _reference_verify_duality(n, seed).to_json()


def _faulty_member(n, i, t):
    g = vertex_annihilator(n, i, t)
    if (i, t) == (2, 3):
        g.entries[edge_index(n, Edge(2, 1, 3))] = 2
    return g


def _faulty_witness(n, i):
    return (1, 2, 1, 3, 4, 6) if i == 1 else double_visit_path(n, i)


def _faulty_partial(n, i, t):
    f = partial_path_vector(n, i, t)
    if (i, t) == (4, 2):
        f.entries[edge_index(n, Edge(3, 5, 1))] = 1
    return f


@pytest.mark.parametrize("name,fault,label", [
    ("vertex_annihilator", _faulty_member,
     "every family member is a potential form, so it annihilates every tour"),
    ("double_visit_path", _faulty_witness, "double-visit tours pair to delta with city balances"),
    ("partial_path_vector", _faulty_partial, "partial paths pair to -delta with vertex balances"),
])
def test_faults_fail_alike_in_both_versions(monkeypatch, name, fault, label):
    monkeypatch.setattr(annihilators, name, fault)
    ours, reference = verify_duality(6), _reference_verify_duality(6)
    assert ours.to_json() == reference.to_json()  # same labels, same actual counts
    [check] = [c for c in ours.checks if c.label == label]
    assert not check.passed and check.actual > 0


def test_a_faulty_potential_fails_only_the_potential_check(monkeypatch):
    form = annihilators._potential_form
    monkeypatch.setattr(annihilators, "_potential_form",
                        lambda n, phi, w: form(n, phi, {c: -x for c, x in w.items()}))
    report = verify_duality(6)
    failed = [c for c in report.checks if not c.passed]
    assert [c.label for c in failed] == [
        "every family member is a potential form, so it annihilates every tour"]
    assert failed[0].actual == 5  # the city balances; vertex balances have w = 0
    assert len(report.checks) == 6


def test_potential_forms_pair_to_the_sum_of_w_with_random_tours():
    rng = random.Random(5)
    for n in (5, 7, 9):
        phi = {(rng.randint(1, n), rng.randint(1, n)): rng.randint(-3, 3) for _ in range(6)}
        w = {c: rng.randint(-3, 3) for c in rng.sample(range(n + 1), 3)}
        g = EdgeVector(edge_count(n), annihilators._potential_form(n, phi, w))
        for _ in range(50):
            assert inner_product(htp_vector(n, rng.sample(range(1, n + 1), n)), g) == sum(w.values())


@pytest.mark.parametrize("n", range(9, 21))
def test_verify_duality_passes_beyond_exhaustive_orders(n):
    report = verify_duality(n)
    assert report.passed and len(report.checks) == 6
