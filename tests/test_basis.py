import hashlib
import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import htpbasis.basis as basis_mod
import htpbasis.timegraph as timegraph_mod
from htpbasis.annihilators import annihilator_family, dimension_upper_bound
from htpbasis.basis import (
    BasisFormatError,
    BuildCertificate,
    CompletionError,
    PivotError,
    PivotedHtp,
    UpperTriangularBasis,
    _columns,
    _greedy_ut_order,
    _pivot_violation,
    build,
    complete_basis,
    find_pivot_sequence,
    induction_families,
    lift,
    lift_pivot,
    verify_upper_triangular,
)
from htpbasis.linalg import IntegerEchelon, inner_product, rank
from htpbasis.timegraph import (Edge, _tour_columns, all_edges, edge_count, edge_index,
                                htp_edges, htp_vector)


# -- base case ---------------------------------------------------------------

def test_base_basis_has_61_distinct_certified_rows(base5):
    assert len(base5) == 61
    assert len(set(base5.perms())) == 61
    assert base5.certified
    assert base5.certificate.rank == 61


def test_base_basis_first_rows(base5):
    assert base5.rows[0] == PivotedHtp((1, 5, 2, 3, 4), Edge(1, 5, 1))
    assert base5.rows[1] == PivotedHtp((3, 5, 2, 1, 4), Edge(5, 2, 2))


def test_base_basis_rank_without_prepass(base5):
    for order in ("low", "high"):
        assert rank(base5.vectors(), pivot_order=order) == 61


def test_base_basis_verifies(base5):
    report = verify_upper_triangular(base5)
    assert report.passed


def test_base_basis_self_check_catches_corruption(monkeypatch):
    import htpbasis.basis as basis_mod

    rows = list(basis_mod.BASE5_ROWS)
    rows[1] = rows[0]  # duplicate row
    monkeypatch.setattr(basis_mod, "BASE5_ROWS", tuple(rows))
    with pytest.raises(ValueError, match="embedded base data"):
        basis_mod.base_basis_5()

    rows = list(basis_mod.BASE5_ROWS)
    rows[0] = ((1, 1, 2, 3, 4), 1)  # non-permutation
    monkeypatch.setattr(basis_mod, "BASE5_ROWS", tuple(rows))
    with pytest.raises(ValueError, match="embedded base data"):
        basis_mod.base_basis_5()


def test_base_basis_rejects_a_stale_pivot_day(monkeypatch):
    rows = list(basis_mod.BASE5_ROWS)
    columns = [_tour_columns(5, p) for p, _ in rows]
    # Row i moved to a day whose edge a later row j also uses.
    i, day, j = next((i, day, j) for i in range(len(rows)) for day in range(6)
                     for j in range(i + 1, len(rows)) if columns[i][day] in columns[j])
    rows[i] = (rows[i][0], day)
    monkeypatch.setattr(basis_mod, "BASE5_ROWS", tuple(rows))
    with pytest.raises(ValueError, match="embedded base data corrupt") as err:
        basis_mod.base_basis_5()
    assert f"row {i} " in str(err.value)


# -- pivot sequences ---------------------------------------------------------

def test_find_pivot_single_row_lowest_edge():
    pivots = find_pivot_sequence(5, [(1, 2, 3, 4, 5)])
    assert pivots == [Edge(0, 1, 0)]


def test_find_pivot_duplicate_rows_fail_at_first():
    with pytest.raises(PivotError) as err:
        find_pivot_sequence(5, [(1, 2, 3, 4, 5), (1, 2, 3, 4, 5)])
    assert err.value.row_index == 0


def test_find_pivot_on_base_rows(base5):
    pivots = find_pivot_sequence(5, base5.perms())
    assert len(set(pivots)) == 61
    for perm, pivot in zip(base5.perms(), pivots):
        assert pivot in htp_edges(5, perm)


# -- lift ---------------------------------------------------------------------

def test_lift_appends_new_city():
    assert lift((1, 2, 3, 4, 5)) == (1, 2, 3, 4, 5, 6)
    assert lift((3, 5, 2, 1, 4)) == (3, 5, 2, 1, 4, 6)


def test_lift_rejects_non_permutation():
    with pytest.raises(ValueError):
        lift((1, 2, 2, 4))


def test_lift_pivot_remaps_finish_edge():
    assert lift_pivot(6, Edge(3, 0, 5)) == Edge(3, 6, 5)
    assert lift_pivot(6, Edge(2, 4, 3)) == Edge(2, 4, 3)
    assert lift_pivot(6, Edge(0, 2, 0)) == Edge(0, 2, 0)


def test_lifted_block_stays_upper_triangular(base5):
    rows = tuple(PivotedHtp(lift(r.htp), lift_pivot(6, r.pivot))
                 for r in base5.rows)
    block = UpperTriangularBasis(6, rows)
    report = verify_upper_triangular(block)
    assert report.passed


# -- induction families --------------------------------------------------------

def test_families_first_block_n6():
    fams = induction_families(6)
    assert fams[0] == (6, 1, 4, 5, 2, 3)      # varies the last day
    assert fams[3] == (6, 1, 4, 5, 3, 2)      # then the two day-5 variants
    assert len(fams) == 24


def test_families_are_valid_and_distinct():
    for n in range(6, 10):
        fams = induction_families(n)
        assert len(fams) == (n - 1) ** 2 - 1
        assert len(set(fams)) == len(fams)
        for p in fams:
            assert sorted(p) == list(range(1, n + 1))


@pytest.mark.parametrize("n", range(6, 13))
def test_families_fixed_positions_consistent(n):
    m = n - 1
    fams = induction_families(n)
    idx = 0
    for i in range(1, n):
        for j in range(1, n - 2):
            p = fams[idx]; idx += 1
            fixed = (n, i, (i % m) + 1, ((i + j) % m) + 1)
            assert (p[0], p[1], p[n - 2], p[n - 1]) == fixed
            assert len(set(fixed)) == 4
        p = fams[idx]; idx += 1
        assert (p[0], p[1], p[n - 2], p[n - 1]) == (
            n, i, ((i + 1) % m) + 1, (i % m) + 1)
        if i != n - 1:
            p = fams[idx]; idx += 1
            assert (p[0], p[1], p[n - 2], p[n - 1]) == (
                n, i, ((i + 1) % m) + 1, ((i + 2) % m) + 1)
    assert idx == len(fams)


def test_families_reject_order_five():
    with pytest.raises(ValueError):
        induction_families(5)


# -- completion and build ------------------------------------------------------

def _partial_six(base5):
    """Families plus the lifted order-5 basis: the certified order-6 partial."""
    n = 6
    fams = induction_families(n)
    lifted = [lift(q) for q in base5.perms()]
    perms = fams + lifted
    pivots = find_pivot_sequence(n, perms)
    cert = BuildCertificate(pivot_check=True, rank=rank([htp_vector(n, p) for p in perms]),
                            target=len(perms))
    return UpperTriangularBasis(n, tuple(
        PivotedHtp(p, piv) for p, piv in zip(perms, pivots)), cert)


def test_complete_basis_fills_the_deficit(base5):
    partial = _partial_six(base5)
    assert partial.certified
    full = complete_basis(6, partial, 121)
    assert len(full) == 121
    assert full.certified
    assert full.certificate.details["added"] == 36


# -- completion rows ----------------------------------------------------------------

def _all_pairs_pool(n):
    """Reference: every tour with a, n, b on days t-1, t, t+1 for a != b, rest ascending."""
    return [basis_mod._spaced_perm(n, {t - 1: a, t: n, t + 1: b})
            for t in range(2, n) for a in range(1, n) for b in range(1, n) if a != b]


def _search_probe(n, base_perms, pool, target):
    """Reference: add pool tours that raise the exact rank, skip repeats, stop at target."""
    ech = IntegerEchelon(edge_count(n), pivot_order="high")
    for p in base_perms:
        assert ech.add(htp_vector(n, p).entries)
    seen = set(base_perms)
    added = []
    for cand in pool:
        if ech.rank >= target:
            break
        if cand in seen:
            continue
        seen.add(cand)
        if ech.add(htp_vector(n, cand).entries):
            added.append(cand)
    return added, ech.rank


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_completion_rows_equal_the_searched_picks(built_bases, n):
    partial = induction_families(n) + [lift(q) for q in built_bases[n - 1].perms()]
    target = dimension_upper_bound(n)
    picks, achieved = _search_probe(n, partial, _all_pairs_pool(n), target)
    assert achieved == target
    assert basis_mod._completion_pool(n) == picks


def test_completion_rows_fill_the_deficit_exactly():
    for n in range(6, 41):
        rows = basis_mod._completion_pool(n)
        deficit = dimension_upper_bound(n) - ((n - 1) ** 2 - 1) - dimension_upper_bound(n - 1)
        assert len(rows) == deficit == (n - 2) * (2 * n - 3) == (n - 1) * (2 * n - 5) + 1
        assert len(set(rows)) == len(rows)


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_completion_rows_repeat_no_family_or_lifted_row(built_bases, n):
    rows = basis_mod._completion_pool(n)
    assert all(p[0] != n and p[-1] != n for p in rows)
    partial = set(induction_families(n)) | {lift(q) for q in built_bases[n - 1].perms()}
    assert not partial & set(rows)


def test_complete_basis_returns_partial_at_target(built_bases):
    b6 = built_bases[6]
    assert complete_basis(6, b6, 121) is b6


def test_complete_basis_raises_when_the_pool_falls_short(base5, monkeypatch):
    pool = basis_mod._completion_pool
    monkeypatch.setattr(basis_mod, "_completion_pool", lambda n: pool(n)[:5])
    partial = _partial_six(base5)
    with pytest.raises(CompletionError) as exc:
        complete_basis(6, partial, 121)
    assert exc.value.stage == "candidate search"
    assert len(partial) < exc.value.achieved < exc.value.target == 121


def test_complete_basis_raises_when_no_order_exists(base5, monkeypatch):
    monkeypatch.setattr(basis_mod, "_greedy_ut_order", lambda n, perms: None)
    with pytest.raises(CompletionError) as exc:
        complete_basis(6, _partial_six(base5), 121)
    assert exc.value.stage == "ordering"
    assert exc.value.achieved == exc.value.target == 121


def test_complete_basis_raises_when_the_partial_rows_repeat(base5):
    partial = _partial_six(base5)
    rows = partial.rows + partial.rows[-1:]
    forged = UpperTriangularBasis(6, rows, BuildCertificate(
        pivot_check=True, rank=len(rows), target=len(rows)))  # a certificate made by hand
    assert forged.certified
    with pytest.raises(CompletionError) as exc:
        complete_basis(6, forged, 121)
    assert exc.value.stage == "seeding (partial rows dependent)"
    assert exc.value.achieved == len(partial) < exc.value.target == 121


def test_complete_basis_skips_a_pool_tour_already_in_the_span(base5, monkeypatch):
    pool = basis_mod._completion_pool
    # The lift of an order-5 tour outside the order-5 basis: a new tour in
    # the span of the lifted rows.
    extra = lift(next(q for q in permutations(range(1, 6)) if q not in base5.perms()))
    lifted = [htp_vector(6, lift(q)) for q in base5.perms()]
    assert rank(lifted + [htp_vector(6, extra)]) == rank(lifted) == 61
    monkeypatch.setattr(basis_mod, "_completion_pool", lambda n: pool(n) + [extra])
    full = complete_basis(6, _partial_six(base5), 121)
    assert extra not in full.perms()
    assert full.certificate.details["added"] == 36
    assert full.certified
    assert verify_upper_triangular(full).passed


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_certificate_rank_is_the_exact_rank_of_the_rows(built_bases, n):
    vectors = built_bases[n].vectors()
    for order in ("low", "high"):
        assert built_bases[n].certificate.rank == rank(vectors, pivot_order=order)


def test_build_turns_each_tour_into_columns_once_per_level(monkeypatch):
    calls = []

    def spy(n, s):
        calls.append(n)
        return _tour_columns(n, s)

    monkeypatch.setattr(timegraph_mod, "_tour_columns", spy)
    monkeypatch.setattr(basis_mod, "_tour_columns", spy)
    build(10)
    # Families and completion rows of the levels 6..10 (250 + 410 tours)
    # plus two passes over the 61 rows of order 5 (base_basis_5's table
    # and build's); lifted rows are remapped from the previous level's
    # columns.
    assert len(calls) == 782


def test_build_runs_one_exact_elimination(monkeypatch):
    probes, echelons = [], []
    probe, init = basis_mod._probe_candidates, IntegerEchelon.__init__

    def probe_spy(n, *args):
        probes.append(n)
        return probe(n, *args)

    def init_spy(self, dim, *args, **kwargs):
        echelons.append(dim)
        init(self, dim, *args, **kwargs)

    monkeypatch.setattr(basis_mod, "_probe_candidates", probe_spy)
    monkeypatch.setattr(IntegerEchelon, "__init__", init_spy)
    assert build(10).certified
    assert probes == [10]
    assert echelons == [edge_count(10)]


def test_levels_count_their_rows_by_source():
    # Read off the generator, no spy: the column table of every order,
    # lifted rows included, equals the columns of its tours.
    for m, (perms, columns, families, lifted) in enumerate(basis_mod._levels(10), start=6):
        assert families == (m - 1) ** 2 - 1
        assert lifted == (m - 1) * (m - 2) * (m - 3) + 1
        assert len(perms) - families - lifted == (m - 2) * (2 * m - 3)
        assert len(perms) == len(columns) == m * (m - 1) * (m - 2) + 1
        assert perms[:families] == induction_families(m)
        assert perms[families + lifted:] == basis_mod._completion_pool(m)
        assert columns == [_tour_columns(m, p) for p in perms]
    assert m == 10


def _fault_at_order_seven(monkeypatch, fault):
    pool = basis_mod._completion_pool
    monkeypatch.setattr(basis_mod, "_completion_pool",
                        lambda n: fault(pool(n)) if n == 7 else pool(n))


@pytest.mark.parametrize("n, stage, achieved", [
    (7, "candidate search", 210),  # order 7 requested: its elimination falls short
    (8, "ordering", 211),  # order 7 inner: its count is right, but no order exists
], ids=["7", "8"])
def test_inner_level_with_a_dependent_row_has_no_order(built_bases, monkeypatch,
                                                        n, stage, achieved):
    # The lift of an order-6 tour outside the order-6 basis lies in the
    # span of the lifted rows: dependent rows have no upper-triangular order.
    extra = lift(next(q for q in permutations(range(1, 7)) if q not in built_bases[6].perms()))
    _fault_at_order_seven(monkeypatch, lambda rows: [extra] + rows[1:])
    with pytest.raises(CompletionError) as exc:
        build(n)
    assert exc.value.stage == stage
    assert exc.value.achieved == achieved
    assert exc.value.target == 211


def test_inner_level_short_of_the_target_fails_in_count(monkeypatch):
    _fault_at_order_seven(monkeypatch, lambda rows: rows[:-1])
    with pytest.raises(CompletionError) as exc:
        build(8)
    assert exc.value.stage == "candidate search"
    assert exc.value.achieved == 210 < exc.value.target == 211


def test_complete_basis_requires_certified_partial():
    stub = UpperTriangularBasis(6, ())
    with pytest.raises(ValueError):
        complete_basis(6, stub, 121)


def test_build_rejects_small_order():
    with pytest.raises(ValueError):
        build(4)


def test_build_order_five_is_base_case(base5):
    assert build(5).perms() == base5.perms()


def test_build_six(built_bases):
    b = built_bases[6]
    assert len(b) == 121 == dimension_upper_bound(6)
    assert b.certified
    assert verify_upper_triangular(b).passed
    for p in b.perms():
        assert sorted(p) == list(range(1, 7))


def test_build_rows_are_annihilated(built_bases):
    fam = annihilator_family(6)
    for v in built_bases[6].vectors():
        for g in fam.members():
            assert inner_product(v, g) == 0


def test_build_is_deterministic(built_bases):
    again = build(6)
    assert again.perms() == built_bases[6].perms()
    assert [r.pivot for r in again.rows] == [r.pivot for r in built_bases[6].rows]
    # The seed is recorded in the certificate and changes no row, at the
    # embedded order 5 as above it.
    for n in (5, 7):
        seeded = build(n, seed=5)
        assert seeded.to_text() == built_bases[n].to_text()
        assert seeded.certificate.seed == 5
    assert basis_mod.base_basis_5().certificate.seed is None


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_build_certificate_details(built_bases, n):
    details = built_bases[n].certificate.details
    assert set(details) == {"added", "partial_rows", "families", "lifted"}
    assert details["families"] == (n - 1) ** 2 - 1
    assert details["lifted"] == dimension_upper_bound(n - 1)
    assert details["partial_rows"] == details["families"] + details["lifted"]
    assert details["added"] == (n - 2) * (2 * n - 3)
    assert details["partial_rows"] + details["added"] == dimension_upper_bound(n)


# SHA-256 of build(n).to_text() at the default seed.  Any change to the
# builder that alters a row, a pivot or the row order shows up here.
GOLDEN_BASIS_SHA256 = {
    5: "a40f5a381a1174be7cde06267fed53d562ee034ecab2564dc2b48fe9873b7e17",
    6: "8643036d9bc4b14d75053f0a8ecc4b15b11fa9cc44845bffad28fb62938f5d7a",
    7: "3386202d3834c693480f3b3f5616183f38656056b2bc3c36eb974eaef378b6b6",
    8: "c4edf31320df8a7feacedc35b69c8ced16120cbf810a9ecd46ea82e2b4a865a2",
    9: "0a1ed3c9aef163fb0cdd97fac431c5652602fba7a7ec8bf5e06c5ffe778c7637",
    10: "9bb40c990a2164fc96ee83238f51a981a6aa41e9064d7e112754c66f6d8dbae8",
    16: "feefe0024a432259fa9f6316e742074451dcccce926e935e301d160649ed3dd7",
}


def _text_sha256(basis: UpperTriangularBasis) -> str:
    return hashlib.sha256(basis.to_text().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("n", range(5, 10))
def test_build_matches_golden_hash(built_bases, n):
    assert built_bases[n].certified
    assert _text_sha256(built_bases[n]) == GOLDEN_BASIS_SHA256[n]


def test_build_ten_matches_golden_hash():
    b10 = build(10)
    assert b10.certified
    assert len(b10) == dimension_upper_bound(10)
    assert _text_sha256(b10) == GOLDEN_BASIS_SHA256[10]


def test_build_sixteen_matches_golden_hash():
    # Pins every level of the chain from order 6 to 16.
    b16 = build(16)
    assert b16.certified
    assert _text_sha256(b16) == GOLDEN_BASIS_SHA256[16]


# -- greedy pivot order ---------------------------------------------------------

def _greedy_ut_order_by_rescan(n, perms):
    """Reference: rescan all remaining rows for each pick (quadratic)."""
    edge_sets = [frozenset(htp_edges(n, p)) for p in perms]
    count = {}
    for es in edge_sets:
        for e in es:
            count[e] = count.get(e, 0) + 1
    remaining = list(range(len(perms)))
    order = []
    while remaining:
        pick = None
        for ri in remaining:
            if any(count[e] == 1 for e in edge_sets[ri]):
                pick = ri
                break
        if pick is None:
            return None
        order.append(pick)
        remaining.remove(pick)
        for e in edge_sets[pick]:
            count[e] -= 1
    return order


def _random_tours(n, count, rng):
    tours = []
    while len(tours) < count:
        p = list(range(1, n + 1))
        rng.shuffle(p)
        if tuple(p) not in tours:
            tours.append(tuple(p))
    return tours


@pytest.mark.parametrize("n", [6, 7, 8])
def test_greedy_order_matches_rescan_reference(built_bases, n):
    rng = random.Random(100 + n)
    cases = []
    for _ in range(3):
        rows = built_bases[n].perms()
        rng.shuffle(rows)
        cases.append(rows)
    # Sets smaller than the span's dimension tend to order; larger ones
    # are dependent, so they must stall.
    dim = dimension_upper_bound(n)
    for size in (5, 40, dim // 2, dim + 30):
        cases.append(_random_tours(n, size, rng))
    outcomes = set()
    for perms in cases:
        got = _greedy_ut_order(n, _columns(n, perms))
        assert got == _greedy_ut_order_by_rescan(n, perms)
        outcomes.add(got is None)
    assert outcomes == {False, True}


def test_greedy_order_stalls_on_repeated_tour():
    perms = [(1, 2, 3, 4, 5, 6), (2, 1, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6)]
    assert _greedy_ut_order_by_rescan(6, perms) is None
    first_two = _columns(6, perms[:2])
    assert _greedy_ut_order(6, _columns(6, perms)) is None
    assert _greedy_ut_order(6, first_two) == _greedy_ut_order_by_rescan(6, perms[:2]) == [0, 1]


# -- pivot sweep -------------------------------------------------------------------

def _find_pivot_sequence_by_set_difference(n, perms):
    """Reference: a backward sweep over Edge sets, one set difference per row."""
    edge_sets = [set(htp_edges(n, p)) for p in perms]
    seen_after = set()
    pivots = [None] * len(perms)
    first_bad = None
    for idx in range(len(perms) - 1, -1, -1):
        admissible = edge_sets[idx] - seen_after
        if admissible:
            pivots[idx] = min(admissible, key=lambda e: edge_index(n, e))
        else:
            first_bad = idx
        seen_after |= edge_sets[idx]
    if first_bad is not None:
        raise PivotError(first_bad, tuple(perms[first_bad]))
    return pivots


def _pivot_violation_by_rescan(n, rows):
    """Reference: rescan every later row for each row's pivot (quadratic)."""
    edge_sets = [set(htp_edges(n, r.htp)) for r in rows]
    for i, r in enumerate(rows):
        if r.pivot not in edge_sets[i]:
            return (i, i)
        for j in range(i + 1, len(rows)):
            if r.pivot in edge_sets[j]:
                return (i, j)
    return None


def _pivot_sequence_outcome(find, n, perms):
    try:
        return find(n, perms)
    except PivotError as err:
        return ("PivotError", err.row_index, err.perm)


def _with_pivot(rows, k, pivot):
    return rows[:k] + [PivotedHtp(rows[k].htp, Edge(*pivot))] + rows[k + 1:]


@pytest.mark.parametrize("n", [6, 7, 8])
def test_pivot_sweep_matches_references(built_bases, moved_pivot, n):
    rng = random.Random(200 + n)
    rows = list(built_bases[n].rows)
    cases = [rows]
    for _ in range(3):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        cases.append(shuffled)
    for _ in range(20):
        picks = sorted(rng.sample(range(len(rows)), rng.randint(1, len(rows))))
        cases.append([rows[i] for i in picks])
    if n == 6:
        for case in ("edge not in its row", "not an edge of K_6^T", "a later row's pivot"):
            k, pivot, _ = moved_pivot(rows, case)
            cases.append(_with_pivot(rows, k, pivot))
    # A pivot moved to a valid edge that no row of a short prefix uses.
    prefix = rows[:8]
    used = {e for r in prefix for e in htp_edges(n, r.htp)}
    unused = next(e for e in all_edges(n) if e not in used)
    cases.append(_with_pivot(prefix, 3, unused))

    violations, failures = set(), set()
    for case in cases:
        perms = [r.htp for r in case]
        got = _pivot_violation(n, case, _columns(n, perms))
        assert got == _pivot_violation_by_rescan(n, case)
        violations.add(got if got is None else got[0] == got[1])
        got = _pivot_sequence_outcome(find_pivot_sequence, n, perms)
        assert got == _pivot_sequence_outcome(_find_pivot_sequence_by_set_difference, n, perms)
        failures.add(got[0] == "PivotError")
    # Intact rows, a row that misses its own pivot, a later row reusing one.
    assert violations == {None, True, False}
    assert failures == {False, True}


# -- verification negatives ------------------------------------------------------

def test_verify_detects_duplicate_row(base5):
    rows = list(base5.rows)
    rows[-1] = rows[0]
    # The intact basis's certificate claims rank 61; the tampered rows have 60.
    tampered = UpperTriangularBasis(5, tuple(rows), base5.certificate)
    report = verify_upper_triangular(tampered)
    assert not report.passed
    failed = {c.label for c in report.checks if not c.passed}
    assert failed == {"rows are distinct", "pivot edges are private to their rows",
                      "exact rank equals row count", "certificate consistent with recheck"}


def test_verify_detects_rows_that_are_not_tours(base5):
    rows = list(base5.rows)
    rows[7] = PivotedHtp((1, 1, 2, 3, 4), rows[7].pivot)
    rows[9] = PivotedHtp((1, 2, 3, 4), rows[9].pivot)
    report = verify_upper_triangular(UpperTriangularBasis(5, tuple(rows)))
    assert not report.passed
    check = report.checks[0]
    assert (check.label, check.passed, check.actual) == ("rows are valid tours", False, 2)
    assert check.detail == "first bad row 7"
    # The pivot and rank checks need tours, so the report stops here.
    assert [c.label for c in report.checks] == ["rows are valid tours", "rows are distinct"]


def test_verify_detects_reversed_order(base5):
    reversed_rows = tuple(reversed(base5.rows))
    report = verify_upper_triangular(UpperTriangularBasis(5, reversed_rows))
    assert not report.passed
    failed = {c.label for c in report.checks if not c.passed}
    assert "pivot edges are private to their rows" in failed


def test_random_sublists_stay_upper_triangular(base5):
    rng = random.Random(8)
    for _ in range(100):
        size = rng.randint(1, 61)
        picks = sorted(rng.sample(range(61), size))
        rows = tuple(base5.rows[i] for i in picks)
        report = verify_upper_triangular(UpperTriangularBasis(5, rows))
        assert report.passed
        assert rank([htp_vector(5, r.htp) for r in rows]) == len(rows)


def test_verify_turns_each_row_into_columns_once(built_bases, monkeypatch):
    calls, vectors = [], []

    def columns_spy(n, s):
        calls.append(tuple(s))
        return _tour_columns(n, s)

    def vector_spy(n, perm):
        vectors.append(perm)
        return htp_vector(n, perm)

    for mod in (timegraph_mod, basis_mod):
        monkeypatch.setattr(mod, "_tour_columns", columns_spy)
        monkeypatch.setattr(mod, "htp_vector", vector_spy)
    basis = built_bases[7]
    assert verify_upper_triangular(basis).passed
    assert calls == basis.perms()
    assert vectors == []


def test_verify_rank_does_not_lean_on_the_pivot_check(base5, monkeypatch):
    # The pivot sweep and the exact rank read one column table; with the
    # sweep silenced, the elimination alone must still catch a repeated row.
    lines = base5.to_text().splitlines()
    lines[-1] = lines[3]
    tampered = UpperTriangularBasis.from_text("\n".join(lines) + "\n")
    monkeypatch.setattr(basis_mod, "_pivot_violation", lambda *args: None)
    report = verify_upper_triangular(tampered)
    failed = {c.label for c in report.checks if not c.passed}
    assert failed == {"rows are distinct", "exact rank equals row count"}
    check = next(c for c in report.checks if c.label == "exact rank equals row count")
    assert (check.expected, check.actual) == (61, 60)


# -- verification under the symmetries of the time graph -------------------------

def _symmetric_image(basis, sigma, reverse):
    """The basis under a city relabeling sigma and, if reverse, time reversal.

    sigma maps (a, b, t) to (sigma a, sigma b, t) with the depot 0 fixed;
    reversal maps (a, b, t) to (b, a, n - t), which swaps start and finish
    edges.  Both map tours to tours and preserve which rows share an edge.
    """
    n = basis.n
    city = (0,) + tuple(sigma)

    def edge(e):
        a, b = city[e.from_city], city[e.to_city]
        return Edge(b, a, n - e.day) if reverse else Edge(a, b, e.day)

    def tour(p):
        q = tuple(city[c] for c in p)
        return q[::-1] if reverse else q

    return [PivotedHtp(tour(r.htp), edge(r.pivot)) for r in basis.rows]


@pytest.mark.parametrize("n", [6, 7, 8])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_verify_is_invariant_under_relabeling_and_reversal(built_bases, n, data):
    sigma = data.draw(st.permutations(range(1, n + 1)), label="sigma")
    reverse = data.draw(st.booleans(), label="reverse")
    rows = _symmetric_image(built_bases[n], sigma, reverse)
    assert verify_upper_triangular(UpperTriangularBasis(n, tuple(rows))).passed

    # Move row i's pivot onto one of its edges that a later row j uses;
    # the first such row at or after a drawn start, wrapping around.
    start = data.draw(st.integers(0, len(rows) - 1), label="start")
    edge_sets = [set(htp_edges(n, r.htp)) for r in rows]
    i, e, j = next((i, e, j) for i in [*range(start, len(rows)), *range(start)]
                   for e in sorted(edge_sets[i])
                   for j in range(i + 1, len(rows)) if e in edge_sets[j])
    rows[i] = PivotedHtp(rows[i].htp, e)
    report = verify_upper_triangular(UpperTriangularBasis(n, tuple(rows)))
    failed = [c for c in report.checks if not c.passed]
    assert [(c.label, c.detail) for c in failed] == [
        ("pivot edges are private to their rows", f"row {j} reuses the pivot of row {i}")]


# -- serialization ----------------------------------------------------------------

def test_serialization_round_trip(base5, tmp_path):
    path = tmp_path / "b.txt"
    base5.save(path)
    loaded = UpperTriangularBasis.load(path)
    assert loaded.n == 5
    assert loaded.perms() == base5.perms()
    assert [r.pivot for r in loaded.rows] == [r.pivot for r in base5.rows]
    assert verify_upper_triangular(loaded).passed


@st.composite
def _pivoted_bases(draw):
    n = draw(st.integers(3, 9))
    rows = draw(st.lists(st.tuples(
        st.permutations(range(1, n + 1)),
        st.tuples(*[st.integers(-2, n + 2)] * 3)), max_size=12))
    return UpperTriangularBasis(n, tuple(PivotedHtp(tuple(p), Edge(*piv)) for p, piv in rows))


@given(_pivoted_bases())
def test_text_round_trip_is_exact(basis):
    text = basis.to_text()
    again = UpperTriangularBasis.from_text(text)
    assert again == basis
    assert again.to_text() == text


def test_from_text_rejects_bad_header():
    with pytest.raises(BasisFormatError):
        UpperTriangularBasis.from_text("rows 2\nn 5\ncertified true\n")
    with pytest.raises(BasisFormatError):
        UpperTriangularBasis.from_text("foo 6\nbar 0\ncertified false\n")


def test_from_text_rejects_tiny_order():
    with pytest.raises(BasisFormatError):
        UpperTriangularBasis.from_text("n 2\nrows 0\ncertified false\n")


def test_from_text_rejects_non_permutation():
    text = "n 5\nrows 1\ncertified false\nperm: 1 2 3 4 9 ; pivot: 0 1 0\n"
    with pytest.raises(BasisFormatError):
        UpperTriangularBasis.from_text(text)


def test_from_text_rejects_count_mismatch():
    text = "n 5\nrows 2\ncertified false\nperm: 1 2 3 4 5 ; pivot: 0 1 0\n"
    with pytest.raises(BasisFormatError):
        UpperTriangularBasis.from_text(text)
