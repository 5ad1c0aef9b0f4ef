import random
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from htpbasis.linalg import IntegerEchelon
from htpbasis.oracle import (
    DimensionReport,
    _layered_echelon,
    analyze,
    dimension_of,
    full_dimension,
    is_hamiltonian,
)
from htpbasis.timegraph import (Edge, TimeGraph, _layers, _tour_columns, all_edges, edge_count,
                                enumerate_htps, htp_vector)


def test_full_dimension_n4_measured_value():
    report = full_dimension(4)
    assert report.htp_count == 24
    assert report.dimension == 23  # below the 24-tour count; no formula applies here


def test_full_dimension_n5():
    report = full_dimension(5)
    assert (report.htp_count, report.dimension) == (120, 61)


def test_cap_refusal_mentions_override():
    with pytest.raises(ValueError, match="cap"):
        full_dimension(5, cap=4)
    assert full_dimension(5, cap=5).dimension == 61


def test_dimension_of_complete_graph():
    assert dimension_of(TimeGraph.complete(5)).dimension == 61


def test_dimension_of_single_tour_graph():
    g = TimeGraph.from_htps(5, [(2, 4, 1, 5, 3)])
    report = dimension_of(g)
    assert report.htp_count == 1 and report.dimension == 1


def test_dimension_of_graph_without_finish_edges():
    g = TimeGraph(5, frozenset(e for e in all_edges(5) if e.day != 5))
    report = dimension_of(g)
    assert report.htp_count == 0 and report.dimension == 0


def test_is_hamiltonian_examples():
    full = TimeGraph.complete(5)
    assert is_hamiltonian(full)
    sourceless = TimeGraph(5, frozenset(e for e in all_edges(5) if e.day != 0))
    assert not is_hamiltonian(sourceless)
    # Removing every edge that leaves city 3 on day 2 still leaves tours
    # that visit city 3 on some other day.
    pruned = TimeGraph(5, frozenset(
        e for e in all_edges(5) if not (e.from_city == 3 and e.day == 2)))
    assert is_hamiltonian(pruned)


def test_hamiltonicity_matches_dimension(subgraph_factory):
    rng = random.Random(3)
    for _ in range(50):
        g = subgraph_factory(5, rng)
        assert is_hamiltonian(g) == (dimension_of(g).dimension > 0)


def test_dimension_monotone_under_edge_addition(subgraph_factory):
    rng = random.Random(4)
    edges_all = list(all_edges(5))
    for _ in range(20):
        g = subgraph_factory(5, rng)
        extra = [e for e in edges_all if e not in g.edges and rng.random() < 0.3]
        bigger = TimeGraph(5, g.edges | frozenset(extra))
        assert dimension_of(g).dimension <= dimension_of(bigger).dimension


def test_analyze_cross_checks():
    report, ham = analyze(TimeGraph.complete(5))
    assert ham and report.dimension == 61
    report, ham = analyze(TimeGraph(5, frozenset()))
    assert not ham and report.dimension == 0


@pytest.mark.parametrize("n", [5, 6])
def test_oracle_builder_and_formula_agree(n, built_bases):
    from htpbasis.annihilators import dimension_upper_bound
    from htpbasis.linalg import rank

    via_oracle = dimension_of(TimeGraph.complete(n)).dimension
    via_builder = rank(built_bases[n].vectors())
    assert via_oracle == via_builder == dimension_upper_bound(n)


def test_oracle_and_rank_scan_opposite_ends(monkeypatch):
    from htpbasis.linalg import IntegerEchelon, rank

    orders = []
    init = IntegerEchelon.__init__

    def spy(self, dim, pivot_order="low"):
        orders.append(pivot_order)
        init(self, dim, pivot_order)

    monkeypatch.setattr(IntegerEchelon, "__init__", spy)
    full_dimension(5)
    oracle_orders = set(orders)
    orders.clear()
    rank([htp_vector(5, (1, 2, 3, 4, 5))])
    rank_orders = set(orders)
    assert len(oracle_orders) == len(rank_orders) == 1
    assert oracle_orders != rank_orders


def test_dimension_report_bound_guard():
    with pytest.raises(ValueError):
        DimensionReport(n=5, htp_count=2, dimension=3, elapsed=0.0, method="x")


# -- the walk's staged elimination against one plain add per tour -----------------

def _plain_rows(g):
    ech = IntegerEchelon(edge_count(g.n), pivot_order="low")
    for p in enumerate_htps(g):
        ech.add(dict.fromkeys(_tour_columns(g.n, p), 1))
    return ech.rows


def _staged_rows(g):
    """Rows of the walk's scan, which must send add only residuals whose lead
    is free."""
    accepted = []
    add = IntegerEchelon.add

    def spy(self, entries):
        accepted.append(add(self, entries))
        return accepted[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IntegerEchelon, "add", spy)
        ech, _ = _layered_echelon(g.n, _layers(g))
    assert all(accepted) and len(accepted) == ech.rank
    return ech.rows


@pytest.mark.parametrize("n", [5, 6, 7])
def test_staged_rows_equal_plain_adds(n):
    g = TimeGraph.complete(n)
    assert _staged_rows(g) == _plain_rows(g)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 7), seed=st.integers(0, 2**32 - 1), keep=st.floats(0.3, 0.95))
def test_staged_rows_equal_plain_adds_on_subgraphs(n, seed, keep):
    rng = random.Random(seed)
    g = TimeGraph(n, frozenset(e for e in all_edges(n) if rng.random() < keep))
    assert _staged_rows(g) == _plain_rows(g)


def test_resumed_stages_carry_their_scale(monkeypatch, subgraph_factory):
    # Stored rows doubled have pivot entries of two, so every stage that
    # clears one carries a scale, and the columns a prefix or a tour adds
    # later must enter at that scale.
    import htpbasis.linalg as linalg

    normalized, eliminate = linalg._normalized, IntegerEchelon.eliminate
    scales = []

    def doubled(w, c):
        return {k: 2 * x for k, x in normalized(w, c).items()}

    def spy(self, w, stop=inf):
        residual, lead, scale = eliminate(self, w, stop)
        scales.append(scale)
        return residual, lead, scale

    monkeypatch.setattr(linalg, "_normalized", doubled)
    monkeypatch.setattr(IntegerEchelon, "eliminate", spy)
    rng = random.Random(15)
    graphs = [TimeGraph.complete(n) for n in (4, 5, 6)]
    graphs += [subgraph_factory(rng.randint(4, 7), rng) for _ in range(40)]
    for g in graphs:
        assert _staged_rows(g) == _plain_rows(g)
    assert max(scales) > 1


def test_eliminate_carries_the_scale_of_a_pivot_entry_of_two():
    ech = IntegerEchelon(6, pivot_order="low")
    ech.add({0: 2, 4: 1})
    w, lead, scale = ech.eliminate({0: 1, 2: 1}, 2)
    assert (w, lead, scale) == ({2: 2, 4: -1}, -1, 2)
    # The rest of the row enters at the scale the residual carries.
    w[3] = scale
    assert ech.eliminate(w) == (*ech.eliminate({0: 1, 2: 1, 3: 1})[:2], 1)


@pytest.mark.parametrize("sparse", [False, True])
def test_add_finds_the_lead_of_each_staged_row_free(monkeypatch, subgraph_factory, sparse):
    # Every tour resumes from a kept stage and hands its last residual to
    # add, so add meets no stored row at its lead and takes no step.
    import htpbasis.linalg as linalg

    steps, adds = [0], []
    eliminate, add = linalg._eliminate, IntegerEchelon.add

    def count(*args):
        steps[0] += 1
        return eliminate(*args)

    def spy(self, entries):
        before = steps[0]
        adds.append((min(entries) in self.rows, add(self, entries), steps[0] - before))
        return adds[-1][1]

    monkeypatch.setattr(linalg, "_eliminate", count)
    monkeypatch.setattr(IntegerEchelon, "add", spy)
    rng = random.Random(1)
    graphs = ([subgraph_factory(6, rng, 0.7) for _ in range(5)] if sparse
              else [TimeGraph.complete(6)])
    for g in graphs:
        adds.clear()
        ech, _ = _layered_echelon(g.n, _layers(g))
        assert adds == [(False, True, 0)] * ech.rank


def _staged_days(g):
    """The days d whose first column, n + (d - 1) n (n - 1), the walk's stages
    of g stop at; every stop below the last column must be one of them."""
    n, stops = g.n, []
    first = {n + (d - 1) * n * (n - 1): d for d in range(1, n + 1)}
    eliminate = IntegerEchelon.eliminate

    def spy(self, w, stop=inf):
        if stop < edge_count(n):
            stops.append(stop)
        return eliminate(self, w, stop)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IntegerEchelon, "eliminate", spy)
        _layered_echelon(n, _layers(g))
    assert set(stops) <= first.keys()
    return {first[s] for s in stops}


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_every_day_is_staged_on_complete_graphs(n):
    assert _staged_days(TimeGraph.complete(n)) == set(range(1, n + 1))


def test_stages_stop_at_the_first_column_of_a_day_on_subgraphs(subgraph_factory):
    rng = random.Random(29)
    for _ in range(40):
        _staged_days(subgraph_factory(rng.randint(3, 7), rng))


# -- the walk scans one tour of each repeated prefix class ---------------------------

def _check_walk(monkeypatch, g):
    """The walk counts every tour of g, clears each scanned tour to the end
    once, and stores the rows of a plain scan; returns the scanned count."""
    # Stages stop short of the last column; only scanned tours reach it.
    scanned = []
    eliminate = IntegerEchelon.eliminate

    def spy(self, w, stop=inf):
        scanned.append(stop == edge_count(g.n))
        return eliminate(self, w, stop)

    with monkeypatch.context() as mp:
        mp.setattr(IntegerEchelon, "eliminate", spy)
        ech, count = _layered_echelon(g.n, _layers(g))
    assert count == len(list(enumerate_htps(g)))
    assert sum(scanned) <= count
    assert ech.rows == _plain_rows(g)
    return sum(scanned)


@pytest.mark.parametrize("n, kept", [(3, 6), (4, 24), (5, 90), (6, 300), (7, 910)])
def test_walk_keeps_rows_and_count_on_complete_graphs(monkeypatch, n, kept):
    assert _check_walk(monkeypatch, TimeGraph.complete(n)) == kept


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 7), seed=st.integers(0, 2**32 - 1), keep=st.floats(0.3, 0.95))
def test_walk_keeps_rows_and_count_on_subgraphs(n, seed, keep):
    rng = random.Random(seed)
    g = TimeGraph(n, frozenset(e for e in all_edges(n) if rng.random() < keep))
    with pytest.MonkeyPatch.context() as mp:
        _check_walk(mp, g)


# -- invariance under the symmetries of the time graph ----------------------------

def _symmetric_graph(g, sigma, reverse):
    """g under the city relabeling sigma, (a, b, t) -> (sigma a, sigma b, t), and,
    if reverse, day reversal, (a, b, t) -> (b, a, n - t), which swaps start and
    finish edges."""
    n = g.n
    city = (0,) + tuple(sigma)

    def edge(e):
        a, b = city[e.from_city], city[e.to_city]
        return Edge(b, a, n - e.day) if reverse else Edge(a, b, e.day)

    return TimeGraph(n, frozenset(map(edge, g.edges)))


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_dimension_of_is_invariant_under_relabeling_and_reversal(data):
    n = data.draw(st.integers(3, 7), label="n")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    keep = data.draw(st.floats(0.3, 0.8), label="keep")
    sigma = data.draw(st.permutations(range(1, n + 1)), label="sigma")
    g = TimeGraph(n, frozenset(e for e in all_edges(n) if rng.random() < keep))
    want = dimension_of(g)
    for image in (_symmetric_graph(g, sigma, False), _symmetric_graph(g, range(1, n + 1), True)):
        got = dimension_of(image)
        assert (got.htp_count, got.dimension) == (want.htp_count, want.dimension)
