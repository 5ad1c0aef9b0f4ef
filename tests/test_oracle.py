import random

import pytest

from htpbasis.oracle import (
    DimensionReport,
    analyze,
    dimension_of,
    full_dimension,
    is_hamiltonian,
)
from htpbasis.timegraph import TimeGraph, all_edges, htp_vector


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
