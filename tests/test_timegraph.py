import random
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from htpbasis.timegraph import (
    Edge,
    TimeGraph,
    _complete_layers,
    _layers,
    all_edges,
    edge_count,
    edge_from_index,
    edge_index,
    enumerate_htps,
    htp_edges,
    htp_vector,
    partial_path_vector,
    timepath_edges,
    timepath_vector,
)


def _tour_edges(n, seq):
    """The edges of the tour that visits seq[t-1] on day t, built from the definition."""
    return ([Edge(0, seq[0], 0)] + [Edge(seq[t - 1], seq[t], t) for t in range(1, n)]
            + [Edge(seq[-1], 0, n)])


def _path_into(n, i, t):
    """The t-edge path that steps +1 mod n and ends at city i on day t, built backwards."""
    cities = [i]
    while len(cities) < t:
        cities.insert(0, (cities[0] - 2) % n + 1)
    return [Edge(0, cities[0], 0)] + [Edge(cities[s - 1], cities[s], s) for s in range(1, t)]


def _walk(n, first, steps):
    """The city sequence that starts at first and moves on by each step in 1..n-1."""
    seq = [first]
    for d in steps:
        seq.append((seq[-1] - 1 + d) % n + 1)
    return tuple(seq)


# Tours of orders 3..12: permutations, and walks that may revisit a city.
_tours = st.integers(min_value=3, max_value=12).flatmap(lambda n: st.one_of(
    st.permutations(list(range(1, n + 1))).map(tuple),
    st.tuples(st.integers(1, n), st.lists(st.integers(1, n - 1), min_size=n - 1,
                                          max_size=n - 1)).map(lambda fs: _walk(n, *fs))))


@pytest.mark.parametrize("n,count", [(3, 18), (5, 90), (6, 162), (9, 594)])
def test_edge_count(n, count):
    assert edge_count(n) == count


def test_edge_count_rejects_nonpositive():
    with pytest.raises(ValueError):
        edge_count(0)


def test_edge_index_first_source_and_internal():
    assert edge_index(5, Edge(0, 1, 0)) == 0
    assert edge_index(5, Edge(1, 2, 1)) == 5


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_edge_index_is_a_bijection(n):
    edges = list(all_edges(n))
    assert len(edges) == edge_count(n)
    indices = [edge_index(n, e) for e in edges]
    assert indices == list(range(edge_count(n)))
    assert [edge_from_index(n, k) for k in indices] == edges


@pytest.mark.parametrize("bad", [
    (1, 1, 1),       # self loop
    (0, 2, 3),       # source must have day 0
    (2, 0, 3),       # destination must have day n
    (6, 1, 1),       # city out of range
    (0, 0, 0),
    (1, 2, 0),       # day 0 must leave the start vertex
    (1, 2, 5),       # day n must enter the finish vertex
])
def test_invalid_edges_rejected(bad):
    with pytest.raises(ValueError):
        edge_index(5, Edge(*bad))


def test_edge_from_index_range():
    with pytest.raises(ValueError):
        edge_from_index(5, 90)
    with pytest.raises(ValueError):
        edge_from_index(5, -1)


def test_htp_vector_identity_permutation():
    v = htp_vector(5, (1, 2, 3, 4, 5))
    expected = {Edge(0, 1, 0), Edge(1, 2, 1), Edge(2, 3, 2),
                Edge(3, 4, 3), Edge(4, 5, 4), Edge(5, 0, 5)}
    assert set(v.support()) == {edge_index(5, e) for e in expected}
    assert all(v[k] == 1 for k in v.support())


def test_htp_vector_base_row_one():
    v = htp_vector(5, (1, 5, 2, 3, 4))
    expected = {Edge(0, 1, 0), Edge(1, 5, 1), Edge(5, 2, 2),
                Edge(2, 3, 3), Edge(3, 4, 4), Edge(4, 0, 5)}
    assert set(v.support()) == {edge_index(5, e) for e in expected}


@given(st.integers(min_value=3, max_value=8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))))
def test_htp_vector_weight(perm):
    n = len(perm)
    v = htp_vector(n, perm)
    assert len(v.support()) == n + 1


@pytest.mark.parametrize("bad", [
    (1, 1, 2, 3, 4),
    (1, 2, 3),
    (0, 1, 2, 3, 4),
    (1, 2, 3, 4, 6),
])
def test_htp_vector_rejects_non_permutations(bad):
    with pytest.raises(ValueError):
        htp_vector(5, bad)


def test_timepath_vector_double_visit_city_one():
    v = timepath_vector(5, (1, 2, 1, 3, 4))
    expected = {Edge(0, 1, 0), Edge(1, 2, 1), Edge(2, 1, 2),
                Edge(1, 3, 3), Edge(3, 4, 4), Edge(4, 0, 5)}
    assert set(v.support()) == {edge_index(5, e) for e in expected}


def test_timepath_vector_double_visit_city_four():
    v = timepath_vector(5, (4, 1, 4, 2, 3))
    expected = {Edge(0, 4, 0), Edge(4, 1, 1), Edge(1, 4, 2),
                Edge(4, 2, 3), Edge(2, 3, 4), Edge(3, 0, 5)}
    assert set(v.support()) == {edge_index(5, e) for e in expected}


def test_timepath_vector_rejects_consecutive_repeat():
    with pytest.raises(ValueError):
        timepath_vector(5, (1, 1, 2, 3, 4))


@pytest.mark.parametrize("seq", [(1, 2, 1, 3, 4), (2, 1, 2, 3, 4), (5, 4, 5, 4, 5)])
def test_timepath_vector_weight(seq):
    v = timepath_vector(5, seq)
    assert len(v.support()) == 6
    assert v.entries == {edge_index(5, e): 1 for e in _tour_edges(5, seq)}


@given(_tours)
def test_tour_columns_match_their_definition(seq):
    n = len(seq)
    edges = _tour_edges(n, seq)
    v = timepath_vector(n, seq)
    assert v.entries == {edge_index(n, e): 1 for e in edges}
    assert timepath_edges(n, seq) == tuple(edges)
    if len(set(seq)) == n:
        assert htp_vector(n, seq) == v
        assert htp_edges(n, seq) == tuple(edges)


def test_partial_path_single_day():
    v = partial_path_vector(5, 3, 1)
    assert set(v.support()) == {edge_index(5, Edge(0, 3, 0))}


def test_partial_path_example():
    v = partial_path_vector(5, 2, 3)
    expected = {Edge(0, 5, 0), Edge(5, 1, 1), Edge(1, 2, 2)}
    assert set(v.support()) == {edge_index(5, e) for e in expected}


@pytest.mark.parametrize("n", range(3, 13))
def test_partial_path_properties(n):
    for i in range(1, n + 1):
        for t in range(1, n + 1):
            v = partial_path_vector(n, i, t)
            edges = [edge_from_index(n, k) for k in v.support()]
            assert len(edges) == t
            last = max(edges, key=lambda e: e.day)
            assert last.to_city == i and last.day == t - 1
            assert v.entries == {edge_index(n, e): 1 for e in _path_into(n, i, t)}


def test_partial_path_range_errors():
    for i, t in [(0, 1), (1, 0), (6, 1), (1, 6)]:
        with pytest.raises(ValueError):
            partial_path_vector(5, i, t)


def test_enumerate_complete_graph_is_lexicographic():
    got = list(enumerate_htps(TimeGraph.complete(5)))
    assert got == sorted(permutations(range(1, 6)))
    assert len(got) == 120


@pytest.mark.parametrize("n", [4, 5, 6])
def test_enumerate_counts_factorial(n):
    count = sum(1 for _ in enumerate_htps(TimeGraph.complete(n)))
    expected = 1
    for k in range(2, n + 1):
        expected *= k
    assert count == expected


@pytest.mark.parametrize("n", range(3, 9))
def test_complete_layers_match_the_complete_graph(n):
    assert _complete_layers(n) == _layers(TimeGraph.complete(n))


def test_enumerate_without_sources_is_empty():
    g = TimeGraph(5, frozenset(e for e in all_edges(5) if e.day != 0))
    assert list(enumerate_htps(g)) == []


def test_enumerate_single_tour_graph():
    g = TimeGraph.from_htps(5, [(1, 2, 3, 4, 5)])
    assert list(enumerate_htps(g)) == [(1, 2, 3, 4, 5)]


def test_enumerate_matches_brute_filter():
    rng = random.Random(11)
    for _ in range(20):
        edges = frozenset(e for e in all_edges(4) if rng.random() < 0.6)
        g = TimeGraph(4, edges)
        brute = [p for p in permutations(range(1, 5))
                 if all(e in g for e in htp_edges(4, p))]
        assert list(enumerate_htps(g)) == brute


def test_timegraph_text_round_trip():
    g = TimeGraph.from_htps(5, [(1, 2, 3, 4, 5), (5, 4, 3, 2, 1)])
    again = TimeGraph.from_text(g.to_text())
    assert again == g


@given(st.integers(min_value=3, max_value=7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.booleans(), min_size=edge_count(n), max_size=edge_count(n)))))
def test_timegraph_text_round_trip_is_exact(case):
    n, keep = case
    g = TimeGraph(n, frozenset(e for e, k in zip(all_edges(n), keep) if k))
    text = g.to_text()
    again = TimeGraph.from_text(text)
    assert again == g
    assert again.to_text() == text


def test_timegraph_text_comments_and_blanks():
    text = "# a comment\n\nn 5\n0 1 0\n# another\n1 2 1\n"
    g = TimeGraph.from_text(text)
    assert g.n == 5 and len(g.edges) == 2


# One graph, n 5 with the edge 0 1 0, in spellings other than "n 5\n0 1 0\n":
# lines end in "\n" alone and fields are split by one ASCII space.
SECOND_SPELLINGS = [
    "n 5\r\n0 1 0\r\n",          # CRLF
    "n 5\r0 1 0\r",              # lone CR
    "n 5\x0b0 1 0\n",            # vertical tab as a line end
    "n 5\u20280 1 0\n",          # Unicode line separator
    "n 5\n0\u30001\u30000\n",    # ideographic spaces
    "n 5\n0\t1\t0\n",            # tabs
    "n 5\n0  1 0\n",             # a doubled space
    "n  5\n0 1 0\n",
    "n 5\n 0 1 0\n",             # leading and trailing spaces
    "n 5 \n0 1 0\n",
    "n 5\n \n0 1 0\n",           # a line of spaces is not blank
    "n 5\n  # indented\n0 1 0\n",  # a comment starts its line
]


@pytest.mark.parametrize("text", [
    "0 1 0\n",                 # missing header
    "n 5\n1 2\n",              # short edge line
    "n 5\nnope\n",
    "",
    "n 5\n+0 1 0\n",          # integers are ASCII digits only
    "n 5\n0 0_1 0\n",
    "n \uff15\n",
    "n 5\n0 1 0  # inline\n",  # comments take whole lines
    "n 5\n01 2 1\n",          # no leading zero
    "n 05\n",
    "n 5\n1 2 1\n1 2 1\n",    # no repeated edge
    *SECOND_SPELLINGS,
])
def test_timegraph_text_rejects_malformed(text):
    with pytest.raises(ValueError):
        TimeGraph.from_text(text)


def test_timegraph_text_readme_example():
    text = ("n 5\n"
            "# start edge: day 0, into city 1\n"
            "0 1 0\n"
            "# city 1 on day 1 -> city 2 on day 2\n"
            "1 2 1\n"
            "# finish edge: city 5 on day 5\n"
            "5 0 5\n")
    g = TimeGraph.from_text(text)
    assert g.edges == {Edge(0, 1, 0), Edge(1, 2, 1), Edge(5, 0, 5)}


def test_timegraph_rejects_invalid_edges():
    with pytest.raises(ValueError):
        TimeGraph(5, frozenset({Edge(1, 1, 2)}))


def test_timegraph_file_round_trip(tmp_path):
    g = TimeGraph.from_htps(5, [(2, 1, 4, 5, 3)])
    path = tmp_path / "g.tg"
    g.save(path)
    assert path.read_bytes() == g.to_text().encode()
    assert TimeGraph.load(path) == g
