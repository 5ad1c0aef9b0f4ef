import random

import pytest

import htpbasis as hb
from htpbasis.timegraph import TimeGraph, all_edges, htp_edges


@pytest.fixture(scope="session")
def base5():
    return hb.base_basis_5()


@pytest.fixture(scope="session")
def built_bases():
    """Certified bases for orders 5..9, built once per test session."""
    bases = {5: hb.base_basis_5()}
    for n in range(6, 10):
        bases[n] = hb.build(n)
    return bases


@pytest.fixture()
def subgraph_factory():
    """Seeded random subgraph generator: keep each edge with probability p."""
    def make(n: int, rng: random.Random, keep: float | None = None) -> TimeGraph:
        p = rng.uniform(0.2, 0.95) if keep is None else keep
        return TimeGraph(n, frozenset(e for e in all_edges(n) if rng.random() < p))
    return make


def _moved_pivot(rows, case):
    """(row k, its new pivot, the detail verify must print) for one fault in an order-6 basis."""
    n = 6
    if case == "edge not in its row":
        k = 10
        perm = rows[k].htp
        return k, (0, perm[1], 0), f"row {k} does not use its declared pivot"
    if case == "not an edge of K_6^T":
        return 20, (9, 9, 9), "row 20 does not use its declared pivot"
    # A later row's pivot that an earlier row also uses: the nearest such
    # earlier row i then reuses nothing but row j's pivot after it.
    for j in range(len(rows) - 1, 0, -1):
        users = [i for i in range(j) if rows[j].pivot in htp_edges(n, rows[i].htp)]
        if users:
            i = users[-1]
            return i, tuple(rows[j].pivot), f"row {j} reuses the pivot of row {i}"
    raise AssertionError("no earlier row uses a later row's pivot")


@pytest.fixture()
def moved_pivot():
    """The pivot faults that verify must name, shared by the CLI and pivot tests."""
    return _moved_pivot
