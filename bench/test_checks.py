"""Each output check passes a right answer and rejects a wrong one.

Run from the repository root:  python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import htpbasis as hb  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from run import tail  # noqa: E402
from tracing import Target, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def rows6():
    return [(r.htp, tuple(r.pivot)) for r in hb.build(6).rows]


def verify_rows(n, rows):
    basis = hb.UpperTriangularBasis.from_text(workloads.basis_text(n, rows))
    return hb.verify_upper_triangular(basis)


# -- certify ---------------------------------------------------------------

def test_edge_position_matches_the_documented_order():
    n = 5
    assert [checks.edge_position(n, e) for e in hb.all_edges(n)] == list(range(hb.edge_count(n)))


def test_basis_check(rows6):
    assert checks.basis_problems(6, rows6) == []
    assert checks.basis_problems(6, rows6[:-1])
    assert checks.basis_problems(6, rows6[:-1] + [rows6[0]])
    perm, _ = rows6[0]
    assert checks.basis_problems(6, [(perm, (0, perm[1], 0))] + rows6[1:])
    assert checks.basis_problems(6, [(perm[::-1] + perm, rows6[0][1])] + rows6[1:])


@pytest.mark.parametrize("kind", ["swap", "repeat", "extra"])
def test_basis_check_rejects_each_corruption(rows6, kind):
    bad = {k: rows for k, rows, _ in workloads.corruptions(6, rows6, random.Random(5))}
    assert checks.basis_problems(6, bad[kind])


def test_round_trip_check(rows6):
    text = workloads.basis_text(6, rows6)
    assert checks.round_trip_problems(rows6, text, rows6) == []
    other = rows6[1:] + rows6[:1]
    assert checks.round_trip_problems(rows6, workloads.basis_text(6, other), rows6)
    assert checks.round_trip_problems(rows6, text, other)
    assert checks.round_trip_problems(rows6, "n 6\n", rows6)


def test_corruptions_fail_on_the_named_check(rows6):
    for _, rows, label in workloads.corruptions(6, rows6, random.Random(3)):
        report = verify_rows(6, rows)
        failed = {c.label for c in report.checks if not c.passed}
        assert checks.verdict_problems("x", report.passed, failed, label) == []
        assert checks.verdict_problems("x", report.passed, failed, None)
        assert checks.verdict_problems("x", report.passed, failed - {label}, label)
    assert checks.verdict_problems("x", True, set(), None) == []
    assert checks.verdict_problems("x", True, set(), workloads.LABEL_RANK)


# -- groundtruth -----------------------------------------------------------

def test_span_check():
    assert checks.span_problems(7, 5040, 211) == []
    assert checks.span_problems(7, 5040, 210)
    assert checks.span_problems(7, 5039, 211)


def test_annihilator_check():
    n = 5
    sample = workloads.template_sample(n, 80)
    found = [dict(v.items()) for v in
             hb.annihilator_basis([hb.htp_vector(n, p) for p in sample], hb.edge_count(n))]
    assert checks.annihilator_problems(n, sample, found) == []
    assert checks.annihilator_problems(n, sample, found[1:])            # too few
    assert checks.annihilator_problems(n, sample, [found[1]] + found[1:])  # dependent
    assert checks.annihilator_problems(n, sample, [{0: 1}] + found[1:])  # not orthogonal


def test_annihilator_check_without_a_spanning_sample():
    n = 5
    sample = workloads.template_sample(n, 80)[:20]
    found = [dict(v.items()) for v in
             hb.annihilator_basis([hb.htp_vector(n, p) for p in sample], hb.edge_count(n))]
    assert len(found) == hb.edge_count(n) - 20
    assert checks.annihilator_problems(n, sample, found) == []
    assert checks.annihilator_problems(n, sample, found + [found[0]])


def test_rank_mod_p_only_claims_what_it_can():
    assert checks.rank_mod_p([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1
    assert checks.rank_mod_p([{0: 1}, {1: checks.PRIME}]) == 1  # zero mod p
    with pytest.raises(ValueError):
        checks.rank_mod_p([{0: Fraction(1, checks.PRIME)}])


def test_duality_check():
    report = hb.verify_duality(5)
    assert checks.duality_problems(5, report.passed, report.params) == []
    assert checks.duality_problems(5, False, report.params)
    assert checks.duality_problems(5, True, {**report.params, "family_size": 28})


def test_analyze_check():
    n = 5
    tours = [(1, 2, 3, 4, 5), (2, 1, 3, 4, 5), (5, 4, 3, 2, 1)]
    edges = set().union(*(checks.tour_edges(n, p) for p in tours))
    count = checks.tour_count(n, edges)
    report, ham = hb.analyze(hb.TimeGraph(n, frozenset(edges)))
    assert count >= 3
    assert checks.analyze_problems(n, edges, report.htp_count, report.dimension, ham) == []
    assert checks.analyze_problems(n, edges, count - 1, report.dimension, ham)
    assert checks.analyze_problems(n, edges, count, report.dimension, False)
    assert checks.analyze_problems(n, edges, count, count + 1, ham)
    assert checks.analyze_problems(n, set(), 0, 0, False) == []


# -- cli ---------------------------------------------------------------------

def test_exit_check():
    assert checks.exit_problems(["verify", "f"], 1, 1) == []
    assert checks.exit_problems(["verify", "f"], 1, 0)


def test_report_check(rows6):
    good = hb.verify_upper_triangular(hb.build(6))
    params = {"n": 6, "rows": 121, "expected_dimension": 121}
    for fmt in ("text", "json"):
        out = good.render(fmt)
        assert checks.report_problems("v", out, fmt, None, params) == []
        assert checks.report_problems("v", out, fmt, None, {**params, "rows": 120})
        assert checks.report_problems("v", out, fmt, workloads.LABEL_DISTINCT, params)
    bad = verify_rows(6, rows6 + [rows6[0]])
    for fmt in ("text", "json"):
        out = bad.render(fmt)
        assert checks.report_problems("v", out, fmt, workloads.LABEL_DISTINCT) == []
        assert checks.report_problems("v", out, fmt, None)
    assert checks.report_problems("v", "oops", "text")
    assert checks.report_problems("v", "oops", "json")


def test_oracle_check():
    good = {"n": 5, "cap": 7, "htps": 120, "dim": 61, "expected_dim": 61, "edges": 90}
    assert checks.oracle_problems(5, json.dumps(good), "json") == []
    assert checks.oracle_problems(5, json.dumps({**good, "dim": 60}), "json")
    text = "htps=120 dim=61 expected=61 edges=90 cap=7 elapsed=0.01s"
    assert checks.oracle_problems(5, text, "text") == []
    assert checks.oracle_problems(5, text.replace("dim=61", "dim=62"), "text")
    assert checks.oracle_problems(5, "", "text")


def test_analyze_output_check():
    n = 5
    edges = checks.tour_edges(n, (1, 2, 3, 4, 5))
    good = {"n": 5, "cap": 7, "edges": len(edges), "htps": 1, "dim": 1,
            "hamiltonian": True, "method": "m"}
    assert checks.analyze_output_problems(n, edges, json.dumps(good), "json", 1) == []
    assert checks.analyze_output_problems(n, edges, json.dumps({**good, "htps": 2}), "json", 1)
    assert checks.analyze_output_problems(n, edges, json.dumps({**good, "edges": 7}), "json", 1)
    text = "dim=1 hamiltonian=true htps=1 n=5 edges=6 cap=7 elapsed=0.00s"
    assert checks.analyze_output_problems(n, edges, text, "text", 1) == []
    assert checks.analyze_output_problems(n, edges, text.replace("true", "false"), "text", 1)


def test_repeat_check():
    assert checks.repeat_problems({("a",): ["x", "x"], ("b",): ["y"]}) == []
    assert checks.repeat_problems({("a",): ["x", "x "]})


def test_command_mix_is_the_same_multiset_for_every_seed(tmp_path):
    def mix(seed):
        inputs = workloads.prepare("cli", seed, tmp_path / str(seed))
        return sorted(" ".join(Path(a).name for a in c.argv) for c in inputs.commands)
    first = mix(1)
    assert len(first) == 60
    assert mix(2) == first


# -- helpers of the harness ----------------------------------------------------

def test_tail_leaves_ten_samples_beyond():
    values = list(range(40))
    assert tail(values) == 29
    with pytest.raises(ValueError):
        tail(values[:10])


def test_tracer_counts_and_restores():
    original = hb.basis.build
    tracer = Tracer()
    tracer.install()
    try:
        hb.build(6)
    finally:
        tracer.uninstall()
    assert hb.basis.build is original and hb.build is original
    metrics = tracer.layer_metrics()
    assert metrics["basis.build_calls"] == 2  # orders 6 and 5
    assert metrics["basis.level6_s"] > 0
    assert 0 < metrics["basis.build_coverage"] <= 100
    assert metrics["linalg.exact_accepted"] <= metrics["linalg.exact_adds"]


def test_tracer_drops_a_missing_target_with_a_note():
    tracer = Tracer()
    tracer.install([Target("basis.probe", "htpbasis.basis", "_no_such_function")])
    tracer.uninstall()
    assert tracer.notes and "basis.probe_s" not in tracer.layer_metrics()
