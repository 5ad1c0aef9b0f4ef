import json
import random
import sys
import tracemalloc
from itertools import permutations
from math import factorial

import pytest

import htpbasis.basis as basis_mod
from htpbasis.basis import (BasisFormatError, PivotedHtp, UpperTriangularBasis, _columns,
                            _greedy_ut_order, find_pivot_sequence, verify_upper_triangular)
from htpbasis.cli import main
from htpbasis.timegraph import TimeGraph, all_edges


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_basis_then_verify_round_trip(tmp_path, capsys):
    path = str(tmp_path / "b5.txt")
    code, out, _ = run(capsys, "basis", "--n", "5", "--out", path)
    assert code == 0
    lines = open(path).read().splitlines()
    assert lines[0] == "n 5"
    assert lines[1] == "rows 61"
    assert lines[2] == "certified true"
    assert len(lines) == 3 + 61

    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    assert "result: PASS" in out


def test_basis_to_stdout(capsys):
    code, out, _ = run(capsys, "basis", "--n", "5")
    assert code == 0
    assert out.startswith("n 5\nrows 61\ncertified true\n")


def test_basis_report_ends_its_params_with_the_file(tmp_path, capsys):
    path = str(tmp_path / "b6.txt")
    code, out, _ = run(capsys, "basis", "--n", "6", "--out", path)
    assert code == 0
    params = [ln for ln in out.splitlines()[1:]
              if ln.startswith("  ") and not ln.startswith(("  ok ", "  FAIL "))]
    assert params[-1] == f"  out = {path}"


def test_json_params_come_from_the_file_alone(tmp_path, capsys):
    path = str(tmp_path / "b6.txt")
    params = {"n": 6, "rows": 121, "edge_count": 162, "expected_dimension": 121}
    code, out, _ = run(capsys, "basis", "--n", "6", "--out", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["params"] == {**params, "out": path}
    code, out, _ = run(capsys, "verify", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["params"] == params


def test_basis_takes_no_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--n", "6", "--seed", "1"])
    assert exc.value.code == 2


def test_basis_rejects_small_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--n", "4"])
    assert exc.value.code == 2


def test_verify_missing_file_is_io_error(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "cannot read" in err


def test_verify_corrupted_permutation(tmp_path, capsys):
    path = str(tmp_path / "b.txt")
    assert run(capsys, "basis", "--n", "5", "--out", path)[0] == 0
    lines = open(path).read().splitlines()
    lines[3] = lines[3].replace("perm: 1 5 2 3 4", "perm: 1 5 2 3 3")
    open(path, "w").write("\n".join(lines) + "\n")
    code, _, err = run(capsys, "verify", path)
    assert code == 1
    assert "line 4" in err


def test_verify_reordered_rows_fail_pivot_check(tmp_path, capsys):
    path = str(tmp_path / "b.txt")
    assert run(capsys, "basis", "--n", "5", "--out", path)[0] == 0
    lines = open(path).read().splitlines()
    head, rows = lines[:3], lines[3:]
    random.Random(6).shuffle(rows)
    open(path, "w").write("\n".join(head + rows) + "\n")
    code, out, _ = run(capsys, "verify", path)
    assert code == 1
    assert "FAIL pivot edges are private to their rows" in out


def test_verify_rejects_short_basis(tmp_path, capsys):
    path = str(tmp_path / "b6.txt")
    assert run(capsys, "basis", "--n", "6", "--out", path)[0] == 0
    lines = open(path).read().splitlines()
    assert lines[1] == "rows 121"
    short = ["n 6", "rows 111", lines[2]] + lines[3:3 + 111]
    open(path, "w").write("\n".join(short) + "\n")
    code, out, _ = run(capsys, "verify", path)
    assert code == 1
    assert "FAIL row count equals n(n-1)(n-2)+1 (expected 121, got 111)" in out
    assert "ok   exact rank equals row count" in out


@pytest.mark.parametrize("n, dimension", [(3, 6), (4, 23)])
def test_verify_checks_the_row_count_below_order_five(tmp_path, capsys, n, dimension):
    path = tmp_path / "empty.txt"
    path.write_text(f"n {n}\nrows 0\ncertified true\n")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert f"FAIL row count equals the brute-force dimension (expected {dimension}, got 0)" in out

    # All 6 tours at order 3 and all but the first at order 4 are a basis,
    # and a greedy order gives each row a private pivot.
    tours = list(permutations(range(1, n + 1)))[n - 3:]
    tours = [tours[i] for i in _greedy_ut_order(n, _columns(n, tours))]
    rows = tuple(map(PivotedHtp, tours, find_pivot_sequence(n, tours)))
    path.write_text(UpperTriangularBasis(n, rows).to_text())
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert f"ok   row count equals the brute-force dimension (expected {dimension}, " \
           f"got {dimension})" in out

    path.write_text(UpperTriangularBasis(n, rows[1:]).to_text())
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "ok   exact rank equals row count" in out
    assert f"FAIL row count equals the brute-force dimension (expected {dimension}, " \
           f"got {dimension - 1})" in out


@pytest.mark.parametrize("n, dimension", [(3, 6), (4, 23)])
def test_verify_reports_the_dimension_it_checks_below_order_five(tmp_path, capsys, n, dimension):
    path = tmp_path / "empty.txt"
    path.write_text(f"n {n}\nrows 0\ncertified true\n")
    code, out, _ = run(capsys, "verify", str(path), "--format", "json")
    report = json.loads(out)
    count = next(c for c in report["checks"] if c["label"].startswith("row count"))
    assert code == 1
    assert report["params"]["expected_dimension"] == count["expected"] == dimension
    assert verify_upper_triangular(UpperTriangularBasis.load(path)).params[
        "expected_dimension"] == dimension


@pytest.mark.parametrize("case", ["edge not in its row", "not an edge of K_6^T",
                                  "a later row's pivot"])
def test_verify_names_a_broken_pivot(built_bases, moved_pivot, tmp_path, capsys, case):
    basis = built_bases[6]
    k, pivot, detail = moved_pivot(basis.rows, case)
    assert pivot != tuple(basis.rows[k].pivot)
    lines = basis.to_text().splitlines()
    lines[3 + k] = lines[3 + k].split(";")[0] + "; pivot: " + " ".join(map(str, pivot))
    path = tmp_path / "b6.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert f"FAIL pivot edges are private to their rows [{detail}]" in out
    assert "ok   exact rank equals row count" in out


def test_verify_rejects_unnamed_header(tmp_path, capsys):
    path = tmp_path / "b.txt"
    path.write_text("foo 6\nbar 0\ncertified false\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    assert "invalid basis file" in err
    assert "n = 6" not in out


# Spellings of the order-6 file that no writer produces; each once loaded
# with the rows of the file it came from.
_RESPELLINGS = {
    "underscore in rows": lambda t: t.replace("rows 121\n", "rows 1_21\n", 1),
    "plus sign": lambda t: t.replace("perm: ", "perm: +", 1),
    "full-width digit": lambda t: t.replace("n 6\n", "n \uff16\n", 1),
    "certified suffix": lambda t: t.replace("certified true\n", "certifiedXYZ\n", 1),
    "double space": lambda t: t.replace("perm: ", "perm:  ", 1),
    "leading zero": lambda t: t.replace("perm: ", "perm: 0", 1),
    "blank line": lambda t: t.replace("certified true\n", "certified true\n\n", 1),
}


@pytest.mark.parametrize("respell", _RESPELLINGS.values(), ids=_RESPELLINGS)
def test_verify_reads_only_the_spelling_basis_writes(built_bases, tmp_path, capsys, respell):
    text = built_bases[6].to_text()
    bad = respell(text)
    assert bad != text
    with pytest.raises(BasisFormatError):
        UpperTriangularBasis.from_text(bad)
    path = tmp_path / "b6.txt"
    path.write_text(bad, encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    assert err.startswith("invalid basis file: ") and out == ""


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["CRLF", "lone CR"])
def test_verify_reads_only_newline_line_ends(built_bases, tmp_path, capsys, end):
    bad = built_bases[6].to_text().replace("\n", end)
    with pytest.raises(BasisFormatError):
        UpperTriangularBasis.from_text(bad)
    path = tmp_path / "b6.txt"
    path.write_bytes(bad.encode())
    with pytest.raises(BasisFormatError):
        UpperTriangularBasis.load(path)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    assert err.startswith("invalid basis file: ") and out == ""


def test_verify_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "b.txt"
    path.write_bytes(b"\xff")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    assert err.startswith("invalid basis file: ")
    assert "Traceback" not in err and out == ""


def test_basis_exits_1_when_completion_falls_short(monkeypatch, capsys):
    pool = basis_mod._completion_pool
    monkeypatch.setattr(basis_mod, "_completion_pool", lambda n: pool(n)[:5])
    code, out, err = run(capsys, "basis", "--n", "6")
    assert code == 1
    assert "completion failed during candidate search" in err
    assert out == ""


def test_verify_memory_follows_the_file_not_the_header(tmp_path, capsys):
    # One order-120 tour on two rows: the exact rank has to run (the rows
    # are dependent), over 1.7 million coordinates of which 121 are nonzero.
    row = "perm: " + " ".join(map(str, range(1, 121))) + " ; pivot: 0 1 0\n"
    path = tmp_path / "repeated.txt"
    path.write_text("n 120\nrows 2\ncertified false\n" + row + row)
    assert run(capsys, "verify", str(path))[0] == 1

    basis = UpperTriangularBasis.load(path)
    tracemalloc.start()
    try:
        report = verify_upper_triangular(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report.passed
    assert peak < 5_000_000

    # A one-city row under a huge order: the row is rejected on its
    # length, before anything of size n is built.
    path = tmp_path / "hostile.txt"
    path.write_text("n 3000000\nrows 1\ncertified false\nperm: 1 ; pivot: 0 1 0\n")
    assert run(capsys, "verify", str(path))[0] == 1

    tracemalloc.start()
    try:
        with pytest.raises(BasisFormatError, match="not a permutation"):
            UpperTriangularBasis.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_oracle_output(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "5")
    assert code == 0
    assert "htps=120 dim=61" in out


def test_oracle_cap_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--n", "8"])
    assert exc.value.code == 2


def test_analyze_single_tour_graph(tmp_path, capsys):
    g = TimeGraph.from_htps(5, [(1, 2, 3, 4, 5)])
    path = tmp_path / "g.tg"
    g.save(path)
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "dim=1 hamiltonian=true" in out


def test_analyze_sourceless_graph(tmp_path, capsys):
    g = TimeGraph(5, frozenset(e for e in all_edges(5) if e.day != 0))
    path = tmp_path / "g.tg"
    g.save(path)
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "dim=0 hamiltonian=false" in out


def test_analyze_bad_file(tmp_path, capsys):
    path = tmp_path / "g.tg"
    path.write_text("not a graph\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "invalid graph file" in err


@pytest.mark.parametrize("text", ["n 5\n01 2 1\n1 2 1\n", "n 5\n1 2 1\n0 1 0\n1 2 1\n"],
                         ids=["leading zero", "repeated edge"])
def test_analyze_refuses_a_second_spelling(tmp_path, capsys, text):
    path = tmp_path / "g.tg"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert err.startswith("invalid graph file: line ")


def test_annihilators_pass(capsys):
    code, out, _ = run(capsys, "annihilators", "--n", "5")
    assert code == 0
    assert "result: PASS" in out


def test_annihilators_reject_small_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["annihilators", "--n", "4"])
    assert exc.value.code == 2


def test_annihilators_take_no_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["annihilators", "--n", "5", "--seed", "1"])
    assert exc.value.code == 2


def test_json_reports_are_byte_identical(capsys, tmp_path):
    _, first, _ = run(capsys, "annihilators", "--n", "5", "--format", "json")
    _, second, _ = run(capsys, "annihilators", "--n", "5", "--format", "json")
    assert first == second

    path = str(tmp_path / "b.txt")
    run(capsys, "basis", "--n", "5", "--out", path)
    _, v1, _ = run(capsys, "verify", path, "--format", "json")
    _, v2, _ = run(capsys, "verify", path, "--format", "json")
    assert v1 == v2
    assert '"passed":true' in v1


def test_oracle_json(capsys):
    for n, dim in [(3, 6), (4, 23), (5, 61), (6, 121), (7, 211)]:
        code, out, _ = run(capsys, "oracle", "--n", str(n), "--format", "json")
        report = json.loads(out)
        assert code == 0
        assert (report["htps"], report["dim"]) == (factorial(n), dim)
        assert report["expected_dim"] == (dim if n >= 5 else None)


def test_analyze_refuses_an_order_deeper_than_the_walks_recurse(tmp_path, capsys):
    deep = tmp_path / "deep.tg"
    TimeGraph.from_htps(1100, [range(1, 1101)]).save(deep)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(deep), "--cap", "1100"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "order 1100 is deeper than the tour walks may recurse" in err
    assert "Traceback" not in err

    n = sys.getrecursionlimit() // 2
    admitted = tmp_path / "admitted.tg"
    TimeGraph.from_htps(n, [range(1, n + 1)]).save(admitted)
    code, out, _ = run(capsys, "analyze", str(admitted), "--cap", str(n))
    assert code == 0
    assert f"dim=1 hamiltonian=true htps=1 n={n}" in out
