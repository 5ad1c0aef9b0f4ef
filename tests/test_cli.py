import random

import pytest

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


def test_annihilators_pass(capsys):
    code, out, _ = run(capsys, "annihilators", "--n", "5")
    assert code == 0
    assert "result: PASS" in out


def test_annihilators_reject_small_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["annihilators", "--n", "4"])
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
    code, out, _ = run(capsys, "oracle", "--n", "5", "--format", "json")
    assert code == 0
    assert '"dim":61' in out and '"htps":120' in out
