"""Workload inputs and the operations that one round of a workload times.

Every workload reports every end-to-end metric, so every round runs every
kind of operation.  A workload runs its own operations at full size and
the others at a small size, repeated, so that each metric still covers
about a second of work (README.md gives the sizes and the reasons).

On a shared 2-core VM the speed drifts by tens of percent within
seconds, so a round does not run its operations in blocks: each metric's
calls are spread evenly over the round, and run.py reports the mean of a
metric's calls (for a metric made of several distinct items, the sum of
the items' means).

The seed picks the rows that the corrupted basis files swap, repeat or
add, orders the command mix and seeds the tour sample of
verify_duality(8).  Graphs and tour samples are fixed templates: renaming
their cities by the seed would keep every count and rank, but it moved
the elimination time by up to 15%, and the amount of work must not
depend on the seed.
"""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from itertools import permutations
from pathlib import Path
from typing import Callable

import htpbasis as hb

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

TEMPLATE_SEED = 2211
CLI_ORDERS = (6, 7)

# Labels of the verification checks that each corruption breaks.
LABEL_PIVOTS = "pivot edges are private to their rows"
LABEL_DISTINCT = "rows are distinct"
LABEL_RANK = "exact rank equals row count"


@dataclass(frozen=True)
class Plan:
    build: tuple[int, int]              # (order, calls); the first basis is verified
    verify: int                         # load-and-verify calls on the intact file
    reject: int                         # passes over the three corrupted files
    span: tuple[int, int]               # (order, full_dimension calls)
    annihilator: tuple[int, int, int]   # (order, sample size, calls)
    duality: tuple[tuple[int, ...], int]  # (orders, passes)
    analyze: tuple[int, int, float, int]  # (order, graphs, edge density, passes)
    commands: int                       # CLI commands, 30 or 60


SIDE = dict(build=(7, 4), verify=40, reject=10, span=(6, 6), annihilator=(5, 80, 4),
            duality=((6,), 30), analyze=(7, 6, 0.72, 2), commands=30)
PLANS = {
    "certify": Plan(**{**SIDE, "build": (10, 1), "verify": 4, "reject": 2}),
    "groundtruth": Plan(**{**SIDE, "span": (7, 2), "annihilator": (6, 130, 2),
                           "duality": ((7, 8), 1), "analyze": (8, 6, 0.62, 1)}),
    "cli": Plan(**{**SIDE, "commands": 60}),
}

# Command mix: (kind, format, count among 60, count among 30).  Inputs are
# dealt round-robin so that every seed runs the same multiset of commands;
# the seed only shuffles their order.  The repeated JSON command adds two.
MIX = (
    ("verify", "text", 10, 5), ("verify", "json", 6, 3),
    ("reject", "text", 6, 3), ("reject", "json", 6, 3),
    ("analyze", "text", 6, 3), ("analyze", "json", 6, 3),
    ("oracle", "text", 4, 2), ("oracle", "json", 4, 2),
    ("annihilators", "text", 3, 1), ("annihilators", "json", 3, 1),
    ("basis", "text", 2, 1), ("basis", "json", 2, 1),
)


@dataclass
class Command:
    argv: list[str]
    expect_exit: int
    check: Callable[[str], list[str]]
    json: bool


@dataclass
class Inputs:
    seed: int
    workdir: Path
    graphs: dict[int, list[tuple[Path, frozenset]]]
    samples: dict[int, list[tuple[int, ...]]]
    commands: list[Command]
    tour_counts: dict[Path, int] = field(default_factory=dict)

    def tour_count(self, n: int, path: Path, edges) -> int:
        """Tours in a graph file, by the benchmark's own filter, computed once."""
        if path not in self.tour_counts:
            self.tour_counts[path] = checks.tour_count(n, edges)
        return self.tour_counts[path]


@dataclass
class Round:
    samples: dict[tuple[str, object], list[float]] = field(
        default_factory=lambda: defaultdict(list))  # (metric, item) -> seconds
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    json_runs: dict[tuple, list[str]] = field(default_factory=lambda: defaultdict(list))
    cmd_cpu: list[float] = field(default_factory=list)

    def add(self, metric: str, seconds: float, item=None) -> None:
        self.samples[metric, item].append(seconds)

    @property
    def work_s(self) -> float:
        return sum(sum(v) for v in self.samples.values())


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------

def _all_edges(n: int) -> list[tuple[int, int, int]]:
    return ([(0, j, 0) for j in range(1, n + 1)]
            + [(i, j, t) for t in range(1, n) for i in range(1, n + 1)
               for j in range(1, n + 1) if i != j]
            + [(i, 0, n) for i in range(1, n + 1)])


def template_graphs(n: int, count: int, density: float) -> list[frozenset]:
    rng = random.Random(TEMPLATE_SEED * 100 + n)
    every = _all_edges(n)
    return [frozenset(e for e in every if rng.random() < density) for _ in range(count)]


def template_sample(n: int, size: int) -> list[tuple[int, ...]]:
    """Seeded tours that span the order-n tour space, padded with dependent ones.

    A plain random sample of order-6 tours rarely spans (140 of 720 still
    leave rank 120), so the template keeps drawing until the benchmark's
    own rank mod p reaches n(n-1)(n-2)+1, then fills up to size.
    """
    rng = random.Random(TEMPLATE_SEED * 100 + n)
    pool = list(permutations(range(1, n + 1)))
    rng.shuffle(pool)
    chosen: list[tuple[int, ...]] = []
    pivots: dict = {}
    for perm in pool:
        if checks.add_mod_p(pivots, checks.tour_row(n, perm)):
            chosen.append(perm)
            if len(chosen) == checks.formula(n):
                break
    taken = set(chosen)
    return chosen + [p for p in pool if p not in taken][:size - len(chosen)]


def graph_text(n: int, edges) -> str:
    return "".join([f"n {n}\n"] + [f"{i} {j} {t}\n" for i, j, t in sorted(edges)])


def basis_text(n: int, rows) -> str:
    lines = [f"n {n}", f"rows {len(rows)}", "certified false"]
    lines += [f"perm: {' '.join(map(str, p))} ; pivot: {v[0]} {v[1]} {v[2]}" for p, v in rows]
    return "\n".join(lines) + "\n"


def corruptions(n: int, rows, rng: random.Random) -> list[tuple[str, list, str]]:
    """Swapped rows, a repeated row and an extra tour, each with the check it breaks."""
    count = len(rows)
    for _ in range(1000):
        i, j = sorted(rng.sample(range(count), 2))
        swapped = list(rows)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        if checks.basis_problems(n, swapped):
            break
    else:
        raise RuntimeError(f"no pivot-breaking swap found at order {n}")
    i, j = rng.randrange(count), rng.randrange(count + 1)
    repeated = rows[:j] + [rows[i]] + rows[j:]
    have = {p for p, _ in rows}
    extra = list(range(1, n + 1))
    while tuple(extra) in have:
        rng.shuffle(extra)
    extra = tuple(extra)
    return [("swap", swapped, LABEL_PIVOTS),
            ("repeat", repeated, LABEL_DISTINCT),
            ("extra", list(rows) + [(extra, (extra[-1], 0, n))], LABEL_RANK)]


def write_corruptions(n: int, rows, rng, workdir: Path, tag: str) -> list[tuple[Path, str, int]]:
    out = []
    for kind, bad_rows, label in corruptions(n, rows, rng):
        path = workdir / f"{tag}{n}-{kind}.txt"
        path.write_text(basis_text(n, bad_rows))
        out.append((path, label, len(bad_rows)))
    return out


def prepare(workload: str, seed: int, workdir: Path) -> Inputs:
    """Generate every input of a run from the seed (the timed set-up)."""
    plan = PLANS[workload]
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)

    intact, corrupted = {}, {}
    for n in CLI_ORDERS:
        basis = hb.build(n)
        rows = [(r.htp, tuple(r.pivot)) for r in basis.rows]
        intact[n] = workdir / f"cli{n}.txt"
        intact[n].write_text(basis_text(n, rows))
        corrupted[n] = write_corruptions(n, rows, rng, workdir, "cli")

    graphs: dict[int, list] = {}
    for n, count, density, _ in sorted({SIDE["analyze"], plan.analyze}):
        graphs[n] = []
        for k, edges in enumerate(template_graphs(n, count, density)):
            path = workdir / f"graph{n}-{k}.tg"
            path.write_text(graph_text(n, edges))
            graphs[n].append((path, edges))

    n, size, _ = plan.annihilator
    samples = {n: template_sample(n, size)}

    inputs = Inputs(seed, workdir, graphs, samples, [])
    inputs.commands = _commands(plan, inputs, intact, corrupted, rng)
    return inputs


def _commands(plan: Plan, inputs: Inputs, intact, corrupted, rng) -> list[Command]:
    f = checks.formula
    workdir = inputs.workdir
    reject_cases = [(n, case) for n in CLI_ORDERS for case in corrupted[n]]
    deal = defaultdict(int)  # kind -> inputs dealt so far

    def make(kind: str, fmt: str) -> Command:
        k = deal[kind]
        deal[kind] += 1
        fmt_flag = ["--format", fmt]
        if kind == "verify":
            n = CLI_ORDERS[k % len(CLI_ORDERS)]
            params = {"n": n, "rows": f(n), "expected_dimension": f(n)}
            return Command(["verify", str(intact[n]), *fmt_flag], 0,
                           lambda out: checks.report_problems(
                               f"verify order {n}", out, fmt, None, params), fmt == "json")
        if kind == "reject":
            n, (path, label, rows) = reject_cases[k % len(reject_cases)]
            return Command(["verify", str(path), *fmt_flag], 1,
                           lambda out: checks.report_problems(
                               f"verify {path.name}", out, fmt, label, {"n": n, "rows": rows}),
                           fmt == "json")
        if kind == "analyze":
            path, edges = inputs.graphs[7][k % len(inputs.graphs[7])]
            return Command(["analyze", str(path), *fmt_flag], 0,
                           lambda out: checks.analyze_output_problems(
                               7, edges, out, fmt, inputs.tour_count(7, path, edges)),
                           fmt == "json")
        if kind == "oracle":
            n = 5 + k % 2
            return Command(["oracle", "--n", str(n), *fmt_flag], 0,
                           lambda out: checks.oracle_problems(n, out, fmt), fmt == "json")
        if kind == "annihilators":
            n = 5 + k % 2
            params = {"n": n, "edge_count": checks.edge_total(n),
                      "family_size": checks.family_count(n), "expected_dimension": f(n)}
            return Command(["annihilators", "--n", str(n), *fmt_flag], 0,
                           lambda out: checks.report_problems(
                               f"annihilators --n {n}", out, fmt, None, params), fmt == "json")
        out_path = workdir / f"out-basis6-{k}.txt"

        def check_basis(out: str) -> list[str]:
            problems = checks.report_problems("basis --n 6", out, fmt, None, {"n": 6, "rows": f(6)})
            try:
                n, rows = checks.parse_basis_text(out_path.read_text())
            except (OSError, IndexError, ValueError) as exc:
                return problems + [f"basis --n 6: output file unreadable: {exc}"]
            return problems + checks.basis_problems(n, rows)
        return Command(["basis", "--n", "6", "--out", str(out_path), *fmt_flag], 0,
                       check_basis, fmt == "json")

    commands = []
    for kind, fmt, many, few in MIX:
        for _ in range(many if plan.commands == 60 else few):
            commands.append(make(kind, fmt))
    rng.shuffle(commands)
    repeated = make("verify", "json")
    for _ in range(2):
        commands.insert(rng.randrange(len(commands) + 1), repeated)
    assert len(commands) == plan.commands, len(commands)
    return commands


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------

def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def _verdict(report) -> tuple[bool, set]:
    return report.passed, {c.label for c in report.checks if not c.passed}


def _load_and_verify(path: Path):
    basis = hb.UpperTriangularBasis.load(path)
    return hb.verify_upper_triangular(basis)


def build_once(r: Round, n: int, path: Path | None = None) -> list:
    """build(n), checked; with a path, also written, reloaded and compared."""
    basis, dt = _timed(hb.build, n)
    r.add("build_s", dt)
    rows = [(row.htp, tuple(row.pivot)) for row in basis.rows]
    r.problems += checks.basis_problems(n, rows)
    if not basis.certified:
        r.problems.append(f"build({n}) returned an uncertified basis")
    if path is not None:
        basis.save(path)
        reloaded = hb.UpperTriangularBasis.load(path)
        r.problems += checks.round_trip_problems(
            rows, path.read_text(), [(x.htp, x.pivot) for x in reloaded.rows])
    return rows


def verify_once(r: Round, n: int, path: Path) -> None:
    report, dt = _timed(_load_and_verify, path)
    r.add("verify_s", dt)
    r.problems += checks.verdict_problems(f"verify order {n}", *_verdict(report), None)


def reject_once(r: Round, path: Path, label: str) -> None:
    report, dt = _timed(_load_and_verify, path)
    r.add("reject_s", dt, path.name)
    r.problems += checks.verdict_problems(f"verify {path.name}", *_verdict(report), label)


def span_once(r: Round, n: int) -> None:
    report, dt = _timed(hb.full_dimension, n, cap=max(n, hb.DEFAULT_CAP))
    r.add("span_rank_s", dt)
    r.problems += checks.span_problems(n, report.htp_count, report.dimension)


def annihilator_once(r: Round, n: int, sample, vectors) -> None:
    found, dt = _timed(hb.annihilator_basis, vectors, hb.edge_count(n))
    r.add("annihilator_s", dt)
    r.problems += checks.annihilator_problems(n, sample, [dict(v.items()) for v in found])


def duality_once(r: Round, n: int, seed: int) -> None:
    report, dt = _timed(hb.verify_duality, n, seed=seed)
    r.add("duality_s", dt, n)
    r.problems += checks.duality_problems(n, report.passed, report.params)


def analyze_once(r: Round, n: int, path: Path, edges, inputs: Inputs) -> None:
    t0 = time.perf_counter()
    report, ham = hb.analyze(hb.TimeGraph.load(path), cap=max(n, hb.DEFAULT_CAP))
    r.add("analyze_s", time.perf_counter() - t0, path.name)
    r.problems += checks.analyze_problems(n, edges, report.htp_count, report.dimension,
                                          ham, inputs.tour_count(n, path, edges))


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def command_once(r: Round, cmd: Command, workdir: Path, tracer=None) -> None:
    """One fresh process; the caller starts the next only after this one exits."""
    totals = workdir / "child-trace.json"
    if tracer is None:
        argv = [sys.executable, "-m", "htpbasis.cli", *cmd.argv]
    else:
        argv = [sys.executable, str(BENCH / "traced_cli.py"), str(totals), *cmd.argv]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc, dt = _timed(subprocess.run, argv, cwd=ROOT, env=child_env(),
                      capture_output=True, text=True, timeout=150)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    r.add("cmd_s", dt)
    r.cmd_cpu.append(after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)
    r.problems += checks.exit_problems(cmd.argv, cmd.expect_exit, proc.returncode)
    r.problems += cmd.check(proc.stdout)
    if cmd.json:
        r.json_runs[tuple(cmd.argv)].append(proc.stdout)
    if tracer is not None:
        tracer.merge_file(totals)


def interleave(tasks: dict[str, list]) -> list:
    """Spread each metric's calls evenly over the round, in a fixed order."""
    keyed = [((i + 0.5) / len(calls), order, call)
             for order, calls in enumerate(tasks.values()) for i, call in enumerate(calls)]
    return [call for _, _, call in sorted(keyed, key=lambda k: k[:2])]


def run_round(workload: str, inputs: Inputs, tracer=None) -> Round:
    """All calls of one round; a call that raises is counted as failed."""
    plan = PLANS[workload]
    r = Round()
    n, builds = plan.build
    built = inputs.workdir / f"built{n}.txt"
    r.attempted += 1
    rows = build_once(r, n, built)
    cases = write_corruptions(n, rows, random.Random(inputs.seed), inputs.workdir, "built")
    m, _, calls = plan.annihilator
    sample = inputs.samples[m]
    vectors = [hb.htp_vector(m, p) for p in sample]
    orders, passes = plan.duality
    order, _, _, sweeps = plan.analyze
    tasks = {
        "build": [partial(build_once, r, n)] * (builds - 1),
        "verify": [partial(verify_once, r, n, built)] * plan.verify,
        "reject": [partial(reject_once, r, path, label)
                   for _ in range(plan.reject) for path, label, _ in cases],
        "span": [partial(span_once, r, plan.span[0])] * plan.span[1],
        "annihilator": [partial(annihilator_once, r, m, sample, vectors)] * calls,
        "duality": [partial(duality_once, r, k, inputs.seed)
                    for _ in range(passes) for k in orders],
        "analyze": [partial(analyze_once, r, order, path, edges, inputs)
                    for _ in range(sweeps) for path, edges in inputs.graphs[order]],
        "commands": [partial(command_once, r, cmd, inputs.workdir, tracer)
                     for cmd in inputs.commands],
    }
    for call in interleave(tasks):
        r.attempted += 1
        try:
            call()
        except Exception:  # noqa: BLE001 - one failing call must not hide the rest
            traceback.print_exc()
            r.failed += 1
    r.problems += checks.repeat_problems(r.json_runs)
    return r
