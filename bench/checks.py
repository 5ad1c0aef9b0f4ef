"""Output checks that do not trust the package.

Every check here recomputes what it needs from first principles, with
plain Python sets, dicts and integers: tour edges, the canonical edge
index documented in htpbasis.timegraph, tour counts by filtering all n!
permutations, and a rank computed modulo a prime that the package does not
use.  Modular rank is only used in its sound direction: rank mod p never
exceeds the rank over Q, so full rank mod p proves independence, and
nothing is concluded from a rank deficit mod p.

Each function returns a list of problems; an empty list means the output
passed.  None of them compares with a stored copy of earlier output.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import permutations
from math import factorial

# A Mersenne prime far from the package's own 2**31 - 29.
PRIME = (1 << 61) - 1


def formula(n: int) -> int:
    """The paper's dimension n(n-1)(n-2)+1."""
    return n * (n - 1) * (n - 2) + 1


def edge_total(n: int) -> int:
    return n * (n - 1) ** 2 + 2 * n


def family_count(n: int) -> int:
    return n * n + n - 1


def tour_edges(n: int, perm) -> set:
    """Start edge, one edge per day step, finish edge."""
    edges = {(0, perm[0], 0), (perm[-1], 0, n)}
    edges.update((perm[t - 1], perm[t], t) for t in range(1, n))
    return edges


def edge_position(n: int, edge) -> int:
    """Canonical coordinate: sources, internal edges by (day, from, to), finishes."""
    i, j, t = edge
    if t == 0:
        return j - 1
    if t == n:
        return n + n * (n - 1) ** 2 + i - 1
    return n + (t - 1) * n * (n - 1) + (i - 1) * (n - 1) + (j - 1 if j < i else j - 2)


def tour_count(n: int, edges) -> int:
    """Tours inside an edge set, by filtering every permutation of 1..n."""
    have = set(edges)
    return sum(1 for p in permutations(range(1, n + 1)) if tour_edges(n, p) <= have)


def add_mod_p(pivots: dict[int, dict[int, int]], row) -> bool:
    """Reduce a sparse rational row against pivots mod PRIME; keep it if it stays nonzero."""
    v = {}
    for k, x in row.items():
        x = Fraction(x)
        if x.denominator % PRIME == 0:
            raise ValueError("denominator divisible by the check prime")
        r = x.numerator * pow(x.denominator, -1, PRIME) % PRIME
        if r:
            v[k] = r
    while v:
        lead = min(v)
        piv = pivots.get(lead)
        if piv is None:
            inv = pow(v[lead], -1, PRIME)
            pivots[lead] = {k: x * inv % PRIME for k, x in v.items()}
            return True
        f = v[lead]
        for k, x in piv.items():
            y = (v.get(k, 0) - f * x) % PRIME
            if y:
                v[k] = y
            else:
                v.pop(k, None)
    return False


def rank_mod_p(rows) -> int:
    """Rank modulo PRIME of sparse rows given as {coordinate: rational}."""
    pivots: dict[int, dict[int, int]] = {}
    return sum(add_mod_p(pivots, row) for row in rows)


def tour_row(n: int, perm) -> dict[int, int]:
    return {edge_position(n, e): 1 for e in tour_edges(n, perm)}


# --------------------------------------------------------------------------
# certify
# --------------------------------------------------------------------------

def basis_problems(n: int, rows) -> list[str]:
    """rows: (perm, pivot) pairs.  Count, distinct tours, private pivots."""
    out = []
    if len(rows) != formula(n):
        out.append(f"order {n}: {len(rows)} rows, expected {formula(n)}")
    perms = [tuple(p) for p, _ in rows]
    bad = [p for p in perms if sorted(p) != list(range(1, n + 1))]
    if bad:
        out.append(f"order {n}: {len(bad)} rows are not permutations, first {bad[0]}")
        return out
    if len(set(perms)) != len(perms):
        out.append(f"order {n}: {len(perms) - len(set(perms))} repeated rows")
    later: set = set()
    for idx in range(len(rows) - 1, -1, -1):
        perm, pivot = rows[idx]
        edges = tour_edges(n, perm)
        if tuple(pivot) not in edges:
            out.append(f"order {n}: row {idx} does not use its pivot {tuple(pivot)}")
            break
        if tuple(pivot) in later:
            out.append(f"order {n}: pivot of row {idx} is used by a later row")
            break
        later |= edges
    return out


def parse_basis_text(text: str) -> tuple[int, list]:
    """The basis file format, read without the package: (n, [(perm, pivot)])."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    n = int(lines[0].split()[1])
    rows = []
    for line in lines[3:]:
        perm_part, pivot_part = line.split(";")
        perm = tuple(int(x) for x in perm_part.split(":")[1].split())
        pivot = tuple(int(x) for x in pivot_part.split(":")[1].split())
        rows.append((perm, pivot))
    if int(lines[1].split()[1]) != len(rows):
        raise ValueError("row count in header does not match the rows")
    return n, rows


def round_trip_problems(rows, text: str, reloaded_rows) -> list[str]:
    """The written text and the package's reload both give back the rows."""
    out = []
    want = [(tuple(p), tuple(v)) for p, v in rows]
    try:
        _, parsed = parse_basis_text(text)
    except (IndexError, ValueError) as exc:
        return [f"written basis text is unreadable: {exc}"]
    if parsed != want:
        out.append("written basis text does not hold the built rows")
    if [(tuple(p), tuple(v)) for p, v in reloaded_rows] != want:
        out.append("reloaded basis differs from the built one")
    return out


def verdict_problems(what: str, passed: bool, failed_labels, expected_label) -> list[str]:
    """An intact file passes (expected_label None); a corrupted one fails on its label."""
    if expected_label is None:
        if not passed:
            return [f"{what}: intact basis rejected by {sorted(failed_labels)}"]
        return []
    if passed:
        return [f"{what}: corrupted basis accepted"]
    if expected_label not in failed_labels:
        return [f"{what}: FAIL does not name {expected_label!r}, got {sorted(failed_labels)}"]
    return []


# --------------------------------------------------------------------------
# groundtruth
# --------------------------------------------------------------------------

def span_problems(n: int, htp_count: int, dimension: int) -> list[str]:
    out = []
    if htp_count != factorial(n):
        out.append(f"full_dimension({n}) saw {htp_count} tours, expected {factorial(n)}")
    if dimension != formula(n):
        out.append(f"full_dimension({n}) = {dimension}, expected {formula(n)}")
    return out


def annihilator_problems(n: int, sample, annihilators) -> list[str]:
    """sample: tours; annihilators: {coordinate: value} rows."""
    out = []
    sample_rank = rank_mod_p(tour_row(n, p) for p in sample)  # <= rank over Q
    spans = sample_rank == formula(n)
    if spans and len(annihilators) != family_count(n):
        out.append(f"order {n}: sample spans but {len(annihilators)} annihilators, "
                   f"expected {family_count(n)}")
    if not edge_total(n) - formula(n) <= len(annihilators) <= edge_total(n) - sample_rank:
        out.append(f"order {n}: {len(annihilators)} annihilators outside "
                   f"[{edge_total(n) - formula(n)}, {edge_total(n) - sample_rank}]")
    tours = permutations(range(1, n + 1)) if spans else sample
    for perm in tours:
        coords = [edge_position(n, e) for e in tour_edges(n, perm)]
        for a in annihilators:
            if sum(a.get(k, 0) for k in coords) != 0:
                return out + [f"order {n}: an annihilator is not orthogonal to tour {perm}"]
    try:
        independent = rank_mod_p(annihilators) == len(annihilators)
    except ValueError as exc:
        independent = False
        out.append(f"order {n}: independence check inconclusive: {exc}")
    if not independent:
        out.append(f"order {n}: annihilators not shown independent mod p")
    return out


def duality_problems(n: int, passed: bool, params: dict) -> list[str]:
    out = []
    if not passed:
        out.append(f"verify_duality({n}) failed")
    want = {"n": n, "edge_count": edge_total(n), "family_size": family_count(n),
            "expected_dimension": formula(n)}
    for key, value in want.items():
        if params.get(key) != value:
            out.append(f"verify_duality({n}): {key} = {params.get(key)}, expected {value}")
    return out


def analyze_problems(n: int, edges, htp_count: int, dimension: int,
                     hamiltonian: bool, count: int | None = None) -> list[str]:
    """count: the filtered tour count, if already known for this graph."""
    count = tour_count(n, edges) if count is None else count
    out = []
    if htp_count != count:
        out.append(f"order-{n} graph: {htp_count} tours reported, filter finds {count}")
    if hamiltonian != (count > 0):
        out.append(f"order-{n} graph: hamiltonian={hamiltonian} with {count} tours")
    if not 0 <= dimension <= min(count, formula(n)):
        out.append(f"order-{n} graph: dimension {dimension} outside [0, {min(count, formula(n))}]")
    return out


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------

def exit_problems(argv, expected: int, actual: int) -> list[str]:
    if expected != actual:
        return [f"{' '.join(argv)}: exit {actual}, expected {expected}"]
    return []


def report_problems(what: str, stdout: str, fmt: str, expected_label=None,
                    params: dict | None = None) -> list[str]:
    """A verification report, text or JSON, against its known verdict and params."""
    if fmt == "json":
        try:
            payload = json.loads(stdout)
        except ValueError:
            return [f"{what}: output is not JSON"]
        failed = {c["label"] for c in payload["checks"] if not c["passed"]}
        out = verdict_problems(what, payload["passed"], failed, expected_label)
        for key, value in (params or {}).items():
            if payload["params"].get(key) != value:
                out.append(f"{what}: {key} = {payload['params'].get(key)}, expected {value}")
        return out
    lines = stdout.splitlines()
    passed = "result: PASS" in lines
    if not passed and "result: FAIL" not in lines:
        return [f"{what}: no result line"]
    failed = {ln.strip()[len("FAIL "):].split(" (")[0].split(" [")[0]
              for ln in lines if ln.strip().startswith("FAIL ")}
    out = verdict_problems(what, passed, failed, expected_label)
    for key, value in (params or {}).items():
        if f"  {key} = {value}" not in lines:
            out.append(f"{what}: report lacks '{key} = {value}'")
    return out


def oracle_problems(n: int, stdout: str, fmt: str) -> list[str]:
    if fmt == "json":
        got = json.loads(stdout)
        got = (got["htps"], got["dim"], got["expected_dim"], got["edges"])
    else:
        m = re.search(r"htps=(\d+) dim=(\d+) expected=(\d+) edges=(\d+)", stdout)
        if not m:
            return [f"oracle --n {n}: unreadable output {stdout!r}"]
        got = tuple(int(x) for x in m.groups())
    want = (factorial(n), formula(n), formula(n), edge_total(n))
    if got != want:
        return [f"oracle --n {n}: (htps, dim, expected, edges) = {got}, expected {want}"]
    return []


def analyze_output_problems(n: int, edges, stdout: str, fmt: str, count: int) -> list[str]:
    if fmt == "json":
        got = json.loads(stdout)
        if got["edges"] != len(edges) or got["n"] != n:
            return [f"analyze: n/edges = {got['n']}/{got['edges']}, expected {n}/{len(edges)}"]
        return analyze_problems(n, edges, got["htps"], got["dim"], got["hamiltonian"], count)
    m = re.search(r"dim=(\d+) hamiltonian=(true|false) htps=(\d+)", stdout)
    if not m:
        return [f"analyze: unreadable output {stdout!r}"]
    return analyze_problems(n, edges, int(m.group(3)), int(m.group(1)),
                            m.group(2) == "true", count)


def repeat_problems(outputs: dict) -> list[str]:
    """outputs: argv tuple -> list of stdout bytes of each JSON run."""
    return [f"{' '.join(argv)}: repeated JSON output differs"
            for argv, runs in outputs.items() if len(set(runs)) > 1]
