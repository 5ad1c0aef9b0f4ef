"""Benchmark of htpbasis: three workloads with checked outputs.

Usage:
    python3 bench/run.py --workload {certify,groundtruth,cli} --seed N \\
        --seconds S --trace {0,1}

With --trace 0 the run repeats whole rounds of its workload for about S
seconds and reports the end-to-end metrics listed in BENCHMARK.json.  With
--trace 1 it runs one round untraced and one round with every layer
wrapped (see tracing.py), and reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Problems found by the output checks go to standard
error.  The package is imported from src/ next to this directory; without
it the run exits with code 1 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3
PROBE_REPEATS = 5


def reference_s() -> float:
    """A fixed pure-Python loop; its time tells how fast this machine is now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def import_package() -> float:
    """Import htpbasis from this checkout's src/ and return the seconds it took."""
    if not (SRC / "htpbasis" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no htpbasis source under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import htpbasis
    elapsed = time.perf_counter() - t0
    if Path(htpbasis.__file__).resolve().parent != (SRC / "htpbasis").resolve():
        raise SystemExit(f"run.py: htpbasis came from {htpbasis.__file__}, not {SRC}")
    return elapsed


def tail(values: list[float]) -> float:
    """The highest percentile that has at least ten samples beyond it."""
    ordered = sorted(values)
    if len(ordered) < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {len(ordered)}")
    return ordered[-11]


def merge(rounds):
    samples: dict[tuple, list[float]] = {}
    for r in rounds:
        for key, values in r.samples.items():
            samples.setdefault(key, []).extend(values)
    problems = [p for r in rounds for p in r.problems]
    return (samples, problems, sum(r.attempted for r in rounds),
            sum(r.failed for r in rounds))


def end_to_end(workload, samples, setup_s) -> dict[str, float]:
    """Means per item, summed over the items of a metric (one item for most).

    The calls of a metric are spread over the whole run, so their mean is
    the metric's time at the run's average machine speed.  A median jumps
    between the machine's fast and slow phases instead: over 30 s windows
    of a fixed loop, the mean varied less than half as much as the median.
    """
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    values = {"setup_s": setup_s, "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024}
    for (metric, _), times in samples.items():
        values[metric] = values.get(metric, 0.0) + statistics.mean(times)
    del values["cmd_s"]
    commands = samples["cmd_s", None]
    values["cmd_p50_s"] = statistics.median(commands)
    values["cmd_tail_s"] = tail(commands)
    return values


def probe(argv, env=None) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=env, check=True, capture_output=True)
    return time.perf_counter() - t0


def numpy_import_s(env) -> float:
    """numpy's cumulative share of `import htpbasis`, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import htpbasis"],
                          cwd=ROOT, env=env, check=True, capture_output=True, text=True)
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "numpy":
            return int(fields[1]) / 1e6
    raise ValueError("numpy does not appear in the import-time log")


def cli_probes(workloads) -> dict[str, float]:
    env = workloads.child_env()
    py = sys.executable
    return {
        "cli.interpreter_s": statistics.median(
            probe([py, "-c", "pass"]) for _ in range(PROBE_REPEATS)),
        "cli.import_s": statistics.median(
            probe([py, "-c", "import htpbasis"], env) for _ in range(PROBE_REPEATS)),
        "cli.numpy_import_s": statistics.median(
            numpy_import_s(env) for _ in range(PROBE_REPEATS)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    reference = [reference_s()]
    import_s = import_package()
    import workloads
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = workloads.prepare(args.workload, args.seed, workdir)
            setups.append(time.perf_counter() - t0)

        if args.trace:
            plain = workloads.run_round(args.workload, inputs)
            tracer = Tracer()
            tracer.install()
            try:
                traced = workloads.run_round(args.workload, inputs, tracer)
            finally:
                tracer.uninstall()
            rounds = [plain, traced]
        else:
            rounds = []
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                rounds.append(workloads.run_round(args.workload, inputs))
                last = time.perf_counter() - t0
                if time.perf_counter() - start + last > args.seconds:
                    break
        samples, problems, attempted, failed = merge(rounds)

        if args.trace:
            reference.append(reference_s())
            values = tracer.layer_metrics()
            values.update(cli_probes(workloads))
            values["cli.child_cpu_p50_s"] = statistics.median(plain.cmd_cpu)
            values["bench.reference_s"] = statistics.mean(reference)
            values["bench.trace_overhead"] = 100.0 * (traced.work_s / plain.work_s - 1)
            tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
            for note in tracer.notes:
                print(f"note: {note}", file=sys.stderr)
            wanted = spec["per_layer"]
        else:
            values = end_to_end(args.workload, samples,
                                import_s + statistics.median(setups))
            reference.append(reference_s())
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        elif args.trace:
            print(f"note: per-layer metric {m['name']} dropped", file=sys.stderr)
        else:
            raise SystemExit(f"run.py: end-to-end metric {m['name']} was not measured")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"reference loop: start {reference[0]:.4f} s, end {reference[-1]:.4f} s",
          file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
