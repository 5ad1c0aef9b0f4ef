"""In-memory span tracer that wraps calls into htpbasis from outside the package.

The package is not edited: each target below is a module attribute (a
function, a method or a classmethod) that the package calls through.
Installing the tracer replaces that attribute, in every loaded htpbasis
module that holds it, with a timing wrapper, and uninstalling puts the
originals back.

Two kinds of wrapper exist.  A *span* target records one span (id, name,
start, end, parent id) per call and the time and count of its direct
children.  A *leaf* target is called far too often for one span per call
(inner products run about a million times in the groundtruth workload),
so it only adds its count and time to its parent's frame and to the
per-target totals.  Every target keeps its call count, its inclusive time
(outermost calls only, so recursion is not counted twice) and its self
time (duration minus the time of wrapped children).

A target that a later change renames or removes is skipped with a note,
and the per-layer metrics that read it are dropped; the run goes on.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    name: str
    module: str
    attr: str  # "function" or "Class.method"
    kind: str = "span"  # "span", "leaf" or "generator"
    note: Callable | None = None


def _nonzero_rows(vectors) -> int:
    return sum(1 for v in vectors if not v.is_zero)


def _note_rank(tracer, args, kwargs, result, frame, duration):
    tracer.counters["linalg.rank_rows"] += _nonzero_rows(args[0])
    counts = frame[2]
    if counts.get("linalg.modular_add") and not counts.get("linalg.exact_add"):
        tracer.counters["linalg.modular_decided"] += 1


def _note_exact_add(tracer, args, kwargs, result, frame, duration):
    if result:
        tracer.counters["linalg.exact_accepted"] += 1


def _note_probe(tracer, args, kwargs, result, frame, duration):
    seeded = len(args[1])
    tracer.counters["basis.candidates_tried"] += frame[2].get("linalg.exact_add", 0) - seeded
    tracer.counters["basis.candidates_added"] += len(result[0])


def _note_build(tracer, args, kwargs, result, frame, duration):
    # Time of this order alone: the nested build of the order below is
    # the only child subtracted.
    n = args[0] if args else kwargs["n"]
    tracer.counters[f"basis.level{n}_s"] += duration - frame[3].get("basis.build", 0.0)


TARGETS = (
    Target("timegraph.htp_vector", "htpbasis.timegraph", "htp_vector", "leaf"),
    Target("timegraph.enumerate_htps", "htpbasis.timegraph", "enumerate_htps", "generator"),
    Target("timegraph.parse", "htpbasis.timegraph", "TimeGraph.from_text"),
    Target("linalg.rank", "htpbasis.linalg", "rank", note=_note_rank),
    Target("linalg.modular_add", "htpbasis.linalg", "ModularEchelon.add", "leaf"),
    Target("linalg.exact_add", "htpbasis.linalg", "IntegerEchelon.add", "leaf", _note_exact_add),
    Target("linalg.annihilator_basis", "htpbasis.linalg", "annihilator_basis"),
    Target("linalg.inner_product", "htpbasis.linalg", "inner_product", "leaf"),
    Target("basis.build", "htpbasis.basis", "build", note=_note_build),
    Target("basis.complete_basis", "htpbasis.basis", "complete_basis"),
    Target("basis.probe", "htpbasis.basis", "_probe_candidates", note=_note_probe),
    Target("basis.greedy_order", "htpbasis.basis", "_greedy_ut_order"),
    Target("basis.pivot_sequence", "htpbasis.basis", "find_pivot_sequence"),
    Target("basis.pivot_check", "htpbasis.basis", "_pivot_violation"),
    Target("basis.parse", "htpbasis.basis", "UpperTriangularBasis.from_text"),
    Target("basis.verify", "htpbasis.basis", "verify_upper_triangular"),
    Target("annihilators.family", "htpbasis.annihilators", "annihilator_family"),
    Target("annihilators.family_rank", "htpbasis.annihilators", "AnnihilatorFamily.certified_rank"),
    Target("annihilators.verify_duality", "htpbasis.annihilators", "verify_duality"),
    Target("oracle.full_dimension", "htpbasis.oracle", "full_dimension"),
    Target("oracle.dimension_of", "htpbasis.oracle", "dimension_of"),
    Target("oracle.is_hamiltonian", "htpbasis.oracle", "is_hamiltonian"),
    Target("oracle.analyze", "htpbasis.oracle", "analyze"),
)

# Per-layer metric -> (target it reads, what it reads).  "calls" and
# "total" come from the target's totals, "counter" from a counter of the
# same name that a note fills in.
LAYER_METRICS = {
    "timegraph.htp_vector_calls": ("timegraph.htp_vector", "calls"),
    "timegraph.htp_vector_s": ("timegraph.htp_vector", "total"),
    "timegraph.enumerate_htps_s": ("timegraph.enumerate_htps", "total"),
    "timegraph.tours_enumerated": ("timegraph.enumerate_htps", "counter"),
    "timegraph.parse_s": ("timegraph.parse", "total"),
    "linalg.rank_calls": ("linalg.rank", "calls"),
    "linalg.rank_rows": ("linalg.rank", "counter"),
    "linalg.rank_s": ("linalg.rank", "total"),
    "linalg.modular_decided": ("linalg.rank", "counter"),
    "linalg.modular_adds": ("linalg.modular_add", "calls"),
    "linalg.modular_add_s": ("linalg.modular_add", "total"),
    "linalg.exact_adds": ("linalg.exact_add", "calls"),
    "linalg.exact_accepted": ("linalg.exact_add", "counter"),
    "linalg.exact_add_s": ("linalg.exact_add", "total"),
    "linalg.annihilator_basis_s": ("linalg.annihilator_basis", "total"),
    "linalg.inner_products": ("linalg.inner_product", "calls"),
    "linalg.inner_product_s": ("linalg.inner_product", "total"),
    "basis.build_calls": ("basis.build", "calls"),
    **{f"basis.level{n}_s": ("basis.build", "counter") for n in range(6, 11)},
    "basis.probe_s": ("basis.probe", "total"),
    "basis.candidates_tried": ("basis.probe", "counter"),
    "basis.candidates_added": ("basis.probe", "counter"),
    "basis.completion_attempts": ("basis.probe", "calls"),
    "basis.greedy_order_s": ("basis.greedy_order", "total"),
    "basis.pivot_sequence_s": ("basis.pivot_sequence", "total"),
    "basis.pivot_check_s": ("basis.pivot_check", "total"),
    "basis.parse_s": ("basis.parse", "total"),
    "annihilators.family_s": ("annihilators.family", "total"),
    "annihilators.family_rank_s": ("annihilators.family_rank", "total"),
    "oracle.full_dimension_s": ("oracle.full_dimension", "total"),
    "oracle.dimension_of_s": ("oracle.dimension_of", "total"),
    "oracle.is_hamiltonian_s": ("oracle.is_hamiltonian", "total"),
}


class Tracer:
    """Spans, per-target totals and counters of one traced stretch of work."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # target -> [calls, inclusive s, self s]
        self.counters: dict[str, float] = defaultdict(int)
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.notes: list[str] = []
        self.missing: set[str] = set()
        # A frame is [span id, child seconds, child counts, child seconds by name].
        self._stack: list[list] = [[None, 0.0, {}, {}]]
        self._patches: list[tuple] = []
        self._ids = iter(range(1, 1 << 62))

    # -- installing ----------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for target in targets:
            self.stats[target.name] = [0, 0.0, 0.0]
            try:
                module = importlib.import_module(target.module)
                owner, attr = module, target.attr
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(module, cls_name)
                static = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.missing.add(target.name)
                self.notes.append(f"target {target.module}.{target.attr} not found ({exc}); "
                                  f"its metrics are dropped")
                continue
            if isinstance(static, classmethod):
                wrapped = classmethod(self._wrap(target, static.__func__))
                self._patch(owner, attr, wrapped)
            elif owner is module:
                wrapper = self._wrap(target, static)
                for mod in [m for k, m in sys.modules.items()
                            if k == "htpbasis" or k.startswith("htpbasis.")]:
                    for key, value in list(vars(mod).items()):
                        if value is static:
                            self._patch(mod, key, wrapper)
            else:
                self._patch(owner, attr, self._wrap(target, static))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, target: Target, fn):
        name, note, kind = target.name, target.note, target.kind
        stat = self.stats[name]
        stack, clock, tracer = self._stack, time.perf_counter, self

        if kind == "leaf":
            def leaf(*args, **kwargs):
                t0 = clock()
                result = fn(*args, **kwargs)
                d = clock() - t0
                parent = stack[-1]
                parent[1] += d
                counts = parent[2]
                counts[name] = counts.get(name, 0) + 1
                stat[0] += 1
                stat[1] += d
                stat[2] += d
                if note is not None:
                    note(tracer, args, kwargs, result, None, d)
                return result
            return leaf

        if kind == "generator":
            def generator(*args, **kwargs):
                stat[0] += 1
                return tracer._iterate(stat, fn(*args, **kwargs))
            return generator

        depth = [0]

        def span(*args, **kwargs):
            parent = stack[-1]
            sid = next(tracer._ids)
            frame = [sid, 0.0, {}, {}]
            stack.append(frame)
            depth[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[0] -= 1
                d = t1 - t0
                parent[1] += d
                parent[2][name] = parent[2].get(name, 0) + 1
                parent[3][name] = parent[3].get(name, 0.0) + d
                stat[0] += 1
                if depth[0] == 0:
                    stat[1] += d
                stat[2] += d - frame[1]
                tracer.spans.append((sid, name, t0, t1, parent[0]))
            if note is not None:
                note(tracer, args, kwargs, result, frame, d)
            return result
        return span

    def _iterate(self, stat, it):
        """Time each step of the wrapped tour generator as a leaf call of its consumer."""
        clock = time.perf_counter
        while True:
            t0 = clock()
            try:
                item = next(it)
            except StopIteration:
                self._account(stat, clock() - t0)
                return
            self._account(stat, clock() - t0)
            self.counters["timegraph.tours_enumerated"] += 1
            yield item

    def _account(self, stat, d) -> None:
        self._stack[-1][1] += d
        stat[1] += d
        stat[2] += d

    # -- results -------------------------------------------------------------

    def merge_file(self, path) -> None:
        """Add, then delete, the totals a traced child process wrote to path."""
        data = json.loads(path.read_text())
        path.unlink()
        for name, (calls, total, self_s) in data["stats"].items():
            mine = self.stats.setdefault(name, [0, 0.0, 0.0])
            mine[0] += calls
            mine[1] += total
            mine[2] += self_s
        for key, value in data["counters"].items():
            self.counters[key] += value

    def save_totals(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"stats": self.stats, "counters": self.counters}, fh)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metric values; metrics whose target is missing are left out."""
        out: dict[str, float] = {}
        for metric, (target, what) in LAYER_METRICS.items():
            if target in self.missing:
                continue
            stat = self.stats.get(target, [0, 0.0, 0.0])
            if what == "calls":
                out[metric] = stat[0]
            elif what == "total":
                out[metric] = stat[1]
            else:
                out[metric] = self.counters.get(metric, 0)
        if not {"basis.build", "basis.complete_basis"} & self.missing:
            # Share of build time that some wrapped stage under it accounts for.
            build = self.stats.get("basis.build", [0, 0.0, 0.0])
            complete = self.stats.get("basis.complete_basis", [0, 0.0, 0.0])
            total, uncovered = build[1], build[2] + complete[2]
            out["basis.build_coverage"] = 100.0 * (1 - uncovered / total) if total else 0.0
        return out

    def write(self, path) -> None:
        """JSON lines: notes, then per-target totals, then counters, then every span."""
        with open(path, "w", encoding="utf-8") as fh:
            for text in self.notes:
                fh.write(json.dumps({"note": text}) + "\n")
            for name, (calls, total, self_s) in sorted(self.stats.items()):
                fh.write(json.dumps({"target": name, "calls": calls,
                                     "inclusive_s": total, "self_s": self_s}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}, sort_keys=True) + "\n")
            for sid, name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"span": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")
