"""The package names and imports that the benchmark's tracer relies on.

bench/tracing.py measures per-layer metrics by wrapping package
attributes, private ones included, from outside src/.  When a change
deletes or renames one of those attributes, a traced run skips the target
with a note and silently drops the per-layer metrics that read it, so its
result no longer lists every metric of BENCHMARK.json.  bench/run.py also reads
numpy's share of `import htpbasis` and raises when numpy is missing from
the import-time log.  These tests fail first instead.  They retire along
with the attribute patching, once the tracer reads an in-package stage
trace (ROADMAP open item 1).
"""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing_contract", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


TRACING = _load_tracing()


@pytest.mark.parametrize("target", TRACING.TARGETS, ids=lambda t: t.name)
def test_tracer_target_resolves(target):
    owner = importlib.import_module(target.module)
    *classes, attr = target.attr.split(".")
    for name in classes:
        owner = getattr(owner, name)
    assert callable(getattr(owner, attr))
    inspect.getattr_static(owner, attr)


def test_package_import_lists_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import htpbasis"],
                          cwd=ROOT, env=env, check=True, capture_output=True, text=True)
    imported = {line.split("|")[2].strip() for line in proc.stderr.splitlines()
                if line.count("|") == 2}
    assert "htpbasis" in imported
    assert "numpy" in imported
