"""Run one htpbasis command with the tracer installed and save its totals.

Usage: python bench/traced_cli.py TOTALS_PATH <htpbasis command and arguments>

Standard output, standard error and the exit code are the command's own;
the per-target totals and counters go to TOTALS_PATH as JSON.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import htpbasis.cli  # noqa: E402  (needs the source path above)

from tracing import Tracer  # noqa: E402


def main() -> int:
    totals_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return htpbasis.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.save_totals(totals_path)


if __name__ == "__main__":
    raise SystemExit(main())
