"""Command-line front end.

Subcommands: basis (build and serialize a certified basis), verify (recheck
a basis file), oracle (brute-force dimension of the complete graph),
analyze (dimension and Hamiltonicity of a graph file), annihilators (family
identity certification).  Exit codes: 0 success/certified, 1 verification
failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .annihilators import dimension_upper_bound, verify_duality
from .basis import (
    BasisFormatError,
    CompletionError,
    UpperTriangularBasis,
    build,
    verify_upper_triangular,
)
from .oracle import DEFAULT_CAP, analyze, full_dimension
from .timegraph import TimeGraph, edge_count

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htpbasis",
        description="certified exact bases for spans of layered tour vectors")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="build a certified basis and write it out")
    p.add_argument("--n", type=int, required=True, help="graph order (>= 5)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report style for the certification summary")

    p = sub.add_parser("verify", help="recheck a serialized basis file")
    p.add_argument("path")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("oracle", help="brute-force dimension of the complete graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help=f"enumeration cap (default {DEFAULT_CAP})")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("analyze", help="dimension and Hamiltonicity of a graph file")
    p.add_argument("path")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("annihilators", help="certify the annihilator family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _cmd_basis(args, parser) -> int:
    if args.n < 5:
        parser.error(f"--n must be >= 5, got {args.n}")
    try:
        basis = build(args.n)
    except CompletionError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    if args.out:
        try:
            basis.save(args.out)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return USAGE_ERROR
        report = verify_upper_triangular(basis)
        report.params["out"] = args.out
        print(report.render(args.format), end="")
        return 0 if report.passed else VERIFY_ERROR
    print(basis.to_text(), end="")
    return 0 if basis.certified else VERIFY_ERROR


def _cmd_verify(args, parser) -> int:
    try:
        basis = UpperTriangularBasis.load(args.path)
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (BasisFormatError, UnicodeDecodeError) as exc:
        print(f"invalid basis file: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    report = verify_upper_triangular(basis)
    # Independent rows make a basis of the whole span only if there are as
    # many as its dimension; verify_upper_triangular also serves partial
    # blocks, so the count is checked here against the dimension it reports,
    # found by brute force below order 5.
    expected = report.params["expected_dimension"]
    label = ("row count equals n(n-1)(n-2)+1" if basis.n >= 5
             else "row count equals the brute-force dimension")
    report.add(label, len(basis) == expected, expected=expected, actual=len(basis))
    print(report.render(args.format), end="")
    return 0 if report.passed else VERIFY_ERROR


def _cmd_oracle(args, parser) -> int:
    try:
        report = full_dimension(args.n, cap=args.cap)
    except ValueError as exc:
        parser.error(str(exc))
    expected = dimension_upper_bound(args.n) if args.n >= 5 else None
    if args.format == "json":
        _emit_json({
            "n": args.n, "cap": args.cap,
            "htps": report.htp_count, "dim": report.dimension,
            "expected_dim": expected, "edges": edge_count(args.n),
            "method": report.method,
        })
    else:
        tail = f" expected={expected}" if expected is not None else ""
        print(f"{report.summary()}{tail} edges={edge_count(args.n)} "
              f"cap={args.cap} elapsed={report.elapsed:.2f}s")
    return 0


def _cmd_analyze(args, parser) -> int:
    try:
        graph = TimeGraph.load(args.path)
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"invalid graph file: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        report, ham = analyze(graph, cap=args.cap)
    except ValueError as exc:
        parser.error(str(exc))
    if args.format == "json":
        _emit_json({
            "n": graph.n, "cap": args.cap, "edges": len(graph.edges),
            "htps": report.htp_count, "dim": report.dimension,
            "hamiltonian": ham, "method": report.method,
        })
    else:
        print(f"dim={report.dimension} hamiltonian={'true' if ham else 'false'} "
              f"htps={report.htp_count} n={graph.n} edges={len(graph.edges)} "
              f"cap={args.cap} elapsed={report.elapsed:.2f}s")
    return 0


def _cmd_annihilators(args, parser) -> int:
    if args.n < 5:
        parser.error(f"--n must be >= 5, got {args.n}")
    report = verify_duality(args.n)
    print(report.render(args.format), end="")
    return 0 if report.passed else VERIFY_ERROR


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "basis": _cmd_basis,
        "verify": _cmd_verify,
        "oracle": _cmd_oracle,
        "analyze": _cmd_analyze,
        "annihilators": _cmd_annihilators,
    }
    return handlers[args.command](args, parser)


if __name__ == "__main__":
    raise SystemExit(main())
