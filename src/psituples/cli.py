"""Command-line front end.

Subcommands: psi, search, verify, table, obstruct, theorem1, classify, family.
Exit codes: 0 success, 1 verification, table or scan failure, 2 invalid input
(InputError; any other exception is an internal fault and propagates), 3
internal arithmetic overflow (reserved; unreachable with native big
integers, kept for interface stability), 4 a search worker process died.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import Sequence

from .arith import InputError, psi
from .search import SearchConfig, SearchWorkerError, max_safe_bound, search
from .tables import TABLES, reproduce_table
from .theorems import (
    EqualPairBranch,
    classify_equal_pair,
    pair_obstruction,
    triple_family,
    verify_theorem1,
)
from .tuples import (
    Solution,
    TupleKind,
    csv_header,
    kind_by_name,
    named_kinds,
    solution_to_csv_row,
    solution_to_json,
    verify_solution,
)

__all__ = ["main", "entrypoint"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _resolve_kind(parser: argparse.ArgumentParser, args: argparse.Namespace) -> TupleKind:
    if args.kind is not None:
        if args.power is not None or args.equal is not None or args.free is not None:
            parser.error("give either --kind or --power/--equal/--free, not both")
        try:
            return kind_by_name(args.kind)
        except ValueError as exc:
            parser.error(str(exc))
    if args.power is None or args.equal is None or args.free is None:
        parser.error("need --kind NAME or all of --power/--equal/--free")
    try:
        return TupleKind(args.power, args.equal, args.free)
    except ValueError as exc:
        parser.error(str(exc))
    raise AssertionError  # parser.error never returns


def _emit_solutions(solutions: Sequence[Solution], kind: TupleKind, fmt: str) -> None:
    if fmt == "json":
        for s in solutions:
            print(solution_to_json(s))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(csv_header(kind))
        for s in solutions:
            writer.writerow(solution_to_csv_row(s))


def _cmd_psi(args: argparse.Namespace) -> int:
    print(psi(args.n))
    return 0


def _cmd_search(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    kind = _resolve_kind(parser, args)
    safe = max_safe_bound(kind.power)
    if args.bound > safe:
        parser.error(
            f"bound {args.bound} is unsafe for power {kind.power}; "
            f"maximum safe bound: {safe}"
        )
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    config = SearchConfig(kind=kind, bound=args.bound, jobs=jobs)

    progress = None
    if args.emit_partial:

        def progress(i: int, total: int, part: list[Solution]) -> None:
            print(
                f"# chunk {i + 1}/{total}: {len(part)} solution(s)",
                file=sys.stderr,
                flush=True,
            )

    solutions = search(config, progress=progress)
    _emit_solutions(solutions, kind, args.format)
    return 0


def _cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    kind = _resolve_kind(parser, args)
    try:
        report = verify_solution(kind, args.equal_entries, args.free_entries)
    except ValueError as exc:
        parser.error(str(exc))
    name = kind.name or f"({kind.power},{kind.equal},{kind.free})"
    print(f"kind:        {name}")
    print(f"equal:       {list(args.equal_entries)}")
    print(f"free:        {list(args.free_entries)}")
    print(f"psi values:  {list(report.psi_values)}")
    print(f"lhs:         {report.lhs}")
    print(f"rhs:         {report.rhs}")
    print(f"discrepancy: {report.discrepancy}")
    print(f"ok:          {report.ok}")
    return 0 if report.ok else 1


def _format_row(row: Sequence[int]) -> str:
    return "(" + ", ".join(str(n) for n in row) + ")"


def _cmd_table(args: argparse.Namespace) -> int:
    diff = reproduce_table(args.id, bound=args.bound, jobs=args.jobs)
    spec = TABLES[args.id]
    print(f"table {args.id} ({spec.kind.name}), bound {diff.bound}")
    print(f"MATCHED ({len(diff.matched)}):")
    for s in diff.matched:
        print("  " + _format_row(s.equal_entries + s.free_entries))
    print(f"EXTRA ({len(diff.extra)}):  # found but not printed; tables are non-exhaustive")
    for s in diff.extra:
        line = "  " + _format_row(s.equal_entries + s.free_entries)
        if args.id == 1 and s.equal_entries[0] != s.equal_entries[1]:
            line += "  <-- equal entries differ: bears on the open question"
        print(line)
    print(f"MISSING ({len(diff.missing)}):")
    for row in diff.missing:
        print("  " + _format_row(row))
    print(f"OUT-OF-BOUND, verified arithmetically ({len(diff.out_of_range)}):")
    for row, good in diff.out_of_range:
        print(f"  {_format_row(row)} -> {'ok' if good else 'FAILED'}")
    return 0 if diff.ok else 1


def _cmd_obstruct(args: argparse.Namespace) -> int:
    report = pair_obstruction(args.x)
    print(f"x:     {report.x}")
    print(f"case:  {report.case_id.value}")
    print(f"u:     {report.u}")
    print(f"v:     {report.v}")
    print(f"d:     {report.d}")
    print(f"u1:    {report.u1}")
    print(f"v1:    {report.v1}")
    print(f"why:   {report.obstruction.description}")
    return 0


def _cmd_theorem1(args: argparse.Namespace) -> int:
    scan = verify_theorem1(args.limit)
    print(f"checked:  {scan.checked}")
    print(f"failures: {list(scan.failures)}")
    print("cases:")
    for case, count in scan.cases.items():
        print(f"  {case + ':':<20}{count}")
    return 1 if scan.failures else 0


def _cmd_classify(args: argparse.Namespace) -> int:
    report = classify_equal_pair(args.a)
    print(f"a:      {report.a}")
    print(f"branch: {report.branch.value}")
    if report.branch is EqualPairBranch.ODD_BRANCH:
        print(f"A:      {report.A}")
        print(f"B:      {report.B}")
        print(f"F:      {report.F} (= A^2 - 2B^2, {report.F % 4} mod 4)")
    elif report.branch is EqualPairBranch.MIXED_BRANCH:
        print(f"P:      {report.P}")
        print(f"Q:      {report.Q}")
        print(f"H:      {report.H} (= 9P^2 - 8Q^2, {report.H % 16} mod 16)")
    if report.c is not None:
        print(f"c:      {report.c} (completes the triple ({report.a}, {report.a}, {report.c}))")
    else:
        print("c:      absent (no completing entry exists)")
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    s = triple_family(args.k)
    print(_format_row(s.equal_entries + s.free_entries))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psituples",
        description="Dedekind psi tuples: searches, verification, table reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psi", help="print psi(n)")
    p.add_argument("n", type=_positive_int)

    names = ", ".join(k.name for k in named_kinds())
    p = sub.add_parser("search", help="exhaustive search for a tuple kind")
    p.add_argument("--kind", help=f"named kind ({names})")
    p.add_argument("--power", type=int, help="power p in 2..5")
    p.add_argument("--equal", type=int, help="equal-class size")
    p.add_argument("--free", type=int, help="free-class size")
    p.add_argument("--bound", type=_positive_int, required=True,
                   help="equal-class entries range over 1..bound")
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="parallel workers (default: available CPUs)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--emit-partial", action="store_true",
                   help="stream per-chunk progress to stderr")

    p = sub.add_parser("verify", help="check one candidate tuple exactly")
    p.add_argument("--kind", help=f"named kind ({names})")
    p.add_argument("--power", type=int)
    p.add_argument("--equal", type=int)
    p.add_argument("--free", type=int)
    p.add_argument("--equal-entries", dest="equal_entries", type=_int_list, required=True,
                   metavar='"a,b,..."')
    p.add_argument("--free-entries", dest="free_entries", type=_int_list, required=True,
                   metavar='"c,d,..."')

    p = sub.add_parser("table", help="reproduce a published table and diff")
    p.add_argument("--id", type=int, required=True, choices=sorted(TABLES))
    p.add_argument("--bound", type=_positive_int, default=None,
                   help="override the table's default bound")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel workers (default: 1)")

    p = sub.add_parser("obstruct", help="case and witness for a pair candidate")
    p.add_argument("x", type=int)

    p = sub.add_parser("theorem1", help="scan 2..LIMIT for a quadratic pair")
    p.add_argument("limit", type=int, metavar="LIMIT")

    p = sub.add_parser("classify", help="equal-pair branch report for a")
    p.add_argument("a", type=int)

    p = sub.add_parser("family", help="k-th power-of-two triple")
    p.add_argument("--k", type=int, required=True)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "psi":
            return _cmd_psi(args)
        if args.command == "search":
            return _cmd_search(parser, args)
        if args.command == "verify":
            return _cmd_verify(parser, args)
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "obstruct":
            return _cmd_obstruct(args)
        if args.command == "theorem1":
            return _cmd_theorem1(args)
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "family":
            return _cmd_family(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # reserved; native ints never raise this here
        print(f"arithmetic overflow: {exc}", file=sys.stderr)
        return 3
    except SearchWorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    raise AssertionError("unhandled command")


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
