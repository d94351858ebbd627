"""Command-line front end.

Subcommands: psi, search, verify, table, obstruct, theorem1, classify, family.
Exit codes: 0 success, 1 verification, table or scan failure, 2 invalid input
(InputError; any other exception is an internal fault and propagates), 4 a
search worker process died.
"""

from __future__ import annotations

import argparse
import gc
import sys
from typing import Sequence

from .arith import InputError, psi
from .search import SearchConfig, SearchWorkerError, search
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

# A command is a short-lived process that may fork a search pool.  Moving
# what the imports allocated (numpy's and these modules' objects) to the
# permanent generation keeps every later collection off them: the in-run
# ones, the full ones at exit and the forked children's.  Only the command
# line does this; `import psituples` leaves the collector as it is.
gc.freeze()

__all__ = ["main", "entrypoint"]


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _resolve_kind(parser: argparse.ArgumentParser, args: argparse.Namespace) -> TupleKind:
    if args.kind is not None:
        if args.power is not None or args.equal is not None or args.free is not None:
            parser.error("give either --kind or --power/--equal/--free, not both")
        return kind_by_name(args.kind)
    if args.power is None or args.equal is None or args.free is None:
        parser.error("need --kind NAME or all of --power/--equal/--free")
    return TupleKind(args.power, args.equal, args.free)


def _emit_solutions(solutions: Sequence[Solution], kind: TupleKind, fmt: str) -> None:
    if fmt == "json":
        for s in solutions:
            print(solution_to_json(s))
    else:
        import csv  # only --format csv needs it

        writer = csv.writer(sys.stdout)
        writer.writerow(csv_header(kind))
        for s in solutions:
            writer.writerow(solution_to_csv_row(s))


def _cmd_psi(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    print(psi(args.n))
    return 0


def _cmd_search(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    kind = _resolve_kind(parser, args)
    config = SearchConfig(kind=kind, bound=args.bound, jobs=args.jobs)

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
    report = verify_solution(kind, args.equal_entries, args.free_entries)
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


def _cmd_table(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
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


def _cmd_obstruct(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
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


def _cmd_theorem1(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    scan = verify_theorem1(args.limit)
    print(f"checked:  {scan.checked}")
    print(f"failures: {list(scan.failures)}")
    print("cases:")
    for case, count in scan.cases.items():
        print(f"  {case + ':':<20}{count}")
    return 1 if scan.failures else 0


def _cmd_classify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
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


def _cmd_family(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    s = triple_family(args.k)
    print(_format_row(s.equal_entries + s.free_entries))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psituples",
        description="Dedekind psi tuples: searches, verification, table reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, **kwargs) -> argparse.ArgumentParser:
        # a command is handed its own parser, so that its usage errors name it
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(run=run, parser=p)
        return p

    p = command("psi", _cmd_psi, help="print psi(n)")
    p.add_argument("n", type=int)

    names = ", ".join(k.name for k in named_kinds())
    kind_options = argparse.ArgumentParser(add_help=False)
    kind_options.add_argument("--kind", help=f"named kind ({names})")
    kind_options.add_argument("--power", type=int, help="power p in 2..5")
    kind_options.add_argument("--equal", type=int, help="equal-class size")
    kind_options.add_argument("--free", type=int, help="free-class size")

    p = command("search", _cmd_search, help="exhaustive search for a tuple kind",
                parents=[kind_options])
    p.add_argument("--bound", type=int, required=True,
                   help="equal-class entries range over 1..bound")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers (default: 1)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--emit-partial", action="store_true",
                   help="stream per-chunk progress to stderr")

    p = command("verify", _cmd_verify, help="check one candidate tuple exactly",
                parents=[kind_options])
    p.add_argument("--equal-entries", dest="equal_entries", type=_int_list, required=True,
                   metavar='"a,b,..."')
    p.add_argument("--free-entries", dest="free_entries", type=_int_list, required=True,
                   metavar='"c,d,..."')

    p = command("table", _cmd_table, help="reproduce a published table and diff")
    p.add_argument("--id", type=int, required=True, choices=sorted(TABLES))
    p.add_argument("--bound", type=int, default=None,
                   help="override the table's default bound")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers (default: 1)")

    p = command("obstruct", _cmd_obstruct, help="case and witness for a pair candidate")
    p.add_argument("x", type=int)

    p = command("theorem1", _cmd_theorem1, help="scan 2..LIMIT for a quadratic pair")
    p.add_argument("limit", type=int, metavar="LIMIT")

    p = command("classify", _cmd_classify, help="equal-pair branch report for a")
    p.add_argument("a", type=int)

    p = command("family", _cmd_family, help="k-th power-of-two triple")
    p.add_argument("--k", type=int, required=True)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args.parser, args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SearchWorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
