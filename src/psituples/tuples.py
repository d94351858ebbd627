"""Tuple taxonomy, canonical solutions, exact verification, doubling.

A tuple kind is (power p, equal e, free f): the defining equation is

    psi(a_1)^p = ... = psi(a_e)^p = sum(a_i^p) + sum(b_j^p)

with e entries sharing a psi value (the equal class) and f unconstrained
entries (the free class).  All entries are positive integers; repeats are
allowed, and an entry may appear in both classes.
"""

from __future__ import annotations

import json
from typing import Iterable

from .arith import InputError, _integer, _Record, psi

__all__ = [
    "TupleKind",
    "Solution",
    "VerifyReport",
    "NAMED_KINDS",
    "named_kinds",
    "kind_by_name",
    "verify_solution",
    "canonicalize",
    "double_solution",
    "solution_to_json",
    "solution_from_json",
    "csv_header",
    "solution_to_csv_row",
    "sort_solutions",
]


class TupleKind(_Record):
    __slots__ = ("power", "equal", "free", "name")

    def __init__(self, power: int, equal: int, free: int, name: str | None = None) -> None:
        power = _integer(power, "power", 2, 5)
        equal, free = _integer(equal, "equal", 1), _integer(free, "free", 1)
        super().__init__(power, equal, free, name)

    def signature(self) -> tuple[int, int, int]:
        return (self.power, self.equal, self.free)


def _instance(value: object, cls: type, name: str) -> object:
    """value itself when it is a cls, else an InputError naming the argument."""
    if not isinstance(value, cls):
        raise InputError(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


NAMED_KINDS: tuple[TupleKind, ...] = (
    TupleKind(2, 1, 1, "quadratic-pair"),
    TupleKind(2, 2, 1, "quadratic-triple"),
    TupleKind(2, 3, 1, "quadratic-quadruple"),
    TupleKind(3, 1, 2, "cubic-triple"),
    TupleKind(3, 2, 2, "cubic-quadruple"),
    TupleKind(3, 3, 2, "cubic-quintuple"),
    TupleKind(4, 1, 4, "quartic-quintuple"),
    TupleKind(5, 1, 4, "quintic-quintuple"),
)

_BY_NAME = {k.name: k for k in NAMED_KINDS}


def named_kinds() -> list[TupleKind]:
    """The eight named kinds, in fixed order."""
    return list(NAMED_KINDS)


def kind_by_name(name: str) -> TupleKind:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise InputError(f"unknown kind {name!r}; known kinds: {known}") from None


class VerifyReport(_Record):
    """Outcome of an exact check, with all intermediates for diagnostics.

    ok holds iff every equal-class psi agrees and discrepancy == 0.
    discrepancy is signed: lhs - rhs.
    """

    __slots__ = ("ok", "psi_values", "lhs", "rhs", "discrepancy")


class Solution(_Record):
    """A verified tuple in canonical form (both entry lists non-decreasing)."""

    __slots__ = ("kind", "equal_entries", "free_entries", "psi_value", "target")

    def sort_key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.equal_entries, self.free_entries)


def _entries(values: Iterable[int], name: str) -> tuple[int, ...]:
    """The entries as Python ints >= 1; InputError, naming the argument, otherwise."""
    try:
        values = iter(values)
    except TypeError:
        raise InputError(f"{name}_entries must be iterable, got {values!r}") from None
    return tuple(_integer(v, f"{name} entry", 1) for v in values)


def verify_solution(
    kind: TupleKind, equal_entries: Iterable[int], free_entries: Iterable[int]
) -> VerifyReport:
    """Exact arithmetic check of the defining equation.

    kind must be a TupleKind, the entries any iterables of integers >= 1,
    as many as the kind has (InputError otherwise).  Python integers keep
    every intermediate exact, so a failed check is always a genuine
    failure.
    """
    kind = _instance(kind, TupleKind, "kind")
    equal_entries, free_entries = _entries(equal_entries, "equal"), _entries(free_entries, "free")
    if len(equal_entries) != kind.equal:
        raise InputError(f"expected {kind.equal} equal entries, got {len(equal_entries)}")
    if len(free_entries) != kind.free:
        raise InputError(f"expected {kind.free} free entries, got {len(free_entries)}")
    p = kind.power
    psis = tuple(psi(a) for a in equal_entries)
    lhs = psis[0] ** p
    rhs = sum(a**p for a in equal_entries) + sum(b**p for b in free_entries)
    same_psi = all(v == psis[0] for v in psis)
    return VerifyReport(
        ok=same_psi and lhs == rhs,
        psi_values=psis,
        lhs=lhs,
        rhs=rhs,
        discrepancy=lhs - rhs,
    )


def canonicalize(
    kind: TupleKind, equal_entries: Iterable[int], free_entries: Iterable[int]
) -> Solution:
    """Verify and return the canonical Solution (sorted entry lists).

    Raises InputError when verification fails; two solutions are equal
    iff their canonical forms are equal.
    """
    equal_entries, free_entries = _entries(equal_entries, "equal"), _entries(free_entries, "free")
    report = verify_solution(kind, equal_entries, free_entries)
    if not report.ok:
        raise InputError(
            f"not a valid solution: psi values {report.psi_values}, "
            f"discrepancy {report.discrepancy}"
        )
    return Solution(
        kind=kind,
        equal_entries=tuple(sorted(equal_entries)),
        free_entries=tuple(sorted(free_entries)),
        psi_value=report.psi_values[0],
        target=report.lhs,
    )


def double_solution(solution: Solution) -> Solution | None:
    """Entrywise doubling, valid whenever every equal-class entry is even.

    For even a, psi(2a) = 2*psi(a), so scaling all entries by 2 multiplies
    both sides of the defining equation by 2**p.  Returns None when an
    equal-class entry is odd (psi(2a) = 3*psi(a) then, and the scaled tuple
    need not solve anything).
    """
    if any(a % 2 for a in solution.equal_entries):
        return None
    p = solution.kind.power
    return Solution(
        kind=solution.kind,
        equal_entries=tuple(2 * a for a in solution.equal_entries),
        free_entries=tuple(2 * b for b in solution.free_entries),
        psi_value=2 * solution.psi_value,
        target=2**p * solution.target,
    )


# --- interchange formats -------------------------------------------------
#
# JSON object per solution; target is a decimal string since it may exceed
# 64 bits.  CSV column order: name, power, equal entries, free entries,
# psi, target.


def solution_to_json(solution: Solution) -> str:
    obj = {
        "kind": {
            "power": solution.kind.power,
            "equal": solution.kind.equal,
            "free": solution.kind.free,
            "name": solution.kind.name,
        },
        "equal_entries": list(solution.equal_entries),
        "free_entries": list(solution.free_entries),
        "psi": solution.psi_value,
        "target": str(solution.target),
    }
    return json.dumps(obj, separators=(",", ":"))


def solution_from_json(line: str) -> Solution:
    """The Solution of a solution_to_json line, built by canonicalize.

    InputError if the line is not one, if it does not solve its equation,
    or if its psi and its target, a decimal string, are not the solution's.
    """
    try:
        obj = json.loads(line)
        k = obj["kind"]
        kind = TupleKind(k["power"], k["equal"], k["free"], k.get("name"))
        solution = canonicalize(kind, obj["equal_entries"], obj["free_entries"])
        psi_value, target = _integer(obj["psi"], "psi"), obj["target"]
        if (psi_value, target) != (solution.psi_value, str(solution.target)):
            raise InputError(f'psi and target must be {solution.psi_value} and "{solution.target}"')
        return solution
    except InputError:
        raise
    except (LookupError, TypeError, AttributeError, ValueError) as exc:
        raise InputError(f"not a JSON solution line: {exc!r}") from None


def csv_header(kind: TupleKind) -> list[str]:
    cols = ["name", "power"]
    cols += [f"equal_{i}" for i in range(1, kind.equal + 1)]
    cols += [f"free_{j}" for j in range(1, kind.free + 1)]
    cols += ["psi", "target"]
    return cols


def solution_to_csv_row(solution: Solution) -> list[str]:
    row = [solution.kind.name or "", str(solution.kind.power)]
    row += [str(a) for a in solution.equal_entries]
    row += [str(b) for b in solution.free_entries]
    row += [str(solution.psi_value), str(solution.target)]
    return row


def sort_solutions(solutions: Iterable[Solution]) -> list[Solution]:
    """Canonical global order: lexicographic on (equal_entries, free_entries)."""
    return sorted(solutions, key=Solution.sort_key)
