"""Tuple taxonomy, canonical solutions, exact verification, doubling.

A tuple kind is (power p, equal e, free f): the defining equation is

    psi(a_1)^p = ... = psi(a_e)^p = sum(a_i^p) + sum(b_j^p)

with e entries sharing a psi value (the equal class) and f unconstrained
entries (the free class).  All entries are positive integers; repeats are
allowed, and an entry may appear in both classes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .arith import InputError, PsiSieve, psi

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


@dataclass(frozen=True, slots=True)
class TupleKind:
    power: int
    equal: int
    free: int
    name: str | None = None

    def __post_init__(self) -> None:
        if self.power not in (2, 3, 4, 5):
            raise InputError("power must be in 2..5")
        if self.equal < 1 or self.free < 1:
            raise InputError("equal and free class sizes must be >= 1")

    def signature(self) -> tuple[int, int, int]:
        return (self.power, self.equal, self.free)


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


@dataclass(frozen=True, slots=True)
class VerifyReport:
    """Outcome of an exact check, with all intermediates for diagnostics.

    ok holds iff every equal-class psi agrees and discrepancy == 0.
    discrepancy is signed: lhs - rhs.
    """

    ok: bool
    psi_values: tuple[int, ...]
    lhs: int
    rhs: int
    discrepancy: int


@dataclass(frozen=True, slots=True)
class Solution:
    """A verified tuple in canonical form (both entry lists non-decreasing)."""

    kind: TupleKind
    equal_entries: tuple[int, ...]
    free_entries: tuple[int, ...]
    psi_value: int
    target: int

    def sort_key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.equal_entries, self.free_entries)


def verify_solution(
    kind: TupleKind,
    equal_entries: Sequence[int],
    free_entries: Sequence[int],
    sieve: PsiSieve | None = None,
) -> VerifyReport:
    """Exact arithmetic check of the defining equation.

    Entry counts must match the kind and all entries must be >= 1
    (InputError otherwise).  Python integers keep every intermediate
    exact, so a failed check is always a genuine failure.
    """
    if len(equal_entries) != kind.equal:
        raise InputError(
            f"expected {kind.equal} equal entries, got {len(equal_entries)}"
        )
    if len(free_entries) != kind.free:
        raise InputError(f"expected {kind.free} free entries, got {len(free_entries)}")
    if any(a < 1 for a in equal_entries) or any(b < 1 for b in free_entries):
        raise InputError("all entries must be positive integers")
    p = kind.power
    psis = tuple(psi(a, sieve) for a in equal_entries)
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
    kind: TupleKind,
    equal_entries: Sequence[int],
    free_entries: Sequence[int],
    sieve: PsiSieve | None = None,
) -> Solution:
    """Verify and return the canonical Solution (sorted entry lists).

    Raises InputError when verification fails; two solutions are equal
    iff their canonical forms are equal.
    """
    report = verify_solution(kind, equal_entries, free_entries, sieve)
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
    obj = json.loads(line)
    k = obj["kind"]
    kind = TupleKind(k["power"], k["equal"], k["free"], k.get("name"))
    return Solution(
        kind=kind,
        equal_entries=tuple(obj["equal_entries"]),
        free_entries=tuple(obj["free_entries"]),
        psi_value=int(obj["psi"]),
        target=int(obj["target"]),
    )


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
