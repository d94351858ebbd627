"""Case classifiers and exhaustive verifiers for the two non-existence arguments.

The pair argument: psi(x)**2 - x**2 is never a positive perfect square.
Writing u = psi(x) - x, v = psi(x) + x, d = gcd(u, v), u = d*u1, v = d*v1
with gcd(u1, v1) = 1, a solution would force u1 and v1 to both be perfect
squares.  Each of five shape classes of x yields a machine-checkable
witness that this fails.

The equal-pair argument: a quadratic triple with both equal entries the
same value a exists iff a is a power of two.  For odd a the quantity
F = A**2 - 2*B**2 (A, B built from the distinct odd primes of a) would
have to be a perfect square but is 2 mod 4; for a = 2^k * m with odd
m > 1, H = 9*P**2 - 8*Q**2 would have to be but is 8 or 12 mod 16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, NamedTuple

import numpy as np

from .arith import (
    InputError,
    PsiSieve,
    _floor_root_vec,
    build_sieve,
    factorize,
    is_perfect_kth_power,
    psi,
)
from .tuples import Solution, kind_by_name

__all__ = [
    "PairCase",
    "Witness",
    "PairObstructionReport",
    "pair_obstruction",
    "congruence_witness",
    "witness_holds",
    "TheoremScan",
    "verify_theorem1",
    "triple_family",
    "EqualPairBranch",
    "Theorem2Report",
    "classify_equal_pair",
]

_QUADRATIC_TRIPLE = kind_by_name("quadratic-triple")

# x per window of the Theorem-1 scan kernel.  A window holds a few int64
# arrays of this length, so the scan's memory does not grow with the limit
# beyond the sieve itself.
_SCAN_WINDOW = 1 << 14


class PairCase(Enum):
    POWER_OF_TWO = "PowerOfTwo"  # x = 2^k
    ODD_ONLY = "OddOnly"  # x odd, > 1
    TWO_THREE = "TwoThree"  # x = 2^k * 3^r
    TWO_TIMES_PRIME_POWER = "TwoTimesPrimePower"  # x = 2^k * p^r, p != 3
    GENERAL = "General"  # x = 2^k * (two or more odd primes)


@dataclass(frozen=True, slots=True)
class Witness:
    """A small machine-checkable fact killing the candidate.

    kinds:
      non-square      one of u1, v1 is not a perfect square
      odd-square-gap  u1, v1 odd with v1 - u1 not 0 mod 8, so they cannot
                      both be odd squares
      mod5            v1 = 5l + 2 is 2 mod 5, never a square residue
      gcd-drop        gcd(l+1, 5l+2) = 3 forces 3 | p, impossible for the
                      odd prime p != 3 in this shape class
    """

    kind: str
    description: str
    values: tuple[tuple[str, int], ...]

    def get(self, name: str) -> int:
        for key, val in self.values:
            if key == name:
                return val
        raise KeyError(name)


@dataclass(frozen=True, slots=True)
class PairObstructionReport:
    x: int
    u: int
    v: int
    d: int
    u1: int
    v1: int
    case_id: PairCase
    obstruction: Witness


def _classify_shape(x: int, sieve: PsiSieve | None) -> tuple[PairCase, int, tuple[int, ...]]:
    """(case, exponent of 2, distinct odd primes) from the shape of x."""
    fac = factorize(x, sieve if sieve is not None and x <= sieve.limit else None)
    k = fac.two_exponent()
    odd = fac.odd_primes()
    if k >= 1 and not odd:
        return PairCase.POWER_OF_TWO, k, odd
    if k == 0:
        return PairCase.ODD_ONLY, k, odd
    if odd == (3,):
        return PairCase.TWO_THREE, k, odd
    if len(odd) == 1:
        return PairCase.TWO_TIMES_PRIME_POWER, k, odd
    return PairCase.GENERAL, k, odd


def pair_obstruction(x: int, sieve: PsiSieve | None = None) -> PairObstructionReport:
    """Classify x into its shape case and certify psi(x)^2 - x^2 is not a
    positive perfect square.

    Prefers the direct non-square witness on u1 or v1 (the cheapest
    certificate); the case-specific congruence witness is available via
    congruence_witness and used as a fallback.  x == 1 is rejected: u = 0
    degenerates the whole setup.
    """
    if x < 2:
        raise InputError("pair obstruction requires x >= 2")
    case, k, odd = _classify_shape(x, sieve)
    px = psi(x, sieve)
    u = px - x
    v = px + x
    d = math.gcd(u, v)
    u1 = u // d
    v1 = v // d
    if is_perfect_kth_power(u1, 2) is None:
        witness = Witness(
            "non-square",
            f"u1 = {u1} is not a perfect square",
            (("symbol_is_v1", 0), ("value", u1)),
        )
    elif is_perfect_kth_power(v1, 2) is None:
        witness = Witness(
            "non-square",
            f"v1 = {v1} is not a perfect square",
            (("symbol_is_v1", 1), ("value", v1)),
        )
    else:
        # Both parts are squares: u1*v1 = (y/d)^2 would be a square, i.e. a
        # genuine pair.  The case congruences below still refute it; if they
        # ever failed too we would be holding a counterexample.
        witness = congruence_witness(x, sieve)
        if not witness_holds(
            PairObstructionReport(x, u, v, d, u1, v1, case, witness)
        ):
            raise ArithmeticError(f"no obstruction found for x={x}: counterexample?")
    return PairObstructionReport(x, u, v, d, u1, v1, case, witness)


def congruence_witness(x: int, sieve: PsiSieve | None = None) -> Witness:
    """The case-specific congruence certificate for x, independent of any
    square test on u1/v1.  Mirrors the five-case analysis."""
    if x < 2:
        raise InputError("requires x >= 2")
    case, k, odd = _classify_shape(x, sieve)
    px = psi(x, sieve)
    u = px - x
    v = px + x
    d = math.gcd(u, v)
    u1, v1 = u // d, v // d
    if case is PairCase.POWER_OF_TWO:
        # u1 = 1, v1 = 5 explicitly
        return Witness(
            "non-square", "v1 = 5 is not a perfect square",
            (("symbol_is_v1", 1), ("value", v1)),
        )
    if case is PairCase.TWO_THREE:
        # u1 = 1, v1 = 3 explicitly
        return Witness(
            "non-square", "v1 = 3 is not a perfect square",
            (("symbol_is_v1", 1), ("value", v1)),
        )
    if case is PairCase.TWO_TIMES_PRIME_POWER:
        p = odd[0]
        if p % 4 == 1:
            l = (p - 1) // 4
            g = math.gcd(l + 1, 5 * l + 2)
            if g == 1:
                return Witness(
                    "mod5",
                    f"v1 = 5l + 2 = {v1} is 2 mod 5; squares are 0, 1, 4 mod 5",
                    (("l", l), ("v1", v1)),
                )
            # g == 3 forces 3 | p = 4l + 1, impossible for a prime p != 3
            return Witness(
                "gcd-drop",
                f"gcd(l+1, 5l+2) = 3 with l = {l} would force 3 | {p}",
                (("l", l), ("p", p), ("g", g)),
            )
        # p = 4l + 3: u1, v1 both odd; their gap is 2x/d, not 0 mod 8
    # ODD_ONLY, GENERAL and the 4l+3 subcase share the parity certificate.
    return Witness(
        "odd-square-gap",
        f"u1 = {u1}, v1 = {v1} are odd with v1 - u1 = {v1 - u1} "
        f"not divisible by 8, so they cannot both be odd squares",
        (("u1", u1), ("v1", v1)),
    )


def witness_holds(report: PairObstructionReport) -> bool:
    """Re-check a report: the identities plus the witness itself."""
    x, u, v, d = report.x, report.u, report.v, report.d
    u1, v1 = report.u1, report.v1
    px = u + x  # = psi(x)
    identities = (
        v - u == 2 * x
        and u + v == 2 * px
        and d == math.gcd(u, v)
        and d * u1 == u
        and d * v1 == v
        and math.gcd(u1, v1) == 1
    )
    if not identities:
        return False
    w = report.obstruction
    if w.kind == "non-square":
        val = w.get("value")
        expected = v1 if w.get("symbol_is_v1") else u1
        return val == expected and is_perfect_kth_power(val, 2) is None
    if w.kind == "odd-square-gap":
        return (
            w.get("u1") == u1
            and w.get("v1") == v1
            and u1 % 2 == 1
            and v1 % 2 == 1
            and (v1 - u1) % 8 != 0
        )
    if w.kind == "mod5":
        return w.get("v1") == v1 and v1 == 5 * w.get("l") + 2 and v1 % 5 == 2
    if w.kind == "gcd-drop":
        l, p, g = w.get("l"), w.get("p"), w.get("g")
        return (
            g == math.gcd(l + 1, 5 * l + 2)
            and g == 3
            and p == 4 * l + 1
            and p % 3 == 0
            and p != 3
        )
    return False


@dataclass(frozen=True, slots=True)
class TheoremScan:
    """Result of verify_theorem1.

    cases counts every scanned x by PairCase value, all five included.
    witnesses counts x by the kind of witness that refutes them, only the
    kinds that occur; a clean scan has sum(witnesses.values()) == checked.
    """

    checked: int
    failures: tuple[int, ...]
    cases: dict[str, int] = field(default_factory=dict, hash=False)
    witnesses: dict[str, int] = field(default_factory=dict, hash=False)


class _PairWindow(NamedTuple):
    """Per-x arrays of the scan kernel for one window of consecutive x.

    case indexes the PairCase members in definition order.  witness is 0
    when u1 is not a square, 1 when u1 is but v1 is not (the non-square
    witness pair_obstruction picks), and -1 when both are squares.
    suspect marks x where an identity fails or both parts are squares.
    """

    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    d: np.ndarray
    u1: np.ndarray
    v1: np.ndarray
    case: np.ndarray
    witness: np.ndarray
    suspect: np.ndarray


def _pair_window(lo: int, psi_window: np.ndarray) -> _PairWindow:
    """The pair_obstruction data for x = lo, lo+1, ... given their psi values.

    Needs nothing but psi of the window, so a segmented sieve can feed it.
    Below 2**32, x has at most nine distinct primes, so psi < 4x, u and v
    stay below 2**35 and int64 is exact;
    psi**2 - x**2 is never formed.  Because gcd(u1, v1) = 1 and u > 0,
    psi**2 - x**2 = d**2 * u1 * v1 is a square exactly when u1 and v1 both are.
    """
    px = psi_window.astype(np.int64)
    x = np.arange(lo, lo + px.size, dtype=np.int64)
    u = px - x
    v = px + x
    d = np.gcd(u, v)
    u1 = u // d
    v1 = v // d
    identities = (
        (v - u == 2 * x)
        & (u + v == 2 * px)
        & (d * u1 == u)
        & (d * v1 == v)
        & (np.gcd(u1, v1) == 1)
        & (u > 0)
    )
    u1_square = _floor_root_vec(u1, 2) ** 2 == u1
    v1_square = _floor_root_vec(v1, 2) ** 2 == v1
    witness = np.where(~u1_square, 0, np.where(~v1_square, 1, -1)).astype(np.int8)

    # x = 2^k * m with m odd; psi(x) = 3 * 2^(k-1) * psi(m) for k >= 1.  An
    # odd m > 1 is a prime power exactly when psi(m) - m divides m: p^r
    # gives p^(r-1).  With two or more distinct primes psi(m) - m exceeds
    # gcd(m, psi(m)), so it cannot divide m (it would divide psi(m) too,
    # and hence that gcd).
    two_k = x & -x
    m = x // two_k
    gap = np.where(two_k > 1, 2 * px // (3 * two_k), px) - m
    prime_power = (gap > 0) & (m % np.maximum(gap, 1) == 0)
    case = np.select(
        [m == 1, two_k == 1, prime_power & (m % 3 == 0), prime_power],
        [0, 1, 2, 3],
        default=4,
    ).astype(np.int8)
    suspect = ~identities | (witness < 0)
    return _PairWindow(x, u, v, d, u1, v1, case, witness, suspect)


def _pair_windows(sieve: PsiSieve, limit: int) -> Iterator[_PairWindow]:
    """The kernel over 2..limit, one window of _SCAN_WINDOW x at a time."""
    for lo in range(2, limit + 1, _SCAN_WINDOW):
        hi = min(lo + _SCAN_WINDOW, limit + 1)
        yield _pair_window(lo, sieve.psi[lo:hi])


def verify_theorem1(limit: int, sieve: PsiSieve | None = None) -> TheoremScan:
    """Confirm for every 2 <= x <= limit that psi(x)^2 - x^2 is not a
    positive perfect square.

    A numpy kernel checks the pair_obstruction identities and the square
    tests window by window.  Any x it cannot clear, because an identity
    fails or u1 and v1 are both squares, is listed in failures, and
    pair_obstruction is asked for its report: a failure that still gets a
    witness there means the kernel and the scalar path disagree.
    """
    if limit < 2:
        raise InputError("limit must be >= 2")
    if sieve is None or sieve.limit < limit:
        sieve = build_sieve(limit)
    cases = np.zeros(len(PairCase), dtype=np.int64)
    cleared = 0
    witnesses: dict[str, int] = {}
    failures: list[int] = []
    for w in _pair_windows(sieve, limit):
        cases += np.bincount(w.case, minlength=len(PairCase))
        cleared += int(np.count_nonzero(~w.suspect))
        for x in w.x[w.suspect].tolist():
            failures.append(x)
            try:
                kind = pair_obstruction(x, sieve).obstruction.kind
            except (ValueError, ArithmeticError):
                continue
            witnesses[kind] = witnesses.get(kind, 0) + 1
    if cleared:
        witnesses["non-square"] = witnesses.get("non-square", 0) + cleared
    return TheoremScan(
        checked=limit - 1,
        failures=tuple(failures),
        cases={c.value: int(n) for c, n in zip(PairCase, cases)},
        witnesses=witnesses,
    )


def triple_family(k: int) -> Solution:
    """The k-th member (2^k, 2^k, 2^(k-1)) of the power-of-two triple family.

    psi(2^k)^2 = 9 * 2^(2(k-1)) = 2^(2k) + 2^(2k) + 2^(2(k-1)) holds for
    every k >= 1; k is capped at 62 to keep the squared values inside the
    contractual 128-bit envelope.
    """
    if not 1 <= k <= 62:
        raise InputError("k must be in 1..62")
    a = 1 << k
    half = 1 << (k - 1)
    return Solution(
        kind=_QUADRATIC_TRIPLE,
        equal_entries=(a, a),
        free_entries=(half,),
        psi_value=3 * half,
        target=9 * half * half,
    )


class EqualPairBranch(Enum):
    POWER_OF_TWO_FAMILY = "PowerOfTwoFamily"
    ODD_BRANCH = "OddBranch"
    MIXED_BRANCH = "MixedBranch"


@dataclass(frozen=True, slots=True)
class Theorem2Report:
    """Classification of a candidate equal pair a = b in a quadratic triple.

    A and B (odd branch) or P and Q (mixed branch) are the products of
    (p_i + 1) and of p_i over the distinct odd primes of a.  F = A^2 - 2B^2
    and H = 9P^2 - 8Q^2 are signed.  c is present iff psi(a)^2 - 2a^2 is a
    positive perfect square, i.e. iff (a, a, c) really is a triple.
    """

    a: int
    branch: EqualPairBranch
    A: int | None = None
    B: int | None = None
    F: int | None = None
    P: int | None = None
    Q: int | None = None
    H: int | None = None
    c: int | None = None


def classify_equal_pair(a: int, sieve: PsiSieve | None = None) -> Theorem2Report:
    """Branch on the shape of a and compute the square obstruction data.

    The completing entry c is determined by direct arithmetic (not by
    trusting the branch), so a report with c set always corresponds to a
    verifiable triple.
    """
    if a < 2:
        raise InputError("classification requires a >= 2")
    fac = factorize(a, sieve if sieve is not None and a <= sieve.limit else None)
    k = fac.two_exponent()
    odd = fac.odd_primes()
    pa = psi(a, sieve)
    gap = pa * pa - 2 * a * a
    c = is_perfect_kth_power(gap, 2) if gap > 0 else None

    if k >= 1 and not odd:
        return Theorem2Report(a=a, branch=EqualPairBranch.POWER_OF_TWO_FAMILY, c=c)
    plus = 1
    prod = 1
    for q in odd:
        plus *= q + 1
        prod *= q
    if k == 0:
        return Theorem2Report(
            a=a,
            branch=EqualPairBranch.ODD_BRANCH,
            A=plus,
            B=prod,
            F=plus * plus - 2 * prod * prod,
            c=c,
        )
    return Theorem2Report(
        a=a,
        branch=EqualPairBranch.MIXED_BRANCH,
        P=plus,
        Q=prod,
        H=9 * plus * plus - 8 * prod * prod,
        c=c,
    )
