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
from enum import Enum
from typing import Iterator, NamedTuple

import numpy as np

from .arith import (
    InputError,
    _exact_root_vec,
    _integer,
    _Record,
    build_sieve,
    factorize,
    is_perfect_kth_power,
    psi,
    psi_segment,
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

# x per window of the Theorem-1 scan kernel.  Forming a window peaks at
# about 101 bytes per x (tracemalloc), so 4096 x keep one window near 0.4
# MB; windows of 8192 or 16384 x were no faster.
_SCAN_WINDOW = 1 << 12
# x per psi segment of the scan: the power of two at or above the larger
# of _SEGMENT_MIN and _SEGMENT_PER_PRIME times the number of primes up to
# sqrt(limit), so that psi_segment's per-prime slicing stays a few percent
# of the kernel (32768 up to about 5.3e5, 131072 at 1e7, 2**20 at 1e9),
# rounded up to a multiple of _SCAN_WINDOW.
_SEGMENT_MIN = 1 << 15
_SEGMENT_PER_PRIME = 256


class PairCase(Enum):
    POWER_OF_TWO = "PowerOfTwo"  # x = 2^k
    ODD_ONLY = "OddOnly"  # x odd, > 1
    TWO_THREE = "TwoThree"  # x = 2^k * 3^r
    TWO_TIMES_PRIME_POWER = "TwoTimesPrimePower"  # x = 2^k * p^r, p != 3
    GENERAL = "General"  # x = 2^k * (two or more odd primes)


class Witness(_Record):
    """A small machine-checkable fact killing the candidate.

    kinds:
      non-square      one of u1, v1 is not a perfect square
      odd-square-gap  u1, v1 odd with v1 - u1 not 0 mod 8, so they cannot
                      both be odd squares
      mod5            v1 = 5l + 2 is 2 mod 5, never a square residue
    """

    __slots__ = ("kind", "description", "values")

    def get(self, name: str) -> int:
        for key, val in self.values:
            if key == name:
                return val
        raise KeyError(name)


class PairObstructionReport(_Record):
    __slots__ = ("x", "u", "v", "d", "u1", "v1", "case_id", "obstruction")


def _classify_shape(x: int) -> tuple[PairCase, tuple[int, ...], tuple[int, ...]]:
    """(case, distinct odd primes, (x, u, v, d, u1, v1)) from the one
    factorization of x >= 2, with x bound as a Python int."""
    x = _integer(x, "x", 2)
    fac = factorize(x)
    px = fac.psi()
    u, v = px - x, px + x
    d = math.gcd(u, v)
    parts, odd = (x, u, v, d, u // d, v // d), fac.odd_primes()
    if not odd:
        return PairCase.POWER_OF_TWO, odd, parts
    if x % 2:
        return PairCase.ODD_ONLY, odd, parts
    if odd == (3,):
        return PairCase.TWO_THREE, odd, parts
    if len(odd) == 1:
        return PairCase.TWO_TIMES_PRIME_POWER, odd, parts
    return PairCase.GENERAL, odd, parts


def pair_obstruction(x: int) -> PairObstructionReport:
    """Classify x into its shape case and certify psi(x)^2 - x^2 is not a
    positive perfect square.

    Prefers the direct non-square witness on u1 or v1 (the cheapest
    certificate); the case-specific congruence witness is available via
    congruence_witness and used as a fallback.  x == 1 is rejected: u = 0
    degenerates the whole setup.
    """
    case, odd, (x, u, v, d, u1, v1) = _classify_shape(x)
    if is_perfect_kth_power(u1, 2) is None:
        witness = _non_square("u1", u1)
    elif is_perfect_kth_power(v1, 2) is None:
        witness = _non_square("v1", v1)
    else:
        # Both parts are squares: u1*v1 = (y/d)^2 would be a square, i.e. a
        # genuine pair.  The case congruences below still refute it; if they
        # ever failed too we would be holding a counterexample.
        witness = _congruence_witness(case, odd, u1, v1)
        if not witness_holds(
            PairObstructionReport(x, u, v, d, u1, v1, case, witness)
        ):
            raise ArithmeticError(f"no obstruction found for x={x}: counterexample?")
    return PairObstructionReport(x, u, v, d, u1, v1, case, witness)


def congruence_witness(x: int) -> Witness:
    """The case-specific congruence certificate for x, independent of any
    square test on u1/v1.  Mirrors the five-case analysis."""
    case, odd, (*_, u1, v1) = _classify_shape(x)
    return _congruence_witness(case, odd, u1, v1)


def _congruence_witness(case: PairCase, odd: tuple[int, ...], u1: int, v1: int) -> Witness:
    """congruence_witness from x's case, distinct odd primes, u1 and v1."""
    if case is PairCase.POWER_OF_TWO or case is PairCase.TWO_THREE:
        # u1 = 1 explicitly, and v1 = 5 (PowerOfTwo) or 3 (TwoThree)
        return _non_square("v1", v1)
    if case is PairCase.TWO_TIMES_PRIME_POWER:
        p = odd[0]
        if p % 4 == 1:
            # v1 = 5l + 2 needs gcd(l + 1, 5l + 2) = 1: that gcd divides 3,
            # and 3 | l + 1 would make p = 4l + 1 a multiple of 3
            l = (p - 1) // 4
            return Witness(
                "mod5",
                f"v1 = 5l + 2 = {v1} is 2 mod 5; squares are 0, 1, 4 mod 5",
                (("l", l), ("v1", v1)),
            )
        # p = 4l + 3: u1, v1 both odd; their gap is 2x/d, not 0 mod 8
    # ODD_ONLY, GENERAL and the 4l+3 subcase share the parity certificate.
    return Witness(
        "odd-square-gap",
        f"u1 = {u1}, v1 = {v1} are odd with v1 - u1 = {v1 - u1} "
        f"not divisible by 8, so they cannot both be odd squares",
        (("u1", u1), ("v1", v1)),
    )


def _non_square(symbol: str, value: int) -> Witness:
    """The witness that u1 or v1, as symbol names it, is not a perfect square."""
    return Witness(
        "non-square",
        f"{symbol} = {value} is not a perfect square",
        (("symbol_is_v1", int(symbol == "v1")), ("value", value)),
    )


def witness_holds(report: PairObstructionReport) -> bool:
    """Re-check a report against its x: the identities, with u + x equal to
    psi(x), plus the witness itself."""
    x, u, v, d = report.x, report.u, report.v, report.d
    u1, v1 = report.u1, report.v1
    identities = (
        x >= 2
        and u + x == psi(x)
        and v - u == 2 * x
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
    return False


class TheoremScan(_Record):
    """Result of verify_theorem1.

    cases counts every scanned x by PairCase value, all five included.
    witnesses counts x by the kind of witness that refutes them, only the
    kinds that occur; a clean scan has sum(witnesses.values()) == checked.
    Both default to a fresh empty dict, and neither enters the hash.
    """

    __slots__ = ("checked", "failures", "cases", "witnesses")

    def __init__(
        self,
        checked: int,
        failures: tuple[int, ...],
        cases: dict[str, int] | None = None,
        witnesses: dict[str, int] | None = None,
    ) -> None:
        cases = {} if cases is None else cases
        witnesses = {} if witnesses is None else witnesses
        super().__init__(checked, failures, cases, witnesses)

    def __hash__(self) -> int:
        return hash((self.checked, self.failures))


class _PairWindow(NamedTuple):
    """Per-x arrays of the scan kernel for one window of consecutive x.

    case indexes the PairCase members in definition order.  witness is 0
    when u1 is not a square, 1 when u1 is but v1 is not (the non-square
    witness pair_obstruction picks), and -1 when both are squares.
    suspect marks x where u <= 0 or both parts are squares.
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
    stay below 2**35 and int64 is exact; verify_theorem1 refuses larger
    limits.  psi**2 - x**2 is never formed.  Whatever psi is, u = psi - x
    and v = psi + x, and d = gcd(u, v) is not 0 because v - u = 2x is
    not, so d * u1 = u, d * v1 = v and gcd(u1, v1) = 1 hold by
    construction; only u > 0 can fail, and where it does x is suspect.
    Where u > 0, psi**2 - x**2 = d**2 * u1 * v1 is a square exactly when
    u1 and v1 both are, and each is tested by its rounded square root
    (_exact_root_vec).
    """
    px = psi_window.astype(np.int64)
    x = np.arange(lo, lo + px.size, dtype=np.int64)
    u = px - x
    v = px + x
    d = np.gcd(u, v)
    u1 = u // d
    v1 = v // d
    u1_square = _exact_root_vec(u1, 2)[1]
    v1_square = _exact_root_vec(v1, 2)[1]
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
    suspect = (u <= 0) | (witness < 0)
    return _PairWindow(x, u, v, d, u1, v1, case, witness, suspect)


def _segment_length(nprimes: int) -> int:
    """x per psi segment when nprimes primes lie up to sqrt(limit)."""
    n = 1 << (max(_SEGMENT_MIN, _SEGMENT_PER_PRIME * nprimes) - 1).bit_length()
    return -(-n // _SCAN_WINDOW) * _SCAN_WINDOW


def _pair_windows(limit: int) -> Iterator[_PairWindow]:
    """The kernel over 2..limit, one window of _SCAN_WINDOW x at a time.

    psi comes one segment at a time from psi_segment, so the scan holds
    one segment and one window's temporaries, whatever the limit.  The
    primes up to isqrt(limit) are counted once, to size the segments.
    """
    step = _segment_length(len(build_sieve(math.isqrt(limit)).primes()))
    for lo in range(2, limit + 1, step):
        hi = min(lo + step, limit + 1)
        psi_lo = psi_segment(lo, hi)
        for start in range(0, hi - lo, _SCAN_WINDOW):
            yield _pair_window(lo + start, psi_lo[start : start + _SCAN_WINDOW])
        del psi_lo  # freed before the next segment is built


def verify_theorem1(limit: int) -> TheoremScan:
    """Confirm for every 2 <= x <= limit that psi(x)^2 - x^2 is not a
    positive perfect square.

    A numpy kernel runs the pair_obstruction square tests window by window,
    on psi from a segmented sieve (_pair_windows), so that memory does not
    grow with the limit.  Any x the kernel cannot clear, because u <= 0 or
    u1 and v1 are both squares, is listed in failures, and
    pair_obstruction, which factorizes x on its own, is asked for its
    report: a failure that still gets a witness there means the kernel
    and the scalar path disagree.
    """
    limit = _integer(limit, "limit", 2)
    if limit >= 2**32:
        raise InputError(f"limit {limit} must be below 2**32: the scan kernel needs psi(x) < 4x")
    cases = np.zeros(len(PairCase), dtype=np.int64)
    cleared = 0
    witnesses: dict[str, int] = {}
    failures: list[int] = []
    for w in _pair_windows(limit):
        cases += np.bincount(w.case, minlength=len(PairCase))
        cleared += int(np.count_nonzero(~w.suspect))
        for x in w.x[w.suspect].tolist():
            failures.append(x)
            try:
                kind = pair_obstruction(x).obstruction.kind
            except ArithmeticError:
                continue
            witnesses[kind] = witnesses.get(kind, 0) + 1
        del w  # freed before the next window is formed
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
    every k >= 1; k is capped at 62, which keeps the squared values below
    2**128.
    """
    k = _integer(k, "k", 1, 62)
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


class Theorem2Report(_Record):
    """Classification of a candidate equal pair a = b in a quadratic triple.

    A and B (odd branch) or P and Q (mixed branch) are the products of
    (p_i + 1) and of p_i over the distinct odd primes of a.  F = A^2 - 2B^2
    and H = 9P^2 - 8Q^2 are signed.  c is present iff psi(a)^2 - 2a^2 is a
    positive perfect square, i.e. iff (a, a, c) really is a triple.
    """

    __slots__ = ("a", "branch", "A", "B", "F", "P", "Q", "H", "c")
    _defaults = dict.fromkeys(__slots__[2:])  # None for every field after branch


def classify_equal_pair(a: int) -> Theorem2Report:
    """Branch on the shape of a and compute the square obstruction data.

    The completing entry c is determined by direct arithmetic (not by
    trusting the branch), so a report with c set always corresponds to a
    verifiable triple.
    """
    a = _integer(a, "a", 2)
    fac = factorize(a)
    k = fac.two_exponent()
    odd = fac.odd_primes()
    pa = fac.psi()
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
