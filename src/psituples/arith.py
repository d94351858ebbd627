"""Exact integer arithmetic: factorization sieve, Dedekind psi, integer k-th roots.

Everything downstream (tuple verification, searches, obstruction reports)
consumes these primitives.  All functions are pure; a built sieve is
immutable and safe to share across threads and processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InputError",
    "Factorization",
    "PsiSieve",
    "build_sieve",
    "factorize",
    "psi",
    "int_kth_root",
    "is_perfect_kth_power",
]


class InputError(ValueError):
    """An argument outside what a function accepts: the caller's input is
    wrong, not the computation.  The command line exits 2 on it."""


@dataclass(frozen=True, slots=True)
class Factorization:
    """Prime-exponent form n = p1^a1 * ... * pr^ar, primes strictly increasing.

    n == 1 has an empty factor list.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def distinct_primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def odd_primes(self) -> tuple[int, ...]:
        """Distinct odd primes (the odd radical's support)."""
        return tuple(p for p, _ in self.factors if p != 2)

    def two_exponent(self) -> int:
        """Exponent of 2 in n (0 when n is odd)."""
        for p, a in self.factors:
            if p == 2:
                return a
        return 0


@dataclass(frozen=True)
class PsiSieve:
    """Smallest-prime-factor and psi tables for 1..limit.

    spf is uint32 with spf[1] == 1 as a sentinel; psi is uint64 with
    psi[1] == 1.  Storage is about 12 bytes per entry.  Arrays are marked
    read-only after construction.
    """

    limit: int
    spf: np.ndarray
    psi: np.ndarray

    def psi_at(self, n: int) -> int:
        """psi(n) as a plain Python int; n must be within the sieve."""
        if not 1 <= n <= self.limit:
            raise InputError(f"n={n} outside sieve range 1..{self.limit}")
        return int(self.psi[n])

    def spf_at(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise InputError(f"n={n} outside sieve range 1..{self.limit}")
        return int(self.spf[n])

    def max_psi(self) -> int:
        """Largest psi value on 1..limit (used to size search tables)."""
        return int(self.psi[1:].max()) if self.limit >= 1 else 1


def build_sieve(limit: int) -> PsiSieve:
    """Build the shared sieve for 1..limit in O(N log log N).

    psi is computed multiplicatively: every n starts at n, and each prime
    p <= sqrt(limit) rescales all of its multiples by (p+1)/p.  The division
    is exact at every step because each multiple of p still carries the
    factor p when its turn comes.  What is left of n once every power of
    those primes is divided out is 1 or its single prime factor above
    sqrt(limit); one vectorized step applies that last factor.
    """
    if limit < 1:
        raise InputError("sieve limit must be >= 1")
    if limit >= 2**32:
        raise InputError(
            f"sieve limit {limit} must be below 2**32: spf and the index are uint32"
        )
    spf = np.zeros(limit + 1, dtype=np.uint32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    idx = np.arange(limit + 1, dtype=np.uint32)
    unmarked = spf == 0
    spf[unmarked] = idx[unmarked]  # primes, plus the 0/1 sentinels

    psi_vals = np.arange(limit + 1, dtype=np.uint64)
    cofactor = idx  # reused: n with the powers of every prime <= sqrt(limit) divided out
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] != p:
            continue
        view = psi_vals[p::p]
        np.floor_divide(view, p, out=view)
        view *= p + 1
        q = p
        while q <= limit:
            view = cofactor[q::q]
            np.floor_divide(view, p, out=view)
            q *= p
    # n <= limit has at most one prime factor above sqrt(limit), to the first
    # power, so the cofactor is 1 or that prime c, still a factor of psi_vals
    c = cofactor[1:]
    np.floor_divide(psi_vals[1:], c, out=psi_vals[1:])
    c += c > 1
    psi_vals[1:] *= c
    spf.flags.writeable = False
    psi_vals.flags.writeable = False
    return PsiSieve(limit=limit, spf=spf, psi=psi_vals)


def _factorize_trial(n: int) -> Factorization:
    """Trial division up to sqrt(n); fine for spot checks of table entries."""
    original = n
    factors: list[tuple[int, int]] = []
    for p in (2, 3):
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            factors.append((p, a))
    d = 5
    while d * d <= n:
        if n % d == 0:
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            factors.append((d, a))
        d += 2 if d % 6 == 5 else 4  # skip multiples of 2 and 3
    if n > 1:
        factors.append((n, 1))
    return Factorization(original, tuple(factors))


def factorize(n: int, sieve: PsiSieve | None = None) -> Factorization:
    """Factor n into (prime, exponent) pairs with primes increasing.

    With a sieve the factorization walks the spf chain; without one it
    falls back to trial division.
    """
    if n < 1:
        raise InputError("factorize requires n >= 1")
    if n == 1:
        return Factorization(1, ())
    if sieve is None:
        return _factorize_trial(n)
    if n > sieve.limit:
        raise InputError(f"n={n} exceeds sieve limit {sieve.limit}")
    spf = sieve.spf
    factors: list[tuple[int, int]] = []
    m = n
    while m > 1:
        p = int(spf[m])
        a = 0
        while m % p == 0:
            m //= p
            a += 1
        factors.append((p, a))
    return Factorization(n, tuple(factors))


def psi(n: int, sieve: PsiSieve | None = None) -> int:
    """Dedekind psi: psi(n) = n * prod(1 + 1/p) over distinct primes p | n.

    psi(1) == 1.  Exact for any positive n; uses the sieve when it covers n.
    """
    if n < 1:
        raise InputError("psi requires n >= 1")
    if sieve is not None and n <= sieve.limit:
        return int(sieve.psi[n])
    result = n
    for p, _ in factorize(n).factors:
        result = result // p * (p + 1)
    return result


def int_kth_root(x: int, k: int) -> int:
    """floor(x ** (1/k)) exactly, for k in 2..5 and x >= 0.

    Float seed plus integer Newton correction; the final compare loops
    guarantee result**k <= x < (result+1)**k regardless of seed error.
    """
    if k not in (2, 3, 4, 5):
        raise InputError("k must be in 2..5")
    if x < 0:
        raise InputError("x must be nonnegative")
    if k == 2:
        return math.isqrt(x)
    if x == 0:
        return 0
    try:
        r = int(float(x) ** (1.0 / k))
    except OverflowError:
        r = 1 << -(-x.bit_length() // k)
    if r == 0:
        r = 1
    while True:
        nxt = ((k - 1) * r + x // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    while r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def is_perfect_kth_power(x: int, k: int) -> int | None:
    """The exact k-th root of x when x = r**k, otherwise None."""
    r = int_kth_root(x, k)
    return r if r**k == x else None


_INT64_MAX = 2**63 - 1
# Largest r with r**p <= _INT64_MAX, for each power p.
_INT64_ROOT_MAX = {p: int_kth_root(_INT64_MAX, p) for p in (2, 3, 4, 5)}


def _floor_root_vec(vals: np.ndarray, power: int) -> np.ndarray:
    """Vectorized floor(v ** (1/power)) for int64 v, exact on its whole domain.

    Domain: 0 <= v <= 2**63 - 1 for every power in 2..5 (negative v give
    0).  Roots are clamped to R_p = floor((2**63 - 1) ** (1/p)), which is
    3037000499, 2097151, 55108 and 6208 for p = 2..5, so r**p never
    overflows, and (r+1)**p is only formed for r < R_p.  The float seed
    is a few units off at most; the correction loop repeats until
    r**p <= v < (r+1)**p holds for every element, so the result does not
    rest on the seed's accuracy.
    """
    top = _INT64_ROOT_MAX[power]
    r = np.power(np.maximum(vals, 0).astype(np.float64), 1.0 / power).astype(np.int64)
    np.clip(r, 0, top, out=r)
    while True:
        up = (r < top) & (np.minimum(r + 1, top) ** power <= vals)
        down = (r > 0) & (r**power > vals)
        if not (up.any() or down.any()):
            return r
        r += up
        r -= down
