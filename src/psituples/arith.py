"""Exact integer arithmetic: the psi sieve, factorization, Dedekind psi, integer k-th roots.

Everything downstream (tuple verification, searches, obstruction reports)
consumes these primitives.  All functions are pure; a built sieve is
immutable and safe to share across threads and processes.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
from operator import attrgetter, index
from typing import NoReturn

import numpy as np

__all__ = [
    "InputError",
    "Factorization",
    "PsiSieve",
    "build_sieve",
    "psi_segment",
    "factorize",
    "psi",
    "int_kth_root",
    "is_perfect_kth_power",
]


class InputError(ValueError):
    """An argument outside what a function accepts: the caller's input is
    wrong, not the computation.  The command line exits 2 on it."""


def _integer(value: object, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """value as a Python int, bound through operator.index: Python and
    numpy integers pass; floats (2.0 included), strings, None and a value
    outside lo..hi (None leaves that side open) raise InputError, which
    names the argument.  Every public function binds its integers here."""
    try:
        n = index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
    if (lo is not None and n < lo) or (hi is not None and n > hi):
        allowed = f">= {lo}" if hi is None else f"<= {hi}" if lo is None else f"in {lo}..{hi}"
        raise InputError(f"{name} must be {allowed}, got {n}")
    return n


class _Record:
    """Base of the package's immutable value classes.

    A subclass lists its two or more fields, in order, as __slots__, and
    the defaults of its trailing fields, if it has any, in _defaults.  The
    __init__ here binds arguments to the slots through the signature built
    from them, TypeError included; a subclass writes its own __init__ only
    to validate input or to make a fresh default, and passes every field
    on to this one, positionally.  From the slots this base gives what a
    frozen dataclass gives: the signature help() shows, equality and hash
    over the field tuple, the dataclass repr, pickling through the
    constructor, and AttributeError on assignment or deletion.
    """

    # A plain class costs nothing to define, where a dataclass execs about
    # six generated methods per class at import, in every process.
    __slots__ = ()
    _defaults: dict[str, object] = {}

    # object.__setattr__, bound to the instance: the one way past the
    # __setattr__ below, and cheaper per call than naming it in full.
    _set = object.__setattr__

    def __init_subclass__(cls) -> None:
        # the field tuple; attrgetter returns a tuple for two or more names
        cls._values = attrgetter(*cls.__slots__)
        if cls.__init__ is _Record.__init__:
            # raises ValueError if a field without a default follows one with
            kind, empty = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty
            cls.__signature__ = inspect.Signature(
                inspect.Parameter(name, kind, default=cls._defaults.get(name, empty))
                for name in cls.__slots__
            )

    def __init__(self, *args: object, **kwargs: object) -> None:
        if kwargs or len(args) != len(self.__slots__):
            bound = self.__signature__.bind(*args, **kwargs)
            bound.apply_defaults()
            args = bound.args
        for name, value in zip(self.__slots__, args):
            self._set(name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> NoReturn:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> NoReturn:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values(self)


class Factorization(_Record):
    """Prime-exponent form n = p1^a1 * ... * pr^ar, primes strictly increasing.

    n == 1 has an empty factor list.
    """

    __slots__ = ("n", "factors")

    def psi(self) -> int:
        """Dedekind psi of n: n * prod(1 + 1/p) over its distinct primes p."""
        primes = [p for p, _ in self.factors]
        return self.n // math.prod(primes) * math.prod(p + 1 for p in primes)

    def odd_primes(self) -> tuple[int, ...]:
        """Distinct odd primes (the odd radical's support)."""
        return tuple(p for p, _ in self.factors if p != 2)

    def two_exponent(self) -> int:
        """Exponent of 2 in n (0 when n is odd)."""
        for p, a in self.factors:
            if p == 2:
                return a
        return 0


class PsiSieve(_Record):
    """The psi table for 1..limit: uint64, psi[1] == 1, 8 bytes per entry.

    The array is marked read-only after construction.
    """

    __slots__ = ("limit", "psi")

    def primes(self) -> np.ndarray:
        """The primes up to limit: the n with psi(n) = n + 1, as int64."""
        return np.flatnonzero(self.psi == np.arange(1, self.limit + 2, dtype=np.uint64))

    def psi_at(self, n: int) -> int:
        """psi(n) as a plain Python int; n must be within the sieve."""
        return int(self.psi[_integer(n, "n", 1, self.limit)])


@functools.cache
def _memory_budget() -> int:
    """Bytes a computation's arrays may take: half of the available memory.

    MemAvailable from /proc/meminfo where it exists, else the available
    (or, failing that, all) physical pages from sysconf.  Read once per
    process: a pair-sum table built per call (decompose_sum_of_powers
    without a table) would otherwise read /proc/meminfo every time.
    """
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024 // 2
    except OSError:
        pass
    pages = "SC_AVPHYS_PAGES" if "SC_AVPHYS_PAGES" in os.sysconf_names else "SC_PHYS_PAGES"
    return os.sysconf(pages) * os.sysconf("SC_PAGE_SIZE") // 2


def _check_memory(need: int, what: str, detail: str = "") -> None:
    """Refuse what would take more than _memory_budget: raise InputError
    "<what> needs <need> bytes<detail>, over the memory budget of ...".
    The one budget check, which every builder calls before it allocates."""
    budget = _memory_budget()
    if need > budget:
        raise InputError(
            f"{what} needs {need} bytes{detail}, over the memory budget of {budget} bytes"
        )


def build_sieve(limit: int) -> PsiSieve:
    """Build the psi table for 1..limit in O(N log log N): psi_segment over
    0..limit, with psi[0] = 0.

    limit must be below 2**32, because the cofactors and the index are
    uint32; psi_segment refuses a larger one before it allocates.  The
    build peaks at 13 bytes per entry and keeps 8; a build whose peak
    would exceed _memory_budget raises InputError before the table is
    allocated.
    """
    limit = _integer(limit, "limit", 1)
    psi_vals = psi_segment(0, limit + 1)
    psi_vals.flags.writeable = False
    return PsiSieve(limit=limit, psi=psi_vals)


def psi_segment(lo: int, hi: int) -> np.ndarray:
    """psi(n) for lo <= n < hi as a uint64 array.

    psi is multiplied together from its prime-power factors: every n starts
    at 1, and each prime p up to sqrt(hi - 1) multiplies its multiples in
    the segment, from the first one >= lo, by p + 1, and the multiples of
    each higher power of p by one more p.  Those primes are the n with
    psi(n) = n + 1 in build_sieve(isqrt(hi - 1)), a table of about sqrt(hi)
    entries.  A uint32 cofactor array tracks what is left of n once every
    power of the primes so far is divided out.  At the end it is 1, the one
    prime factor c of n above sqrt(hi - 1), which contributes c + 1, or 0
    for n = 0 (a multiple of every power), whose psi it makes 0.  The
    segment peaks at 13 bytes per entry (psi, the cofactors and one mask)
    and returns 8; a segment whose peak would exceed _memory_budget raises
    InputError before it allocates.
    """
    lo, hi = _integer(lo, "lo"), _integer(hi, "hi")
    if not 0 <= lo < hi <= 2**32:
        raise InputError(f"psi segment [{lo}, {hi}) must satisfy 0 <= lo < hi <= 2**32")
    _check_memory(13 * (hi - lo), f"the psi segment [{lo}, {hi})")
    root = math.isqrt(hi - 1)
    primes = build_sieve(root).primes().tolist() if root > 1 else []
    psi_vals = np.ones(hi - lo, dtype=np.uint64)
    cofactor = np.arange(lo, hi, dtype=np.uint32)
    for p in primes:
        q, factor = p, p + 1
        while q < hi:
            psi_vals[-lo % q :: q] *= factor
            view = cofactor[-lo % q :: q]
            np.floor_divide(view, p, out=view)
            q, factor = q * p, p
    # n < hi has at most one prime factor above sqrt(hi - 1), to the first
    # power, so the cofactor is 1 or that prime; n = 0 keeps 0
    cofactor += cofactor > 1
    psi_vals *= cofactor
    return psi_vals


def factorize(n: int) -> Factorization:
    """Factor n into (prime, exponent) pairs with primes increasing.

    Trial division by 2, 3 and then 6k +- 1 up to sqrt(n): about 0.4 ms for
    n near 2**32.  Only the scalar explainers call it; the batch kernels
    build the psi sieve.
    """
    n = _integer(n, "n", 1)
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


def psi(n: int) -> int:
    """Dedekind psi: psi(n) = n * prod(1 + 1/p) over distinct primes p | n.

    psi(1) == 1.  Exact for any positive integer n, by trial division.
    """
    return factorize(n).psi()


def int_kth_root(x: int, k: int) -> int:
    """floor(x ** (1/k)) exactly, for k in 2..5 and x >= 0.

    math.isqrt for k = 2.  For k = 3..5, integer Newton from
    2**ceil(bits(x) / k), which is above the root: from above, each step
    falls and stays at or above the floor (AM-GM), so the first step that
    no longer falls stops at the floor.  No float is involved.
    """
    x, k = _integer(x, "x", 0), _integer(k, "k", 2, 5)
    if k == 2:
        return math.isqrt(x)
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // k)
    while True:
        nxt = ((k - 1) * r + x // r ** (k - 1)) // k
        if nxt >= r:
            return r
        r = nxt


def is_perfect_kth_power(x: int, k: int) -> int | None:
    """The exact k-th root of x when x = r**k, otherwise None."""
    x, k = _integer(x, "x", 0), _integer(k, "k", 2, 5)
    r = int_kth_root(x, k)
    return r if r**k == x else None


_INT64_MAX = 2**63 - 1
# Largest r with r**p <= _INT64_MAX, for each power p.
_INT64_ROOT_MAX = {p: int_kth_root(_INT64_MAX, p) for p in (2, 3, 4, 5)}


def _floor_root_vec(vals: np.ndarray, power: int) -> np.ndarray:
    """Vectorized floor(v ** (1/power)) for int64 v, exact on 0 <= v <=
    2**63 - 1 for every power in 2..5 (negative v give 0): the rounded
    root of _exact_root_vec, which is the floor or one above it, less one
    where its power-th power exceeds v and it is above 0."""
    r = _exact_root_vec(vals, power)[0]
    r -= (r > 0) & (r**power > vals)
    return r


def _exact_root_vec(vals: np.ndarray, power: int) -> tuple[np.ndarray, np.ndarray]:
    """(roots, hits) for int64 vals: hits[i] is whether vals[i] is a
    power-th power, and then roots[i] is its root.

    Exact on 0 <= v <= 2**63 - 1 for every power in 2..5 (negative v never
    hit).  The float root of v (sqrt, cbrt or pow) is within a few units
    in the last place of the true root x < 2**32, below 2e-6, so rint
    returns an integer within 1/2 + 2e-6 of x: floor(x) or floor(x) + 1,
    and x itself when x is an integer.  It is clipped to 0..R_p =
    floor((2**63 - 1) ** (1/p)), which is 3037000499, 2097151, 55108 and
    6208 for p = 2..5; as floor(x) <= R_p, the clip keeps it floor(x) or
    one above, and its p-th power never overflows.  So a v that is not a
    p-th power never equals that power, and where there is no hit,
    roots[i] is the floor or one above it.  One float pass, done in place
    in one buffer, and one integer power per value.
    """
    f = vals.astype(np.float64)
    np.maximum(f, 0, out=f)
    if power == 2:
        np.sqrt(f, out=f)
    elif power == 3:
        np.cbrt(f, out=f)
    else:
        np.power(f, 1.0 / power, out=f)
    np.rint(f, out=f)
    np.clip(f, 0, _INT64_ROOT_MAX[power], out=f)
    roots = f.astype(np.int64)
    del f
    return roots, roots**power == vals
