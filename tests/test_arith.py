"""Arithmetic core: sieve, factorization, psi, integer roots."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psituples import (
    build_sieve,
    factorize,
    int_kth_root,
    is_perfect_kth_power,
    psi,
    psi_segment,
)
from psituples import arith
from psituples.arith import _INT64_ROOT_MAX, _exact_root_vec, _floor_root_vec


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


# --- sieve construction ---------------------------------------------------


def test_sieve_limit_one():
    s = build_sieve(1)
    assert s.limit == 1
    assert s.psi_at(1) == 1


def test_sieve_small_values():
    s = build_sieve(10)
    assert s.psi_at(6) == 12  # 6 * (3/2) * (4/3)
    assert [s.psi_at(n) for n in range(1, 11)] == [1, 3, 4, 6, 6, 12, 8, 12, 12, 18]


def test_sieve_table_spot_value():
    assert build_sieve(600).psi_at(538) == 810  # 538 = 2 * 269


def test_sieve_rejects_zero():
    with pytest.raises(ValueError):
        build_sieve(0)


def test_sieve_rejects_uint32_overflow():
    # checked before anything is allocated
    with pytest.raises(ValueError, match="2\\*\\*32"):
        build_sieve(2**32)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        build_sieve(10**12)


def eratosthenes(n: int) -> np.ndarray:
    """is_prime[0..n] by the plain sieve of Eratosthenes, independent of build_sieve."""
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return is_prime


def test_sieve_prime_entries(sieve_100k):
    # psi(p) = p + 1 exactly at primes
    primes = np.flatnonzero(eratosthenes(sieve_100k.limit))
    psi_arr = np.asarray(sieve_100k.psi)
    assert np.all(psi_arr[primes] == primes.astype(np.uint64) + 1)


def test_sieve_growth_invariant(sieve_1m):
    # n + 1 <= psi(n) for n >= 2, equality exactly at primes
    n = sieve_1m.limit
    psi_arr = np.asarray(sieve_1m.psi)[2:]
    values = np.arange(2, n + 1, dtype=np.uint64)
    assert np.all(psi_arr >= values + 1)
    assert np.array_equal(psi_arr == values + 1, eratosthenes(n)[2:])


def test_sieve_immutable(sieve_1k):
    with pytest.raises(ValueError):
        sieve_1k.psi[5] = 0


# --- factorization ----------------------------------------------------------


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(538).factors == ((2, 1), (269, 1))
    assert factorize(4294967291).factors == ((4294967291, 1),)  # the largest prime below 2**32
    assert factorize(2**32 - 1).factors == ((3, 1), (5, 1), (17, 1), (257, 1), (65537, 1))


def test_factorize_rejects_bad_input():
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(min_value=1, max_value=200_000))
def test_factorization_invariants(n):
    fac = factorize(n)
    product = 1
    for p, a in fac.factors:
        assert a >= 1
        assert trial_is_prime(p)
        product *= p**a
    assert product == n
    primes = [p for p, _ in fac.factors]
    assert primes == sorted(set(primes))
    assert (fac.factors == ()) == (n == 1)
    assert fac.psi() == psi(n) == n * math.prod(p + 1 for p in primes) // math.prod(primes)


def test_factorize_sieve_agrees_with_trial(sieve_10k):
    # psi from the factorization is the sieve's psi for every n
    for n in range(1, 10_001):
        assert factorize(n).psi() == sieve_10k.psi_at(n)


# --- psi --------------------------------------------------------------------


def test_psi_examples():
    assert psi(1) == 1
    assert psi(8) == 12  # 3 * 2^(k-1) at 2^k
    assert psi(46) == 72
    assert psi(2**40) == 3 * 2**39


def test_psi_rejects_zero():
    with pytest.raises(ValueError):
        psi(0)


def test_psi_multiplicative_exhaustive(sieve_10k):
    # psi(m*n) = psi(m)*psi(n) for all coprime m, n with m*n <= 10^4
    pl = sieve_10k.psi.tolist()
    for m in range(1, 10_001):
        for n in range(1, 10_000 // m + 1):
            if math.gcd(m, n) == 1:
                assert pl[m * n] == pl[m] * pl[n]


def test_psi_prime_powers(sieve_1m):
    # psi(p^k) = p^(k-1) * (p+1) for every prime power <= 10^6
    for p in range(2, 1000):
        if not trial_is_prime(p):
            continue
        q = p
        k = 1
        while q <= 1_000_000:
            assert sieve_1m.psi_at(q) == p ** (k - 1) * (p + 1)
            q *= p
            k += 1


def test_psi_sieve_matches_trial_division(sieve_100k):
    pl = sieve_100k.psi.tolist()
    for n in range(1, 100_001):
        assert psi(n) == pl[n]


@pytest.mark.parametrize("limit", [
    1, 2, 3, 4,
    10_007,  # a prime: itself the cofactor left above sqrt(limit)
    10_200, 10_201,  # 101**2 - 1 and 101**2: 101 above, then at sqrt(limit)
    16_384,  # 2**14
    # sqrt(limit) is the last p the prime loop visits:
    9, 4_489,  # 3**2 and 67**2: sqrt(limit) is a prime
    16, 14_641,  # 4**2 and 121**2: sqrt(limit) is a prime square
    4_096,  # 64**2: sqrt(limit) is a power of two
])
def test_psi_sieve_at_edge_limits(limit):
    sieve = build_sieve(limit)
    assert sieve.psi.tolist() == [0] + [psi(n) for n in range(1, limit + 1)]
    assert sieve.psi.nbytes == 8 * (limit + 1)


# --- psi segments -------------------------------------------------------------


def primes_to(n: int) -> list[int]:
    return np.flatnonzero(eratosthenes(n)).tolist() if n >= 2 else []


def test_sieve_primes_are_the_primes(sieve_100k):
    assert build_sieve(1).primes().tolist() == []
    assert sieve_100k.primes().tolist() == primes_to(100_000)


def segment_edges(top: int) -> list[tuple[int, int]]:
    """(lo, hi) pairs whose edges fall where psi_segment could slip: lo = 1,
    length 1, primes, p**2 - 1 / p**2 / p**2 + 1, powers of two and p**k."""
    points = set()
    for p in primes_to(math.isqrt(top)):
        points.update((p, p * p - 1, p * p, p * p + 1))
        q = p
        while q <= top:
            points.add(q)
            q *= p
    points.update((9973, 10007, 99991))  # primes above sqrt(top)
    points = sorted(n for n in points if 1 <= n <= top)
    edges = [(1, 2), (1, 100), (1, top + 1)]
    edges += [(n, n + 1) for n in points]  # length 1
    edges += [(n, min(n + 37, top + 1)) for n in points[::3]]  # starting on an edge
    edges += [(max(n - 36, 1), n + 1) for n in points[1::3]]  # ending on an edge
    edges += [(n, m + 1) for n, m in zip(points[::5], points[4::5])]  # both
    return edges


def test_psi_segment_equals_build_sieve_and_trial_division(sieve_100k):
    table = sieve_100k.psi.tolist()
    for lo, hi in segment_edges(100_000):
        got = psi_segment(lo, hi)
        assert got.dtype == np.uint64 and got.size == hi - lo
        assert got.tolist() == table[lo:hi], (lo, hi)
        if hi - lo <= 37:
            assert got.tolist() == [psi(n) for n in range(lo, hi)], (lo, hi)


def test_psi_segment_sieves_its_own_primes(sieve_100k):
    # a caller's prime list could stop short of sqrt(hi - 1) (the primes to
    # 1000 at 1009**2 and at 10**7) or hold a composite (4 at 96..100)
    assert psi_segment(1009**2, 1009**2 + 1).tolist() == [1019090] == [psi(1009**2)]
    lo = 10**7
    assert psi_segment(lo, lo + 1000).tolist() == [psi(n) for n in range(lo, lo + 1000)]
    assert psi_segment(96, 101).tolist() == [psi(n) for n in range(96, 101)]
    assert psi_segment(50_000, 70_001).tolist() == sieve_100k.psi[50_000:70_001].tolist()
    assert psi_segment(0, 5).tolist() == [0, 1, 3, 4, 6]  # psi(0) is 0


def test_psi_segment_at_the_uint32_top():
    # 2**32 - 1 = 3 * 5 * 17 * 257 * 65537; the cofactors are uint32
    top = 2**32
    got = psi_segment(top - 200, top).tolist()
    assert got == [psi(n) for n in range(top - 200, top)]
    assert got[-1] == 4 * 6 * 18 * 258 * 65538


def test_psi_segment_refuses_bad_ranges():
    for lo, hi in ((5, 5), (6, 5), (-1, 3), (2**32 - 1, 2**32 + 1)):
        with pytest.raises(ValueError, match="psi segment"):
            psi_segment(lo, hi)


def test_psi_segment_over_the_budget_allocates_nothing(monkeypatch):
    # 13 B per entry at the peak: a budget one byte short refuses, exactly
    # enough runs
    arange = np.arange
    calls = []
    monkeypatch.setattr(np, "arange", lambda *a, **k: calls.append(a) or arange(*a, **k))
    monkeypatch.setattr(arith, "_memory_budget", lambda: 13 * 1000 - 1)
    with pytest.raises(ValueError, match="needs 13000 bytes, over the memory budget of 12999"):
        psi_segment(1000, 2000)
    assert calls == []
    monkeypatch.setattr(arith, "_memory_budget", lambda: 13 * 1000)
    assert psi_segment(1000, 2000).tolist() == [psi(n) for n in range(1000, 2000)]


# --- integer roots ----------------------------------------------------------


def test_root_examples():
    assert int_kth_root(0, 2) == 0
    assert int_kth_root(13824, 3) == 24
    assert int_kth_root(13823, 3) == 23
    # past 2**53 a float seed can land far below the root
    assert int_kth_root(3**150 - 1, 3) == 3**50 - 1
    assert int_kth_root((10**40 + 1) ** 3 - 1, 3) == 10**40
    for r in (2**200 - 1, 2**200 + 1):
        for k in (3, 4, 5):
            assert int_kth_root(r**k - 1, k) == r - 1
            assert int_kth_root(r**k, k) == r
            assert int_kth_root(r**k + 1, k) == r


def test_perfect_power_examples():
    assert is_perfect_kth_power(1296, 2) == 36
    assert is_perfect_kth_power(5, 2) is None
    assert is_perfect_kth_power(1, 5) == 1


def test_root_rejects_bad_k():
    with pytest.raises(ValueError):
        int_kth_root(10, 6)
    with pytest.raises(ValueError):
        int_kth_root(-1, 2)


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=(1 << 128) - 1), st.sampled_from([2, 3, 4, 5]))
def test_root_exactness_128_bit(x, k):
    r = int_kth_root(x, k)
    assert r**k <= x < (r + 1) ** k


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([2, 3, 4, 5]))
def test_perfect_power_round_trip(r, k):
    assert is_perfect_kth_power(r**k, k) == r


# --- the vectorized perfect-power test ---------------------------------------


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_exact_root_at_the_int64_edge(p):
    top = _INT64_ROOT_MAX[p]
    assert top**p <= 2**63 - 1 < (top + 1) ** p
    r = np.arange(top - 999, top + 1, dtype=np.int64)
    powers = r**p
    roots, hits = _exact_root_vec(powers, p)
    assert hits.all() and (roots == r).all()
    for off in (-1, 1):  # top**p + 1 stays below 2**63: 2**63 - 1 is no power
        assert not _exact_root_vec(powers + off, p)[1].any()
    roots, hits = _exact_root_vec(np.array([0, 1, 2**63 - 1], dtype=np.int64), p)
    assert hits.tolist() == [True, True, False]
    assert roots[:2].tolist() == [0, 1]
    assert roots[2] == top  # clipped, so that roots**p cannot overflow


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_exact_root_agrees_with_floor_root(p):
    rng = np.random.default_rng(1213 + p)
    vals = rng.integers(-(2**20), 2**63 - 1, size=10**6, dtype=np.int64, endpoint=True)
    # half of them near p-th powers, so that hits occur
    r = rng.integers(0, _INT64_ROOT_MAX[p], size=vals.size // 2, dtype=np.int64, endpoint=True)
    vals[::2] = np.maximum(r**p + rng.integers(-1, 2, size=r.size), 0)
    roots, hits = _exact_root_vec(vals, p)
    floor = _floor_root_vec(vals, p)
    assert (hits == (floor**p == vals)).all()
    assert (roots[hits] == floor[hits]).all()
    assert hits[::2].sum() > vals.size // 8


@pytest.mark.parametrize("p", [3, 4, 5])
def test_exact_root_hits_every_power_in_int64(p):
    r = np.arange(_INT64_ROOT_MAX[p] + 1, dtype=np.int64)  # all of them, at most 2**21
    roots, hits = _exact_root_vec(r**p, p)
    assert hits.all() and (roots == r).all()
