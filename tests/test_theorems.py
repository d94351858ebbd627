"""Theorem lab: pair obstructions, the exhaustive scan, equal-pair branches."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psituples import (
    EqualPairBranch,
    PairCase,
    SearchConfig,
    TheoremScan,
    build_sieve,
    classify_equal_pair,
    congruence_witness,
    kind_by_name,
    pair_obstruction,
    psi,
    psi_segment,
    search,
    triple_family,
    verify_solution,
    verify_theorem1,
    witness_holds,
)
from psituples import theorems
from psituples.theorems import PairObstructionReport, _pair_window, _pair_windows


# --- case classification and witnesses --------------------------------------


def test_obstruction_case1_power_of_two():
    r = pair_obstruction(8)
    assert r.case_id is PairCase.POWER_OF_TWO
    assert (r.u, r.v, r.d, r.u1, r.v1) == (4, 20, 4, 1, 5)
    assert "v1 = 5" in r.obstruction.description
    assert witness_holds(r)


def test_obstruction_case2_odd():
    r = pair_obstruction(9)
    assert r.case_id is PairCase.ODD_ONLY
    assert (r.u, r.v, r.d, r.u1, r.v1) == (3, 21, 3, 1, 7)
    assert witness_holds(r)


def test_obstruction_case3_two_three():
    r = pair_obstruction(12)
    assert r.case_id is PairCase.TWO_THREE
    assert (r.u, r.v, r.d, r.u1, r.v1) == (12, 36, 12, 1, 3)
    assert witness_holds(r)


def test_obstruction_case_assignment():
    assert pair_obstruction(2).case_id is PairCase.POWER_OF_TWO
    assert pair_obstruction(45).case_id is PairCase.ODD_ONLY
    assert pair_obstruction(108).case_id is PairCase.TWO_THREE
    assert pair_obstruction(14).case_id is PairCase.TWO_TIMES_PRIME_POWER
    assert pair_obstruction(50).case_id is PairCase.TWO_TIMES_PRIME_POWER
    assert pair_obstruction(30).case_id is PairCase.GENERAL


def test_obstruction_rejects_one():
    with pytest.raises(ValueError):
        pair_obstruction(1)


def test_congruence_witnesses_hold_per_case():
    # the case-specific certificates, independent of square tests on u1/v1
    for x in (2, 64, 9, 225, 12, 96, 14, 98, 26, 50, 30, 210, 308):
        r = pair_obstruction(x)
        alt = PairObstructionReport(
            r.x, r.u, r.v, r.d, r.u1, r.v1, r.case_id, congruence_witness(x)
        )
        assert witness_holds(alt), x


@pytest.mark.parametrize("x", [9, 30, 1000003, 2**20])
def test_forged_gcd_drop_witness_is_rejected(x):
    # no prime p = 4l + 1 has gcd(l + 1, 5l + 2) = 3, so no report carries
    # this kind; one built by hand refutes nothing about x
    r = pair_obstruction(x)
    forged = theorems.Witness("gcd-drop", "", (("l", 2), ("p", 9), ("g", 3)))
    assert witness_holds(r)
    assert not witness_holds(
        PairObstructionReport(r.x, r.u, r.v, r.d, r.u1, r.v1, r.case_id, forged)
    )


@pytest.mark.parametrize("px", [10, 6])
def test_report_on_a_wrong_psi_is_rejected(px):
    # psi(7) = 8; with 10 every identity but u + x = psi(x) holds and u1 = 3
    # is no square, and with 6, u1 = -1 is negative
    x = 7
    u, v = px - x, px + x
    d = math.gcd(u, v)
    witness = theorems._non_square("u1", u // d)
    report = PairObstructionReport(x, u, v, d, u // d, v // d, PairCase.ODD_ONLY, witness)
    assert witness_holds(report) is False


def test_mod5_witness_for_4l_plus_1():
    # x = 2 * 13: p = 13 = 4*3 + 1, u1 = l + 1 = 4 is square, v1 = 5l + 2 = 17
    r = pair_obstruction(26)
    assert r.case_id is PairCase.TWO_TIMES_PRIME_POWER
    assert (r.u1, r.v1) == (4, 17)
    assert "v1 = 17" in r.obstruction.description
    w = congruence_witness(26)
    assert w.kind == "mod5" and w.get("l") == 3


def test_identities_to_2000(sieve_10k):
    for x in range(2, 2001):
        r = pair_obstruction(x)
        assert r.u + r.v == 2 * sieve_10k.psi_at(x)
        assert r.v - r.u == 2 * x
        assert r.d * r.u1 == r.u and r.d * r.v1 == r.v
        assert math.gcd(r.u1, r.v1) == 1
        assert witness_holds(r)


# --- exhaustive scan ---------------------------------------------------------


def test_verify_theorem1_tiny():
    assert verify_theorem1(2).failures == ()
    scan = verify_theorem1(10)
    assert scan.checked == 9 and scan.failures == ()


def test_verify_theorem1_rejects_bad_limit():
    with pytest.raises(ValueError):
        verify_theorem1(1)


CASES = [c.value for c in PairCase]


def scalar_rows(limit, lo=2):
    """(x, u, v, case) per x in lo..limit, from the scalar explainer, whose
    witness must be the non-square one on every x the scan clears."""
    rows = []
    for x in range(lo, limit + 1):
        r = pair_obstruction(x)
        assert r.obstruction.kind == "non-square", x
        rows.append((x, r.u, r.v, r.case_id.value))
    return rows


def window_rows(windows):
    rows = []
    for w in windows:
        assert not w.suspect.any()
        for x, u, v, case in zip(*(a.tolist() for a in (w.x, w.u, w.v, w.case))):
            rows.append((x, u, v, CASES[case]))
    return rows


def expected_scan(rows):
    cases = Counter(row[3] for row in rows)
    return TheoremScan(
        checked=len(rows),
        failures=(),
        cases={c: cases[c] for c in CASES},
        witnesses={"non-square": len(rows)},
    )


@pytest.fixture(scope="module")
def scalar_100k():
    return scalar_rows(100_000)


def sieve_rows(sieve, limit, window):
    """The kernel's rows for 2..limit, fed windows of a whole sieve's psi."""
    return window_rows(
        _pair_window(lo, sieve.psi[lo : min(lo + window, limit + 1)])
        for lo in range(2, limit + 1, window)
    )


def test_scan_kernel_equals_pair_obstruction_to_100k(sieve_100k, scalar_100k):
    assert window_rows(_pair_windows(100_000)) == scalar_100k
    assert sieve_rows(sieve_100k, 100_000, 4096) == scalar_100k


@pytest.mark.parametrize("window", [1, 2, 7])
@pytest.mark.parametrize("limit", [2003, 2004])
def test_scan_kernel_window_edges(monkeypatch, scalar_100k, window, limit):
    # 2003 ends a window of 2 and of 7; 2004 opens one
    monkeypatch.setattr(theorems, "_SCAN_WINDOW", window)
    assert window_rows(_pair_windows(limit)) == scalar_100k[: limit - 1]
    assert verify_theorem1(limit) == expected_scan(scalar_100k[: limit - 1])


@pytest.mark.parametrize("limit", [2, 3, 65537])
def test_verify_theorem1_histograms(scalar_100k, limit):
    assert verify_theorem1(limit) == expected_scan(scalar_100k[: limit - 1])


# (limit, window, _SEGMENT_MIN): segments of 4 or 64 x, rounded up to a
# multiple of the window, so that a segment ends where a window does or is
# a single window.  At 65537, windows of 1 and 2 take ~15 s per scan.
SEGMENTED_CASES = [
    (limit, window, segment)
    for limit in (2, 3, 4, 2003, 2004)
    for window in (1, 2, 7)
    for segment in (3, 40)
] + [(65537, 7, 40), (65537, 4096, 3)]


@pytest.mark.parametrize("limit, window, segment", SEGMENTED_CASES)
def test_segmented_scan_equals_the_sieve_fed_scan(
    monkeypatch, sieve_100k, scalar_100k, limit, window, segment
):
    monkeypatch.setattr(theorems, "_SCAN_WINDOW", window)
    monkeypatch.setattr(theorems, "_SEGMENT_MIN", segment)
    monkeypatch.setattr(theorems, "_SEGMENT_PER_PRIME", 0)
    scan = verify_theorem1(limit)  # equality covers both histograms
    assert scan == expected_scan(scalar_100k[: limit - 1])
    if limit <= 2004:
        rows = window_rows(_pair_windows(limit))
        assert rows == sieve_rows(sieve_100k, limit, window) == scalar_100k[: limit - 1]


def test_segment_length():
    # a power of two past 256 x per prime up to sqrt(limit), at least 32768
    assert theorems._SCAN_WINDOW == 4096
    assert [theorems._segment_length(n) for n in (0, 128, 129, 446, 3401)] == [
        32768, 32768, 65536, 131072, 2**20,  # 446 primes to sqrt(1e7), 3401 to sqrt(1e9)
    ]


def scan_peak(limit):
    tracemalloc.start()
    try:
        verify_theorem1(limit)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_segmented_scan_memory_does_not_grow_with_the_limit(monkeypatch):
    # tracemalloc sees numpy's buffers.  The peak is the larger of a segment
    # being built (13 B per x) and a segment's psi (8 B per x) with one
    # window's temporaries (test below): 0.61 MB at 2**18 and 0.90 MB at
    # 2**21 (numpy 2.4), where a whole sieve would take 3.4 and 27 MB.
    verify_theorem1(100)  # first-call allocations stay out of the peaks
    for limit in (2**18, 2**21):
        segment = theorems._segment_length(len(build_sieve(math.isqrt(limit)).primes()))
        bound = max(13 * segment, 8 * segment + 92 * theorems._SCAN_WINDOW) + 2**16
        assert scan_peak(limit) <= bound, limit
    # with the segment held at 32768 x the peak is the same at both limits
    monkeypatch.setattr(theorems, "_SEGMENT_PER_PRIME", 0)
    low, high = scan_peak(2**18), scan_peak(2**21)
    assert abs(high - low) <= 2**13


def test_scan_kernel_case_equals_the_scalar_case_where_g_is_largest():
    # g = 2 * psi(x) / 3 - x, whose divisibility into x decides the prime
    # power cases, grows with x; one window of 1024 x at 10**9 (which is
    # 2**9 * 5**9), one around 3 * 2**30 (TwoThree) and one just below 2**32
    seen = set()
    for lo in (10**9, 3 * 2**30 - 512, 2**32 - 1024):
        w = _pair_window(lo, psi_segment(lo, lo + 1024))
        rows = scalar_rows(lo + 1023, lo)
        assert window_rows([w]) == rows, lo
        seen.update(row[3] for row in rows)
    assert seen == set(CASES) - {"PowerOfTwo"}


def test_pair_window_peaks_below_92_bytes_per_x(sieve_100k):
    # the 26 B per x of the _PairWindow fields plus the kernel's
    # temporaries: 74.3 B per x with numpy 2.4
    n = theorems._SCAN_WINDOW
    _pair_window(2, sieve_100k.psi[2 : 2 + n])
    tracemalloc.start()
    try:
        _pair_window(2, sieve_100k.psi[2 : 2 + n])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 92 * n


def test_theorem1_histograms_to_one_million():
    # frozen from the scalar _classify_shape over the same range
    scan = verify_theorem1(1_000_000)
    assert scan.cases == {
        "PowerOfTwo": 19,
        "OddOnly": 499_999,
        "TwoThree": 110,
        "TwoTimesPrimePower": 89_581,
        "General": 410_290,
    }
    assert scan.witnesses == {"non-square": 999_999}


def test_scan_reports_planted_failures(monkeypatch):
    # psi(4) = 5 would make 5^2 - 4^2 = u * v = 1 * 9 = 3^2; psi(12) = 20
    # would too, with u * v = 8 * 32 = 16^2 (d = 8, u1 = 1, v1 = 4);
    # psi(7) = 6 and psi(9) = 9 break u > 0 (u = -1 and u = 0).  All four
    # are planted in the psi segments the kernel reads; pair_obstruction
    # factorizes x on its own, so it still finds each planted x's true
    # witness.
    real = theorems.psi_segment

    def planted(lo, hi):
        values = real(lo, hi)
        for x, fake in ((4, 5), (7, 6), (9, 9), (12, 20)):
            if lo <= x < hi:
                values[x - lo] = fake
        return values

    monkeypatch.setattr(theorems, "_SEGMENT_MIN", 3)
    monkeypatch.setattr(theorems, "_SEGMENT_PER_PRIME", 0)
    monkeypatch.setattr(theorems, "_SCAN_WINDOW", 4)  # x = 4 and x = 7 in two segments
    monkeypatch.setattr(theorems, "psi_segment", planted)
    window = next(w for w in _pair_windows(100) if 4 in w.x.tolist())
    assert window.x.tolist() == [2, 3, 4, 5]
    assert window.x[window.suspect].tolist() == [4]
    scan = verify_theorem1(100)
    assert scan.failures == (4, 7, 9, 12)
    assert scan.checked == 99 and scan.witnesses == {"non-square": 99}
    assert sum(scan.cases.values()) == 99
    assert (pair_obstruction(4).v1, pair_obstruction(7).u) == (5, 1)  # the true psi


def is_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


@st.composite
def planted_windows(draw):
    """(lo, psi window) of three x around a planted square.  u = k * s**2
    and v = k * t**2 with 1 <= s < t are of equal parity, so that x =
    (v - u) / 2 and psi = (u + v) / 2 make u * v = (k*s*t)**2, and v is
    below 2**40.  The window's other two x are near misses: x - 1 and
    x + 1 with psi - 1 and psi + 1 (v - 2 and v + 2), or with psi itself.
    About half are drawn with v >= 2**29 and t - s <= 4, so that u * v
    passes 2**53 and x is small beside it: a near miss can then lie within
    half a float64 spacing of a square, where a float comparison alone
    takes it for one."""
    big = draw(st.booleans())
    bits = draw(st.integers(30, 39) if big else st.integers(3, 39))
    t = draw(st.integers(2, math.isqrt(2 ** (bits - 1))))
    k = draw(st.integers(-(-(2 ** (bits - 1)) // t**2), (2**bits - 1) // t**2))
    s = draw(st.integers(max(1, t - 4), t - 1) if big else st.integers(1, t - 1))
    if k * (t - s) % 2:  # t**2 - s**2 = (t - s) * (t + s) is odd
        k *= 2
    x, px = k * (t * t - s * s) // 2, k * (s * s + t * t) // 2
    step = draw(st.sampled_from((0, 1)))
    return x - 1, [px - step, px, px + step]


@settings(max_examples=500)
@given(
    st.tuples(st.integers(2, 2**31), st.lists(st.integers(0, 2**40 - 1), min_size=1, max_size=40))
    | planted_windows()
)
# s = 2**19 - 2, t = 2**19: x - 1 with psi - 1 is a near miss past 2**53
@example((2**20 - 3, [2**38 - 2**20 + 1, 2**38 - 2**20 + 2, 2**38 - 2**20 + 3]))
def test_pair_window_flags_exactly_what_any_psi_breaks(window):
    # psi need not be psi(x) here: u = psi - x and v = psi + x for any psi
    # window, and the kernel flags x exactly when u <= 0 or u * v is a
    # square, which for u > 0 is when the coprime parts u1 = u / d and
    # v1 = v / d of pair_obstruction are both squares; checked in Python ints
    lo, psis = window
    w = _pair_window(lo, np.array(psis, dtype=np.uint64))
    assert w.x.tolist() == list(range(lo, lo + len(psis)))
    for px, (x, u, v, suspect) in zip(
        psis, zip(*(a.tolist() for a in (w.x, w.u, w.v, w.suspect)))
    ):
        assert (u, v) == (px - x, px + x)
        d = math.gcd(u, v)
        both = is_square(u // d) and is_square(v // d)
        assert suspect == (u <= 0 or both) == (u <= 0 or is_square(u * v))


# --- power-of-two triple family ----------------------------------------------


def test_family_members():
    assert triple_family(1).equal_entries + triple_family(1).free_entries == (2, 2, 1)
    s = triple_family(9)
    assert s.equal_entries + s.free_entries == (512, 512, 256)
    s = triple_family(18)
    assert s.equal_entries + s.free_entries == (262144, 262144, 131072)


def test_family_identity_all_k():
    for k in range(1, 63):
        s = triple_family(k)
        assert psi(2**k) ** 2 == 9 * 4 ** (k - 1) == s.target
        assert verify_solution(s.kind, s.equal_entries, s.free_entries).ok


def _python_ints(values):
    """Whether every int among values, inside tuples too, is a Python int."""
    return all(
        _python_ints(v) if isinstance(v, tuple) else type(v) is int
        for v in values
        if isinstance(v, (tuple, int, np.integer))
    )


def test_numpy_arguments_give_the_python_int_reports():
    # computed in numpy int64, the family's target 9 * 2**78 wraps to 0 and
    # classify's 2 * a * a raises OverflowError: arguments are bound to
    # Python ints before any arithmetic
    family = triple_family(np.int64(40))
    assert family == triple_family(40)
    assert _python_ints((family.equal_entries, family.free_entries, family.psi_value, family.target))
    report = classify_equal_pair(np.int64(2**40))
    assert report == classify_equal_pair(2**40)
    assert report.c == 2**39 and _python_ints(getattr(report, f) for f in report.__slots__)
    for x in (np.int64(8), np.uint32(12), np.int64(2**40 + 15)):
        report = pair_obstruction(x)
        assert report == pair_obstruction(int(x))
        assert _python_ints(getattr(report, f) for f in report.__slots__[:6])
        assert _python_ints(v for _, v in report.obstruction.values)
    assert verify_theorem1(np.int64(100)) == verify_theorem1(100)


def test_family_range_check():
    with pytest.raises(ValueError):
        triple_family(0)
    with pytest.raises(ValueError):
        triple_family(63)


# --- equal-pair classification ------------------------------------------------


def test_classify_power_of_two():
    r = classify_equal_pair(4)
    assert r.branch is EqualPairBranch.POWER_OF_TWO_FAMILY
    assert r.c == 2
    assert r.F is None and r.H is None


def test_classify_odd_branch():
    r = classify_equal_pair(15)
    assert r.branch is EqualPairBranch.ODD_BRANCH
    assert (r.A, r.B, r.F) == (24, 15, 126)
    assert r.F % 4 == 2
    assert r.c is None


def test_classify_mixed_branch():
    r = classify_equal_pair(10)
    assert r.branch is EqualPairBranch.MIXED_BRANCH
    assert (r.P, r.Q, r.H) == (6, 5, 124)
    assert r.H % 16 == 12
    assert r.c is None


def test_classify_negative_f_is_still_2_mod_4():
    r = classify_equal_pair(3)
    assert r.F == 16 - 18 == -2
    assert r.F % 4 == 2  # canonical nonnegative residue


def test_h_residue_tracks_p_mod_4():
    # the two mixed subcases: P = 0 mod 4 gives H = 8 mod 16, P = 2 mod 4
    # gives H = 12 mod 16
    for a in range(2, 10_001):
        rep = classify_equal_pair(a)
        if rep.branch is not EqualPairBranch.MIXED_BRANCH:
            continue
        if rep.P % 4 == 0:
            assert rep.H % 16 == 8, a
        else:
            assert rep.P % 4 == 2
            assert rep.H % 16 == 12, a


def test_f_depends_only_on_odd_radical():
    assert classify_equal_pair(15).F == classify_equal_pair(225).F == 126
    assert classify_equal_pair(10).H == classify_equal_pair(200).H


def test_classify_rejects_one():
    with pytest.raises(ValueError):
        classify_equal_pair(1)


def test_classifier_agrees_with_search_to_10k():
    # completing entries exist exactly at powers of two, matching the a = b
    # solutions the search finds
    with_c = {
        a for a in range(2, 10_001) if classify_equal_pair(a).c is not None
    }
    powers = {2**k for k in range(1, 14)}
    assert with_c == powers
    found = search(SearchConfig(kind_by_name("quadratic-triple"), 10_000))
    equal_pairs = {s.equal_entries[0] for s in found if s.equal_entries[0] == s.equal_entries[1]}
    assert equal_pairs == powers


# --- one factorization per scalar explainer -----------------------------------


@pytest.mark.parametrize("explain", [pair_obstruction, congruence_witness, classify_equal_pair])
def test_each_explainer_factorizes_once(monkeypatch, explain):
    calls = []
    real = theorems.factorize
    monkeypatch.setattr(theorems, "factorize", lambda n: calls.append(n) or real(n))
    for x in (2, 8, 12, 26, 45, 538, 1_000_003):
        calls.clear()
        explain(x)
        assert calls == [x], (explain.__name__, x)
