"""Acceptance suite: one test per exit criterion, each printing its verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest result.
"""

import pytest

from psituples import (
    TABLES,
    SearchConfig,
    brute_force_oracle,
    classify_equal_pair,
    congruence_witness,
    double_solution,
    kind_by_name,
    named_kinds,
    pair_obstruction,
    psi,
    reproduce_table,
    search,
    solution_to_json,
    verify_solution,
    verify_theorem1,
    witness_holds,
)
from psituples.theorems import EqualPairBranch, PairObstructionReport

BOUNDED_TABLE_RUNS = [(2, 1296), (3, 432), (4, 504), (5, 96), (6, 1000), (7, 94)]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def triple_search_full():
    cfg = SearchConfig(kind_by_name("quadratic-triple"), 262144, jobs=2)
    return search(cfg)


@pytest.fixture(scope="module")
def bounded_table_diffs():
    return {
        tid: reproduce_table(tid, bound=bound, jobs=2 if tid == 6 else 1)
        for tid, bound in BOUNDED_TABLE_RUNS
    }


@pytest.fixture(scope="module")
def searches_at_200():
    return {
        kind.name: search(SearchConfig(kind, 200, jobs=1)) for kind in named_kinds()
    }


def test_criterion_1_no_pairs_below_one_million():
    scan = verify_theorem1(1_000_000)
    ok = scan.failures == () and scan.checked == 999_999
    report(1, ok, f"{scan.checked} candidates scanned, {len(scan.failures)} failures")
    assert scan.failures == ()
    assert scan.checked == 999_999


def test_criterion_2_triple_table_full_range(triple_search_full):
    found = {s.equal_entries + s.free_entries for s in triple_search_full}
    printed = set(TABLES[1].rows)
    family = {(2**k, 2**k, 2 ** (k - 1)) for k in range(1, 19)}
    equal_pairs = {
        s.equal_entries + s.free_entries
        for s in triple_search_full
        if s.equal_entries[0] == s.equal_entries[1]
    }
    unequal = sorted(
        s.equal_entries + s.free_entries
        for s in triple_search_full
        if s.equal_entries[0] != s.equal_entries[1]
    )
    ok = printed <= found and equal_pairs == family
    detail = (
        f"{len(printed & found)}/18 printed triples found; a=b solutions match "
        f"the power-of-two family; {len(unequal)} with a < b"
    )
    if unequal:
        detail += f" -> REPORT (bears on the open question): {unequal}"
    report(2, ok, detail)
    assert printed <= found
    assert equal_pairs == family
    # a < b solutions are reported above, never a failure


def test_criterion_3_all_printed_rows_verify():
    checked = 0
    for spec in TABLES.values():
        for row in spec.rows:
            equal, free = spec.split_row(row)
            rep = verify_solution(spec.kind, equal, free)
            assert rep.ok, (spec.table_id, row, rep.discrepancy)
            checked += 1
    big = verify_solution(
        kind_by_name("quartic-quintuple"),
        [550912],
        [98304, 544768, 561152, 663552],
    )
    assert big.ok and big.lhs > 2**64  # exercises the unbounded-integer path
    report(3, True, f"all {checked} printed rows verify exactly")


def test_criterion_4_bounded_table_reproduction(bounded_table_diffs):
    lines = []
    for tid, bound in BOUNDED_TABLE_RUNS:
        diff = bounded_table_diffs[tid]
        assert diff.bound == bound
        assert diff.missing == (), (tid, diff.missing)
        assert all(ok for _, ok in diff.out_of_range), tid
        lines.append(f"T{tid}@{bound}: {len(diff.matched)} matched, "
                     f"{len(diff.out_of_range)} spot-verified")
    spot = {3: (1615, 1065, 1670)}
    diff3 = bounded_table_diffs[3]
    assert (spot[3], True) in diff3.out_of_range
    assert sum(1 for _ in bounded_table_diffs[6].out_of_range) == 5
    assert sum(1 for _ in bounded_table_diffs[7].out_of_range) == 2
    report(4, True, "; ".join(lines))


def test_criterion_5_oracle_equivalence_at_200(searches_at_200):
    mismatches = []
    for kind in named_kinds():
        fast = searches_at_200[kind.name]
        slow = brute_force_oracle(SearchConfig(kind, 200))
        if fast != slow:
            mismatches.append(kind.name)
    report(
        5,
        not mismatches,
        f"search == oracle for all 8 kinds at N=200"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )
    assert mismatches == []


def test_criterion_6_congruence_sweeps():
    bad_f = [
        a
        for a in range(3, 100_001, 2)
        if classify_equal_pair(a).F % 4 != 2
    ]
    assert bad_f == []
    bad_h = []
    for a in range(2, 100_001):
        rep = classify_equal_pair(a)
        if rep.branch is EqualPairBranch.MIXED_BRANCH and rep.H % 16 not in (8, 12):
            bad_h.append(a)
    assert bad_h == []
    bad_w, bad_case, kinds = [], [], set()
    for x in range(2, 100_001):
        r = pair_obstruction(x)
        if not witness_holds(r):
            bad_w.append(x)
        # the paper's case argument, independent of the square tests
        w = congruence_witness(x)
        kinds.add(w.kind)
        if not witness_holds(PairObstructionReport(r.x, r.u, r.v, r.d, r.u1, r.v1, r.case_id, w)):
            bad_case.append(x)
    assert bad_w == [] and bad_case == []
    assert kinds == {"non-square", "odd-square-gap", "mod5"}
    report(6, True, "F = 2 mod 4, H in {8,12} mod 16, all witnesses and every "
                    "case argument re-check to 1e5")


def test_criterion_7_family_and_doubling(triple_search_full, bounded_table_diffs):
    for k in range(1, 63):
        assert psi(2**k) ** 2 == 9 * 4 ** (k - 1)
    doubled = 0
    pool = list(triple_search_full)
    for diff in bounded_table_diffs.values():
        pool.extend(diff.matched)
        pool.extend(diff.extra)
    for s in pool:
        if all(a % 2 == 0 for a in s.equal_entries):
            d = double_solution(s)
            assert d is not None
            assert verify_solution(d.kind, d.equal_entries, d.free_entries).ok
            doubled += 1
    # the published quartic rows are successive doublings of the second row
    base = verify_solution(
        kind_by_name("quartic-quintuple"), [34432], [6144, 34048, 35072, 41472]
    )
    assert base.ok
    rows = TABLES[6].rows
    for prev, nxt in zip(rows[1:], rows[2:]):
        assert tuple(2 * v for v in prev) == nxt
    report(7, True, f"family identity to k=62; {doubled} doubled solutions re-verify")


def test_criterion_8_determinism_across_jobs(searches_at_200):
    for kind in named_kinds():
        baseline = "\n".join(solution_to_json(s) for s in searches_at_200[kind.name])
        for jobs in (2, 8):
            rerun = search(SearchConfig(kind, 200, jobs=jobs))
            lines = "\n".join(solution_to_json(s) for s in rerun)
            assert lines == baseline, (kind.name, jobs)
    report(8, True, "byte-identical JSON for jobs in {1, 2, 8} on all 8 kinds")
