"""Search engine: class index, decompositions, search vs oracle."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psituples import (
    ORACLE_MAX_BOUND,
    PsiSieve,
    SearchConfig,
    brute_force_oracle,
    build_class_index,
    build_sieve,
    decompose_sum_of_powers,
    kind_by_name,
    max_safe_bound,
    search,
    verify_solution,
)
from psituples.arith import _INT64_MAX, _floor_root_vec, int_kth_root
from psituples.search import (
    _build_class_runs,
    _cut,
    _descend,
    _kernel_fits_int64,
    _PairSumTable,
)
from psituples.tuples import TupleKind

search_module = importlib.import_module("psituples.search")

# Every cubic triple with a <= 200, frozen from a brute-force oracle run and
# cross-checked against the fast path.  The published table lists 28 of
# these; (197, 27, 46) is a genuine unlisted solution (197 is prime, so
# psi(197) = 198, and 198^3 = 197^3 + 27^3 + 46^3).
CUBIC_TRIPLES_TO_200 = [
    (4, 3, 5), (5, 3, 4), (6, 8, 10), (8, 6, 10), (12, 16, 20), (16, 12, 20),
    (18, 24, 30), (24, 32, 40), (25, 15, 20), (32, 24, 40), (36, 48, 60),
    (48, 64, 80), (53, 12, 19), (54, 72, 90), (58, 59, 69), (64, 48, 80),
    (72, 96, 120), (96, 128, 160), (102, 26, 208), (102, 117, 195),
    (108, 144, 180), (116, 118, 138), (118, 116, 138), (125, 75, 100),
    (128, 96, 160), (144, 192, 240), (162, 216, 270), (192, 256, 320),
    (197, 27, 46),
]


# --- class index ------------------------------------------------------------


def test_class_index_frozen_examples():
    idx = build_class_index(build_sieve(25))
    assert idx.classes[36] == [18, 20, 22]  # contains the published pair {18, 22}
    idx = build_class_index(build_sieve(16))
    assert idx.classes[24] == [12, 14, 15, 16]  # contains {14, 16}
    idx = build_class_index(build_sieve(1))
    assert idx.classes == {1: [1]}


def test_class_index_partition(sieve_1k):
    idx = build_class_index(sieve_1k)
    seen = sorted(n for members in idx.classes.values() for n in members)
    assert seen == list(range(1, 1001))
    for v, members in idx.classes.items():
        assert members == sorted(members)
        assert all(sieve_1k.psi_at(n) == v for n in members)


# --- decomposition ----------------------------------------------------------


def test_decompose_examples():
    assert decompose_sum_of_powers(25, 2, 2, 25) == [(3, 4)]
    assert decompose_sum_of_powers(1729, 2, 3, 13) == [(1, 12), (9, 10)]
    assert decompose_sum_of_powers(9, 1, 2, 10) == [(3,)]


def test_decompose_edge_cases():
    assert decompose_sum_of_powers(0, 1, 2, 10) == []
    assert decompose_sum_of_powers(2, 2, 2, 10) == [(1, 1)]
    assert decompose_sum_of_powers(3, 4, 2, 10) == []  # four entries need sum >= 4
    assert decompose_sum_of_powers(4, 4, 2, 10) == [(1, 1, 1, 1)]
    # cap filters otherwise valid decompositions
    assert decompose_sum_of_powers(25, 2, 2, 3) == []


def test_decompose_huge_residual_small_cap():
    # residuals past the int64 envelope must stay on the big-int path
    assert decompose_sum_of_powers(2**100, 4, 2, 10) == []


def test_decompose_rejects_bad_args():
    with pytest.raises(ValueError):
        decompose_sum_of_powers(10, 2, 6, 10)
    with pytest.raises(ValueError):
        decompose_sum_of_powers(10, 0, 2, 10)
    with pytest.raises(ValueError):
        decompose_sum_of_powers(-1, 2, 2, 10)


@settings(max_examples=200)
@given(
    st.integers(min_value=0, max_value=500_000),
    st.sampled_from([1, 2, 3, 4]),
    st.sampled_from([2, 3, 4, 5]),
    st.integers(min_value=1, max_value=60),
)
def test_decompose_exactness_and_uniqueness(residual, count, power, cap):
    tuples = decompose_sum_of_powers(residual, count, power, cap)
    assert len(set(tuples)) == len(tuples)
    assert tuples == sorted(tuples)
    for t in tuples:
        assert len(t) == count
        assert all(1 <= b <= cap for b in t)
        assert list(t) == sorted(t)
        assert sum(b**power for b in t) == residual


def test_mitm_agrees_with_recursive_descent():
    # descent costs about residual**(3/power), so the sweep keeps residuals
    # small for low powers and large where descent stays cheap
    import random

    from psituples.search import _mitm4

    rng = random.Random(20_240_817)
    ranges = {2: 20_000, 3: 300_000, 4: 3_000_000, 5: 20_000_000}
    for power, top in ranges.items():
        residuals = [rng.randrange(4, top) for _ in range(10)]
        residuals += [4, top, int_kth_root(top, power) ** power]
        for residual in residuals:
            cap = int_kth_root(residual, power)
            if cap < 2:
                continue
            table = _PairSumTable(power, cap)
            via_table = sorted(_mitm4(residual, power, cap, table))
            via_descent: list = []
            _descend(residual, 4, power, 1, cap, (), via_descent)
            assert via_table == via_descent, (power, residual)


def descend4(residual, power, cap):
    out: list = []
    _descend(residual, 4, power, 1, cap, (), out)
    return out


def test_mitm_head_sum_equal_to_tail_sum():
    # residual = 2 * (x**p + y**p): the head prefix (sums <= residual // 2)
    # and the tail slice (sums >= residual - residual // 2) share the pair
    # sum residual / 2; x == y gives the one tuple split there, (x, x, x, x)
    from psituples.search import _mitm4

    for power, pairs in {2: [(1, 1), (3, 4), (5, 5), (7, 30)], 3: [(2, 2), (1, 12), (9, 10)],
                         4: [(6, 6), (2, 9)], 5: [(3, 3), (2, 5)]}.items():
        for x, y in pairs:
            residual = 2 * (x**power + y**power)
            cap = int_kth_root(residual, power)
            got = sorted(_mitm4(residual, power, cap, _PairSumTable(power, cap)))
            assert got == descend4(residual, power, cap), (power, x, y)
            assert (x, x, y, y) in got
            assert ((x,) * 4 in got) == (x == y)


def test_mitm_several_representations():
    # 59**4 + 158**4 == 133**4 + 134**4, so each residual below splits in
    # several ways that share pair sums
    from psituples.search import _mitm4

    taxicab = 59**4 + 158**4
    assert taxicab == 133**4 + 134**4
    for residual, expected in [
        (2 * taxicab, [(59, 59, 158, 158), (59, 133, 134, 158), (133, 133, 134, 134)]),
        (taxicab + 2 * 3**4, [(3, 3, 59, 158), (3, 3, 133, 134)]),
    ]:
        cap = int_kth_root(residual, 4)
        assert sorted(_mitm4(residual, 4, cap, _PairSumTable(4, cap))) == expected
        assert descend4(residual, 4, cap) == expected
        # a cap between the two representations keeps only the smaller one
        assert decompose_sum_of_powers(residual, 4, 4, 140) == [
            t for t in expected if max(t) <= 140
        ]


def test_decompose_uses_a_larger_passed_table():
    # a caller's table serves every count-4 residual it covers, also those
    # far below the size at which decompose would build one itself
    import random

    rng = random.Random(5)
    for power, top in {2: 20_000, 3: 300_000, 4: 10**6, 5: 10**6}.items():
        table = _PairSumTable(power, 2 * int_kth_root(top, power))
        for residual in [4, 5, 2 * 2**power + 2] + [rng.randrange(4, top) for _ in range(10)]:
            root = int_kth_root(residual, power)
            for cap in (root, max(1, root // 2)):
                expected = descend4(residual, power, cap)
                assert decompose_sum_of_powers(residual, 4, power, cap, table) == expected
                assert decompose_sum_of_powers(residual, 4, power, cap) == expected


# --- vectorized k-th root ----------------------------------------------------

ROOT_TOPS = {2: 3_037_000_499, 3: 2_097_151, 4: 55_108, 5: 6_208}


def assert_floor_roots(values, power):
    roots = _floor_root_vec(np.array(values, dtype=np.int64), power).tolist()
    for v, r in zip(values, roots):
        assert r**power <= v < (r + 1) ** power, (power, v, r)


def test_floor_root_tops_are_the_int64_roots():
    for power, top in ROOT_TOPS.items():
        assert top == int_kth_root(_INT64_MAX, power)
        assert top**power <= _INT64_MAX < (top + 1) ** power


@settings(max_examples=300)
@given(
    st.sampled_from([2, 3, 4, 5]),
    st.lists(st.integers(min_value=0, max_value=_INT64_MAX), min_size=1, max_size=40),
)
def test_floor_root_vec_exact_on_int64(power, values):
    assert_floor_roots(values, power)


@settings(max_examples=300)
@given(st.sampled_from([2, 3, 4, 5]), st.data())
def test_floor_root_vec_at_perfect_powers(power, data):
    top = ROOT_TOPS[power]
    r = data.draw(st.one_of(st.integers(1, 64), st.integers(top - 64, top), st.integers(1, top)))
    values = [r**power - 1, r**power, min(r**power + 1, _INT64_MAX)]
    assert_floor_roots(values, power)


def test_floor_root_vec_top_of_domain():
    for power, top in ROOT_TOPS.items():
        values = [0, 1, 2, top**power - 1, top**power, _INT64_MAX - 1, _INT64_MAX]
        assert_floor_roots(values, power)
        assert _floor_root_vec(np.array([_INT64_MAX]), power).tolist() == [top]


# --- batched equal-class kernel ---------------------------------------------


def test_kernel_fits_int64_at_crossover():
    for power in (2, 3, 4, 5):
        for equal in (1, 2, 3, 7):
            top = int_kth_root(_INT64_MAX // equal, power)
            assert equal * top**power <= _INT64_MAX < equal * (top + 1) ** power
            assert _kernel_fits_int64(top, power, equal)
            assert not _kernel_fits_int64(top + 1, power, equal)


def scalar_search(monkeypatch, cfg):
    """The exact per-multiset path, which the kernel replaces for f == 1."""
    with monkeypatch.context() as m:
        m.setattr(search_module, "_kernel_fits_int64", lambda *args: False)
        return search(cfg)


def block_edges(kind, bound, budget):
    """Interior block edges of a serial search, split into those on a class
    boundary and those inside a class."""
    runs = _build_class_runs(build_sieve(bound), bound, kind.equal)
    edges = _cut(runs.tuple_start, 0, runs.ns.size, budget)[1:-1]
    starts = set(np.flatnonzero(np.diff(runs.psis, prepend=-1)).tolist())
    return [x for x in edges if x in starts], [x for x in edges if x not in starts]


@pytest.mark.parametrize(
    "name, bound, block_edge",
    [
        ("quadratic-pair", 5000, None),
        ("quadratic-triple", 2511, "inside a class"),
        ("quadratic-triple", 2512, "on a class boundary"),
        ("quadratic-triple", 5000, None),
        ("quadratic-quadruple", 720, "inside a class"),
        ("quadratic-quadruple", 1436, "on a class boundary"),
        ("quadratic-quadruple", 3969, None),
        ("cubic-triple", 700, None),
        ("cubic-triple", 1615, None),
        ("cubic-quadruple", 300, None),
        ("cubic-quadruple", 675, None),
        ("cubic-quintuple", 400, None),
        ("cubic-quintuple", 800, "inside a class"),
    ],
)
def test_kernel_equals_scalar_path(monkeypatch, name, bound, block_edge):
    kind = kind_by_name(name)
    on, inside = block_edges(kind, bound, search_module._KERNEL_BLOCK)
    if block_edge == "on a class boundary":
        assert on
    elif block_edge == "inside a class":
        assert inside and not on
    cfg = SearchConfig(kind, bound)
    assert search(cfg) == scalar_search(monkeypatch, cfg)


@pytest.mark.parametrize("budget", [1, 2, 5])
def test_kernel_with_tiny_blocks(monkeypatch, budget):
    for name, bound in [("quadratic-pair", 400), ("quadratic-triple", 600),
                        ("quadratic-quadruple", 300)]:
        kind = kind_by_name(name)
        cfg = SearchConfig(kind, bound)
        reference = scalar_search(monkeypatch, cfg)
        on, inside = block_edges(kind, bound, budget)
        assert on and (inside or kind.equal == 1)  # classes span several blocks
        with monkeypatch.context() as m:
            m.setattr(search_module, "_KERNEL_BLOCK", budget)
            assert search(cfg) == reference, (name, budget)


def test_kernel_generic_powers_and_fallback(monkeypatch):
    # (5, 3, 1) at 2000 leaves the int64 domain (3 * 5184**5 > 2**63), so the
    # search takes the exact scalar path there and the kernel below it
    sieve = build_sieve(2000)
    kind = TupleKind(5, 3, 1)
    assert "runs" not in search_module._search_state(kind, sieve, 2000)
    assert "runs" in search_module._search_state(kind, sieve, 1000)
    for kind, bound in [(TupleKind(3, 2, 1), 1500), (TupleKind(3, 3, 1), 400),
                        (TupleKind(4, 2, 1), 600), (TupleKind(5, 2, 1), 300)]:
        cfg = SearchConfig(kind, bound)
        assert search(cfg) == scalar_search(monkeypatch, cfg), kind


@pytest.mark.parametrize("budget", [1, 2, 5])
def test_two_free_kernel_with_tiny_blocks(monkeypatch, budget):
    # the budget cuts both the multiset blocks and the (residual, b1) pieces
    for name, bound in [("cubic-triple", 150), ("cubic-quadruple", 150),
                        ("cubic-quintuple", 120)]:
        kind = kind_by_name(name)
        cfg = SearchConfig(kind, bound)
        reference = scalar_search(monkeypatch, cfg)
        assert reference
        on, inside = block_edges(kind, bound, budget)
        assert on and (inside or kind.equal == 1)
        with monkeypatch.context() as m:
            m.setattr(search_module, "_KERNEL_BLOCK", budget)
            assert search(cfg) == reference, (name, budget)


def test_two_free_kernel_generic_kinds(monkeypatch):
    for kind, bound in [(TupleKind(2, 1, 2), 600), (TupleKind(4, 2, 2), 500),
                        (TupleKind(5, 1, 2), 400)]:
        cfg = SearchConfig(kind, bound)
        assert "runs" in search_module._search_state(kind, build_sieve(bound), bound)
        assert search(cfg) == scalar_search(monkeypatch, cfg), kind


def test_two_free_kernel_int64_crossover(monkeypatch):
    # 30**4 + 120**4 + 272**4 + 315**4 == 353**4, scaled by k and planted as
    # the one class {30k, 120k} with psi 353k; every other n gets psi n,
    # which leaves no residual.  2 * (353k)**4 fits int64 for k = 131, the
    # top of the kernel's domain, and not for k = 132 (the scalar path).
    kind = TupleKind(4, 2, 2)
    top = int_kth_root(_INT64_MAX // 2, 4)
    for k, kernel in [(131, True), (132, False)]:
        assert (353 * k <= top) == kernel
        bound = 120 * k
        psi = np.arange(bound + 1, dtype=np.uint64)
        psi[30 * k] = psi[120 * k] = 353 * k
        sieve = PsiSieve(bound, np.zeros(bound + 1, dtype=np.uint32), psi)
        assert ("runs" in search_module._search_state(kind, sieve, bound)) == kernel
        cfg = SearchConfig(kind, bound)
        found = search(cfg, sieve=sieve)
        assert [(s.equal_entries, s.free_entries) for s in found] == [
            ((30 * k, 120 * k), (272 * k, 315 * k))
        ]
        with monkeypatch.context() as m:
            m.setattr(search_module, "_kernel_fits_int64", lambda *args: False)
            assert search(cfg, sieve=sieve) == found


def test_kernel_solutions_hold_python_ints():
    out = search(SearchConfig(kind_by_name("quadratic-quadruple"), 100))
    assert out
    for s in out:
        values = s.equal_entries + s.free_entries + (s.psi_value, s.target)
        assert all(type(v) is int for v in values)


def test_two_free_kernel_solutions_hold_python_ints():
    for name in ("cubic-triple", "cubic-quintuple"):
        out = search(SearchConfig(kind_by_name(name), 100))
        assert out
        for s in out:
            values = s.equal_entries + s.free_entries + (s.psi_value, s.target)
            assert all(type(v) is int for v in values)


def test_kernel_kinds_build_no_class_index(monkeypatch):
    calls = []
    real = search_module.build_class_index
    monkeypatch.setattr(search_module, "build_class_index",
                        lambda *a: calls.append(a) or real(*a))
    search(SearchConfig(kind_by_name("quadratic-triple"), 300))
    assert calls == []
    search(SearchConfig(kind_by_name("cubic-quadruple"), 300))
    assert calls == []
    search(SearchConfig(TupleKind(3, 2, 3), 100))
    assert len(calls) == 1


# --- search ----------------------------------------------------------------


def test_search_quadratic_pair_empty():
    out = search(SearchConfig(kind_by_name("quadratic-pair"), 10_000))
    assert out == []


def test_search_triples_to_16():
    out = search(SearchConfig(kind_by_name("quadratic-triple"), 16))
    assert [(s.equal_entries + s.free_entries) for s in out] == [
        (2, 2, 1), (4, 4, 2), (8, 8, 4), (16, 16, 8),
    ]


def test_search_cubic_triples_matches_frozen_list():
    out = search(SearchConfig(kind_by_name("cubic-triple"), 200))
    got = [s.equal_entries + s.free_entries for s in out]
    assert got == CUBIC_TRIPLES_TO_200


def test_search_emits_verified_solutions(sieve_1k):
    out = search(SearchConfig(kind_by_name("cubic-quintuple"), 100), sieve=sieve_1k)
    assert out
    for s in out:
        assert verify_solution(s.kind, s.equal_entries, s.free_entries, sieve_1k).ok
        assert s.equal_entries == tuple(sorted(s.equal_entries))
        assert s.free_entries == tuple(sorted(s.free_entries))


def test_oversized_sieve_respects_bound(sieve_1k):
    # a sieve built past the bound must not leak larger equal entries
    for name in ("quadratic-triple", "cubic-triple"):
        cfg = SearchConfig(kind_by_name(name), 64)
        with_big_sieve = search(cfg, sieve=sieve_1k)
        assert with_big_sieve == search(cfg)
        assert all(max(s.equal_entries) <= 64 for s in with_big_sieve)


def test_search_agrees_with_oracle_small():
    for name, bound in [
        ("quadratic-triple", 128),
        ("cubic-triple", 100),
        ("cubic-quadruple", 80),
        ("quadratic-quadruple", 60),
        ("cubic-quintuple", 60),
    ]:
        cfg = SearchConfig(kind_by_name(name), bound)
        assert search(cfg) == brute_force_oracle(cfg), name


def test_search_jobs_do_not_change_output():
    cfg1 = SearchConfig(kind_by_name("cubic-quadruple"), 150, jobs=1)
    cfg2 = SearchConfig(kind_by_name("cubic-quadruple"), 150, jobs=2)
    assert search(cfg1) == search(cfg2)


def test_search_free_entries_unbounded_by_n():
    # (102, 26, 208): the free entry 208 exceeds the bound on a
    out = search(SearchConfig(kind_by_name("cubic-triple"), 110))
    assert (102, 26, 208) in [s.equal_entries + s.free_entries for s in out]


def test_entry_may_repeat_across_classes():
    # (6, 6, 6, 6): equal entries repeat and the free entry equals them
    out = search(SearchConfig(kind_by_name("quadratic-quadruple"), 6))
    assert [(s.equal_entries + s.free_entries) for s in out] == [(6, 6, 6, 6)]


def test_config_validation():
    kind = kind_by_name("quintic-quintuple")
    with pytest.raises(ValueError):
        SearchConfig(kind, 0)
    with pytest.raises(ValueError):
        SearchConfig(kind, 10, jobs=0)
    safe = max_safe_bound(5)
    with pytest.raises(ValueError, match=str(safe)):
        SearchConfig(kind, safe + 1)
    SearchConfig(kind, safe)  # boundary itself is fine


def test_oracle_refuses_large_bounds():
    cfg = SearchConfig(kind_by_name("quadratic-pair"), ORACLE_MAX_BOUND + 1)
    with pytest.raises(ValueError):
        brute_force_oracle(cfg)


def test_oracle_pair_empty_at_ceiling():
    cfg = SearchConfig(kind_by_name("quadratic-pair"), 500)
    assert brute_force_oracle(cfg) == []


def test_generic_kind_searchable():
    # an unnamed (3, 1, 1) kind: psi(a)^3 - a^3 must be a perfect cube
    out = search(SearchConfig(TupleKind(3, 1, 1), 500))
    for s in out:
        assert verify_solution(s.kind, s.equal_entries, s.free_entries).ok


def test_no_cubic_quintuples_hidden_below_930():
    # The published quintuple list jumps from equal-class entries near 96
    # straight to 930.  Settle what lives in between and report it.
    from psituples import TABLES

    out = search(SearchConfig(kind_by_name("cubic-quintuple"), 929, jobs=2))
    found = {s.sort_key() for s in out}
    printed = set()
    for row in TABLES[5].rows:
        equal, free = TABLES[5].split_row(row)
        if max(equal) <= 929:
            printed.add((tuple(sorted(equal)), tuple(sorted(free))))
    assert printed <= found
    extras = sorted(found - printed)
    # the gap is far from empty; (96, 124, 155, 37, 80) is the smallest find
    assert len(extras) == 90
    assert extras[0] == ((96, 124, 155), (37, 80))
    print(f"REPORT: {len(extras)} unlisted cubic quintuples with equal-class "
          f"max <= 929, first {extras[0]}")
