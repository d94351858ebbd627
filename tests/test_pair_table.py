"""Pair-sum table and its meet-in-the-middle join: contents, block edges,
dense hits against the oracle, one table per search and its int64 limit,
the memory budget and the memory bounds."""

import importlib
import os
import time
import tracemalloc

import numpy as np
import pytest

from psituples import (
    InputError,
    SearchConfig,
    brute_force_oracle,
    build_sieve,
    kind_by_name,
    search,
)
from psituples.arith import int_kth_root
from psituples.cli import main
from psituples.search import _descend, _mitm4, _PairSumTable, decompose_sum_of_powers
from psituples.tuples import TupleKind

search_module = importlib.import_module("psituples.search")

TAXICAB = 59**4 + 158**4  # == 133**4 + 134**4


def descend4(residual, power, cap):
    out: list = []
    _descend(residual, 4, power, 1, cap, (), out)
    return out


# --- the table ------------------------------------------------------------------


@pytest.mark.parametrize("power", [2, 3, 4, 5])
def test_table_holds_every_pair_sum_sorted(power):
    for cap in range(2, 41):
        table = _PairSumTable(power, cap)
        expected = sorted(x**power + y**power for x in range(1, cap + 1)
                          for y in range(x, cap + 1))
        assert table.sums.dtype == np.int64
        assert table.sums.tolist() == expected, (power, cap)


def test_table_at_the_largest_quintic_cap():
    # 4 * 4705**5 < 2**63 <= 4 * 4706**5: the largest table int64 allows
    assert 4 * 4705**5 < 2**63 <= 4 * 4706**5
    sums = _PairSumTable(5, 4705).sums
    assert sums.size == 4705 * 4706 // 2
    assert int(sums[0]) == 2 and int(sums[-1]) == 2 * 4705**5
    assert bool(np.all(sums[1:] >= sums[:-1]))
    with pytest.raises(InputError, match="cap 4706 would leave int64.* at most 4705"):
        _PairSumTable(5, 4706)
    with pytest.raises(InputError, match="cap 38968 would leave int64.* at most 38967"):
        _PairSumTable(4, 38968)


# --- the join in blocks -------------------------------------------------------------


def _straddles(residual, power, table, block):
    """Whether two equal tail sums of residual fall into different blocks."""
    sums = table.sums
    t_lo = int(np.searchsorted(sums, residual - residual // 2, side="left"))
    t_hi = int(np.searchsorted(sums, residual - 2, side="right"))
    equal = np.flatnonzero(sums[t_lo + 1 : t_hi] == sums[t_lo : t_hi - 1]) + t_lo + 1
    return any((t_hi - i) % block == 0 for i in equal.tolist())


@pytest.mark.parametrize("block", [1, 2, 5])
def test_mitm_in_tiny_blocks_equals_descent(monkeypatch, block):
    import random

    monkeypatch.setattr(search_module, "_KERNEL_BLOCK", block)
    rng = random.Random(909)
    cases = [(4, 2 * TAXICAB), (4, TAXICAB + 2 * 3**4)]
    for power, top in {2: 5_000, 3: 60_000, 4: 1_000_000, 5: 5_000_000}.items():
        cases += [(power, rng.randrange(4, top)) for _ in range(6)]
    for power, residual in cases:
        cap = int_kth_root(residual, power)
        table = _PairSumTable(power, cap)
        assert _mitm4(residual, power, cap, table) == descend4(residual, power, cap)
    taxicab_table = _PairSumTable(4, int_kth_root(2 * TAXICAB, 4))
    assert _straddles(2 * TAXICAB, 4, taxicab_table, 1)
    got = _mitm4(2 * TAXICAB, 4, 200, taxicab_table)
    assert got == [(59, 59, 158, 158), (59, 133, 134, 158), (133, 133, 134, 134)]


def test_mitm_with_a_smaller_cap_than_the_table(monkeypatch):
    monkeypatch.setattr(search_module, "_KERNEL_BLOCK", 3)
    table = _PairSumTable(4, 200)
    for residual in (2 * TAXICAB, TAXICAB + 2 * 3**4):
        for cap in (140, 158, 190):
            assert _mitm4(residual, 4, cap, table) == descend4(residual, 4, cap)


def test_mitm_without_a_head_match_recovers_nothing(monkeypatch):
    import random

    def fail(*args):
        raise AssertionError("_split_pairs called without a matched head sum")

    monkeypatch.setattr(search_module, "_split_pairs", fail)
    rng = random.Random(1111)
    for power, top in ((4, 10**7), (5, 10**9)):
        cap = int_kth_root(top, power)
        table = _PairSumTable(power, cap)
        misses = 0
        while misses < 40:
            residual = rng.randrange(10**5, top)
            if not descend4(residual, power, cap):
                assert _mitm4(residual, power, cap, table) == []
                misses += 1
    monkeypatch.undo()
    table = _PairSumTable(4, 160)
    one = 1**4 + 2**4 + 3**4 + 5**4
    for residual, count in ((one, 1), (2 * TAXICAB, 3)):
        expected = descend4(residual, 4, 160)
        assert len(expected) == count
        assert _mitm4(residual, 4, 160, table) == expected


@pytest.mark.parametrize("kind, bound", [(TupleKind(2, 1, 4), 120), (TupleKind(3, 1, 4), 150)])
def test_dense_hits_agree_with_oracle(kind, bound):
    # p <= 3 leaves most pair sums with several representations, so the
    # pair recovery after the join does the most work here
    runs = search_module._build_class_runs(build_sieve(bound), bound, kind.equal)
    assert search_module._needs_pair_table(kind, runs) is not None
    cfg = SearchConfig(kind, bound)
    assert search(cfg) == brute_force_oracle(cfg)


# --- one table per search, and its int64 crossing ------------------------------------


def _counting_tables(monkeypatch):
    """Route every _PairSumTable construction through a counter; returns
    the list of (power, cap) built."""
    built = []

    class Counted(_PairSumTable):
        __slots__ = ()

        def __init__(self, power, cap):
            built.append((power, cap))
            super().__init__(power, cap)

    monkeypatch.setattr(search_module, "_PairSumTable", Counted)
    return built


@pytest.mark.parametrize("kind, bound, tables", [
    (kind_by_name("quartic-quintuple"), 600, 1),
    (kind_by_name("quintic-quintuple"), 300, 1),
    (TupleKind(4, 2, 4), 150, 1),
    (TupleKind(3, 1, 4), 300, 1),
    (kind_by_name("cubic-quintuple"), 96, 0),
])
def test_a_search_builds_one_table_or_none(monkeypatch, kind, bound, tables):
    built = _counting_tables(monkeypatch)
    assert search(SearchConfig(kind, bound))
    assert len(built) == tables, built


def test_decompose_four_equals_descent_on_small_residuals():
    # every count-4 call builds its own table, for caps below, at and above
    # the residual's root, and residuals outside count..4 * cap**p
    for power in (2, 3, 4, 5):
        for cap in (0, 1, 2, 3, 7, 100):
            for residual in range(3000):
                expected = descend4(residual, power, cap)
                assert decompose_sum_of_powers(residual, 4, power, cap) == expected, (
                    power, cap, residual)


@pytest.mark.parametrize("power", [2, 3, 4, 5])
@pytest.mark.parametrize("equal", [1, 2, 3])
def test_four_free_search_equals_oracle_at_small_bounds(power, equal):
    kind = TupleKind(power, equal, 4)
    for bound in (1, 2, 3, 5, 8, 13, 40):
        cfg = SearchConfig(kind, bound)
        assert search(cfg) == brute_force_oracle(cfg), bound


def test_table_7_at_the_int64_crossing(monkeypatch, capsys):
    # from N = 1890 (psi 5184) the quintic table needs cap 5177, past the
    # 4705 that int64 allows: the search stops at plan time, exit 2
    start = time.perf_counter()
    code = main(["table", "--id", "7", "--bound", "1890"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "cap 5177 would leave int64" in captured.err and "4705" in captured.err
    assert elapsed < 1.0
    # one below, the table fits: record its cap without building 85 MB
    caps = []
    monkeypatch.setattr(search_module, "_PairSumTable", lambda power, cap: caps.append(cap))
    kind = kind_by_name("quintic-quintuple")
    for bound in (1889, 1890):
        runs = search_module._build_class_runs(build_sieve(bound), bound, kind.equal)
        search_module._needs_pair_table(kind, runs)
    assert caps == [4602, 5177]


# --- the memory budget ----------------------------------------------------------------


def test_search_over_budget_is_an_error(monkeypatch, capsys):
    # above the plan estimate of the sieve and class runs (about 10 kB at
    # 300), below the pair-sum table
    monkeypatch.setattr(search_module, "_memory_budget", lambda: 100000)
    cfg = SearchConfig(kind_by_name("quintic-quintuple"), 300)
    with pytest.raises(ValueError, match=r"needs \d+ bytes .* budget of 100000 bytes"):
        search(cfg)
    code = main(["search", "--kind", "quintic-quintuple", "--bound", "300", "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: the pair-sum table")
    assert "budget of 100000 bytes" in captured.err


def test_budget_spares_what_needs_no_table(monkeypatch):
    monkeypatch.setattr(search_module, "_memory_budget", lambda: 100000)
    # kinds without four free entries build no table and are not an error
    for name, bound in (("cubic-quintuple", 96), ("quadratic-quadruple", 300)):
        kind = kind_by_name(name)
        runs = search_module._build_class_runs(build_sieve(bound), bound, kind.equal)
        assert search_module._needs_pair_table(kind, runs) is None
        assert search(SearchConfig(kind, bound))
    # a four-entry decomposition always joins a table: one past the budget
    # is an error, not a fall back to descent
    monkeypatch.setattr(search_module, "_memory_budget", lambda: 1000)
    residual = 3**5 + 17**5 + 40**5 + 90**5
    with pytest.raises(InputError, match="budget of 1000 bytes"):
        decompose_sum_of_powers(residual, 4, 5, int_kth_root(residual, 5))


def _no_sieve(limit):
    raise AssertionError(f"build_sieve({limit}) called")


def test_plan_over_budget_allocates_nothing(monkeypatch, capsys):
    monkeypatch.setattr(search_module, "_memory_budget", lambda: 10**6)
    monkeypatch.setattr(search_module, "build_sieve", _no_sieve)
    cfg = SearchConfig(kind_by_name("quadratic-triple"), 100000)
    # _RUNS_BYTES per entry of 1..N for the class runs, the larger part, and
    # _SIEVE_BYTES per entry of 0..N for the sieve
    runs = search_module._RUNS_BYTES * 100000
    sieve = search_module._SIEVE_BYTES * 100001
    assert runs > sieve and runs + sieve > 10**6
    with pytest.raises(InputError, match=(
        rf"^a search to bound 100000 needs {runs + sieve} bytes, over the memory budget of "
        rf"1000000 bytes: {runs} for the class runs and {sieve} for the sieve$"
    )):
        search(cfg)
    code = main(["search", "--kind", "quadratic-triple", "--bound", "100000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "memory budget of 1000000 bytes" in captured.err


def test_plan_at_the_budget_runs(monkeypatch):
    bound = 500
    need = search_module._SIEVE_BYTES * (bound + 1) + search_module._RUNS_BYTES * bound
    cfg = SearchConfig(kind_by_name("quadratic-triple"), bound)
    monkeypatch.setattr(search_module, "_memory_budget", lambda: need)
    assert search(cfg) == brute_force_oracle(cfg)
    monkeypatch.setattr(search_module, "_memory_budget", lambda: need - 1)
    with pytest.raises(InputError, match=f"needs {need} bytes"):
        search(cfg)


def test_memory_budget_reads_meminfo_or_sysconf(monkeypatch, request):
    # the reading is cached per process: cleared first, and again at the end,
    # so that no other test sees the sysconf reading made under the patch
    budget_of = search_module._memory_budget
    budget_of.cache_clear()
    request.addfinalizer(budget_of.cache_clear)
    budget = budget_of()
    assert budget > 0
    if os.path.exists("/proc/meminfo"):
        with open("/proc/meminfo") as f:
            kb = next(int(line.split()[1]) for line in f if line.startswith("MemAvailable:"))
        assert abs(budget - kb * 1024 // 2) < 2**30  # available memory moves a little

    def no_meminfo(*args, **kwargs):
        raise FileNotFoundError("/proc/meminfo")

    # the budget lives in arith, which search imports it from
    monkeypatch.setattr(importlib.import_module("psituples.arith"), "open", no_meminfo,
                        raising=False)
    assert budget_of() == budget  # read once per process: the file is not opened again
    budget_of.cache_clear()
    assert budget_of() > 0


# --- memory bounds --------------------------------------------------------------------


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table_build_peaks_at_eight_bytes_per_pair():
    table, peak = _traced_peak(lambda: _PairSumTable(5, 720))
    pairs = 720 * 721 // 2
    assert table.sums.nbytes == 8 * pairs
    assert peak <= 9 * pairs + 64 * 1024


@pytest.mark.parametrize("equal", [1, 2, 3])
def test_class_runs_build_peaks_within_the_plan(equal):
    bound = 10**5
    sieve = build_sieve(bound)
    runs, peak = _traced_peak(lambda: search_module._build_class_runs(sieve, bound, equal))
    kept = (runs.ns, runs.psis, runs.run_end, runs.tuple_start)
    assert sum(a.nbytes for a in kept) == 24 * bound + 8
    # beside the kept arrays, only a few int64 temporaries of one slice of
    # _KERNEL_BLOCK positions
    assert peak <= search_module._RUNS_BYTES * bound + 48 * search_module._KERNEL_BLOCK


@pytest.mark.parametrize("name, bound", [
    ("quadratic-pair", 100000), ("quadratic-triple", 100000), ("quadratic-quadruple", 4000),
])
def test_kernel_block_peaks_at_fifty_six_bytes_per_multiset(name, bound):
    # one full block from the middle of the search, the runs built outside
    kind = kind_by_name(name)
    runs = search_module._build_class_runs(build_sieve(bound), bound, kind.equal)
    edges = search_module._cut(runs.tuple_start, 0, bound, search_module._KERNEL_BLOCK)
    assert len(edges) > 4
    lo, hi = edges[len(edges) // 2], edges[len(edges) // 2 + 1]
    multisets = int(runs.tuple_start[hi] - runs.tuple_start[lo])
    assert multisets > search_module._KERNEL_BLOCK // 2
    _, peak = _traced_peak(lambda: search_module._search_runs(kind, runs, None, lo, hi))
    assert peak <= 56 * multisets + 64 * 1024, peak / multisets


@pytest.mark.parametrize("block", [1 << 12, 1 << 14])
def test_mitm_temporaries_scale_with_the_block(monkeypatch, block):
    monkeypatch.setattr(search_module, "_KERNEL_BLOCK", block)
    residual = 7**5 + 100**5 + 300**5 + 719**5  # near 720**5, with one tuple
    cap = int_kth_root(residual, 5)
    for table in (_PairSumTable(5, 720), _PairSumTable(5, 1440)):
        got, peak = _traced_peak(lambda: _mitm4(residual, 5, cap, table))
        assert got == [(7, 100, 300, 719)]
        assert peak <= 6 * 8 * block + 64 * 1024, (table.cap, peak)
