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
    kind_by_name,
    search,
)
from psituples.arith import int_kth_root
from psituples.cli import main
from psituples.decompose import _descend, _mitm4, _PairSumTable, decompose_sum_of_powers
from psituples.tuples import TupleKind

arith = importlib.import_module("psituples.arith")
decompose_module = importlib.import_module("psituples.decompose")
search_module = importlib.import_module("psituples.search")

TAXICAB = 59**4 + 158**4  # == 133**4 + 134**4


def descend4(residual, power, cap):
    return _descend(residual, 4, power, cap)


# --- the table ------------------------------------------------------------------


@pytest.mark.parametrize("power", [2, 3, 4, 5])
def test_table_holds_every_pair_sum_sorted(power):
    for cap in range(2, 41):
        table = _PairSumTable(power, cap)
        expected = sorted(x**power + y**power for x in range(1, cap + 1)
                          for y in range(x, cap + 1))
        assert table.sums.dtype == np.int64
        assert table.sums.tolist() == expected, (power, cap)


@pytest.mark.parametrize("power", [2, 3, 4, 5])
def test_clipped_table_holds_the_sums_up_to_top(power):
    for cap in range(1, 25):
        every = sorted(x**power + y**power for x in range(1, cap + 1) for y in range(x, cap + 1))
        tops = (0, 1, every[0], every[len(every) // 2], every[-1], 2 * cap**power)
        for top in tops:
            table = _PairSumTable(power, cap, top)
            assert table.top == top and table.sums.dtype == np.int64
            assert table.sums.tolist() == [s for s in every if s <= top], (power, cap, top)


def test_table_is_read_only_once_sorted():
    # a search shares one table with every chunk: a write would change the
    # decompositions of every residual joined after it
    table = _PairSumTable(4, 200)
    assert len(decompose_sum_of_powers(TAXICAB + 2, 4, 4, 200, table)) == 3
    with pytest.raises(ValueError, match="read-only"):
        table.sums[:] = 0
    with pytest.raises(ValueError, match="read-only"):
        table.sums.sort()
    assert len(decompose_sum_of_powers(TAXICAB + 2, 4, 4, 200, table)) == 3


def test_table_at_the_largest_quintic_cap():
    # 2 * 5404**5 < 2**63 <= 2 * 5405**5: the largest full quintic table
    # that int64 allows.  A table whose sums could reach 2**63 is refused,
    # whatever its cap, before anything is allocated.
    assert 2 * 5404**5 < 2**63 <= 2 * 5405**5
    _refused(5, 5405, None)
    for cap in (1, 6208):
        _, peak = _traced_peak(lambda: _refused(5, cap, 2**63))
        assert peak < 4096


def _refused(power, cap, top):
    top = 2 * cap**power if top is None else top
    with pytest.raises(InputError, match=f"up to {top} would leave int64"):
        _PairSumTable(power, cap, top)


def test_table_limits_monkeypatched_small(monkeypatch):
    # the one int64 rule: a table is refused exactly when its top is past
    # _INT64_MAX, and a four-entry decomposition past it with it
    monkeypatch.setattr(decompose_module, "_INT64_MAX", 10**6)
    table = _PairSumTable(4, 40, 10**6)
    assert int(table.sums[-1]) <= 10**6 and table.top == 10**6
    _refused(4, 40, 10**6 + 1)
    _refused(2, 1, 10**6 + 1)
    residual = 1**4 + 2**4 + 3**4 + 31**4  # 923619: inside the patched limit
    assert decompose_sum_of_powers(residual, 4, 4, 40) == descend4(residual, 4, 40)
    with pytest.raises(InputError, match="would leave int64"):
        decompose_sum_of_powers(10**6 + 1, 4, 5, 40)


def test_decompose_rebuilds_a_table_below_the_residual(monkeypatch):
    built = _counting_tables(monkeypatch)
    residual = 3**5 + 17**5 + 40**5 + 90**5
    table = decompose_module._PairSumTable(5, 100, 10**6)
    assert decompose_sum_of_powers(residual, 4, 5, 100, table) == [(3, 17, 40, 90)]
    assert built == [(5, 100, 10**6), (5, 90, residual)]
    # a table that covers the residual and its root is used as it is
    table = decompose_module._PairSumTable(5, 100, residual)
    assert decompose_sum_of_powers(residual, 4, 5, 100, table) == [(3, 17, 40, 90)]
    assert len(built) == 3


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

    monkeypatch.setattr(decompose_module, "_KERNEL_BLOCK", block)
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
    monkeypatch.setattr(decompose_module, "_KERNEL_BLOCK", 3)
    table = _PairSumTable(4, 200)
    for residual in (2 * TAXICAB, TAXICAB + 2 * 3**4):
        for cap in (140, 158, 190):
            assert _mitm4(residual, 4, cap, table) == descend4(residual, 4, cap)


def test_mitm_without_a_head_match_recovers_nothing(monkeypatch):
    import random

    def fail(*args):
        raise AssertionError("_split_pairs called without a matched head sum")

    monkeypatch.setattr(decompose_module, "_split_pairs", fail)
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
    runs = search_module._build_class_runs(bound, kind)
    assert search_module._needs_pair_table(kind, runs) is not None
    cfg = SearchConfig(kind, bound)
    assert search(cfg) == brute_force_oracle(cfg)


# --- one table per search, and its int64 crossing ------------------------------------


def _counting_tables(monkeypatch):
    """Route every _PairSumTable construction through a counter; returns
    the list of (power, cap, top) built."""
    built = []

    class Counted(_PairSumTable):
        __slots__ = ()

        def __init__(self, power, cap, top=None):
            built.append((power, cap, top))
            super().__init__(power, cap, top)

    monkeypatch.setattr(search_module, "_PairSumTable", Counted)
    monkeypatch.setattr(decompose_module, "_PairSumTable", Counted)
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
    # the largest quintic residual, psi(n)**5 - n**5 at n = 2100 (psi 5760),
    # is 0.68 * 2**63 at N = 2309; from N = 2310 (psi 6912) it is 1.70 *
    # 2**63, and the search stops at plan time, exit 2
    start = time.perf_counter()
    code = main(["table", "--id", "7", "--bound", "2310"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"up to {6912**5 - 2310**5} would leave int64" in captured.err
    assert elapsed < 1.0
    # one below, the table fits: record its cap and top without building 120 MB
    tables = []
    monkeypatch.setattr(search_module, "_PairSumTable",
                        lambda power, cap, top: tables.append((cap, top)))
    kind = kind_by_name("quintic-quintuple")
    for bound in (2309, 2310):
        runs = search_module._build_class_runs(bound, kind)
        search_module._needs_pair_table(kind, runs)
    assert tables == [(5752, 5760**5 - 2100**5), (6906, 6912**5 - 2310**5)]
    assert tables[0][1] < 2**63 <= tables[1][1]


# --- the memory budget ----------------------------------------------------------------


def test_search_over_budget_is_an_error(monkeypatch, capsys):
    # above the plan estimate of the sieve and class runs (about 10 kB at
    # 300), below the pair-sum table
    monkeypatch.setattr(arith, "_memory_budget", lambda: 100000)
    cfg = SearchConfig(kind_by_name("quintic-quintuple"), 300)
    with pytest.raises(ValueError, match=r"needs \d+ bytes .* budget of 100000 bytes"):
        search(cfg)
    code = main(["search", "--kind", "quintic-quintuple", "--bound", "300", "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: the pair-sum table")
    assert "budget of 100000 bytes" in captured.err


def test_budget_spares_what_needs_no_table(monkeypatch):
    # kinds without four free entries build no table and are not an error
    # under a budget that holds their class runs: kernel blocks and the
    # pieces of _split_pairs hold _KERNEL_BLOCK items, and the budget does
    # not count them
    monkeypatch.setattr(arith, "_memory_budget", lambda: 100000)
    for name, bound in (("cubic-quintuple", 96), ("quadratic-quadruple", 300)):
        kind = kind_by_name(name)
        runs = search_module._build_class_runs(bound, kind)
        assert search_module._needs_pair_table(kind, runs) is None
        assert search(SearchConfig(kind, bound))
    # a four-entry decomposition always joins a table: one past the budget
    # is an error, not a fall back to descent
    monkeypatch.setattr(arith, "_memory_budget", lambda: 1000)
    residual = 3**5 + 17**5 + 40**5 + 90**5
    with pytest.raises(InputError, match="budget of 1000 bytes"):
        decompose_sum_of_powers(residual, 4, 5, int_kth_root(residual, 5))


def test_table_far_over_the_budget_allocates_nothing():
    # 2**62 + 1 as four squares: its table would have 1.5e9 rows, whose row
    # ends alone take 12 GB; the triangle of those rows is refused first
    residual = 2**62 + 1

    def refuse():
        with pytest.raises(InputError, match="over the memory budget"):
            decompose_sum_of_powers(residual, 4, 2, int_kth_root(residual, 2))

    _, peak = _traced_peak(refuse)
    assert peak < 64 * 1024


def _no_sieve(limit):
    raise AssertionError(f"build_sieve({limit}) called")


def test_plan_over_budget_allocates_nothing(monkeypatch, capsys):
    monkeypatch.setattr(arith, "_memory_budget", lambda: 10**6)
    monkeypatch.setattr(search_module, "build_sieve", _no_sieve)
    cfg = SearchConfig(kind_by_name("quadratic-triple"), 100000)
    # one term: _RUNS_BYTES per entry of 1..N, since the sieve is freed
    # before the class runs grow
    need = search_module._RUNS_BYTES * 100000
    with pytest.raises(InputError, match=(
        rf"^a search to bound 100000 needs {need} bytes for the class runs, over the "
        rf"memory budget of 1000000 bytes$"
    )):
        search(cfg)
    code = main(["search", "--kind", "quadratic-triple", "--bound", "100000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "memory budget of 1000000 bytes" in captured.err


def test_plan_at_the_budget_runs(monkeypatch):
    bound = 500
    need = search_module._RUNS_BYTES * bound
    cfg = SearchConfig(kind_by_name("quadratic-triple"), bound)
    monkeypatch.setattr(arith, "_memory_budget", lambda: need)
    assert search(cfg) == brute_force_oracle(cfg)
    monkeypatch.setattr(arith, "_memory_budget", lambda: need - 1)
    with pytest.raises(InputError, match=f"needs {need} bytes"):
        search(cfg)


# Every kernel block, of _KERNEL_BLOCK multisets, peaks below this many bytes
# per multiset (tracemalloc), whatever the size of the classes it cuts.
_BLOCK_PEAK_PER_MULTISET = 160


@pytest.mark.parametrize("kind, bound, fits", [
    # int64, one free entry
    (TupleKind(2, 4, 1), 5000, True), (TupleKind(2, 6, 1), 1000, True),
    (TupleKind(3, 3, 1), 60000, True), (TupleKind(4, 3, 1), 20000, True),
    # int64, two free entries: one piece of _split_pairs beside the block
    (TupleKind(3, 4, 2), 2000, True), (TupleKind(2, 4, 2), 5000, True),
    # Python ints: 3 * 17280**5 > 2**63, and three free entries list theirs
    (TupleKind(5, 3, 1), 20000, False), (TupleKind(2, 3, 3), 40000, True),
], ids=["4-5000", "6-1000", "3-3-1-60000", "4-3-1-20000", "3-4-2-2000", "2-4-2-5000",
        "5-3-1-20000", "2-3-3-40000"])
def test_one_entry_block_peaks_within_the_plan(monkeypatch, kind, bound, fits):
    # the blocks of a serial search that cover the multisets of the largest
    # class's first entry, up to 169911 of them at (2, 6, 1) to 1000, each
    # peak below one bound per multiset of a block; the decomposition of
    # each residual is left out, of the bound and of the run
    monkeypatch.setattr(search_module, "decompose_sum_of_powers", lambda *args: [])
    block = search_module._KERNEL_BLOCK
    runs = search_module._build_class_runs(bound, kind)
    first = int(np.argmax(runs.run_end.astype(np.int64) - np.arange(bound)))
    lo, hi, total = (int(runs.tuple_start[i]) for i in (first, first + 1, -1))
    assert hi - lo > block // 2  # about a block of multisets or more
    assert search_module._fits_int64(kind, int(runs.psis[first])) == fits
    for b_lo in range(lo - lo % block, hi, block):
        b_hi = min(b_lo + block, total)
        _, peak = _traced_peak(lambda: search_module._search_runs(kind, runs, None, b_lo, b_hi))
        assert peak <= _BLOCK_PEAK_PER_MULTISET * block, (b_lo, peak / block)


def test_one_entry_of_multisets_over_the_budget_runs_in_blocks(monkeypatch):
    # the largest class of 1..2000 has 37 entries, so its first entry starts
    # C(39, 3) = 9139 multisets of four equal entries, more than 256 kB would
    # hold in one block; the budget holds the class runs, and counts no
    # block, as a block holds _KERNEL_BLOCK multisets whatever the classes
    cfg = SearchConfig(TupleKind(3, 4, 1), 2000)
    monkeypatch.setattr(arith, "_memory_budget", lambda: 256 * 1024)
    assert search(cfg) == []


def test_class_multiset_rules_at_their_edges():
    # two equal entries and a largest class of two: c = 2 multisets at its
    # first entry, so bound * c reaches 2**63 at bound 2**62
    check, kind = search_module._check_class_multisets, TupleKind(2, 2, 1)
    check(2**62 - 1, kind, 2)
    with pytest.raises(InputError, match=r"could count up to 9223372036854775808 multisets, "
                                         r"past int64$"):
        check(2**62, kind, 2)


def test_bound_past_the_key_field_allocates_nothing(monkeypatch, capsys):
    # n fills the low 31 bits of a class-run key: 2**31 is refused whatever
    # the budget, before a sieve is built
    monkeypatch.setattr(search_module, "build_sieve", _no_sieve)
    monkeypatch.setattr(arith, "_memory_budget", lambda: 2**62)
    with pytest.raises(InputError, match=(
        r"^a search bound must be below 2\*\*31, the 31-bit entry field of the class-run "
        r"keys, got 2147483648$"
    )):
        search(SearchConfig(kind_by_name("quadratic-triple"), 2**31))
    for command in (["search", "--kind", "quadratic-triple"], ["table", "--id", "1"]):
        code = main(command + ["--bound", str(2**31)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and "31-bit entry field" in captured.err
    # 2**31 - 1 passes the key rule: a budget that holds its runs reaches the
    # sieve, and a smaller one refuses it for memory alone
    with pytest.raises(AssertionError, match=r"build_sieve\(2147483647\) called"):
        search(SearchConfig(kind_by_name("quadratic-triple"), 2**31 - 1))
    monkeypatch.setattr(arith, "_memory_budget", lambda: 10**6)
    with pytest.raises(InputError, match="^a search to bound 2147483647 needs 51539607528 bytes"):
        search(SearchConfig(kind_by_name("quadratic-triple"), 2**31 - 1))


def test_memory_budget_reads_meminfo_or_sysconf(monkeypatch, request):
    # the reading is cached per process: cleared first, and again at the end,
    # so that no other test sees the sysconf reading made under the patch
    budget_of = arith._memory_budget
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

    monkeypatch.setattr(arith, "open", no_meminfo, raising=False)
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


@pytest.mark.parametrize("power, cap", [(4, 2000), (5, 900)])
def test_clipped_table_build_peaks_at_eight_bytes_per_pair(power, cap):
    top = cap**power  # clips every row but the first
    table, peak = _traced_peak(lambda: _PairSumTable(power, cap, top))
    pairs = table.sums.size
    assert 0 < pairs < cap * (cap + 1) // 2
    assert peak <= 8 * pairs + 64 * 1024, peak / pairs


@pytest.mark.parametrize("equal", [1, 2, 3])
def test_class_runs_build_peaks_within_the_plan(equal):
    # the build makes its own sieve and frees it once the keys exist, so it
    # never holds the sieve beside the runs
    bound = 10**6
    kind = TupleKind(2, equal, 1)
    runs, peak = _traced_peak(lambda: search_module._build_class_runs(bound, kind))
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
    block = search_module._KERNEL_BLOCK
    runs = search_module._build_class_runs(bound, kind)
    blocks = int(runs.tuple_start[-1]) // block
    assert blocks > 4
    lo = blocks // 2 * block
    _, peak = _traced_peak(lambda: search_module._search_runs(kind, runs, None, lo, lo + block))
    assert peak <= 56 * block + 64 * 1024, peak / block


@pytest.mark.parametrize("block", [1 << 12, 1 << 14])
def test_mitm_temporaries_scale_with_the_block(monkeypatch, block):
    monkeypatch.setattr(decompose_module, "_KERNEL_BLOCK", block)
    residual = 7**5 + 100**5 + 300**5 + 719**5  # near 720**5, with one tuple
    cap = int_kth_root(residual, 5)
    for table in (_PairSumTable(5, 720), _PairSumTable(5, 1440)):
        got, peak = _traced_peak(lambda: _mitm4(residual, 5, cap, table))
        assert got == [(7, 100, 300, 719)]
        assert peak <= 6 * 8 * block + 64 * 1024, (table.cap, peak)
