"""Pair-sum table and its meet-in-the-middle join: contents, block edges,
dense hits against the oracle, the memory budget and the memory bounds."""

import importlib
import os
import tracemalloc

import numpy as np
import pytest

from psituples import SearchConfig, brute_force_oracle, build_sieve, kind_by_name, search
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
    cap = int_kth_root((2**63 - 1) // 4, 5)
    while not _PairSumTable.feasible(5, cap):
        cap -= 1
    assert not _PairSumTable.feasible(5, cap + 1)
    sums = _PairSumTable(5, cap).sums
    assert sums.size == cap * (cap + 1) // 2
    assert int(sums[0]) == 2 and int(sums[-1]) == 2 * cap**5
    assert bool(np.all(sums[1:] >= sums[:-1]))


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
        raise AssertionError("_sum_pairs called without a matched head sum")

    monkeypatch.setattr(search_module, "_sum_pairs", fail)
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
    assert search_module._needs_pair_table(kind, build_sieve(bound), bound) is not None
    cfg = SearchConfig(kind, bound)
    assert search(cfg) == brute_force_oracle(cfg)


# --- the memory budget ----------------------------------------------------------------


def test_search_over_budget_is_an_error(monkeypatch, capsys):
    monkeypatch.setattr(search_module, "_memory_budget", lambda: 1000)
    cfg = SearchConfig(kind_by_name("quintic-quintuple"), 300)
    with pytest.raises(ValueError, match=r"needs \d+ bytes .* budget of 1000 bytes"):
        search(cfg)
    code = main(["search", "--kind", "quintic-quintuple", "--bound", "300", "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: the pair-sum table")
    assert "budget of 1000 bytes" in captured.err


def test_budget_spares_what_needs_no_table(monkeypatch):
    monkeypatch.setattr(search_module, "_memory_budget", lambda: 1000)
    # a cap past the int64 guard builds no table and is not an error
    kind = TupleKind(5, 2, 4)
    sieve = build_sieve(3000)
    assert not _PairSumTable.feasible(5, int(sieve.psi[1:].max()))
    assert search_module._needs_pair_table(kind, sieve, 3000) is None
    # a decomposition given no table falls back to descent
    residual = 3**5 + 17**5 + 40**5 + 90**5
    cap = int_kth_root(residual, 5)
    assert cap * cap // 2 > search_module._MITM_PAIR_THRESHOLD
    assert decompose_sum_of_powers(residual, 4, 5, cap) == descend4(residual, 5, cap)


def test_memory_budget_reads_meminfo_or_sysconf(monkeypatch):
    budget = search_module._memory_budget()
    assert budget > 0
    if os.path.exists("/proc/meminfo"):
        with open("/proc/meminfo") as f:
            kb = next(int(line.split()[1]) for line in f if line.startswith("MemAvailable:"))
        assert abs(budget - kb * 1024 // 2) < 2**30  # available memory moves a little

    def no_meminfo(*args, **kwargs):
        raise FileNotFoundError("/proc/meminfo")

    monkeypatch.setattr(search_module, "open", no_meminfo, raising=False)
    assert search_module._memory_budget() > 0


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


@pytest.mark.parametrize("block", [1 << 12, 1 << 14])
def test_mitm_temporaries_scale_with_the_block(monkeypatch, block):
    monkeypatch.setattr(search_module, "_KERNEL_BLOCK", block)
    residual = 7**5 + 100**5 + 300**5 + 719**5  # near 720**5, with one tuple
    cap = int_kth_root(residual, 5)
    for table in (_PairSumTable(5, 720), _PairSumTable(5, 1440)):
        got, peak = _traced_peak(lambda: _mitm4(residual, 5, cap, table))
        assert got == [(7, 100, 300, 719)]
        assert peak <= 6 * 8 * block + 64 * 1024, (table.cap, peak)
