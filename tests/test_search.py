"""Search engine: class index, decompositions, search vs oracle."""

import faulthandler
import importlib
import os
import pickle
import subprocess
import sys
import tracemalloc
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psituples import (
    ORACLE_MAX_BOUND,
    InputError,
    PsiSieve,
    SearchConfig,
    brute_force_oracle,
    build_class_index,
    build_sieve,
    decompose_sum_of_powers,
    kind_by_name,
    search,
    verify_solution,
)
from psituples.arith import _INT64_MAX, _INT64_ROOT_MAX, _floor_root_vec, int_kth_root
from psituples.search import (
    _build_class_runs,
    _descend,
    _PairSumTable,
    _quartic_descent,
    _split_pairs,
)
from psituples.tuples import Solution, TupleKind, sort_solutions

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
    idx = build_class_index(25)
    assert idx.classes[36] == [18, 20, 22]  # contains the published pair {18, 22}
    idx = build_class_index(16)
    assert idx.classes[24] == [12, 14, 15, 16]  # contains {14, 16}
    idx = build_class_index(1)
    assert idx.classes == {1: [1]}
    assert build_class_index(5).classes == {1: [1], 3: [2], 4: [3], 6: [4, 5]}


def test_class_index_takes_no_sieve():
    # it sieves 1..bound itself: a caller's table, right or wrong, is refused
    wrong = PsiSieve(5, np.array([0, 1, 1, 1, 1, 1], dtype=np.uint64))
    for sieve in (wrong, build_sieve(5)):
        with pytest.raises(InputError, match="bound must be an integer"):
            build_class_index(sieve)


def test_class_index_partition(sieve_1k):
    idx = build_class_index(1000)
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


def test_descents_take_a_free_count_deeper_than_the_recursion_limit():
    # both descents keep one stack entry per free entry, not one frame
    one = [(1,) * 1199 + (2,)]
    assert decompose_sum_of_powers(1203, 1200, 2, 2) == one
    pw = [b**2 for b in range(4)]
    root_of = {v: b for b, v in enumerate(pw)}
    assert search_module._oracle_free_part(1203, 1200, pw, root_of) == one


def test_descent_stack_does_not_grow_with_the_cap():
    # the stack holds one frame per entry, each taking its next candidate
    # from a range, not one item per candidate.  cap**4 - 7 is 9 mod 16 for
    # an even cap, so no three fourth powers make it, and every candidate
    # of the first entry is tried
    peaks = []
    for cap in (300, 600):
        tracemalloc.start()
        try:
            assert _descend(cap**4 - 7, 3, 4, cap - 1) == []
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 4096, peaks


@pytest.mark.parametrize("count", [3, 5, 6, 7])
@pytest.mark.parametrize("power", [2, 3])
def test_descent_equals_the_oracle_free_part(count, power):
    pw = [b**power for b in range(40)]
    root_of = {v: b for b, v in enumerate(pw)}
    for residual in range(count, count * 4**power + 1):
        assert decompose_sum_of_powers(residual, count, power, 39) == (
            search_module._oracle_free_part(residual, count, pw, root_of)
        ), residual


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
            assert via_table == _descend(residual, 4, power, cap), (power, residual)


def descend4(residual, power, cap):
    return _descend(residual, 4, power, cap)


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
    # a caller's table serves every count-4 residual it covers, however much
    # larger it is; without one, decompose builds a table of its own
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


# --- quartic congruence descent -----------------------------------------------


def test_quartic_descent_repeats_the_mod_16_step():
    # psi(538 * 2**k) = 810 * 2**k, so the residual of a = 538 * 2**k is
    # 16**k times that of 538, whose entries (96, 532, 548, 648) are
    # themselves all even twice over
    base = 810**4 - 538**4
    assert _quartic_descent(base) == (base // 16**2, 4)
    for k in range(5):
        residual = base * 16**k
        assert _quartic_descent(residual) == (base // 16**2, 4 * 2**k)
        expected = [tuple(2**k * b for b in (96, 532, 548, 648))]
        assert decompose_sum_of_powers(residual, 4, 4, int_kth_root(residual, 4)) == expected


def test_quartic_descent_rules_out_by_residue():
    # mod 16 in 5..15 (more than four odd entries), or 0 mod 5 but not
    # mod 625 (all four divisible by 5, yet their sum is not)
    for residual in range(4, 10_000):
        mod16_out = residual % 16 > 4
        mod5_out = residual % 16 in (1, 2, 3, 4) and residual % 5 == 0 and residual % 625
        if not (mod16_out or mod5_out):
            continue
        assert _quartic_descent(residual) == (0, 1), residual
        cap = int_kth_root(residual, 4)
        assert decompose_sum_of_powers(residual, 4, 4, cap) == []
        assert descend4(residual, 4, cap) == []


def test_quartic_descent_keeps_residues_one_to_four():
    # 1 + 3**4 + 5**4 + 7**4 = 3108: four odd entries, so 4 mod 16
    assert 1 + 3**4 + 5**4 + 7**4 == 3108
    assert _quartic_descent(3108) == (3108, 1)
    assert (1, 3, 5, 7) in decompose_sum_of_powers(3108, 4, 4, 10)
    for residual in range(4, 10_000):
        if residual % 16 in (1, 2, 3, 4) and residual % 5:
            assert _quartic_descent(residual) == (residual, 1)
            cap = int_kth_root(residual, 4)
            assert decompose_sum_of_powers(residual, 4, 4, cap) == descend4(residual, 4, cap)


def test_quartic_descent_divides_by_625():
    residual = 5**4 * 3108
    assert _quartic_descent(residual) == (3108, 5)
    cap = int_kth_root(residual, 4)
    got = decompose_sum_of_powers(residual, 4, 4, cap)
    assert got == descend4(residual, 4, cap)
    assert (5, 15, 25, 35) in got
    # a caller's cap becomes cap // scale: 34 keeps no entry of 35
    assert decompose_sum_of_powers(residual, 4, 4, 34) == descend4(residual, 4, 34)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=4, max_size=4),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=1),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_quartic_descent_matches_descent_on_scaled_sums(bs, i, j, cap_frac):
    s = 2**i * 5**j
    residual = sum((s * b) ** 4 for b in bs)
    root = int_kth_root(residual, 4)
    cap = max(1, round(root * cap_frac))
    expected = descend4(residual, 4, cap)
    assert decompose_sum_of_powers(residual, 4, 4, cap) == expected
    assert decompose_sum_of_powers(residual, 4, 4, root) == descend4(residual, 4, root)
    assert tuple(sorted(s * b for b in bs)) in descend4(residual, 4, root)


def test_quartic_descent_brings_a_huge_residual_to_the_table(monkeypatch):
    # 30**4 + 120**4 + 272**4 + 315**4 = 353**4, scaled by 160 = 2**5 * 5:
    # the residual is past 2**62, its reduction 353**4 is not, and only the
    # table path may decompose it (descent at cap 56480 would not finish)
    assert 30**4 + 120**4 + 272**4 + 315**4 == 353**4
    residual = 160**4 * 353**4
    assert residual >= 2**62 > 353**4
    assert _quartic_descent(residual) == (353**4, 160)
    probed = []
    real_mitm4 = search_module._mitm4

    def spy(res, power, cap, table):
        probed.append(res)
        return real_mitm4(res, power, cap, table)

    def no_descent(*args):
        raise AssertionError("recursive descent on a residual the table covers")

    monkeypatch.setattr(search_module, "_mitm4", spy)
    monkeypatch.setattr(search_module, "_descend", no_descent)
    got = decompose_sum_of_powers(residual, 4, 4, int_kth_root(residual, 4),
                                  _PairSumTable(4, 353))
    assert probed == [353**4]
    assert (4800, 19200, 43520, 50400) in got
    assert all(sum(b**4 for b in t) == residual for t in got)


def test_quartic_search_equals_unreduced_table_join():
    # every a <= 600 (538 among them), its residual joined unreduced with a
    # table sized by max psi, as the search did before the descent
    from psituples.search import _mitm4

    bound = 600
    sieve = build_sieve(bound)
    psi = sieve.psi[: bound + 1].tolist()
    table = _PairSumTable(4, max(psi))
    expected = []
    for a in range(1, bound + 1):
        residual = psi[a] ** 4 - a**4
        if residual >= 4:
            cap = int_kth_root(residual, 4)
            expected += [(a,) + t for t in sorted(_mitm4(residual, 4, cap, table))]
    got = search(SearchConfig(kind_by_name("quartic-quintuple"), bound))
    assert [s.equal_entries + s.free_entries for s in got] == expected
    assert (538, 96, 532, 548, 648) in expected


def test_kernel_search_leaves_numpy_ma_unimported():
    code = (
        "import sys\n"
        "from psituples import SearchConfig, kind_by_name, search\n"
        "search(SearchConfig(kind_by_name('quadratic-triple'), 8192))\n"
        "search(SearchConfig(kind_by_name('cubic-quintuple'), 300))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout == "False\n"


def test_cli_search_leaves_pool_machinery_unimported():
    code = (
        "import sys\n"
        "import psituples.cli\n"
        "for argv in (['search', '--kind', 'quadratic-triple', '--bound', '8192'],\n"
        "             ['search', '--kind', 'quartic-quintuple', '--bound', '300']):\n"
        "    assert psituples.cli.main(argv + ['--jobs', '1']) == 0\n"
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing',\n"
        "                          'dataclasses', 'psituples.theorems')\n"
        "             if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.splitlines()[-1] == "['psituples.theorems']"


def _chunk_count(config):
    seen = []
    search(config, progress=lambda i, n, part: seen.append(n))
    return seen[0]


@pytest.mark.parametrize("jobs, cpus, bound, workers", [
    (5000, 16, 100, 15),  # clamped by the usable CPUs
    (5000, 1000, 12, 11),  # by the chunks: 12 of them
    (3, 16, 100, 2),  # the parent is one of the jobs processes
    (8, 16, 3, 2),  # three chunks
    (8, 1, 100, None),  # one usable CPU: no pool at all
])
def test_pool_size_is_clamped(monkeypatch, forks, jobs, cpus, bound, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    kind = kind_by_name("quartic-quintuple")
    got = search(SearchConfig(kind, bound, jobs=jobs))
    assert len(forks) == (workers or 0)
    assert got == search(SearchConfig(kind, bound))


def test_pool_size_without_sched_getaffinity(monkeypatch, forks):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    config = SearchConfig(kind_by_name("cubic-quintuple"), 300, jobs=5000)
    search(config)
    assert len(forks) == 3
    # the chunks are planned for the clamped count too
    assert _chunk_count(config) == _chunk_count(SearchConfig(config.kind, 300, jobs=4)) > 4


def test_pool_deals_chunks_round_robin_and_streams_progress(monkeypatch, forks, tmp_path):
    # one child, which logs each chunk it runs to a file: this process runs
    # chunks 0, 2, 4, ... and the child 1, 3, 5, ..., each once; progress
    # comes in chunk order, and this process runs each of its chunks right
    # after the progress of its last one, so chunk 0's progress comes
    # before it runs chunk 2, and chunk 1's after
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    log, parent, events = tmp_path / "child.log", os.getpid(), []
    search_runs = search_module._search_runs

    def logged(kind, runs, table, lo, hi):
        if os.getpid() != parent:
            with open(log, "a") as f:
                f.write(f"{lo}\n")
        else:
            events.append(("run", lo))
        return search_runs(kind, runs, table, lo, hi)

    monkeypatch.setattr(search_module, "_search_runs", logged)
    config = SearchConfig(kind_by_name("quartic-quintuple"), 300, jobs=2)
    faulthandler.dump_traceback_later(120, exit=True, file=sys.__stderr__)  # no hang
    try:
        got = search(config, progress=lambda i, n, part: events.append(("progress", i)))
    finally:
        faulthandler.cancel_dump_traceback_later()
    own = [lo for what, lo in events if what == "run"]
    theirs = [int(lo) for lo in _lines(log)]
    chunk = {lo: i for i, lo in enumerate(sorted(own + theirs))}
    n = len(chunk)
    assert len(forks) == 1 and n > 4
    assert len(own + theirs) == n  # no chunk runs twice
    assert [chunk[lo] for lo in own] == list(range(0, n, 2))
    assert [chunk[lo] for lo in theirs] == list(range(1, n, 2))
    expected = [("run", 0)]
    for i in range(n):
        expected += [("progress", i)] + [("run", i + 2)] * (i % 2 == 0 and i + 2 < n)
    assert [(what, chunk[x] if what == "run" else x) for what, x in events] == expected
    assert got == search(SearchConfig(config.kind, 300))


def _lines(path):
    return path.read_text().split() if path.exists() else []


def test_pool_with_more_processes_than_cores():
    # four processes of one search however few the cores: a chunk that
    # no process ran would fail the comparison
    code = (
        "import os\n"
        "os.sched_getaffinity = lambda pid: set(range(4))\n"
        "from psituples import SearchConfig, kind_by_name, search\n"
        "for name, bound in (('cubic-quintuple', 400), ('quartic-quintuple', 450)):\n"
        "    kind = kind_by_name(name)\n"
        "    for _ in range(3):\n"
        "        got = search(SearchConfig(kind, bound, jobs=4))\n"
        "        assert got == search(SearchConfig(kind, bound)), name\n"
        "print('ok')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout == "ok\n"


_POOL_SCRIPT_HEAD = (
    "import importlib, os\n"
    "os.sched_getaffinity = lambda pid: {0, 1}\n"
    "fork, started = os.fork, []\n"
    "def counted():\n"
    "    pid = fork()\n"
    "    if pid:\n"
    "        started.append(pid)\n"
    "    return pid\n"
    "os.fork = counted\n"
)


def _run_script(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    return out.stdout.splitlines()[-1]


def test_pool_search_leaves_pool_machinery_unimported():
    code = _POOL_SCRIPT_HEAD + (
        "import sys\n"
        "import psituples.cli\n"
        "for argv in (['search', '--kind', 'quadratic-triple', '--bound', '8192'],\n"
        "             ['search', '--kind', 'quartic-quintuple', '--bound', '300']):\n"
        "    assert psituples.cli.main(argv + ['--jobs', '2']) == 0\n"
        "print(len(started), sorted(m for m in ('concurrent.futures', 'multiprocessing')\n"
        "                           if m in sys.modules))\n"
    )
    assert _run_script(code) == "2 []"


def test_pool_leaves_no_child_unreaped():
    # a clean run; a child that dies, that exits non-zero after sending its
    # chunk, or that exits 0 with a dealt chunk unreturned; this process failing in its own chunk while a child is
    # busy (asleep), or in a progress call: every child is reaped each time,
    # and none is waited out
    code = _POOL_SCRIPT_HEAD + (
        "import time\n"
        "from psituples import SearchConfig, kind_by_name, search\n"
        "m = importlib.import_module('psituples.search')\n"
        "config = SearchConfig(kind_by_name('quartic-quintuple'), 300, jobs=2)\n"
        "expected = search(SearchConfig(config.kind, 300))\n"
        "parent, search_runs, run_chunk = os.getpid(), m._search_runs, m._run_chunk\n"
        "def die(*args):\n"
        "    os._exit(1)\n"
        "def send_and_die(*args):\n"
        "    run_chunk(*args)\n"
        "    os._exit(3)\n"
        "def asleep(*args):\n"
        "    time.sleep(600)\n"
        "def own_raises(exc):\n"
        "    def chunk(*args):\n"
        "        if os.getpid() == parent:\n"
        "            raise exc\n"
        "        return search_runs(*args)\n"
        "    return chunk\n"
        "def progress(i, n, part):\n"
        "    raise LookupError('progress')\n"
        "cases = [({}, None, None),\n"
        "         ({'_init_worker': die}, None, m.SearchWorkerError),\n"
        "         ({'_run_chunk': die}, None, m.SearchWorkerError),\n"
        "         ({'_run_chunk': send_and_die}, None, m.SearchWorkerError),\n"
        "         ({'_run_chunk': lambda *args: None}, None, m.SearchWorkerError),\n"
        "         ({'_run_chunk': asleep, '_search_runs': own_raises(RuntimeError('own'))},\n"
        "          None, RuntimeError),\n"
        "         ({'_run_chunk': asleep, '_search_runs': own_raises(KeyboardInterrupt())},\n"
        "          None, KeyboardInterrupt),\n"
        "         ({}, progress, LookupError)]\n"
        "reaped = []\n"
        "for patches, report, error in cases:\n"
        "    saved = {name: getattr(m, name) for name in patches}\n"
        "    for name, patch in patches.items():\n"
        "        setattr(m, name, patch)\n"
        "    caught = None  # keeps the traceback, and the frames in it, alive\n"
        "    try:\n"
        "        assert search(config, progress=report) == expected\n"
        "    except BaseException as exc:\n"
        "        caught = exc\n"
        "    assert isinstance(caught, error) if error else caught is None, repr(caught)\n"
        "    for name, fn in saved.items():\n"
        "        setattr(m, name, fn)\n"
        "    try:\n"
        "        os.waitpid(-1, os.WNOHANG)\n"
        "    except ChildProcessError:\n"
        "        reaped.append(True)\n"
        "    else:\n"
        "        reaped.append(False)\n"
        "print(len(started), reaped)\n"
    )
    assert _run_script(code) == "8 [True, True, True, True, True, True, True, True]"


@pytest.mark.parametrize("fault, message", [
    ("swapped", "sent chunk 3 in place of chunk 1"),
    ("twice", "sent more chunks than it was dealt"),
    ("exit_3", "died with exit status 3"),
    ("half", "died: chunk 1 is missing"),
])
def test_pool_reports_each_fault_by_its_message(monkeypatch, forks, fault, message):
    # one child, dealt chunks 1, 3, 5, ...: it sends chunk 3 first; sends
    # its last chunk twice; sends all its chunks, then exits 3; or writes
    # half of chunk 1's pickle, then exits 0.  Each fault raises
    # SearchWorkerError with its own message, and the child is reaped
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    config = SearchConfig(kind_by_name("quartic-quintuple"), 300, jobs=2)
    last = range(1, _chunk_count(config), 2)[-1]
    run_chunk = search_module._run_chunk

    def swapped(run, i, out):
        run_chunk(run, i + 2, out)

    def twice(run, i, out):
        run_chunk(run, i, out)
        if i == last:
            run_chunk(run, i, out)

    def exit_3(run, i, out):
        run_chunk(run, i, out)
        if i == last:
            os._exit(3)

    def half(run, i, out):
        data = pickle.dumps((i, run(i)), pickle.HIGHEST_PROTOCOL)
        os.write(out, data[: len(data) // 2])
        os._exit(0)

    faults = {"swapped": swapped, "twice": twice, "exit_3": exit_3, "half": half}
    monkeypatch.setattr(search_module, "_run_chunk", faults[fault])
    del forks[:]
    faulthandler.dump_traceback_later(120, exit=True, file=sys.__stderr__)  # no hang
    try:
        with pytest.raises(search_module.SearchWorkerError) as caught:
            search(config)
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert str(caught.value) == f"a search worker process {message}"
    (pid,) = forks
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def test_pool_size_at_the_jobs_cap(monkeypatch):
    # 5000 usable CPUs: jobs clamps to _MAX_JOBS, so this process holds at
    # most 511 result pipes; no process is started
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(5000)))
    seen = []

    def no_pool(run, count, workers):
        seen.append((count, workers))
        return ([] for _ in range(count))

    monkeypatch.setattr(search_module, "_pool_parts", no_pool)
    search(SearchConfig(TupleKind(3, 1, 3), 1 << 14, jobs=5000))  # one multiset per a
    (count, workers), = seen
    assert workers == search_module._MAX_JOBS - 1 == 511
    assert count == 16 * 512  # the most chunks a plan can have


def test_no_pool_without_fork(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    monkeypatch.delattr(os, "fork")
    config = SearchConfig(kind_by_name("cubic-quintuple"), 300, jobs=4)
    assert _chunk_count(config) == 1
    assert search(config) == search(SearchConfig(config.kind, 300))


@pytest.mark.parametrize("jobs, cpus, fork", [
    (1, 4, True),  # one job asked for
    (4, 1, True),  # one usable CPU
    (4, 4, False),  # no os.fork
])
def test_serial_search_is_the_pool_with_no_children(monkeypatch, forks, jobs, cpus, fork):
    # one execution path: a serial search runs its chunks through the same
    # pool as a pool search, with zero children
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    if not fork:
        monkeypatch.delattr(os, "fork")
    pool_parts, workers = search_module._pool_parts, []

    def spy(run, count, n):
        workers.append(n)
        return pool_parts(run, count, n)

    monkeypatch.setattr(search_module, "_pool_parts", spy)
    for kind, bound in ((kind_by_name("cubic-quadruple"), 80), (TupleKind(3, 1, 4), 60)):
        config = SearchConfig(kind, bound, jobs=jobs)
        del workers[:]
        got = search(config)
        assert got and got == brute_force_oracle(config), kind
        assert workers == [0] and forks == []


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
        # _mitm4's b1_lo bound passes negative values: they give 0
        negatives = np.array([-1, -(2**40), -_INT64_MAX], dtype=np.int64)
        assert _floor_root_vec(negatives, power).tolist() == [0, 0, 0]


# --- batched equal-class kernel ---------------------------------------------


def reference_search(cfg):
    """Every solution one multiset at a time: the dict class index,
    itertools multisets and decompose_sum_of_powers, with no class runs,
    no blocks and no shared pair-sum table."""
    kind, p, f = cfg.kind, cfg.kind.power, cfg.kind.free
    out = []
    for v, members in build_class_index(cfg.bound).classes.items():
        for multiset in combinations_with_replacement(members, kind.equal):
            residual = v**p - sum(a**p for a in multiset)
            if residual >= f:
                for frees in decompose_sum_of_powers(residual, f, p, int_kth_root(residual, p)):
                    out.append(Solution(kind, multiset, frees, v, v**p))
    return sort_solutions(out)


def block_edges(kind, bound, budget):
    """Interior block edges of a serial search, multiset numbers, split into
    those at the first multiset of a class and those inside a class."""
    runs = _build_class_runs(bound, kind)
    edges = range(budget, int(runs.tuple_start[-1]), budget)
    starts = set(runs.tuple_start[np.flatnonzero(np.diff(runs.psis, prepend=-1))].tolist())
    return [x for x in edges if x in starts], [x for x in edges if x not in starts]


def reference_class_runs(bound, equal):
    """(ns, psis, run_end, tuple_start) as plain lists, from the dict class
    index: the classes by ascending psi, each class's members ascending,
    and the tuples that start at each position counted one by one."""
    classes = build_class_index(bound).classes
    ns, psis, run_end, tuple_start = [], [], [], [0]
    for v in sorted(classes):
        members = classes[v]
        end = len(ns) + len(members)
        for k, n in enumerate(members):
            ns.append(n)
            psis.append(v)
            run_end.append(end)
            # the equal-tuples whose first entry is this one: the other
            # equal - 1 entries are drawn from it and the run after it
            count = sum(1 for _ in combinations_with_replacement(members[k:], equal - 1))
            tuple_start.append(tuple_start[-1] + count)
    return ns, psis, run_end, tuple_start


@pytest.mark.parametrize("equal, bound", [(1, 20000), (2, 2511), (3, 720), (4, 400)])
def test_class_runs_equal_reference(monkeypatch, equal, bound):
    # each bound puts a _KERNEL_BLOCK edge inside a class; the build counts
    # tuples one slice of _KERNEL_BLOCK positions at a time, and slices of 7
    # cut most classes
    kind = TupleKind(2, equal, 1)
    on, inside = block_edges(kind, bound, search_module._KERNEL_BLOCK)
    assert inside and not on
    reference = list(reference_class_runs(bound, equal))
    for block in (search_module._KERNEL_BLOCK, 7):
        monkeypatch.setattr(search_module, "_KERNEL_BLOCK", block)
        runs = _build_class_runs(bound, kind)
        arrays = (runs.ns, runs.psis, runs.run_end, runs.tuple_start)
        assert [a.dtype for a in arrays] == [np.uint32, np.int64, np.uint32, np.int64]
        assert [a.tolist() for a in arrays] == reference, block


def test_class_runs_order_wide_psi_like_a_stable_argsort(monkeypatch):
    # psi values across the whole 33-bit field of a key, bits 31 and 32 and
    # 2**33 - 1 included, drawn from a few hundred so that most classes hold
    # many entries, which must keep ascending n
    rng = np.random.default_rng(2025)
    bound = 20000
    values = np.concatenate((rng.integers(1, 2**33, 300, dtype=np.uint64),
                             np.array([2**31 - 1, 2**31, 2**32, 2**33 - 1], dtype=np.uint64)))
    psi = np.zeros(bound + 1, dtype=np.uint64)
    psi[1:] = rng.choice(values, bound)
    order = np.argsort(psi[1:], kind="stable")
    monkeypatch.setattr(search_module, "build_sieve", lambda limit: PsiSieve(limit, psi))
    runs = _build_class_runs(bound, TupleKind(2, 2, 1))
    assert runs.ns.tolist() == (order + 1).tolist()
    assert runs.psis.tolist() == psi[1:][order].tolist()
    assert runs.run_end.tolist() == np.searchsorted(runs.psis, runs.psis, "right").tolist()
    assert int(runs.psis[-1]) == 2**33 - 1


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
        ("quartic-quintuple", 600, None),  # includes 538
        ("quintic-quintuple", 300, None),
        (TupleKind(3, 2, 3), 100, None),
        (TupleKind(4, 2, 4), 150, None),
    ],
)
def test_kernel_equals_scalar_path(name, bound, block_edge):
    kind = name if isinstance(name, TupleKind) else kind_by_name(name)
    on, inside = block_edges(kind, bound, search_module._KERNEL_BLOCK)
    if block_edge == "on a class boundary":
        assert on
    elif block_edge == "inside a class":
        assert inside and not on
    cfg = SearchConfig(kind, bound)
    assert search(cfg) == reference_search(cfg)


def ordered_multisets(kind, bound):
    """Every equal-class multiset of a search as a tuple of positions, in
    the order of its number: by first position, then lexicographically."""
    runs = _build_class_runs(bound, kind)
    return [(p,) + rest for p in range(bound)
            for rest in combinations_with_replacement(range(p, int(runs.run_end[p])),
                                                      kind.equal - 1)]


@pytest.mark.parametrize("budget", [1, 2, 5])
def test_kernel_with_tiny_blocks(monkeypatch, budget):
    for kind, bound in [(kind_by_name("quadratic-pair"), 400),
                        (kind_by_name("quadratic-triple"), 600),
                        (kind_by_name("quadratic-quadruple"), 300),
                        (TupleKind(2, 4, 1), 150), (TupleKind(2, 6, 1), 60)]:
        cfg = SearchConfig(kind, bound)
        reference = reference_search(cfg)
        on, inside = block_edges(kind, bound, budget)
        assert on and (inside or kind.equal == 1)  # classes span several blocks
        if kind.equal > 3:
            # some edge falls between two multisets of one entry that first
            # differ in column d, for every column d after the first
            multisets = ordered_multisets(kind, bound)
            cut = {next(d for d in range(kind.equal) if a[d] != b[d])
                   for a, b in zip(multisets[budget - 1 :: budget], multisets[budget::budget])}
            assert cut == set(range(kind.equal)), cut
        with monkeypatch.context() as m:
            m.setattr(search_module, "_KERNEL_BLOCK", budget)
            assert search(cfg) == reference, (kind, budget)


@pytest.mark.parametrize("equal, bound", [(1, 200), (2, 200), (3, 150), (4, 100), (6, 50)])
def test_block_columns_decode_every_range(equal, bound):
    # every block of every size up to 9 and a few larger, at every offset
    # it takes in a serial search, decodes exactly its multisets
    kind = TupleKind(2, equal, 1)
    runs = _build_class_runs(bound, kind)
    multisets = ordered_multisets(kind, bound)
    assert len(multisets) == runs.tuple_start[-1]
    for size in list(range(1, 10)) + [64, 1000]:
        for lo in range(0, len(multisets), size):
            hi = min(lo + size, len(multisets))
            cols = search_module._block_columns(runs, equal, lo, hi)
            assert all(c.dtype == np.int64 for c in cols)
            assert list(zip(*(c.tolist() for c in cols))) == multisets[lo:hi], (size, lo)


def test_blocks_and_split_pieces_hold_at_most_the_kernel_block(monkeypatch):
    # with blocks of 7, every block decodes at most 7 multisets and every
    # piece of _split_pairs tests at most 7 splits, though the largest
    # entries start more multisets and the residuals split more often
    block, columns, tested = 7, [], []
    block_columns, exact_root_vec = search_module._block_columns, search_module._exact_root_vec
    monkeypatch.setattr(search_module, "_KERNEL_BLOCK", block)
    monkeypatch.setattr(search_module, "_block_columns",
                        lambda *args: columns.append(block_columns(*args)) or columns[-1])
    monkeypatch.setattr(search_module, "_exact_root_vec",
                        lambda values, p: tested.append(values.size) or exact_root_vec(values, p))
    for kind, bound in [(TupleKind(2, 6, 1), 40), (kind_by_name("cubic-quintuple"), 60),
                        (kind_by_name("cubic-triple"), 150)]:
        del columns[:], tested[:]
        cfg = SearchConfig(kind, bound)
        assert search(cfg) == reference_search(cfg), kind
        assert max(c.size for cols in columns for c in cols) == block, kind
        assert max(tested) <= block, kind
    # one residual near 2**30 splits 23170 times, in pieces of 7
    del tested[:]
    pieces = list(_split_pairs(np.array([2**30 + 1], dtype=np.int64), 1, 2, 2**15))
    assert (pieces[0][1][0], pieces[0][2][0]) == (1, 2**15)  # 2**30 + 1 == 1 + (2**15)**2
    assert tested == [block] * 3310  # 23170 == 7 * 3310


def test_kernel_generic_powers_and_fallback():
    # (5, 3, 1) at 2000 leaves the int64 domain (3 * 5184**5 > 2**63), so the
    # kernel forms the residuals of its last blocks as Python ints, and those
    # of every block below 1000 in int64
    sieve = build_sieve(2000)
    assert 3 * int(sieve.psi[1:2001].max()) ** 5 > _INT64_MAX
    assert 3 * int(sieve.psi[1:1001].max()) ** 5 <= _INT64_MAX
    for kind, bound in [(TupleKind(3, 2, 1), 1500), (TupleKind(3, 3, 1), 400),
                        (TupleKind(4, 2, 1), 600), (TupleKind(5, 2, 1), 300),
                        (TupleKind(5, 3, 1), 2000)]:
        cfg = SearchConfig(kind, bound)
        assert search(cfg) == reference_search(cfg), kind


@pytest.mark.parametrize("budget", [1, 2, 5])
def test_two_free_kernel_with_tiny_blocks(monkeypatch, budget):
    # the budget cuts both the multiset blocks and the (residual, b1) pieces
    for name, bound in [("cubic-triple", 150), ("cubic-quadruple", 150),
                        ("cubic-quintuple", 120)]:
        kind = kind_by_name(name)
        cfg = SearchConfig(kind, bound)
        reference = reference_search(cfg)
        assert reference
        on, inside = block_edges(kind, bound, budget)
        assert on and (inside or kind.equal == 1)
        with monkeypatch.context() as m:
            m.setattr(search_module, "_KERNEL_BLOCK", budget)
            assert search(cfg) == reference, (name, budget)


def test_two_free_kernel_generic_kinds():
    for kind, bound in [(TupleKind(2, 1, 2), 600), (TupleKind(4, 2, 2), 500),
                        (TupleKind(5, 1, 2), 400)]:
        cfg = SearchConfig(kind, bound)
        max_psi = int(build_sieve(bound).psi[1:].max())
        assert kind.equal * max_psi**kind.power <= _INT64_MAX  # int64 in every block
        assert search(cfg) == reference_search(cfg), kind


@pytest.mark.parametrize("budget", [1, 2, 5, None])
@pytest.mark.parametrize("power", [2, 3, 4, 5])
def test_split_pairs_equals_brute_force(monkeypatch, power, budget):
    # every pair sum of 1..40, every sum twice (per-row lower bounds of 1 and
    # above), and random values; the cap of 35 drops roots up to 40
    import random

    rng = random.Random(power)
    top, cap = 40, 35
    root_of = {b**power: b for b in range(2 * top + 1)}
    pair_sums = {x**power + y**power for x in range(1, top + 1) for y in range(x, top + 1)}
    values = sorted(pair_sums) + [1, 2] + [rng.randrange(1, 2 * top**power) for _ in range(200)]
    sums = np.array(values * 2, dtype=np.int64)
    u_lo = np.array([1] * len(values) + [rng.randint(2, top) for _ in values], dtype=np.int64)

    def brute(u_lo, cap):
        return [(i, u, root_of[s - u**power])
                for i, (s, lo) in enumerate(zip(sums.tolist(), u_lo.tolist()))
                for u in range(lo, min(cap, top) + 1)
                if u <= root_of.get(s - u**power, 0) <= cap]

    if budget is not None:
        monkeypatch.setattr(search_module, "_KERNEL_BLOCK", budget)
        splits = [min(int_kth_root(s // 2, power), cap) - lo + 1
                  for s, lo in zip(sums.tolist(), u_lo.tolist())]
        assert max(splits) > budget  # a budget multiple falls inside one sum's splits
    for lo, c in ((u_lo, cap), (u_lo, 2 * top), (1, _INT64_ROOT_MAX[power])):
        pieces = list(_split_pairs(sums, lo, power, c))
        got = [t for rows, u, v in pieces for t in zip(rows.tolist(), u.tolist(), v.tolist())]
        expected = brute(np.broadcast_to(lo, sums.shape), c)
        assert got == expected, (lo, c)  # ascending in row, then in u
        assert any(u > 1 for _, u, _ in expected) and len({i for i, _, _ in expected}) > 1
        if budget is not None:
            assert len(pieces) > 1
    # the cap drops roots: some pair of the uncapped splits has v above it
    assert any(v > cap for _, _, v in brute(u_lo, 2 * top))


def test_kernel_int64_crossover(monkeypatch):
    # 30**4 + 120**4 + 272**4 + 315**4 == 353**4, scaled by k and planted as
    # the one class {30k, 120k} with psi 353k; every other n gets psi n,
    # which leaves no residual.  2 * (353k)**4 fits int64 for k = 131, the
    # top of the int64 route, and not for k = 132 (the Python-int route).
    # Four free entries: 810**4 == 538**4 + 96**4 + 532**4 + 548**4 + 648**4
    # is Table 6's row 538 scaled down by 64, planted as psi(538k) = 810k.
    # 810 * 64 is below the int64 fourth root 55108 (the int64 route, and
    # k = 64 is the published row 34432) and 810 * 80 above it.
    cases = [(TupleKind(4, 2, 2), 131, (30, 120), (272, 315), 353),
             (TupleKind(4, 2, 2), 132, (30, 120), (272, 315), 353),
             (TupleKind(4, 1, 4), 64, (538,), (96, 532, 548, 648), 810),
             (TupleKind(4, 1, 4), 80, (538,), (96, 532, 548, 648), 810)]
    for kind, k, equal, free, v in cases:
        top = int_kth_root(_INT64_MAX // kind.equal, 4)
        bound = max(equal) * k
        psi = np.arange(bound + 1, dtype=np.uint64)
        psi[[a * k for a in equal]] = v * k
        assert (kind.equal * int(psi.max()) ** 4 <= _INT64_MAX) == (v * k <= top)
        cfg = SearchConfig(kind, bound)
        with monkeypatch.context() as m:
            m.setattr(search_module, "build_sieve", lambda limit: PsiSieve(limit, psi))
            found = search(cfg)
            assert [(s.equal_entries, s.free_entries) for s in found] == [
                (tuple(a * k for a in equal), tuple(b * k for b in free))
            ]
            if kind.free <= 2:  # four free entries go one by one on both routes
                m.setattr(search_module, "_INT64_MAX", -1)  # no block fits int64
                assert search(cfg) == found


@pytest.mark.parametrize("free", [1, 2])
def test_kernel_int64_per_block_straddle(monkeypatch, free):
    # Two planted classes on either side of the int64 crossover of (4, 2,
    # free), top = 46340: {30k, 120k} with psi 353k for k = 131 (46243, in
    # int64) and k = 132 (46596, past it); every other n <= 15840 gets psi
    # n, a class of one with a negative residual.  Blocks of one position
    # keep the two classes in different blocks, so the block of k = 131
    # takes the vector path and only the multisets of k = 132 are
    # decomposed one by one.  With two free entries both classes solve:
    # 30**4 + 120**4 + 272**4 + 315**4 == 353**4.
    kind, bound = TupleKind(4, 2, free), 15840
    top = int_kth_root(_INT64_MAX // 2, 4)
    psi = np.arange(bound + 1, dtype=np.uint64)
    residuals = {}
    for k in (131, 132):
        v, members = 353 * k, (30 * k, 120 * k)
        psi[list(members)] = v
        residuals[k] = sorted(v**4 - a**4 - b**4 for a, b in combinations_with_replacement(members, 2))
    assert 353 * 131 <= top < 353 * 132
    decomposed = []
    real = search_module.decompose_sum_of_powers
    monkeypatch.setattr(search_module, "build_sieve", lambda limit: PsiSieve(limit, psi))
    monkeypatch.setattr(search_module, "decompose_sum_of_powers",
                        lambda r, *args: decomposed.append(r) or real(r, *args))
    monkeypatch.setattr(search_module, "_KERNEL_BLOCK", 1)
    cfg = SearchConfig(kind, bound)
    found = search(cfg)
    assert sorted(decomposed) == residuals[132]
    expected = [((30 * k, 120 * k), (272 * k, 315 * k)) for k in (131, 132)] if free == 2 else []
    assert [(s.equal_entries, s.free_entries) for s in found] == expected
    decomposed.clear()
    monkeypatch.setattr(search_module, "_INT64_MAX", -1)  # the per-residual path everywhere
    assert search(cfg) == found
    assert sorted(decomposed) == sorted(residuals[131] + residuals[132])


def test_search_takes_no_sieve():
    # progress is keyword-only, so a sieve passed where it used to go fails
    cfg = SearchConfig(kind_by_name("quadratic-triple"), 16)
    with pytest.raises(TypeError):
        search(cfg, build_sieve(16))
    with pytest.raises(TypeError):
        search(cfg, sieve=build_sieve(16))


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
    for kind, bound in [(kind_by_name("quadratic-triple"), 300),
                        (kind_by_name("cubic-quadruple"), 300),
                        (kind_by_name("quartic-quintuple"), 300),
                        (TupleKind(3, 2, 3), 100), (TupleKind(5, 3, 1), 2000)]:
        search(SearchConfig(kind, bound))
        assert calls == [], kind


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


def test_search_emits_verified_solutions():
    out = search(SearchConfig(kind_by_name("cubic-quintuple"), 100))
    assert out
    for s in out:
        assert verify_solution(s.kind, s.equal_entries, s.free_entries).ok
        assert s.equal_entries == tuple(sorted(s.equal_entries))
        assert s.free_entries == tuple(sorted(s.free_entries))


def test_search_agrees_with_oracle_small():
    for name, bound in [
        ("quadratic-triple", 128),
        ("cubic-triple", 100),
        ("cubic-quadruple", 80),
        ("quadratic-quadruple", 60),
        ("cubic-quintuple", 60),
        ("quartic-quintuple", 100),
        ("quintic-quintuple", 100),
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
