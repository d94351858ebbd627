"""Exhaustive, deterministic search for tuple solutions up to a bound.

Every kind runs one kernel.  It sorts 1..N by psi value, so that each psi
class is one run, numbers the equal-class multisets of every class, and
decodes them to arrays, a block of _KERNEL_BLOCK numbers at a time, to
form their residuals psi**p - sum(a**p): in int64 in each block where
that is exact, as Python ints in the others.  One free entry is one
perfect-power test of the int64 residuals, two are split off them by
_split_pairs; every other residual is decomposed on its own into f k-th
powers (decompose.py), and four free entries share one pair-sum table,
sized once per search for the largest residual.  Chunks, blocks and
pieces are all index ranges, so no piece of work grows with the classes.
Each builder refuses up front, with InputError, what it cannot hold:
class runs past the memory budget, multiset counts past int64, a table
past int64 or the budget (one check, arith._check_memory).  The chunks
run through the fork pool of pool.py.  The brute-force oracle at the
bottom re-derives the same sets with plain nested loops and no shared
machinery; differential tests compare the two.

Bound semantics: N limits equal-class entries only; free entries are
bounded by the residual automatically.  Output is always the canonical
sorted list, independent of the parallelism degree.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from itertools import combinations_with_replacement
from typing import Callable

import numpy as np

from .arith import (
    _INT64_MAX,
    _INT64_ROOT_MAX,
    InputError,
    _check_memory,
    _exact_root_vec,
    _integer,
    _Record,
    build_sieve,
    int_kth_root,
)
from .decompose import (
    _KERNEL_BLOCK,
    _PairSumTable,
    _quartic_descent,
    _split_pairs,
    decompose_sum_of_powers,
)
from .pool import _MAX_JOBS, SearchWorkerError, _pool_parts
from .tuples import Solution, TupleKind, _instance, sort_solutions

__all__ = [
    "SearchConfig",
    "SearchWorkerError",
    "PsiClassIndex",
    "build_class_index",
    "decompose_sum_of_powers",
    "search",
    "brute_force_oracle",
    "ORACLE_MAX_BOUND",
]

ORACLE_MAX_BOUND = 500


class SearchConfig(_Record):
    __slots__ = ("kind", "bound", "jobs")

    def __init__(self, kind: TupleKind, bound: int, jobs: int = 1) -> None:
        kind = _instance(kind, TupleKind, "kind")
        super().__init__(kind, _integer(bound, "bound", 1), _integer(jobs, "jobs", 1))


class PsiClassIndex(_Record):
    """Map psi value -> sorted list of all n <= bound with that psi."""

    __slots__ = ("bound", "classes")


def build_class_index(bound: int) -> PsiClassIndex:
    """Index 1..bound by psi value, from the sieve of 1..bound built here.

    A library and reference helper: search sorts 1..N into class runs
    instead (_build_class_runs).
    """
    bound = _integer(bound, "bound", 1)
    classes: dict[int, list[int]] = {}
    for n, v in enumerate(build_sieve(bound).psi[1:].tolist(), start=1):
        classes.setdefault(v, []).append(n)
    return PsiClassIndex(bound=bound, classes=classes)


# --- the search proper -----------------------------------------------------


def _needs_pair_table(kind: TupleKind, runs: _ClassRuns) -> _PairSumTable | None:
    """The one pair-sum table of a search with four free entries, else None.

    It covers the largest residual that any multiset can have.  Of the
    multisets whose first entry is n, (n, ..., n) has the largest residual,
    psi(n)**p - e * n**p; with one equal entry that is the residual itself,
    so quartic residuals are first reduced by _quartic_descent, as
    decompose_sum_of_powers will reduce them.  The table holds the sums up
    to the largest of them; InputError where that would leave int64 or the
    table exceed the memory budget (_PairSumTable).
    """
    if kind.free != 4:
        return None
    p, e = kind.power, kind.equal
    tops = (v**p - e * n**p for v, n in zip(runs.psis.tolist(), runs.ns.tolist()))
    if p == 4 and e == 1:
        tops = (_quartic_descent(r)[0] for r in tops)
    top = max(0, max(tops))
    return _PairSumTable(p, int_kth_root(top, p), top)


# --- the equal-class kernel ------------------------------------------------


class _ClassRuns(_Record):
    """1..bound sorted by (psi, n), so that each psi class is one run.

    ns are the entries (uint32) and psis their psi values (int64).
    run_end[i] (uint32) is one past the last position of the run holding
    position i.  tuple_start[i] (int64) counts the non-decreasing
    equal-tuples of positions inside one run whose first position is below
    i, so the tuples of position i are numbered tuple_start[i] and on; it
    has one more entry than ns, the total.  24 bytes per entry in
    all; a uint32 entry must be widened before it is raised to a power.
    """

    __slots__ = ("ns", "psis", "run_end", "tuple_start")


_RUNS_BYTES = 24  # per entry of 1..bound: what _ClassRuns keeps and its build peaks at


def _build_class_runs(bound: int, kind: TupleKind) -> _ClassRuns:
    """The class runs of 1..bound, ordered by the keys psi(n) << 31 | n; the
    sieve built here dies once they exist, so the build peaks at _RUNS_BYTES.
    Refused before anything is allocated: a bound past the keys' 31-bit
    entry field (psi(n) < 3.75 * n < 2**33 fills the other 33 bits), and
    runs past the memory budget; once the classes are known, multisets
    they cannot count in int64 (_check_class_multisets)."""
    if bound >= 1 << 31:
        raise InputError(f"a search bound must be below 2**31, the 31-bit entry field "
                         f"of the class-run keys, got {bound}")
    _check_memory(_RUNS_BYTES * bound, f"a search to bound {bound}", " for the class runs")
    keys = build_sieve(bound).psi[1 : bound + 1] << 31
    keys |= np.arange(1, bound + 1, dtype=np.uint64)
    keys.sort()
    ns = (keys & ((1 << 31) - 1)).astype(np.uint32)
    psis = np.right_shift(keys, 31, out=keys).view(np.int64)
    ends = np.append(np.flatnonzero(psis[1:] != psis[:-1]) + 1, bound)
    sizes = np.diff(ends, prepend=0)
    _check_class_multisets(bound, kind, int(sizes.max()))
    run_end = np.repeat(ends.astype(np.uint32), sizes)
    del ends, sizes
    # with m positions left in the run, C(m + equal - 2, equal - 1) tuples
    # start at a position; _KERNEL_BLOCK positions at a time, so that the
    # temporaries stay small
    tuple_start = np.empty(bound + 1, dtype=np.int64)
    tuple_start[0] = 0
    counts = tuple_start[1:]
    for lo in range(0, bound, _KERNEL_BLOCK):
        hi = min(lo + _KERNEL_BLOCK, bound)
        counts[lo:hi] = _multisets(run_end[lo:hi] - np.arange(lo, hi), kind.equal - 1)
    np.cumsum(counts, out=counts)
    return _ClassRuns(ns, psis, run_end, tuple_start)


def _multisets(left: np.ndarray, j: int) -> np.ndarray:
    """C(left + j - 1, j), the non-decreasing j-tuples of left positions, in
    int64: the product steps through C(left - 1 + i, i) for i = 1..j."""
    c = np.ones(left.shape, dtype=np.int64)
    for i in range(1, j + 1):
        c = c * (left - 1 + i) // i
    return c


def _check_class_multisets(bound: int, kind: TupleKind, size: int) -> None:
    """Refuse a search whose multiset counts could leave int64, from the
    size of its largest psi class: no position starts more multisets than
    the first of that class, c = C(size + equal - 2, equal - 1), so
    bound * c bounds every count."""
    c = math.comb(size + kind.equal - 2, kind.equal - 1)
    if bound * c >= 1 << 63:
        raise InputError(f"a search to bound {bound} with {kind.equal} equal entries could "
                         f"count up to {bound * c} multisets, past int64")


def _fits_int64(kind: TupleKind, psi: int) -> bool:
    """Whether a kernel block whose largest psi is psi forms its residuals in
    int64: e * psi**p <= 2**63 - 1, as each entry a has a <= psi(a) <= psi,
    so that every partial residual fits too."""
    return kind.equal * psi**kind.power <= _INT64_MAX


def _block_columns(runs: _ClassRuns, e: int, lo: int, hi: int) -> list[np.ndarray]:
    """The e int64 position columns of the multisets numbered lo..hi-1.

    Multiset numbers run in order of first position (runs.tuple_start) and,
    within one, lexicographically.  The columns are expanded one equal
    entry at a time: every row is repeated once per later position of its
    run, and an offset counts through the copies.  Only the first row can
    start before lo, its first skip multisets, and only the last can end at
    or after hi, past its first take; so only those two rows' copies are
    trimmed, by the multisets under each copy, which sizes one class per
    column.
    """
    first = int(np.searchsorted(runs.tuple_start, lo, "right")) - 1
    last = int(np.searchsorted(runs.tuple_start, hi, "left")) - 1
    skip, take = lo - int(runs.tuple_start[first]), hi - int(runs.tuple_start[last])
    cols = [np.arange(first, last + 1, dtype=np.int64)]
    for j in range(e - 2, -1, -1):  # j equal entries follow the next one
        prev = cols[-1]
        counts = runs.run_end[prev] - prev
        # the multisets under each copy of the first and the last row
        below = [np.cumsum(_multisets(counts[k] - np.arange(counts[k]), j)) for k in (0, -1)]
        dropped = int(np.searchsorted(below[0], skip, "right"))
        kept = int(np.searchsorted(below[1], take, "left")) + 1
        counts[-1] = kept  # the last row's first copies, all it keeps
        counts[0] -= dropped
        shift = prev - (np.cumsum(counts) - counts)
        shift[0] += dropped
        skip -= int(below[0][dropped - 1]) if dropped else 0
        take -= int(below[1][kept - 2]) if kept > 1 else 0
        owner = np.repeat(np.arange(prev.size), counts)
        # the next position is prev + its offset among the owner's copies
        nxt = np.arange(owner.size, dtype=np.int64)
        nxt += shift[owner]
        cols = [c[owner] for c in cols]
        cols.append(nxt)
        del prev, counts, owner, shift  # not held while the residuals form
    return cols


def _search_runs(
    kind: TupleKind, runs: _ClassRuns, table: _PairSumTable | None, lo: int, hi: int
) -> list[Solution]:
    """All solutions whose equal-class multiset is numbered lo..hi-1
    (runs.tuple_start).

    Each block of _KERNEL_BLOCK multisets is decoded to position arrays
    (_block_columns).  The residuals psi**p - sum(a**p) are formed in
    int64 where the block's largest psi, that of its last row, allows it
    (_fits_int64), and as Python ints in object arrays otherwise.  With
    one free entry, the positive int64 residuals take one perfect-power
    test; with two, _split_pairs splits them.  Every other residual of at
    least `free` goes to decompose_sum_of_powers, with the shared pair-sum
    table.
    """
    p, e, f = kind.power, kind.equal, kind.free
    out: list[Solution] = []
    for b_lo in range(lo, hi, _KERNEL_BLOCK):
        cols = _block_columns(runs, e, b_lo, min(b_lo + _KERNEL_BLOCK, hi))
        fits = _fits_int64(kind, int(runs.psis[cols[0][-1]]))
        residual = runs.psis[cols[0]]
        if not fits:
            residual = residual.astype(object)
        residual **= p
        for c in cols:
            a = runs.ns[c].astype(residual.dtype)
            a **= p
            residual -= a
            del a
        if fits and f <= 2:
            live = np.flatnonzero(residual > 0)
            if f == 1:
                roots, hits = _exact_root_vec(residual[live], p)
                splits = [(np.flatnonzero(hits), roots[hits])]
                del roots, hits  # not held through the next block's peak
            else:
                splits = _split_pairs(residual[live], 1, p, _INT64_ROOT_MAX[p])
            for rows, *frees in splits:
                rows = live[rows]
                equal = zip(*(runs.ns[c[rows]].tolist() for c in cols))
                free = zip(*(b.tolist() for b in frees))
                for v, eq, fr in zip(runs.psis[cols[0][rows]].tolist(), equal, free):
                    out.append(Solution(kind, eq, fr, v, v**p))
            continue
        live = np.flatnonzero(residual >= f)
        for i, r in zip(live.tolist(), residual[live].tolist()):
            found = decompose_sum_of_powers(r, f, p, int_kth_root(r, p), table)
            if found:
                v, eq = int(runs.psis[cols[0][i]]), tuple(int(runs.ns[c[i]]) for c in cols)
                out.extend(Solution(kind, eq, fr, v, v**p) for fr in found)
    return out


# --- planning and running chunks --------------------------------------------


# Chunks per process of a pool search.
_CHUNKS_PER_JOB = 16


def _plan_chunks(runs: _ClassRuns, jobs: int) -> list[tuple[int, int]]:
    """Fixed contiguous chunks (lo, hi) of multiset numbers; one when jobs is 1."""
    total = int(runs.tuple_start[-1])
    # many small chunks per process: per-entry cost grows steeply with psi,
    # and the chunks are dealt round-robin, so each process gets cheap and
    # costly chunks alike
    step = total if jobs == 1 else -(-total // (jobs * _CHUNKS_PER_JOB))
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def search(
    config: SearchConfig, *, progress: Callable[[int, int, list[Solution]], None] | None = None
) -> list[Solution]:
    """All canonical solutions of config.kind with equal-class max <= bound.

    Deterministic for any jobs value: the outer space is split into fixed
    contiguous chunks, and the merged list is sorted canonically.  This
    process builds its own sieve, then the class runs and the pair-sum
    table once, and runs every chunk through one pool (_pool_parts) as
    one of the jobs processes: jobs is clamped to the usable CPUs and to
    _MAX_JOBS, and to 1 where os.fork is missing.  It forks
    min(jobs, chunks) - 1 children, none with jobs 1, which inherit the
    runs and the table; the chunks are dealt round-robin over the
    processes.  progress (if given) is called with (chunk_index,
    chunk_count, chunk_solutions) in chunk order, once a chunk and all
    before it are done.  A dead child raises SearchWorkerError; an
    exception that a chunk raises in a child is raised here, as it would
    be in this process.
    """
    kind, bound = _instance(config, SearchConfig, "config").kind, config.bound
    runs = _build_class_runs(bound, kind)
    table = _needs_pair_table(kind, runs)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = min(config.jobs, cpus or 1, _MAX_JOBS) if hasattr(os, "fork") else 1
    chunks = _plan_chunks(runs, jobs)

    def run(i: int) -> list[Solution]:
        return _search_runs(kind, runs, table, *chunks[i])

    parts = _pool_parts(run, len(chunks), min(jobs, len(chunks)) - 1)
    results: list[Solution] = []
    try:
        for i, part in enumerate(parts):
            if progress is not None:
                progress(i, len(chunks), part)
            results.extend(part)
    finally:
        parts.close()  # if progress raised, the children stop now
    return sort_solutions(results)


# --- brute-force oracle ----------------------------------------------------


def _psi_trial(n: int) -> int:
    """Straight trial-division psi, independent of the sieve code path."""
    res, m = n, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            res = res // p * (p + 1)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        res = res // m * (m + 1)
    return res


def brute_force_oracle(config: SearchConfig) -> list[Solution]:
    """Ground-truth search by plain nested loops; bound capped at 500.

    No psi-class index, no two-pointer, no pair-sum table: equal-class
    multisets come straight from itertools with a psi-equality filter, and
    free entries are nested ascending loops whose innermost entry is read
    off a plain table of k-th powers.  Arbitrary-precision arithmetic
    throughout.
    """
    config = _instance(config, SearchConfig, "config")
    kind, N = config.kind, _integer(config.bound, "oracle bound", hi=ORACLE_MAX_BOUND)
    p, e, f = kind.power, kind.equal, kind.free
    psis = [0] + [_psi_trial(a) for a in range(1, N + 1)]
    max_target = max(psis) ** p

    pw = [0]
    while pw[-1] <= max_target:
        pw.append(len(pw) ** p)
    root_of = {val: b for b, val in enumerate(pw)}

    out: list[Solution] = []
    for multiset in combinations_with_replacement(range(1, N + 1), e):
        v = psis[multiset[0]]
        if any(psis[a] != v for a in multiset[1:]):
            continue
        target = v**p
        residual = target - sum(a**p for a in multiset)
        if residual < f:
            continue
        for frees in _oracle_free_part(residual, f, pw, root_of):
            out.append(Solution(kind, multiset, frees, v, target))
    return sort_solutions(out)


def _oracle_free_part(
    residual: int, f: int, pw: list[int], root_of: dict[int, int]
) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    if f == 1:
        b = root_of.get(residual)
        if b is not None:
            out.append((b,))
        return out
    if f == 2:
        b1 = 1
        while 2 * pw[b1] <= residual:
            b2 = root_of.get(residual - pw[b1])
            if b2 is not None and b2 >= b1:
                out.append((b1, b2))
            b1 += 1
        return out
    if f == 4:
        b1 = 1
        while 4 * pw[b1] <= residual:
            r1 = residual - pw[b1]
            b2 = b1
            while 3 * pw[b2] <= r1:
                r2 = r1 - pw[b2]
                hi3 = bisect_right(pw, r2 // 2) - 1
                for b3 in range(b2, hi3 + 1):
                    b4 = root_of.get(r2 - pw[b3])
                    if b4 is not None:
                        out.append((b1, b2, b3, b4))
                b2 += 1
            b1 += 1
        return out
    # general fallback: peel the smallest entry, depth first on an explicit
    # stack (a recursion would need one frame per entry), pushing the
    # candidates largest first so that the tuples come out in order
    stack = [((), residual, f)]
    while stack:
        prefix, residual, f = stack.pop()
        lo = prefix[-1] if prefix else 1
        if f in (1, 2, 4):
            rests = _oracle_free_part(residual, f, pw, root_of)
            out.extend(prefix + rest for rest in rests if rest[0] >= lo)
            continue
        b = lo
        while f * pw[b] <= residual:
            b += 1
        stack.extend((prefix + (c,), residual - pw[c], f - 1) for c in range(b - 1, lo - 1, -1))
    return out
