"""Exhaustive, deterministic search for tuple solutions up to a bound.

Every kind runs one kernel.  It sorts 1..N by psi value, so that each psi
class is one run, numbers the equal-class multisets of every class, and
decodes them to arrays, a block of _KERNEL_BLOCK numbers at a time, to
form their residuals psi**p - sum(a**p): in int64 in each block where
that is exact, as Python ints in the others.  One free entry is one
perfect-power test of the int64 residuals, two are split off them by
_split_pairs, in pieces of _KERNEL_BLOCK numbered splits; every other
residual is decomposed on its own into f k-th powers.  Four free entries
join one pair-sum table, sized once per search for the largest residual,
and _split_pairs recovers the pairs of the sums the join matched.  Chunks,
blocks and pieces are all index ranges, so no piece of work grows with the
classes.  Each builder refuses up front, with InputError, what it cannot
hold: class runs past the memory budget, multiset counts past int64, a
table past int64 or the budget (one check, arith._check_memory).  Sums of
four fourth powers first pass a congruence descent mod 16 and mod 625,
which rules out most residuals and shrinks the rest before they meet the
table.  The brute-force oracle at the bottom re-derives the same sets
with plain nested loops and no shared machinery; differential tests
compare the two.

Bound semantics: N limits equal-class entries only; free entries are
bounded by the residual automatically.  Output is always the canonical
sorted list, independent of the parallelism degree.
"""

from __future__ import annotations

import math
import os
import pickle
from bisect import bisect_right
from itertools import combinations_with_replacement
from typing import BinaryIO, Callable, Iterator, NoReturn

import numpy as np

from .arith import (
    _INT64_MAX,
    _INT64_ROOT_MAX,
    InputError,
    _check_memory,
    _exact_root_vec,
    _floor_root_vec,
    _integer,
    _Record,
    build_sieve,
    int_kth_root,
    is_perfect_kth_power,
)
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

# Multisets per block of the batched equal-class kernel.  A block holds a
# few int64 arrays of about this length, so the kernel's memory does not
# grow with the search bound.
_KERNEL_BLOCK = 1 << 14


class SearchConfig(_Record):
    __slots__ = ("kind", "bound", "jobs")

    def __init__(self, kind: TupleKind, bound: int, jobs: int = 1) -> None:
        kind = _instance(kind, TupleKind, "kind")
        super().__init__(kind, _integer(bound, "bound", 1), _integer(jobs, "jobs", 1))


class SearchWorkerError(RuntimeError):
    """A forked child of a search exited non-zero, or without sending back
    a chunk dealt to it."""


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


# --- sum-of-k-th-powers decomposition ------------------------------------


class _PairSumTable:
    """All sums x**p + y**p <= top with 1 <= x <= y <= cap, sorted ascending;
    top defaults to 2 * cap**p, every pair.

    Only the sums are kept, one int64 array of 8 B per pair: row x, which
    ends at y = min(cap, floor((top - x**p) ** (1/p))), is filled one x at
    a time, and the array is sorted in place and then made read-only, so
    the build peaks at 8 B per pair too.  _mitm4 recovers the pairs of the
    few sums it matches.  This is the one place that decides whether a
    table can be built: before allocating it raises InputError when top
    would leave int64 (a join of a residual <= top forms nothing larger,
    so it stays exact) or when the table would exceed the memory budget
    (_check_memory).
    """

    __slots__ = ("power", "cap", "top", "sums")

    def __init__(self, power: int, cap: int, top: int | None = None):
        top = 2 * cap**power if top is None else top
        if top > _INT64_MAX:
            raise InputError(f"the pair-sum table for residuals up to {top} would leave int64")
        rows = min(cap, int_kth_root(top // 2, power))  # the x with 2 * x**p <= top
        # the triangle y <= rows, all sums <= top, is a lower bound: a table far
        # over the budget is refused on it before its row ends are formed
        pairs = rows * (rows + 1) // 2
        what = f"the pair-sum table of cap {cap}"
        _check_memory(8 * pairs, what, f" ({pairs} pairs)")
        ends = top - np.arange(1, rows + 1, dtype=np.int64) ** power
        ends = np.minimum(_floor_root_vec(ends, power), cap)
        pairs = int(ends.sum()) - pairs + rows
        _check_memory(8 * pairs, what, f" ({pairs} pairs)")
        self.power, self.cap, self.top = power, cap, top
        pw = np.arange(ends[0] + 1 if rows else 1, dtype=np.int64) ** power
        self.sums = np.empty(pairs, dtype=np.int64)
        end = 0
        for x, y_end in zip(range(1, rows + 1), ends):  # x**p + y**p for y = x..y_end
            start, end = end, end + y_end + 1 - x
            np.add(pw[x], pw[x : y_end + 1], out=self.sums[start:end])
        self.sums.sort()
        self.sums.flags.writeable = False


def _two_pointer(residual: int, power: int, lo: int, cap: int) -> list[tuple[int, int]]:
    """All pairs lo <= x <= y <= cap with x**p + y**p == residual, ascending."""
    out: list[tuple[int, int]] = []
    if residual < 2:
        return out
    x = lo
    y = min(cap, int_kth_root(residual - 1, power))
    while x <= y:
        s = x**power + y**power
        if s == residual:
            out.append((x, y))
            x += 1
            y -= 1
        elif s < residual:
            x += 1
        else:
            y -= 1
    return out


def _descend(residual: int, count: int, power: int, cap: int) -> list[tuple[int, ...]]:
    """Every non-decreasing count-tuple of entries 1..cap whose power-th
    powers sum to residual, in lexicographic order: depth first with
    monotone residual pruning, the last two entries by two-pointer.  It
    runs on an explicit stack, as a recursion would need one frame per
    entry; each frame holds its entry's candidates as a range, from which
    it takes the next b, so the stack holds count - 2 frames at most."""
    if count == 1:
        r = is_perfect_kth_power(residual, power)
        return [(r,)] if r is not None and 1 <= r <= cap else []
    if count == 2:
        return _two_pointer(residual, power, 1, cap)
    out: list[tuple[int, ...]] = []
    # smallest remaining entry b satisfies slots * b**p <= residual
    hi = min(cap, int_kth_root(residual // count, power))
    stack = [(residual, count, (), iter(range(1, hi + 1)))]
    while stack:
        residual, slots, prefix, candidates = stack[-1]
        b = next(candidates, None)
        if b is None:
            stack.pop()
            continue
        rest, slots = residual - b**power, slots - 1
        if slots == 2:
            out.extend(prefix + (b,) + pair for pair in _two_pointer(rest, power, b, cap))
        else:
            hi = min(cap, int_kth_root(rest // slots, power))
            stack.append((rest, slots, prefix + (b,), iter(range(b, hi + 1))))
    return out


def _mitm4(
    residual: int, power: int, cap: int, table: _PairSumTable
) -> list[tuple[int, ...]]:
    """Four-entry decomposition by joining two slices of the pair-sum table.

    A canonical b1 <= b2 <= x <= y has b1**p + b2**p <= residual / 2 <=
    x**p + y**p, so the head pairs (b1, b2) have their sums in the table
    prefix <= residual // 2 and the tail pairs (x, y) theirs in the slice
    >= residual - residual // 2 (the two overlap when residual is twice a
    pair sum).  The tail is never the larger side, about 2**(2/p) - 1
    times the head, so its complements residual - tail, ascending when the
    tail is read backwards, are searched in the head, _KERNEL_BLOCK of them
    at a time; the temporaries stay that small however large the table is.
    _split_pairs recovers the pairs of each matched head sum and its tail,
    and the b2 <= x junction keeps each canonical 4-tuple unique; with no
    head sum matched, there is nothing to recover.  The tuples come back
    sorted.
    """
    sums = table.sums
    half = int(np.searchsorted(sums, residual // 2, side="right"))
    t_lo = int(np.searchsorted(sums, residual - residual // 2, side="left"))
    t_hi = int(np.searchsorted(sums, residual - 2, side="right"))
    if half == 0 or t_lo >= t_hi:
        return []
    head = sums[:half]
    matched = [head[:0]]
    for hi in range(t_hi, t_lo, -_KERNEL_BLOCK):
        needles = residual - sums[max(t_lo, hi - _KERNEL_BLOCK) : hi][::-1]
        # only the head entries within the needles' range can match
        lo = np.searchsorted(head, needles[0])
        window = head[lo : np.searchsorted(head, needles[-1], "right")]
        if window.size:
            idx = np.searchsorted(window, needles)
            matched.append(needles[window[np.minimum(idx, window.size - 1)] == needles])
    heads = np.concatenate(matched)  # ascending, block after block
    heads = heads[np.diff(heads, prepend=0) > 0]  # distinct
    if not heads.size:
        return []
    tails = residual - heads
    # the junction b2 <= x bounds both smaller entries from below: a tail
    # pair needs 2 * x**p >= the head sum, as 2 * b2**p is and x >= b2; a
    # head pair needs b2 <= the largest x of its tail, so b1**p >= head sum
    # - that x**p.  The b2 <= x filter below alone gives the same tuples,
    # but splits every sum from u = 1: on a 2-vCPU Xeon that took search
    # (2, 1, 4) to 200 from 0.81 to 0.90 s and (3, 1, 4) to 300 from 0.30
    # to 0.33 s (medians of 8 alternating runs), so the bounds stay
    x_top = _floor_root_vec(tails // 2, power)
    b1_lo = _floor_root_vec(heads - x_top**power - 1, power) + 1
    x_lo = _floor_root_vec((heads - 1) // 2, power) + 1
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(2 * heads.size)]
    sums, u_lo = np.concatenate((heads, tails)), np.concatenate((b1_lo, x_lo))
    for rows, u, v in _split_pairs(sums, u_lo, power, min(cap, table.cap)):
        for i, pair in zip(rows.tolist(), zip(u.tolist(), v.tolist())):
            pairs[i].append(pair)
    return sorted(
        (b1, b2, x, y)
        for head, tail in zip(pairs[: heads.size], pairs[heads.size :])
        for b1, b2 in head
        for x, y in tail
        if b2 <= x
    )


def _quartic_descent(residual: int) -> tuple[int, int]:
    """(reduced, scale) with the four-fourth-powers solutions of residual
    exactly scale times those of reduced; reduced is 0 when there are none.

    Fourth powers are 0 or 1 mod 16 and mod 5, so residual mod 16 counts
    the odd entries and residual mod 5 those prime to 5.  Mod 16, a count
    of 0 makes all four entries even (divide by 16, double the scale) and
    a count above 4 is impossible; mod 5, a count of 0 makes all four
    divisible by 5, so residual must be 0 mod 625 (divide by 625, scale by
    5).  These are the classical reductions of equal-sums-of-like-powers
    searches (Lander, Parkin and Selfridge, Math. Comp. 1967).  Python
    ints throughout, so the reduction is exact at any size.
    """
    scale = 1
    while residual:
        if residual % 16 == 0:
            residual //= 16
            scale *= 2
        elif residual % 16 > 4 or (residual % 5 == 0 and residual % 625):
            return 0, scale
        elif residual % 5 == 0:
            residual //= 625
            scale *= 5
        else:
            break
    return residual, scale


def decompose_sum_of_powers(
    residual: int,
    count: int,
    power: int,
    cap: int,
    pair_table: _PairSumTable | None = None,
) -> list[tuple[int, ...]]:
    """All non-decreasing count-tuples of positive integers <= cap whose
    power-th powers sum to residual, in lexicographic order.

    Four entries always join a meet-in-the-middle pair-sum table (_mitm4):
    the caller's pair_table when it covers residual and min(cap, root of
    residual), otherwise one built here, which raises InputError past
    int64 or past the memory budget (_PairSumTable).  Every other count
    descends with monotone residual pruning (_descend).  Four fourth
    powers first pass _quartic_descent: a residual it rules out returns no
    tuples, and otherwise the reduced residual is decomposed with entries
    <= cap // scale and the tuples are scaled back.
    """
    residual, count = _integer(residual, "residual", 0), _integer(count, "count", 1)
    power, cap = _integer(power, "power", 2, 5), _integer(cap, "cap")
    if pair_table is not None:
        _instance(pair_table, _PairSumTable, "pair_table")
    if count == 4 and power == 4:
        reduced, scale = _quartic_descent(residual)
        if reduced != residual:
            found = decompose_sum_of_powers(reduced, 4, 4, cap // scale, pair_table)
            return [tuple(scale * b for b in t) for t in found]
    # entries are 1..cap (none when cap < 1)
    if not count <= residual <= count * max(cap, 0) ** power:
        return []
    if count != 4:
        return _descend(residual, count, power, cap)
    cap = min(cap, int_kth_root(residual, power))
    t = pair_table
    if t is None or t.power != power or t.cap < cap or t.top < residual:
        t = _PairSumTable(power, cap, residual)
    return _mitm4(residual, power, cap, t)


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


def _split_pairs(
    sums: np.ndarray, u_lo: np.ndarray | int, power: int, cap: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every pair u_lo[i] <= u <= v <= cap with u**p + v**p == sums[i], as
    (rows, u, v) per piece, ascending in row and then in u.

    Each sum s splits into (s, u) for u = u_lo..floor((s // 2) ** (1/p)),
    since 2 * u**p <= s exactly when u <= v, and every s - u**p passes one
    exact perfect-power test (_exact_root_vec); a root above cap is
    dropped.  The splits are numbered in order, and a piece is the index
    range lo..hi-1 of _KERNEL_BLOCK of them, which may divide one sum's
    splits, so memory does not grow with the sums or their roots.  u_lo is
    one bound for all sums or one per sum.  All values stay below s, so
    int64 is exact wherever s is.
    """
    counts = np.maximum(np.minimum(_floor_root_vec(sums // 2, power), cap) - u_lo + 1, 0)
    start = np.concatenate(([0], np.cumsum(counts)))
    first = start[:-1] - u_lo  # split j of row i has u = j - first[i]
    total = int(start[-1])
    for lo in range(0, total, _KERNEL_BLOCK):
        hi = min(lo + _KERNEL_BLOCK, total)
        # the rows whose splits meet lo..hi-1: only the first and the last
        # can reach past it, so only their counts are clipped
        r_lo = int(np.searchsorted(start, lo, "right")) - 1
        r_hi = int(np.searchsorted(start, hi, "left"))
        clipped = counts[r_lo:r_hi].copy()
        clipped[0] -= lo - start[r_lo]
        clipped[-1] -= start[r_hi] - hi
        rows = np.repeat(np.arange(r_lo, r_hi), clipped)
        u = np.arange(lo, hi) - first[rows]
        v, hits = _exact_root_vec(sums[rows] - u**power, power)
        hits &= v <= cap
        yield rows[hits], u[hits], v[hits]


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


# --- the process pool: os.fork, chunks dealt round-robin, one pipe per child ---

# Chunks per process of a pool search, and the most processes: this process
# holds one result pipe per child, and must stay well inside the common
# default limit of 1024 open descriptors.
_CHUNKS_PER_JOB = 16
_MAX_JOBS = 512


def _pool_parts(run: Callable[[int], list], count: int, workers: int) -> Iterator[list]:
    """run(i) for every chunk i in range(count), in chunk order, from this
    process and `workers` forked children (none when workers < 1).

    The children inherit run, and all it holds, as it is.  The chunks are
    dealt round-robin over the n = workers + 1 processes: process k runs
    chunks k, k + n, k + 2n, ..., this process being number 0.  A child
    sends each chunk's solutions up its own pipe once the chunk is done,
    as one pickle (_run_chunk), in that order.  So this process yields
    chunk i from its own run or from the next pickle on child i % n's pipe
    (_read_part).  It runs each of its chunks as soon as it has yielded
    the one before, so it waits on a child's chunk only with its own next
    chunk done.  Once every chunk is yielded, it reads each child's pipe
    to its end and reaps it.  A child that exits non-zero, or whose pipe
    ends before a chunk or holds another one, raises SearchWorkerError.
    However this generator ends, it kills and reaps the children still
    running.  A child is a fork of this thread alone, so run must not need
    another thread (such as numpy's BLAS threads; no chunk calls BLAS).
    """
    n = workers + 1
    pids: dict[BinaryIO, int] = {}  # a child's result pipe, buffered for pickle.load -> its pid
    try:
        for k in range(1, n):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(run, range(k, count, n), w, list(pids))
            pids[os.fdopen(r, "rb")] = pid
            os.close(w)
        pipes = list(pids)  # child k's is pipes[k - 1]
        mine = run(0)
        for i in range(count):
            if i % n:
                yield _read_part(pipes[i % n - 1], i)
            else:
                yield mine
                if i + n < count:  # before waiting on the children's chunks in between
                    mine = run(i + n)
        for pipe in pipes:
            if pipe.read(1):
                raise SearchWorkerError("a search worker process sent more chunks than it was dealt")
            status = os.waitstatus_to_exitcode(os.waitpid(pids[pipe], 0)[1])
            del pids[pipe]
            pipe.close()
            if status:
                raise SearchWorkerError(f"a search worker process died with exit status {status}")
    finally:
        if pids:
            import signal  # only here, to stop what an error left running

            for pipe, pid in pids.items():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pipe.close()


def _child(run: Callable[[int], list], chunks: range, out: int, inherited: list) -> NoReturn:
    """A forked child's life: run the chunks dealt to it, in order, each
    through _run_chunk; exit 0, or non-zero on any failure, without
    unwinding into the parent's stack."""
    status = 1
    try:
        _init_worker(inherited)
        for i in chunks:
            _run_chunk(run, i, out)
        status = 0
    finally:
        os._exit(status)


def _init_worker(inherited: list[BinaryIO]) -> None:
    """A child's first call: close the result pipes of the children forked
    before it, which it inherited and has no use for."""
    for pipe in inherited:
        pipe.close()


def _run_chunk(run: Callable[[int], list], i: int, out: int) -> None:
    """Run chunk i and send (i, solutions), or (i, exception) if run
    raised one, up the pipe out as one pickle, which marks its own end."""
    try:
        part = run(i)
    except Exception as exc:  # raised again in the parent
        part = exc
    view = memoryview(pickle.dumps((i, part), pickle.HIGHEST_PROTOCOL))
    while view:
        view = view[os.write(out, view) :]


def _read_part(pipe: BinaryIO, i: int) -> list:
    """Chunk i's solutions, the next pickle on the result pipe, read with
    pickle.load; an exception sent in their place is raised here.  A pipe
    that ends before a whole pickle, or sends another chunk, raises
    SearchWorkerError."""
    try:
        j, part = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise SearchWorkerError(f"a search worker process died: chunk {i} is missing") from None
    if j != i:
        raise SearchWorkerError(f"a search worker process sent chunk {j} in place of chunk {i}")
    if isinstance(part, Exception):
        raise part
    return part


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
