"""Decomposition of one residual into a sum of k-th powers.

decompose_sum_of_powers gives every non-decreasing tuple of `count`
entries whose power-th powers sum to a residual.  Four entries join a
pair-sum table (_PairSumTable): a search with four free entries sizes one
table for its largest residual, and _split_pairs recovers the pairs of
the sums the join matched.  Every other count descends with monotone
pruning (_descend).  Sums of four fourth powers first pass a congruence
descent mod 16 and mod 625 (_quartic_descent), which rules out most
residuals and shrinks the rest before they meet the table.  _split_pairs
also splits a search's two-free residuals, in pieces of _KERNEL_BLOCK
numbered splits, so no piece grows with the sums.  This module imports
only arith and tuples.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .arith import (
    _INT64_MAX,
    InputError,
    _check_memory,
    _exact_root_vec,
    _floor_root_vec,
    _integer,
    int_kth_root,
    is_perfect_kth_power,
)
from .tuples import _instance

__all__ = ["decompose_sum_of_powers"]

# Multisets per block of the batched equal-class kernel.  A block holds a
# few int64 arrays of about this length, so the kernel's memory does not
# grow with the search bound.
_KERNEL_BLOCK = 1 << 14


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
