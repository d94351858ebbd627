"""Exhaustive, deterministic search for tuple solutions up to a bound.

The fast path indexes 1..N by psi value, enumerates equal-class multisets
per class, and decomposes each residual into a sum of f k-th powers.  Kinds
with one or two free entries run a batched numpy kernel instead: it
enumerates the multisets of every class as arrays and splits all residuals
into one or two k-th powers at once.  Sums of four fourth powers first
pass a congruence descent mod 16 and mod 625, which rules out most
residuals and shrinks the rest before they meet the pair-sum table.  The
brute-force oracle at the bottom re-derives the same sets with plain
nested loops and no shared machinery; differential tests compare the two.

Bound semantics: N limits equal-class entries only; free entries are
bounded by the residual automatically.  Output is always the canonical
sorted list, independent of the parallelism degree.
"""

from __future__ import annotations

import os
import pickle
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, Iterator, NoReturn, Sequence

import numpy as np

from .arith import (
    _INT64_MAX,
    InputError,
    PsiSieve,
    _floor_root_vec,
    build_sieve,
    int_kth_root,
    is_perfect_kth_power,
)
from .tuples import Solution, TupleKind, sort_solutions

__all__ = [
    "SearchConfig",
    "SearchWorkerError",
    "PsiClassIndex",
    "build_class_index",
    "decompose_sum_of_powers",
    "search",
    "brute_force_oracle",
    "max_safe_bound",
    "ORACLE_MAX_BOUND",
]

ORACLE_MAX_BOUND = 500

_UINT128_MAX = (1 << 128) - 1

# Above this many (b1, b2) prefix pairs, a four-entry decomposition given no
# pair-sum table builds one instead of running recursive descent.
_MITM_PAIR_THRESHOLD = 2_000

# Multisets per block of the batched equal-class kernel.  A block holds a
# few int64 arrays of about this length, so the kernel's memory does not
# grow with the search bound.
_KERNEL_BLOCK = 1 << 14


def max_safe_bound(power: int) -> int:
    """Largest bound N with psi(N)**power provably inside 128 bits.

    Conservative: uses psi(n) < 4n, which holds for every n below the
    primorial of 31 (far beyond any sieve that fits in memory).
    """
    return int_kth_root(_UINT128_MAX, power) // 4


@dataclass(frozen=True, slots=True)
class SearchConfig:
    kind: TupleKind
    bound: int
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise InputError("bound must be >= 1")
        if self.jobs < 1:
            raise InputError("jobs must be >= 1")
        safe = max_safe_bound(self.kind.power)
        if self.bound > safe:
            raise InputError(
                f"bound {self.bound} unsafe for power {self.kind.power}; "
                f"maximum safe bound is {safe}"
            )


class SearchWorkerError(RuntimeError):
    """A forked child of a search exited non-zero, or without sending back
    a chunk it claimed."""


@dataclass(frozen=True)
class PsiClassIndex:
    """Map psi value -> sorted list of all n <= bound with that psi."""

    bound: int
    classes: dict[int, list[int]]


def build_class_index(sieve: PsiSieve, bound: int | None = None) -> PsiClassIndex:
    """Index 1..bound by psi value; bound defaults to the sieve limit."""
    if bound is None:
        bound = sieve.limit
    if not 1 <= bound <= sieve.limit:
        raise InputError(f"bound must be in 1..{sieve.limit}")
    classes: dict[int, list[int]] = {}
    for n, v in enumerate(sieve.psi[1 : bound + 1].tolist(), start=1):
        classes.setdefault(v, []).append(n)
    return PsiClassIndex(bound=bound, classes=classes)


# --- sum-of-k-th-powers decomposition ------------------------------------


class _PairSumTable:
    """All sums x**p + y**p with 1 <= x <= y <= cap, sorted ascending.

    Only the sums are kept, one int64 array of 8 B per pair: it is filled
    one x at a time and sorted in place, so the build peaks at 8 B per pair
    too.  _mitm4 recovers the pairs of the few sums it matches.  int64
    throughout; only built when 4 * cap**p fits, so sums and the residuals
    probed against them cannot overflow.
    """

    __slots__ = ("power", "cap", "sums")

    def __init__(self, power: int, cap: int):
        self.power = power
        self.cap = cap
        pw = np.arange(cap + 1, dtype=np.int64) ** power
        self.sums = np.empty(cap * (cap + 1) // 2, dtype=np.int64)
        end = 0
        for x in range(1, cap + 1):  # x**p + y**p for y = x..cap
            start, end = end, end + cap + 1 - x
            np.add(pw[x], pw[x:], out=self.sums[start:end])
        self.sums.sort()

    @staticmethod
    def feasible(power: int, cap: int) -> bool:
        # int64 headroom for the sums and the residuals probed against them
        return cap >= 2 and 4 * cap**power < 2**63

    @staticmethod
    def nbytes(cap: int) -> int:
        return 8 * (cap * (cap + 1) // 2)


def _memory_budget() -> int:
    """Bytes a pair-sum table may take: half of the available memory.

    MemAvailable from /proc/meminfo where it exists, else the available
    (or, failing that, all) physical pages from sysconf.
    """
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024 // 2
    except OSError:
        pass
    pages = "SC_AVPHYS_PAGES" if "SC_AVPHYS_PAGES" in os.sysconf_names else "SC_PHYS_PAGES"
    return os.sysconf(pages) * os.sysconf("SC_PAGE_SIZE") // 2


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


def _descend(
    residual: int,
    slots_left: int,
    power: int,
    lo: int,
    cap: int,
    prefix: tuple[int, ...],
    out: list[tuple[int, ...]],
) -> None:
    """Recursive descent with monotone residual pruning; pairs via two-pointer."""
    if slots_left == 2:
        for x, y in _two_pointer(residual, power, lo, cap):
            out.append(prefix + (x, y))
        return
    if slots_left == 1:
        r = is_perfect_kth_power(residual, power)
        if r is not None and lo <= r <= cap:
            out.append(prefix + (r,))
        return
    # smallest remaining entry b satisfies slots_left * b**p <= residual
    hi = min(cap, int_kth_root(residual // slots_left, power))
    for b in range(lo, hi + 1):
        _descend(residual - b**power, slots_left - 1, power, b, cap, prefix + (b,), out)


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
    _sum_pairs recovers the pairs of each matched head sum and its tail,
    and the b2 <= x junction keeps each canonical 4-tuple unique.  The
    tuples come back sorted.
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
    tails = residual - heads
    # the junction b2 <= x bounds both smaller entries from below: a tail
    # pair needs 2 * x**p >= the head sum, as 2 * b2**p is and x >= b2; a
    # head pair needs b2 <= the largest x of its tail, so b1**p >= head sum
    # - that x**p
    x_top = _floor_root_vec(tails // 2, power)
    b1_lo = _floor_root_vec(heads - x_top**power - 1, power) + 1
    x_lo = _floor_root_vec((heads - 1) // 2, power) + 1
    pairs = _sum_pairs(
        np.concatenate((heads, tails)), np.concatenate((b1_lo, x_lo)), power, min(cap, table.cap)
    )
    return sorted(
        (b1, b2, x, y)
        for head, tail in zip(pairs[: heads.size], pairs[heads.size :])
        for b1, b2 in head
        for x, y in tail
        if b2 <= x
    )


def _sum_pairs(
    sums: np.ndarray, u_lo: np.ndarray, power: int, cap: int
) -> list[list[tuple[int, int]]]:
    """For each sums[i], every pair u_lo[i] <= u <= v <= cap with
    u**p + v**p == sums[i], ascending.

    Each sum s splits into (s, u) for u = u_lo..floor((s // 2) ** (1/p)),
    since 2 * u**p <= s exactly when u <= v.  Where s - u**p is a p-th
    power, the rounded float root is its root, so the check against the
    p-th powers 0..cap is exact in int64.  The splits run in pieces of
    about _KERNEL_BLOCK, so memory stays bounded.
    """
    pw = np.arange(cap + 1, dtype=np.int64) ** power
    counts = np.maximum(np.minimum(_floor_root_vec(sums // 2, power), cap) - u_lo + 1, 0)
    start = np.concatenate(([0], np.cumsum(counts)))
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(sums.size)]
    edges = _cut(start, 0, sums.size, _KERNEL_BLOCK)
    for lo, hi in zip(edges, edges[1:]):
        n = counts[lo:hi]
        rows = np.repeat(np.arange(lo, hi), n)
        u = np.arange(start[lo], start[hi]) - np.repeat(start[lo:hi] - u_lo[lo:hi], n)
        rest = np.repeat(sums[lo:hi], n) - pw[u]
        v = np.minimum(np.rint(rest ** (1 / power)).astype(np.int64), cap)
        hits = pw[v] == rest
        for i, pair in zip(rows[hits].tolist(), zip(u[hits].tolist(), v[hits].tolist())):
            pairs[i].append(pair)
    return pairs


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

    count == 1 is a perfect-power test; count == 2 a two-pointer sweep;
    larger counts recurse with monotone residual pruning.  Four fourth
    powers first pass _quartic_descent: a residual it rules out returns
    no tuples, and otherwise the reduced residual is decomposed with
    entries <= cap // scale and the tuples are scaled back.  Four-entry
    decompositions join a meet-in-the-middle pair-sum table (_mitm4): the
    caller's pair_table whenever it covers the (reduced) residual,
    otherwise one built here once the prefix enumeration would dominate
    (recursive descent is quartically slower at table scale).  A table
    past int64 or past the memory budget (8 B per pair against
    _memory_budget) is not built, and descent runs instead.
    """
    if power not in (2, 3, 4, 5):
        raise InputError("power must be in 2..5")
    if count < 1:
        raise InputError("count must be >= 1")
    if residual < 0:
        raise InputError("residual must be nonnegative")
    if count == 4 and power == 4:
        reduced, scale = _quartic_descent(residual)
        if reduced != residual:
            found = decompose_sum_of_powers(reduced, 4, 4, cap // scale, pair_table)
            return [tuple(scale * b for b in t) for t in found]
    if cap < 1 or residual < count:  # entries are >= 1, so sum >= count
        return []
    if count == 1:
        r = is_perfect_kth_power(residual, power)
        return [(r,)] if r is not None and r <= cap else []
    if count == 2:
        return _two_pointer(residual, power, 1, cap)
    if count == 4 and residual < 2**62:  # the table path is int64-only
        root = int_kth_root(residual, power)
        table_cap = min(cap, root)
        if pair_table is not None and pair_table.power == power and pair_table.cap >= table_cap:
            return _mitm4(residual, power, cap, pair_table)
        # without a caller's table, build one only where descent would dominate
        # and the table fits both int64 and the memory budget
        if (
            root * root // 2 > _MITM_PAIR_THRESHOLD
            and _PairSumTable.feasible(power, table_cap)
            and _PairSumTable.nbytes(table_cap) <= _memory_budget()
        ):
            return _mitm4(residual, power, cap, _PairSumTable(power, table_cap))
    out: list[tuple[int, ...]] = []
    _descend(residual, count, power, 1, cap, (), out)
    return out


# --- the search proper -----------------------------------------------------


def _needs_pair_table(kind: TupleKind, sieve: PsiSieve, bound: int) -> _PairSumTable | None:
    """Build the shared pair-sum table when the kind can profit from it.

    None where a table would not pay, or where its sums would leave int64
    (the search then falls back to descent); InputError where it would
    exceed _memory_budget.
    """
    if kind.free != 4:
        return None
    if kind.power == 4 and kind.equal == 1:
        # the table only ever meets residuals reduced by _quartic_descent
        psi = sieve.psi[1 : bound + 1].tolist()
        reduced = (_quartic_descent(v**4 - a**4)[0] for a, v in enumerate(psi, start=1))
        root = int_kth_root(max((r for r in reduced if r < 2**62), default=0), 4)
    else:
        # residual < psi(a)**p, so free entries stay below max psi
        root = int(sieve.psi[1 : bound + 1].max())
    if root * root // 2 <= _MITM_PAIR_THRESHOLD or not _PairSumTable.feasible(kind.power, root):
        return None  # past int64, the scalar search falls back to descent
    need, budget = _PairSumTable.nbytes(root), _memory_budget()
    if need > budget:
        raise InputError(
            f"the pair-sum table for bound {bound} needs {need} bytes "
            f"({need // 8} pairs), over the memory budget of {budget} bytes"
        )
    return _PairSumTable(kind.power, root)


def _search_a_range(
    kind: TupleKind,
    lo: int,
    hi: int,
    psi_list: list[int],
    table: _PairSumTable | None,
) -> list[Solution]:
    """Equal class of size 1: iterate a in lo..hi directly."""
    p, f = kind.power, kind.free
    out: list[Solution] = []
    for a in range(lo, hi + 1):
        v = psi_list[a]
        target = v**p
        residual = target - a**p
        if residual < f:
            continue
        cap = int_kth_root(residual, p)
        for frees in decompose_sum_of_powers(residual, f, p, cap, table):
            out.append(Solution(kind, (a,), frees, v, target))
    return out


def _search_classes(
    kind: TupleKind,
    keys: Sequence[int],
    index: PsiClassIndex,
    table: _PairSumTable | None,
) -> list[Solution]:
    """Equal class of size >= 2: enumerate multisets within each psi class."""
    p, e, f = kind.power, kind.equal, kind.free
    out: list[Solution] = []
    for v in keys:
        members = index.classes[v]
        target = v**p
        if e * members[0] ** p + f > target:
            continue
        for multiset in combinations_with_replacement(members, e):
            residual = target - sum(a**p for a in multiset)
            if residual < f:
                continue
            cap = int_kth_root(residual, p)
            for frees in decompose_sum_of_powers(residual, f, p, cap, table):
                out.append(Solution(kind, multiset, frees, v, target))
    return out


# --- batched kernel for one or two free entries ----------------------------


def _kernel_fits_int64(max_psi: int, power: int, equal: int) -> bool:
    """Whether the batched kernel's int64 arithmetic is exact.

    The kernel forms psi**p and subtracts `equal` terms a**p, where every
    class member has a <= psi(a) <= max_psi.  When equal * max_psi**p fits,
    so do both, and every partial residual lies in (-2**63, 2**63).
    """
    return equal * max_psi**power <= _INT64_MAX


@dataclass(frozen=True)
class _ClassRuns:
    """1..bound sorted by (psi, n), so that each psi class is one run.

    ns and psis are the entries and their psi values (int64).  run_end[i]
    is one past the last position of the run holding position i.
    tuple_start[i] counts the non-decreasing equal-tuples of positions
    inside one run whose first position is below i; it has one more entry
    than ns, the total.
    """

    ns: np.ndarray
    psis: np.ndarray
    run_end: np.ndarray
    tuple_start: np.ndarray


def _build_class_runs(sieve: PsiSieve, bound: int, equal: int) -> _ClassRuns:
    psi = sieve.psi[1 : bound + 1].astype(np.int64)
    order = np.argsort(psi, kind="stable")
    psis = psi[order]
    starts = np.flatnonzero(np.diff(psis, prepend=-1))
    lengths = np.diff(starts, append=psis.size)
    run_end = np.repeat(starts + lengths, lengths)
    # With m positions left in the run, C(m + equal - 2, equal - 1) tuples
    # start at a position; the product below steps through C(m - 1 + j, j).
    left = run_end - np.arange(psis.size)
    counts = np.ones(psis.size, dtype=np.int64)
    for j in range(1, equal):
        counts = counts * (left - 1 + j) // j
    tuple_start = np.concatenate(([0], np.cumsum(counts)))
    return _ClassRuns(order + 1, psis, run_end, tuple_start)


def _cut(start: np.ndarray, lo: int, hi: int, budget: int) -> list[int]:
    """Edges lo = e_0 < ... < e_k = hi cutting positions lo..hi-1.

    start[i] counts the items (tuples, or residual splits) of the positions
    below i.  A piece starts wherever that count crosses a multiple of
    budget, so it holds fewer than budget items plus those of its last
    position; a large class may span several pieces.  No pieces when
    lo..hi-1 hold no items.
    """
    marks = np.arange(start[lo], start[hi], budget)
    edges = np.searchsorted(start[lo:hi], marks)  # sorted, with repeats
    edges = edges[np.diff(edges, prepend=-1) > 0] + lo
    return edges.tolist() + [hi]


def _split_residuals(
    residual: np.ndarray, power: int, free: int
) -> Iterator[tuple[np.ndarray, tuple[np.ndarray, ...]]]:
    """Every way to write residual[i] > 0 as `free` (1 or 2) power-th powers.

    Yields (i, free-entry columns) per piece.  With one free entry that is
    one perfect-power pass.  With two, each residual R is expanded by its
    smaller entry b1 = 1..floor((R // 2) ** (1/p)), since 2 * b1**p <= R
    exactly when b1 <= b2, and every R - b1**p is tested for a perfect
    power; the (R, b1) splits run in pieces of about _KERNEL_BLOCK, so
    memory stays bounded however large the residuals are.  All values stay
    below R, so int64 is exact wherever R is.
    """
    if free == 1:
        roots = _floor_root_vec(residual, power)
        hits = np.flatnonzero(roots**power == residual)
        yield hits, (roots[hits],)
        return
    counts = _floor_root_vec(residual // 2, power)
    start = np.concatenate(([0], np.cumsum(counts)))
    edges = _cut(start, 0, residual.size, _KERNEL_BLOCK)
    for lo, hi in zip(edges, edges[1:]):
        rows = np.repeat(np.arange(lo, hi), counts[lo:hi])
        b1 = np.arange(start[lo], start[hi]) - start[rows] + 1
        rest = residual[rows] - b1**power
        b2 = _floor_root_vec(rest, power)
        hits = b2**power == rest
        yield rows[hits], (b1[hits], b2[hits])


def _search_runs(kind: TupleKind, runs: _ClassRuns, lo: int, hi: int) -> list[Solution]:
    """One or two free entries: all equal-class multisets whose first
    position is in lo..hi-1.

    Each block of about _KERNEL_BLOCK multisets is expanded to position
    arrays with the repeat/offset trick of _PairSumTable.  The residuals
    psi**p - sum(a**p) are formed in int64 and split into the free entries
    by _split_residuals.  The caller checks _kernel_fits_int64 first.
    """
    p, e = kind.power, kind.equal
    out: list[Solution] = []
    edges = _cut(runs.tuple_start, lo, hi, _KERNEL_BLOCK)
    for b_lo, b_hi in zip(edges, edges[1:]):
        cols = [np.arange(b_lo, b_hi, dtype=np.int64)]
        for _ in range(e - 1):  # the next position runs from the last one to its run's end
            last = cols[-1]
            counts = runs.run_end[last] - last
            owner = np.repeat(np.arange(last.size), counts)
            offsets = np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]
            cols = [c[owner] for c in cols]
            cols.append(cols[-1] + offsets)
        entries = [runs.ns[c] for c in cols]
        psis = runs.psis[cols[0]]
        residual = psis**p
        for a in entries:
            residual -= a**p
        live = np.flatnonzero(residual > 0)
        for rows, frees in _split_residuals(residual[live], p, kind.free):
            rows = live[rows]
            equal = zip(*(a[rows].tolist() for a in entries))
            free = zip(*(b.tolist() for b in frees))
            for v, eq, fr in zip(psis[rows].tolist(), equal, free):
                out.append(Solution(kind, eq, fr, v, v**p))
    return out


# --- planning and running chunks --------------------------------------------


def _search_state(kind: TupleKind, sieve: PsiSieve, bound: int) -> dict:
    """What the chunks of one search read, apart from the pair-sum table.

    Kinds with one or two free entries take the batched kernel when its
    int64 arithmetic is exact, and the scalar path otherwise.
    """
    if kind.free <= 2 and _kernel_fits_int64(
        int(sieve.psi[1 : bound + 1].max()), kind.power, kind.equal
    ):
        return {"runs": _build_class_runs(sieve, bound, kind.equal)}
    if kind.equal == 1:
        return {"psi_list": sieve.psi[: bound + 1].tolist()}
    return {"index": build_class_index(sieve, bound)}


def _plan_chunks(bound: int, state: dict, jobs: int) -> list[tuple]:
    """Fixed contiguous chunks of the outer space; a single one when jobs is 1."""
    if "runs" in state:
        tuple_start = state["runs"].tuple_start
        edges = _cut(tuple_start, 0, tuple_start.size - 1, _chunk_len(int(tuple_start[-1]), jobs))
        return [("runs", lo, hi) for lo, hi in zip(edges, edges[1:])]
    if "psi_list" in state:
        step = _chunk_len(bound, jobs)
        return [("range", lo, min(lo + step - 1, bound)) for lo in range(1, bound + 1, step)]
    keys = sorted(state["index"].classes)
    step = _chunk_len(len(keys), jobs)
    return [("classes", keys[i : i + step]) for i in range(0, len(keys), step)]


def _search_chunk(kind: TupleKind, chunk: tuple, state: dict) -> list[Solution]:
    if chunk[0] == "runs":
        return _search_runs(kind, state["runs"], chunk[1], chunk[2])
    if chunk[0] == "range":
        return _search_a_range(kind, chunk[1], chunk[2], state["psi_list"], state["table"])
    return _search_classes(kind, chunk[1], state["index"], state["table"])


def search(
    config: SearchConfig,
    sieve: PsiSieve | None = None,
    progress: Callable[[int, int, list[Solution]], None] | None = None,
) -> list[Solution]:
    """All canonical solutions of config.kind with equal-class max <= bound.

    Deterministic for any jobs value: the outer space is split into fixed
    contiguous chunks, each chunk runs the same code in this process or in
    a forked child, and the merged list is sorted canonically.  This
    process builds the search state once and is one of the jobs processes:
    jobs is clamped to the usable CPUs and to _MAX_JOBS, and to 1 where
    os.fork is missing.  With more than one chunk, this process forks
    min(jobs, chunks) - 1 children, which inherit that state
    (_pool_parts).  progress (if given) is called with (chunk_index,
    chunk_count, chunk_solutions) in chunk order, once a chunk and all
    before it are done.  A dead child raises SearchWorkerError; an
    exception that a chunk raises in a child is raised here, as it would
    be with jobs 1.
    """
    kind, bound = config.kind, config.bound
    if sieve is None or sieve.limit < bound:
        sieve = build_sieve(bound)
    state = _search_state(kind, sieve, bound)
    state["table"] = _needs_pair_table(kind, sieve, bound)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = min(config.jobs, cpus or 1, _MAX_JOBS) if hasattr(os, "fork") else 1
    chunks = _plan_chunks(bound, state, jobs)
    workers = min(jobs, len(chunks)) - 1
    if workers > 0:
        parts = _pool_parts(kind, chunks, state, workers)
    else:
        parts = (_search_chunk(kind, c, state) for c in chunks)
    results: list[Solution] = []
    try:
        for i, part in enumerate(parts):
            if progress is not None:
                progress(i, len(chunks), part)
            results.extend(part)
    finally:
        parts.close()  # if progress raised, the children stop now
    return sort_solutions(results)


# --- the process pool: os.fork, one claim queue, one result pipe per child ---

# Chunks per process of a pool search, and the most processes whose chunk
# numbers, 4 B each, fit the 64 KiB of a default Linux pipe (_claim_queue).
_CHUNKS_PER_JOB = 16
_MAX_JOBS = (64 << 10) // (4 * _CHUNKS_PER_JOB)


def _chunk_len(total: int, jobs: int) -> int:
    if jobs <= 1:
        return max(total, 1)
    # many small chunks per worker: per-entry cost grows steeply with a, so
    # coarse contiguous chunks would leave the pool idle on the cheap ones
    return max(1, -(-total // (jobs * _CHUNKS_PER_JOB)))


def _pool_parts(kind: TupleKind, chunks: list, state: dict, workers: int) -> Iterator[list]:
    """Every chunk's solutions in chunk order, from this process and
    `workers` forked children.

    The children inherit the state and the pair table as they are.  Every
    process claims chunks in chunk order from one queue (_claim_queue);
    this process makes each child's first claim as it forks it, so every
    child runs a chunk however late it starts.  A child sends each chunk's
    solutions up its own pipe once the chunk is done (_run_chunk).  After
    each of its own chunks this process takes in what has arrived, without
    waiting, and yields the finished prefix; then it waits for the rest
    and for every child to exit.  A child that exits non-zero or leaves a
    claimed chunk unreturned raises SearchWorkerError.  However this
    generator ends, it kills and reaps the children still running.  A
    child is a fork of this thread alone, so chunks must not need another
    thread (such as numpy's BLAS threads; no chunk calls BLAS).
    """
    queue = _claim_queue(len(chunks))
    pids: dict[int, int] = {}  # the read end of a child's result pipe -> its pid
    try:
        for _ in range(workers):
            claim = os.read(queue, 4)  # the child's first chunk
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(kind, chunks, state, claim, queue, w, list(pids))
            pids[r] = pid
            os.close(w)
        parts: dict[int, list[Solution]] = {}
        done = 0
        while done < len(chunks) or pids:
            claim = os.read(queue, 4)
            if claim:
                i = int.from_bytes(claim, "little")
                parts[i] = _search_chunk(kind, chunks[i], state)
            elif not pids:
                raise SearchWorkerError(f"a search worker process died: chunk {done} is missing")
            _receive(pids, parts, 0 if claim else None)
            while done in parts:
                yield parts.pop(done)
                done += 1
    finally:
        os.close(queue)
        if pids:
            import signal  # only here, to stop what an error left running

            for r, pid in pids.items():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(r)


def _claim_queue(count: int) -> int:
    """The read end of a pipe holding the chunk numbers 0..count-1, 4 B each.

    A 4-byte read claims the next chunk, and b"" means none is left: the
    write end is closed here.  The queue is written whole before any
    process reads it, and at most _MAX_JOBS processes plan at most
    _CHUNKS_PER_JOB chunks each, 64 KiB.  The write does not block: a pipe
    too small for the queue raises BlockingIOError.
    """
    r, w = os.pipe()
    os.set_blocking(w, False)
    data = np.arange(count, dtype="<u4").tobytes()
    try:
        written = os.write(w, data)
    finally:
        os.close(w)
    if written < len(data):
        os.close(r)
        raise BlockingIOError(f"the claim queue of {count} chunks does not fit a pipe")
    return r


def _child(
    kind: TupleKind, chunks: list, state: dict, claim: bytes, queue: int, out: int, inherited: list
) -> NoReturn:
    """A forked child's life: run the chunk claimed for it and then every
    chunk it claims from the queue, each through _run_chunk; exit 0, or
    non-zero on any failure, without unwinding into the parent's stack."""
    status = 1
    try:
        _init_worker(inherited)
        while claim:
            i = int.from_bytes(claim, "little")
            _run_chunk(kind, i, chunks[i], state, out)
            claim = os.read(queue, 4)
        status = 0
    finally:
        os._exit(status)


def _init_worker(inherited: list[int]) -> None:
    """A child's first call: close the result pipes of the children forked
    before it, which it inherited and has no use for."""
    for fd in inherited:
        os.close(fd)


def _run_chunk(kind: TupleKind, i: int, chunk: tuple, state: dict, out: int) -> None:
    """Search chunk i and send (i, solutions), or (i, exception) if the
    search raised one, up the pipe out: a pickle after its 8-byte length."""
    try:
        part = _search_chunk(kind, chunk, state)
    except Exception as exc:  # raised again in the parent
        part = exc
    data = pickle.dumps((i, part), pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(out, view) :]


def _receive(pids: dict[int, int], parts: dict, timeout: float | None) -> None:
    """Put every message the children have sent into parts, waiting up to
    timeout (None: without limit) for the first; a message that carries
    an exception raises it.  A child whose pipe ends has exited: it is
    reaped and dropped from pids, and raises SearchWorkerError if its exit
    status is not 0."""
    import select  # only a pool search loads it

    while pids:
        ready, _, _ = select.select(list(pids), [], [], timeout)
        if not ready:
            return
        for r in ready:
            head = _read_exact(r, 8)
            size = int.from_bytes(head, "little")
            body = _read_exact(r, size)
            if len(head) == 8 and len(body) == size:
                i, part = pickle.loads(body)
                if isinstance(part, Exception):
                    raise part
                parts[i] = part
                continue
            pid = pids.pop(r)
            os.close(r)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status:
                raise SearchWorkerError(f"a search worker process died with exit status {status}")
        timeout = 0


def _read_exact(fd: int, n: int) -> bytes:
    """n bytes from fd, fewer only where it ends first."""
    data = b""
    while len(data) < n and (more := os.read(fd, n - len(data))):
        data += more
    return data


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
    if config.bound > ORACLE_MAX_BOUND:
        raise InputError(f"oracle bound capped at {ORACLE_MAX_BOUND}")
    kind, N = config.kind, config.bound
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
    # general fallback: peel the smallest entry and recurse
    b = 1
    while f * pw[b] <= residual:
        for rest in _oracle_free_part(residual - pw[b], f - 1, pw, root_of):
            if rest[0] >= b:
                out.append((b,) + rest)
        b += 1
    return out
