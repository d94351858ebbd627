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
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, Iterator, Sequence

import numpy as np

from .arith import (
    _INT64_MAX,
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
            raise ValueError("bound must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        safe = max_safe_bound(self.kind.power)
        if self.bound > safe:
            raise ValueError(
                f"bound {self.bound} unsafe for power {self.kind.power}; "
                f"maximum safe bound is {safe}"
            )


class SearchWorkerError(RuntimeError):
    """A process-pool worker of a search died before returning its chunk."""


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
        raise ValueError(f"bound must be in 1..{sieve.limit}")
    classes: dict[int, list[int]] = {}
    for n, v in enumerate(sieve.psi[1 : bound + 1].tolist(), start=1):
        classes.setdefault(v, []).append(n)
    return PsiClassIndex(bound=bound, classes=classes)


# --- sum-of-k-th-powers decomposition ------------------------------------


class _PairSumTable:
    """All sums x**p + y**p with 1 <= x <= y <= cap, sorted, with (x, y).

    int64 throughout; only built when 4 * cap**p fits, so sums and the
    residuals probed against them cannot overflow.
    """

    __slots__ = ("power", "cap", "sums", "xs", "ys")

    def __init__(self, power: int, cap: int):
        self.power = power
        self.cap = cap
        pw = np.arange(cap + 1, dtype=np.int64) ** power
        counts = np.arange(cap, 0, -1)
        xs = np.repeat(np.arange(1, cap + 1, dtype=np.int32), counts)
        # y steps by 1 inside the run of each x and drops from cap to x + 1
        # where the run of x + 1 starts
        ys = np.ones(xs.size, dtype=np.int32)
        ys[np.cumsum(counts[:-1])] = np.arange(2 - cap, 1, dtype=np.int32)
        np.cumsum(ys, out=ys)
        sums = pw[xs]
        sums += pw[ys]
        order = np.argsort(sums, kind="stable")
        self.sums = sums[order]
        del sums  # drop each unsorted array once its sorted copy exists
        self.xs = xs[order]
        del xs
        self.ys = ys[order]

    @staticmethod
    def feasible(power: int, cap: int) -> bool:
        # int64 headroom plus a memory guard on the pair count
        return cap >= 2 and 4 * cap**power < 2**63 and cap * (cap + 1) // 2 <= 300_000_000


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
    x**p + y**p, so the head pairs (b1, b2) are the table prefix with sum
    <= residual // 2 and the tail pairs (x, y) the slice with sum >=
    residual - residual // 2 (the two overlap when residual is twice a pair
    sum).  The needles residual - head sums, reversed, are already
    ascending, so one searchsorted into the tail slice finds every match;
    the b2 <= x junction keeps each canonical 4-tuple unique.
    """
    out: list[tuple[int, ...]] = []
    sums, xs, ys = table.sums, table.xs, table.ys
    half = int(np.searchsorted(sums, residual // 2, side="right"))
    t_lo = int(np.searchsorted(sums, residual - residual // 2, side="left"))
    t_hi = int(np.searchsorted(sums, residual - 2, side="right"))
    if half == 0 or t_lo >= t_hi:
        return out
    tail = sums[t_lo:t_hi]
    needles = residual - sums[half - 1 :: -1]
    idx = np.searchsorted(tail, needles, side="left")
    hits = np.flatnonzero(tail[np.minimum(idx, tail.size - 1)] == needles)
    for k in hits.tolist():
        head = half - 1 - k
        b1, b2 = int(xs[head]), int(ys[head])
        want = int(needles[k])
        j = t_lo + int(idx[k])
        while j < t_hi and sums[j] == want:
            x, y = int(xs[j]), int(ys[j])
            if b2 <= x and y <= cap:
                out.append((b1, b2, x, y))
            j += 1
    return out


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
    decompositions join a meet-in-the-middle pair-sum table: the caller's
    pair_table whenever it covers the (reduced) residual, otherwise one
    built here once the prefix enumeration would dominate (recursive
    descent is quartically slower at table scale).
    """
    if power not in (2, 3, 4, 5):
        raise ValueError("power must be in 2..5")
    if count < 1:
        raise ValueError("count must be >= 1")
    if residual < 0:
        raise ValueError("residual must be nonnegative")
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
            return sorted(_mitm4(residual, power, cap, pair_table))
        # without a caller's table, build one only where descent would dominate
        if root * root // 2 > _MITM_PAIR_THRESHOLD and _PairSumTable.feasible(power, table_cap):
            return sorted(_mitm4(residual, power, cap, _PairSumTable(power, table_cap)))
    out: list[tuple[int, ...]] = []
    _descend(residual, count, power, 1, cap, (), out)
    return out


# --- the search proper -----------------------------------------------------


def _needs_pair_table(kind: TupleKind, sieve: PsiSieve, bound: int) -> _PairSumTable | None:
    """Build the shared tail-pair table when the kind can profit from it."""
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
    if root * root // 2 <= _MITM_PAIR_THRESHOLD:
        return None
    if not _PairSumTable.feasible(kind.power, root):
        return None
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


# A pool worker's search state: the parent's, passed to _init_worker.  Under
# fork the worker inherits it with no copy and no rebuild; under spawn or
# forkserver it arrives pickled.
_worker_state: dict = {}


def _init_worker(state: dict) -> None:
    _worker_state.update(state)


def _claim(claims, i: int) -> bool:
    """Take chunk i unless another process of the search has taken it."""
    with claims.get_lock():
        taken, claims[i] = claims[i], 1
    return not taken


def _run_chunk(payload: tuple) -> list[Solution] | None:
    kind, i, chunk = payload
    if _claim(_worker_state["claims"], i):
        return _search_chunk(kind, chunk, _worker_state)
    return None  # the parent took the chunk


def search(
    config: SearchConfig,
    sieve: PsiSieve | None = None,
    progress: Callable[[int, int, list[Solution]], None] | None = None,
) -> list[Solution]:
    """All canonical solutions of config.kind with equal-class max <= bound.

    Deterministic for any jobs value: the outer space is split into fixed
    contiguous chunks, each chunk runs the same code in this process or in
    a pool worker, and the merged list is sorted canonically.  This process
    builds the search state once and is one of the jobs processes (at most
    the usable CPUs): it starts jobs - 1 workers (fewer if the chunks are
    fewer), which inherit that state.  progress (if given) is called with
    (chunk_index, chunk_count, chunk_solutions) in chunk order, once a
    chunk and all before it are done.  A dead worker raises
    SearchWorkerError.
    """
    kind, bound = config.kind, config.bound
    if sieve is None or sieve.limit < bound:
        sieve = build_sieve(bound)
    state = _search_state(kind, sieve, bound)
    state["table"] = _needs_pair_table(kind, sieve, bound)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = min(config.jobs, cpus or 1)
    chunks = _plan_chunks(bound, state, jobs)
    workers = min(jobs, len(chunks)) - 1
    if workers > 0:
        parts = _pool_parts(kind, chunks, state, workers)
    else:
        parts = (_search_chunk(kind, c, state) for c in chunks)
    results: list[Solution] = []
    for i, part in enumerate(parts):
        if progress is not None:
            progress(i, len(chunks), part)
        results.extend(part)
    return sort_solutions(results)


def _pool_parts(kind: TupleKind, chunks: list, state: dict, workers: int) -> Iterator[list]:
    """Every chunk's solutions in chunk order, from the pool and this process.

    Workers take chunks from the front, this process from the back until
    it meets one a worker has claimed; between its own chunks it yields the
    finished prefix.  Claims sit in a shared array, not in Future.cancel:
    on Python 3.11 a pool that breaks with cancelled futures still queued
    crashes its manager thread and leaves the other workers running.
    """
    import multiprocessing  # here, so that serial searches never load the pool
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    claims = multiprocessing.Array("b", len(chunks))
    own, done = {}, 0
    try:
        with ProcessPoolExecutor(
            workers, initializer=_init_worker, initargs=(state | {"claims": claims},)
        ) as pool:
            futures = [pool.submit(_run_chunk, (kind, i, c)) for i, c in enumerate(chunks)]
            for i in reversed(range(len(chunks))):
                if not _claim(claims, i):
                    break
                own[i] = _search_chunk(kind, chunks[i], state)
                while done < i and futures[done].done():
                    yield futures[done].result()
                    done += 1
            for i in range(done, len(chunks)):
                part = futures[i].result()  # for own chunks too, so a dead worker shows
                yield own[i] if i in own else part
    except BrokenProcessPool as exc:
        raise SearchWorkerError(f"a search worker process died: {exc}") from exc


def _chunk_len(total: int, jobs: int) -> int:
    if jobs <= 1:
        return max(total, 1)
    # many small chunks per worker: per-entry cost grows steeply with a, so
    # coarse contiguous chunks would leave the pool idle on the cheap ones
    return max(1, -(-total // (jobs * 16)))


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
        raise ValueError(f"oracle bound capped at {ORACLE_MAX_BOUND}")
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
