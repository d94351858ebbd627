"""The process pool of a search: os.fork, chunks dealt round-robin, one
pipe per child.

_pool_parts(run, count, workers) runs run(i) for every chunk i, in chunk
order, from this process and `workers` forked children, and a serial
search is the same pool with no children.  A child that dies, or sends
a chunk it was not dealt, raises SearchWorkerError here.  This module
imports no psituples module, so any chunk function can run through it.
"""

from __future__ import annotations

import os
import pickle
from typing import BinaryIO, Callable, Iterator, NoReturn

__all__ = ["SearchWorkerError"]


class SearchWorkerError(RuntimeError):
    """A forked child of a search exited non-zero, or without sending back
    a chunk dealt to it."""


# The most processes of a pool: this process holds one result pipe per
# child, and must stay well inside the common default limit of 1024 open
# descriptors.
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
