"""Work split among forked child processes: the CSV parse, the screen, the replicates and the CSV write.

A caller cuts its work into numbered pieces.  The numbers go to a task pipe
as tokens before the fork, and the parent and each forked child then take
one token at a time, do that piece and take the next, until the pipe is
empty: a process on a faster or idler CPU takes more pieces, and no fixed
share waits on the slowest one.  A child keeps what it made and sends it
through a pipe of its own once the task pipe is empty.  Any irregularity (no
os.fork, a fork that fails, a piece that raises or warns, a child that sends
less than it should) leaves work to the parent, which does it in one
process, so results, errors and warnings are those of a run that never
split.  Every child has been reaped when ``map_split`` returns or raises.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
import warnings

# True in a forked child, and in its parent while the children run: the CPUs
# are taken, so a split inside a split (the screen of a replicate that a
# split hands out) runs in one process.  It describes the process, not a caller.
_splitting = False

# The most tokens one split hands out.  At 4 bytes a token they fill 4 KiB,
# no more than PIPE_BUF, so their one write to the empty task pipe never
# blocks, and it is made before the first fork.
MOST_TOKENS = 1024


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask), or 1 inside a split."""
    if _splitting or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _write_all(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view) :]


def _taken(fd: int):
    """The tokens that this process takes from the task pipe ``fd``, until it is empty.

    One os.read of 4 bytes each, on the raw fd: a buffered file would read
    ahead and hold tokens that another process is waiting for.
    """
    while token := os.read(fd, 4):
        yield int.from_bytes(token, "little")


def _runs(weights: list) -> list[tuple[int, int]]:
    """Contiguous (lo, hi) runs of the items, at most MOST_TOKENS, cut where the weights' running sum passes a MOST_TOKENS-th of their total.

    An item weighing that share or more ends a run, so each item is a run of
    its own where no item weighs less.
    """
    total = sum(weights)
    bounds, acc = [0], 0
    for i, weight in enumerate(weights[:-1], 1):
        acc += weight
        if len(bounds) < MOST_TOKENS and acc * MOST_TOKENS >= total * len(bounds):
            bounds.append(i)
    return list(zip(bounds, bounds[1:] + [len(weights)]))


def _read(fd: int, size: int) -> bytearray | None:
    """``size`` bytes from ``fd``, or None where the file ends first."""
    buffer = bytearray(size)
    view = memoryview(buffer)
    while view:
        got = os.readv(fd, [view])
        if got == 0:
            return None
        view = view[got:]
    return buffer


def _unpickled(fd: int):
    """The object a child pickled to ``fd`` behind its 8-byte length, or None where it sent less."""
    head = _read(fd, 8)
    data = head and _read(fd, int.from_bytes(head, "little"))
    return None if data is None else pickle.loads(data)


def _mapped(fn, items: list, runs: list, tokens) -> list:
    """(i, fn(items[i])) for each item in the runs that ``tokens`` name, with warnings as errors.

    An item that raises or warns is left out: the parent redoes it under
    the caller's warning filters, where it raises or warns as in one process.
    """
    done = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for token in tokens:
            for i in range(*runs[token]):
                try:
                    done.append((i, fn(items[i])))
                except Exception:
                    pass
    return done


def map_split(fn, items: list, weights: list, min_weight: int) -> list:
    """``[fn(item) for item in items]``, the items handed out among this process and forked children.

    The work is split among min(usable CPUs, total weight // min_weight,
    items) processes, so that work under 2 * min_weight stays in one.  The
    items go out in runs cut by their ``weights`` (_runs), one token per
    run: the parent writes every token to the task pipe and takes the first
    before it forks, so that it maps at least one run.  Each process maps
    its items with warnings as errors (_mapped), and a child pickles its
    (index, result) pairs through a pipe of its own and leaves by os._exit.
    Where os.fork is missing or fails (out of processes or memory), fewer
    children are forked, or none, and the parent takes the tokens they would
    have taken.  Once it has read every child's pipe, each child is killed,
    if it still runs, and reaped, also where the parent raises.  The parent
    then maps in item order, itself and under the caller's warning filters,
    every item that no process returned (it raised or warned, or its child
    sent less), so that the results, and any error or warning, are those of
    the one-process map.
    """
    global _splitting
    workers = min(usable_cpus(), sum(weights) // min_weight, len(items))
    if workers < 2:
        return [fn(item) for item in items]
    runs = _runs(weights)
    read_tasks, write_tasks = os.pipe()
    outer, _splitting = _splitting, True
    pipes = []  # (pid, read end of its pipe)
    try:
        try:
            _write_all(write_tasks, b"".join(token.to_bytes(4, "little") for token in range(len(runs))))
        finally:
            # Closed before any fork, so that a read of the empty pipe ends.
            os.close(write_tasks)
        first = os.read(read_tasks, 4)
        for _ in range(workers - 1 if hasattr(os, "fork") else 0):
            read_end, write_end = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns that fork() in a process with threads may
                    # deadlock the child, which inherits any lock another thread
                    # held.  The only other threads here are OpenBLAS's: its
                    # pthread_atfork handler joins them before the fork (numpy
                    # 2.4's OpenBLAS, with 2 BLAS threads: 2 threads before, 1 in
                    # parent and child after), and the next BLAS call of either
                    # process starts them again.  Python resets its own locks in
                    # the child; the child flushes no stdio and leaves by os._exit.
                    warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                break
            if pid == 0:
                status = 1
                try:
                    os.close(read_end)
                    for _, other in pipes:
                        os.close(other)
                    warnings.simplefilter("error")
                    data = pickle.dumps(_mapped(fn, items, runs, _taken(read_tasks)), pickle.HIGHEST_PROTOCOL)
                    _write_all(write_end, len(data).to_bytes(8, "little"))
                    _write_all(write_end, data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            pipes.append((pid, read_end))
        mine = itertools.chain([int.from_bytes(first, "little")], _taken(read_tasks))
        done = dict(_mapped(fn, items, runs, mine))
        for _, read_end in pipes:
            done.update(_unpickled(read_end) or ())
    finally:
        _splitting = outer
        os.close(read_tasks)
        for pid, read_end in pipes:
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [done[i] if i in done else fn(item) for i, item in enumerate(items)]
