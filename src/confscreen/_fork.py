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
split.  Every child has been reaped when ``forked`` returns or raises.
"""

from __future__ import annotations

import contextlib
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


def read_exactly(fd: int, buffer) -> bool:
    """Fill ``buffer`` from ``fd``; False where the file ends first."""
    view = memoryview(buffer).cast("B")
    while view:
        got = os.readv(fd, [view])
        if got == 0:
            return False
        view = view[got:]
    return True


def _taken(fd: int):
    """The tokens that this process takes from the task pipe ``fd``, until it is empty.

    One os.read of 4 bytes each, on the raw fd: a buffered file would read
    ahead and hold tokens that another process is waiting for.
    """
    while token := os.read(fd, 4):
        yield int.from_bytes(token, "little")


@contextlib.contextmanager
def forked(tokens: int, children: int, send):
    """Hand the tokens 0 .. ``tokens`` - 1 out to this process and ``children`` forked ones; yield the parent's tokens and the read ends of the children's pipes.

    The parent takes the first token before it forks, so that it does at
    least one piece, and its others by iterating over the first thing
    yielded; a child takes its tokens by iterating over the one that
    ``send`` is passed.  A child turns warnings into errors, writes the
    buffers that ``send(tokens)`` returns to its pipe (nothing where it
    returns None or raises) and leaves by os._exit.  Where os.fork is
    missing or fails (out of processes or memory), fewer children are
    forked, or none, and the parent takes the tokens they would have taken.
    On exit each child is killed, if it still runs, and reaped: a child that
    the caller has read to the end has nothing left to do, and one that it
    has not must not outlive it.
    """
    global _splitting
    read_tasks, write_tasks = os.pipe()
    outer, _splitting = _splitting, True
    pipes = []  # (pid, read end of its pipe)
    try:
        try:
            _write_all(write_tasks, b"".join(token.to_bytes(4, "little") for token in range(tokens)))
        finally:
            # Closed before any fork, so that a read of the empty pipe ends.
            os.close(write_tasks)
        first = os.read(read_tasks, 4)
        for _ in range(children if hasattr(os, "fork") else 0):
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
                    buffers = send(_taken(read_tasks))
                    if buffers is not None:
                        for buffer in buffers:
                            _write_all(write_end, buffer)
                        status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            pipes.append((pid, read_end))
        mine = itertools.chain([int.from_bytes(first, "little")], _taken(read_tasks))
        yield mine, [read_end for _, read_end in pipes]
    finally:
        _splitting = outer
        os.close(read_tasks)
        for pid, read_end in pipes:
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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


def _pickled(obj) -> list[bytes]:
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    return [len(data).to_bytes(8, "little"), data]


def _unpickled(fd: int):
    """The object a child sent with _pickled, or None where it sent less."""
    head = bytearray(8)
    if not read_exactly(fd, head):
        return None
    data = bytearray(int.from_bytes(head, "little"))
    return pickle.loads(data) if read_exactly(fd, data) else None


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
    items go out one token at a time in runs cut by their ``weights``
    (_runs).  Each process maps its items with warnings as errors, and a
    child pickles its (index, result) pairs through its pipe.  The parent
    then maps in item order, itself and under the caller's warning filters,
    every item that no process returned (it raised or warned, or its child
    sent less), so that the results, and any error or warning, are those of
    the one-process map.
    """
    workers = min(usable_cpus(), sum(weights) // min_weight, len(items))
    if workers < 2:
        return [fn(item) for item in items]
    runs = _runs(weights)
    with forked(len(runs), workers - 1, lambda tokens: _pickled(_mapped(fn, items, runs, tokens))) as (tokens, pipes):
        done = dict(_mapped(fn, items, runs, tokens))
        for pipe in pipes:
            done.update(_unpickled(pipe) or ())
    return [done[i] if i in done else fn(item) for i, item in enumerate(items)]
