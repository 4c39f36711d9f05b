"""Work split among forked child processes: the CSV parse, the screen, the replicates and the CSV write.

A caller cuts its work into contiguous slices, one per usable CPU, does the
first slice itself and has a forked child do each other one.  A child sends
what it made through a pipe.  Any irregularity (no os.fork, a fork that
fails, a child that raises, warns or sends less than it should) leaves the
work to the parent, which does it in one process, so results, errors and
warnings are those of a run that never split.  Every child has been reaped
when ``forked`` returns or raises.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import warnings

# True in a forked child, and in its parent while the children run: the CPUs
# are taken, so a split inside a split (a screen inside a slice of
# replicates) runs in one process.  It describes the process, not a caller.
_splitting = False


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


@contextlib.contextmanager
def forked(slices: list, send):
    """Fork a child for each of ``slices`` but the first; yield the read ends of their pipes in order, or None.

    A child turns warnings into errors, writes the buffers that
    ``send(slice)`` returns to its pipe (nothing where it returns None or
    raises) and leaves by os._exit.  None is yielded where os.fork is
    missing or fails (out of processes or memory); the caller then does all
    the work itself.  On exit each child is killed, if it still runs, and
    reaped: a child that the caller has read to the end has nothing left to
    do, and one that it has not must not outlive it.
    """
    global _splitting
    if not hasattr(os, "fork"):
        yield None
        return
    outer, _splitting = _splitting, True
    children = []  # (pid, read end of its pipe)
    try:
        for part in slices[1:]:
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
                    for _, other in children:
                        os.close(other)
                    warnings.simplefilter("error")
                    buffers = send(part)
                    if buffers is not None:
                        for buffer in buffers:
                            _write_all(write_end, buffer)
                        status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            children.append((pid, read_end))
        yield [read_end for _, read_end in children] if len(children) == len(slices) - 1 else None
    finally:
        _splitting = outer
        for pid, read_end in children:
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _cuts(weights: list, min_weight: int) -> list[tuple[int, int]]:
    """Contiguous (lo, hi) ranges of ``weights``, one per usable CPU, each near an equal share of their sum.

    Fewer ranges where a share would weigh less than ``min_weight``, so that
    work under 2 * min_weight stays in one range.
    """
    total = sum(weights)
    parts = min(usable_cpus(), total // min_weight, len(weights))
    bounds, acc = [0], 0
    for i, weight in enumerate(weights[:-1], 1):
        acc += weight
        if len(bounds) < parts and acc * parts >= total * len(bounds):
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


def map_split(fn, items: list, weights: list, min_weight: int) -> list:
    """``[fn(item) for item in items]``, every slice of ``items`` but the first mapped by a forked child.

    The items are cut by their ``weights`` (_cuts).  A child pickles its
    slice's results through its pipe.  The parent maps the first slice, then
    maps in order, itself, each slice whose child sent less (it raised or
    warned), so that the results, and any error or warning, are those of the
    one-process map.
    """
    slices = [items[lo:hi] for lo, hi in _cuts(weights, min_weight)]
    if len(slices) < 2:
        return [fn(item) for item in items]
    results = [None] * len(slices)
    with forked(slices, lambda part: _pickled([fn(item) for item in part])) as pipes:
        if pipes is not None:
            results[0] = [fn(item) for item in slices[0]]
            results[1:] = [_unpickled(pipe) for pipe in pipes]
    return [
        result
        for part, done in zip(slices, results)
        for result in (done if done is not None else [fn(item) for item in part])
    ]
