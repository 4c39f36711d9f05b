"""The handout of forked work (_fork.map_split), on its own, at patched CPU counts."""

import os
import select
import signal
import warnings

import pytest

from confscreen import _fork


def _wait(fd: int) -> None:
    """Read one byte that another process writes to ``fd``, within 30 s."""
    assert select.select([fd], [], [], 30)[0], "no signal within 30 s"
    os.read(fd, 1)


@pytest.fixture
def signals():
    """Two pipes, (read end, write end) each, that the test's processes signal each other through."""
    pipes = [os.pipe(), os.pipe()]
    yield pipes
    for fd in (fd for pipe in pipes for fd in pipe):
        os.close(fd)


def test_slowed_child_leaves_the_remaining_items_to_the_parent(split_on, signals):
    # The parent holds item 0 until the child has taken item 1, and the
    # child holds item 1 until the parent has done item 7: the parent takes
    # every item but the child's, and the results are those of one process.
    forks = split_on(2)
    (started, start), (done, finish) = signals
    parent, in_parent = os.getpid(), []

    def slowed(i):
        if os.getpid() != parent:
            os.write(start, b"1")
            _wait(done)
        else:
            in_parent.append(i)
            if i == 0:
                _wait(started)
            if i == 7:
                os.write(finish, b"1")
        return i * i

    items = list(range(8))
    assert _fork.map_split(slowed, items, [1] * len(items), 1) == [i * i for i in items]
    assert len(forks) == 1 and in_parent == [0, 2, 3, 4, 5, 6, 7]


def test_warnings_come_in_one_process_order(split_on, signals):
    # As above with four items: item 1 warns in the child, and item 3, done
    # earlier, in the parent.  Neither warning leaves its process: the
    # parent redoes both items in item order, under the caller's filters,
    # and so warns as one process would.
    forks = split_on(2)
    (started, start), (done, finish) = signals
    parent, in_parent = os.getpid(), []

    def warns(i):
        if os.getpid() != parent:
            os.write(start, b"1")
            _wait(done)
        else:
            in_parent.append(i)
            if i == 0:
                _wait(started)
            if i == 3:
                os.write(finish, b"1")
        if i in (1, 3):
            warnings.warn(f"item {i} warns", RuntimeWarning)
        return -i

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = _fork.map_split(warns, list(range(4)), [1] * 4, 1)
    assert results == [0, -1, -2, -3] and len(forks) == 1
    assert [str(w.message) for w in caught] == ["item 1 warns", "item 3 warns"]
    assert in_parent == [0, 2, 3, 1, 3]


class _Hang(BaseException):
    """Raised by the alarm; a BaseException, so that no per-item handler catches it."""


def test_many_items_come_back_in_order(split_on):
    # 20,000 items are handed out in MOST_TOKENS runs, whose tokens fill the
    # task pipe in one write that cannot block.
    items = list(range(20_000))
    assert len(_fork._runs([1] * len(items))) == _fork.MOST_TOKENS
    forks = split_on(2)

    def hang(signum, frame):
        raise _Hang

    handler = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    try:
        assert _fork.map_split(lambda i: 3 * i, items, [1] * len(items), 1) == [3 * i for i in items]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert len(forks) == 1


@pytest.mark.parametrize(
    "weights, runs",
    [
        ([1] * 5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
        ([5000, 1, 1, 1], [(0, 1), (1, 2), (2, 3), (3, 4)]),
        ([1, 1, 1, 5000], [(0, 4)]),
        ([1] * 2048 + [2048], [(4 * k, 4 * k + 4) for k in range(512)] + [(2048, 2049)]),
    ],
    ids=["an-item-a-run", "heavy-before-light", "lighter-than-a-share-before-heavy", "more-items-than-tokens"],
)
def test_runs_cut_by_weight(weights, runs):
    assert _fork._runs(weights) == runs
